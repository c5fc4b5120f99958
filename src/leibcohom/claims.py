"""The claims ``verify-paper`` checks, one row of :data:`CLAIMS` each.

A row names the claim, the stage (a per-layer metric of the benchmark)
that computes its value, the paper's statement, and the expected and
computed values as functions of a :class:`_Member`, the family member
sl2 + V_m with the values that several claims share. ``leibcohom.cli``
imports this module only when verify-paper runs, so the per-file
commands compile none of it; it loads every layer and never imports
``leibcohom.cli``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .algebra import (
    check_bimodule_axioms,
    check_grading,
    leibniz_defects,
    squares_ideal,
    symmetric_bimodule,
)
from .catalog import irreducible_sl2_module, simple_leibniz_sl2, sl2
from .cochain import coboundary_matrix
from .cohomology import AdjointCohomology, _annihilates, leibniz_h_with_coefficients, lie_ce_h
from .derivations import (
    cochain_to_matrix,
    decompose_derivation,
    delta_generator,
    derivation_space,
)
from .linalg import Subspace, _echelon, _integer_row, subspace_equal


class _Member:
    """The family member sl2 + V_m, with the values that several claims
    share, each computed on first use."""

    def __init__(self, m: int):
        self.m = m
        self.algebra, self.grading = simple_leibniz_sl2(m)
        self.coh = AdjointCohomology(self.algebra, self.grading)
        self.lie = sl2()
        self.module = irreducible_sl2_module(m)

    @cached_property
    def squares(self):
        return squares_ideal(self.algebra)

    @cached_property
    def der(self):
        return derivation_space(self.algebra)

    @cached_property
    def gi_minus1(self):
        return self.coh.block_analysis(-1, ("G", "I"))

    @cached_property
    def module_defects(self):
        """The bimodule axiom defects of (sl2, V_m), found once per m: the
        module_axioms claim counts them, and the CE and zero-left HL values
        below refuse a failing V_m on them, with the ValueError the Lie
        functions raise, before any rank. V_m has zero left action, so it
        is also the bimodule that lie_ce_h checks."""
        return check_bimodule_axioms(self.lie, self.module)

    def der_is_ker_d1(self) -> bool:
        """Whether Der = ker d^1 on the full d^1, which is built apart
        from the engine's blocks and holds int entries for the family: d^1
        kills each basis derivation, scaled to integers, by the engine's
        kill check (_annihilates), and cols - rank d^1 = dim Der, so Der
        is the kernel without a second kernel computed. The rank counts
        the pivots of one _echelon of the integer columns in natural
        coordinate order, as the engine ranks its blocks."""
        d1 = coboundary_matrix(self.algebra, self.coh.module, 1)
        ints = [_integer_row(vec) for vec in self.der.basis]
        columns = [_integer_row(col) for col in d1.columns.values()]
        return (_annihilates(d1.columns, range(d1.cols), ints)
                and d1.cols - len(_echelon(columns)) == self.der.dim)

    def der_decomposes(self) -> bool:
        derivs = [cochain_to_matrix(dict(vec), self.algebra.dim) for vec in self.der.basis]
        decompositions = decompose_derivation(self.algebra, self.grading, derivs)
        return all(dec.is_exact for dec in decompositions)

    def has_delta(self) -> bool:
        return delta_generator(self.algebra, self.grading, self.der) is not None

    # (dim H^1, dim H^2) of CE and of HL with V_m symmetric and zero-left
    @cached_property
    def ce(self):
        return lie_ce_h(self.lie, self.module, _defects=self.module_defects)

    @cached_property
    def hl_symmetric(self):
        return leibniz_h_with_coefficients(self.lie, symmetric_bimodule(self.module))

    @cached_property
    def hl_zero_left(self):
        return leibniz_h_with_coefficients(self.lie, self.module, _defects=self.module_defects)


# a computed value that marks its claim as skipped
_SKIPPED = object()
# the claim evaluated only under --deep
_DEEP_ONLY = "d3d2_zero"

# (id, stage, anchor, expected(member), computed(member)), in report order.
# The stage names the layer of BENCHMARK.json's per-layer metrics that
# produces the computed value. Every row looks its functions up when it
# runs, never at import, so a traced run sees each call.
CLAIMS = (
    ("leibniz_identity", "algebra.check",
     "the right Leibniz identity holds for every basis triple",
     lambda c: 0, lambda c: len(leibniz_defects(c.algebra))),
    ("grading_respected", "algebra.check", "deg [a, b] = deg a + deg b whenever [a, b] is nonzero",
     lambda c: True, lambda c: check_grading(c.algebra, c.grading)),
    ("squares_dim", "algebra.check", "dim span{[u, u] : u in L} = m + 1",
     lambda c: c.m + 1, lambda c: c.squares.dim),
    ("squares_span", "linalg.subspace", "span{[u, u]} equals the span of the degree-1 basis",
     lambda c: True,
     lambda c: subspace_equal(c.squares, Subspace.from_spanning(
         [{k: Fraction(1)} for k in c.grading.parts()[1]], c.algebra.dim))),
    ("module_axioms", "algebra.check",
     "the (m+1)-dimensional module satisfies the Leibniz bimodule axioms",
     lambda c: 0, lambda c: len(c.module_defects)),
    ("d1d0_zero", "cohomology.engine", "d^1 after d^0 is the zero map",
     lambda c: True, lambda c: c.coh.squares_to_zero(0)),
    ("d2d1_zero", "cohomology.engine", "d^2 after d^1 is the zero map",
     lambda c: True, lambda c: c.coh.squares_to_zero(1)),
    ("d3d2_zero", "cohomology.engine", "d^3 after d^2 is the zero map",
     lambda c: True, lambda c: c.coh.squares_to_zero(2) if c.m <= 4 else _SKIPPED),
    ("zl2_total", "cohomology.engine", "dim ZL^2(L, L) = (m+4)^2 - 4 for m != 2, and 31 for m = 2",
     lambda c: 31 if c.m == 2 else (c.m + 4) ** 2 - 4, lambda c: c.coh.zl_dim(2)),
    ("bl2_total", "cohomology.engine", "dim BL^2(L, L) = dim ZL^2(L, L)",
     lambda c: 31 if c.m == 2 else (c.m + 4) ** 2 - 4, lambda c: c.coh.bl_dim(2)),
    ("hl2_zero", "cohomology.engine", "dim HL^2(L, L) = 0",
     lambda c: 0, lambda c: c.coh.hl_dim(2)),
    ("der_dim", "derivations.space", "dim Der(L) = 4 for m != 2, and 5 for m = 2",
     lambda c: 5 if c.m == 2 else 4, lambda c: c.der.dim),
    ("der_equals_zl1", "cochain.assemble", "the derivation space equals the kernel of d^1",
     lambda c: True, lambda c: c.der_is_ker_d1()),
    ("bl2_der_link", "cohomology.engine", "dim BL^2(L, L) = (dim L)^2 - dim Der(L)",
     lambda c: c.algebra.dim ** 2 - c.der.dim, lambda c: c.coh.bl_dim(2)),
    ("der_decomposition", "derivations.decompose",
     "every derivation is a combination of right multiplications by the"
     " degree-0 basis, the ideal projection, and a degree-raising map",
     lambda c: True, lambda c: c.der_decomposes()),
    ("delta_presence", "derivations.delta",
     "a degree-raising derivation exists exactly when m = 2",
     lambda c: c.m == 2, lambda c: c.has_delta()),
    ("zl2_deg_minus2", "cohomology.engine", "dim of the degree -2 cocycle component = 0",
     lambda c: 0, lambda c: c.coh.graded_zl_dim(2, -2)),
    ("zl2_deg_minus1", "cohomology.engine", "dim of the degree -1 cocycle component = 3(m+1)",
     lambda c: 3 * (c.m + 1), lambda c: c.coh.graded_zl_dim(2, -1)),
    ("zl2_deg_zero", "cohomology.engine", "dim of the degree 0 cocycle component = m^2 + 2m + 6",
     lambda c: c.m * c.m + 2 * c.m + 6, lambda c: c.coh.graded_zl_dim(2, 0)),
    ("zl2_deg_plus1", "cohomology.engine",
     "dim of the degree 1 cocycle component = 3(m+1) for m != 2, 8 for m = 2",
     lambda c: 8 if c.m == 2 else 3 * (c.m + 1), lambda c: c.coh.graded_zl_dim(2, 1)),
    ("graded_hl2_zero", "cohomology.engine", "cocycles equal coboundaries in every degree",
     lambda c: True,
     lambda c: all(h == 0 for _, _, h in c.coh.report(2).per_degree.values())),
    ("phi0_GI_projection", "cohomology.engine",
     "degree-0 cocycles vanish identically on the G*I block",
     lambda c: 0, lambda c: c.coh.block_analysis(0, ("G", "I")).projection_dim),
    ("phi0_GG_projection", "cohomology.engine",
     "the G*G projection of the degree-0 cocycles has dimension 6",
     lambda c: 6, lambda c: c.coh.block_analysis(0, ("G", "G")).projection_dim),
    ("phi0_GG_lie_coboundaries", "cohomology.engine",
     "the G*G projection is skew and equals the Lie 2-coboundaries of"
     " the degree-0 subalgebra",
     lambda c: True, lambda c: c.coh.gg_block_is_lie_coboundary()),
    ("phi0_IG_supported", "cohomology.engine",
     "degree-0 cocycles supported on the I*G block form a space of"
     " dimension m^2 + 2m",
     lambda c: c.m * c.m + 2 * c.m,
     lambda c: c.coh.block_analysis(0, ("I", "G")).supported_dim),
    ("zl2_m1_GI_projection", "cohomology.engine",
     "the G*I projection of the degree -1 cocycles has dimension 3(m+1)",
     lambda c: 3 * (c.m + 1), lambda c: c.gi_minus1.projection_dim),
    ("zl2_m1_GI_injective", "cohomology.engine",
     "the degree -1 cocycles project injectively onto the G*I block",
     lambda c: True, lambda c: c.gi_minus1.projection_injective),
    ("zl2_m1_outer_injective", "cohomology.engine",
     "the degree -1 cocycles embed into the G*I and I*G blocks together",
     lambda c: True,
     lambda c: c.coh.block_analysis(-1, (("G", "I"), ("I", "G"))).projection_injective),
    ("whitehead_h1", "cohomology.lie", "dim H^1(sl2, V_m) = 0 in Chevalley-Eilenberg cohomology",
     lambda c: 0, lambda c: c.ce[0]),
    ("whitehead_h2", "cohomology.lie", "dim H^2(sl2, V_m) = 0 in Chevalley-Eilenberg cohomology",
     lambda c: 0, lambda c: c.ce[1]),
    ("pirashvili_hl1", "cohomology.lie",
     "dim HL^1(sl2, V_m) = 0 with the symmetric bimodule structure",
     lambda c: 0, lambda c: c.hl_symmetric[0]),
    ("pirashvili_hl2", "cohomology.lie",
     "dim HL^2(sl2, V_m) = 0 with the symmetric bimodule structure",
     lambda c: 0, lambda c: c.hl_symmetric[1]),
    ("leibniz_hl1_zero_left", "cohomology.lie",
     "dim HL^1(sl2, V_m) with zero left action counts degree-raising"
     " derivations: 1 for m = 2, else 0",
     lambda c: 1 if c.m == 2 else 0, lambda c: c.hl_zero_left[0]),
    ("leibniz_hl2_zero_left", "cohomology.lie", "dim HL^2(sl2, V_m) = 0 with zero left action",
     lambda c: 0, lambda c: c.hl_zero_left[1]),
)

