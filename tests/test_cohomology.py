"""Cohomology dimensions, graded reports, block analyses, and the Lie
comparison theorems."""

import bisect
import itertools
import json
import random
from fractions import Fraction
from math import lcm

import pytest

import leibcohom.cohomology as cohomology
import leibcohom.linalg as linalg
from leibcohom.algebra import (
    AlgebraStructure,
    Bimodule,
    Grading,
    adjoint_bimodule,
    leibniz_defects,
    symmetric_bimodule,
)
from leibcohom.catalog import (
    direct_sum,
    irreducible_sl2_module,
    save_algebra,
    simple_leibniz_sl2,
    sl2,
)
from leibcohom.cochain import (
    _integer_builder,
    coboundary_matrix,
    graded_columns,
    graded_submatrix,
)
from leibcohom.cohomology import (
    AdjointCohomology,
    BlockAnalysis,
    CohomologyReport,
    _ce_complex,
    bl_dim,
    hl_dim,
    leibniz_h_with_coefficients,
    lie_ce_h,
    zl_dim,
)
from leibcohom.cli import STANDARD_BLOCKS, main
from leibcohom.derivations import derivation_space
from leibcohom.linalg import (
    SparseRationalMatrix,
    Subspace,
    _add,
    column_space,
    kernel_basis,
    project,
    restrict_to_coords,
    subspace_equal,
)

F = Fraction

# the 2-dimensional non-abelian Lie algebra, [a, b] = b
R2 = AlgebraStructure(2, ("a", "b"), {(0, 1): {1: F(1)}, (1, 0): {1: F(-1)}})
# the Heisenberg algebra, [x, y] = z
H3 = AlgebraStructure(3, ("x", "y", "z"), {(0, 1): {2: F(1)}, (1, 0): {2: F(-1)}})


def trivial_module(algebra):
    zero = tuple({} for _ in range(algebra.dim))
    return Bimodule(algebra.dim, 1, zero, zero)


def reference_ce_coboundary(algebra, module, n):
    """The Chevalley-Eilenberg coboundary d^n on alternating n-cochains,
    evaluated straight from the CE formula with 0-based signs,

        (d f)(x_0, ..., x_n) = sum_i (-1)^i x_i . f(x_0, ..., ^x_i, ..., x_n)
            + sum_{i<j} (-1)^{i+j} f([x_i, x_j], x_0, ..., ^x_i, ..., ^x_j, ..., x_n)

    with x.m = -[m, x]. Rows and columns are both indexed by increasing
    argument tuples: (i_1 < ... < i_n; k) sits at (position of the tuple
    among the increasing n-tuples) * dim M + k.
    """
    dm = module.module_dim
    cols = {
        args: pos for pos, args in enumerate(itertools.combinations(range(algebra.dim), n))
    }
    rows = list(itertools.combinations(range(algebra.dim), n + 1))
    entries = {}
    for row_pos, xs in enumerate(rows):
        row_base = row_pos * dm
        for i, x in enumerate(xs):
            col_base = cols[xs[:i] + xs[i + 1 :]] * dm
            # (-1)^i x_i . m = (-1)^{i+1} [m, x_i]
            sign = 1 if i % 2 else -1
            for (out, inp), v in module.right_action[x].items():
                _add(entries, (row_base + out, col_base + inp), sign * v)
        for i, j in itertools.combinations(range(n + 1), 2):
            rest = xs[:i] + xs[i + 1 : j] + xs[j + 1 :]
            for t, c in algebra.product(xs[i], xs[j]).items():
                # moving t into its sorted place in rest adds (-1)^pos, and
                # an alternating cochain vanishes on a repeated argument
                pos = bisect.bisect_left(rest, t)
                if pos < len(rest) and rest[pos] == t:
                    continue
                col_base = cols[rest[:pos] + (t,) + rest[pos:]] * dm
                coeff = c if (i + j + pos) % 2 == 0 else -c
                for k in range(dm):
                    _add(entries, (row_base + k, col_base + k), coeff)
    return SparseRationalMatrix(len(rows) * dm, len(cols) * dm, entries)


def _ce_pairs():
    """Lie algebras with right modules, the brackets and actions varied."""
    sum_adjoint = adjoint_bimodule(direct_sum(sl2(), R2))
    return (
        [(f"sl2-V{m}", sl2(), irreducible_sl2_module(m)) for m in range(7)]
        + [
            ("sl2-adjoint", sl2(), adjoint_bimodule(sl2())),
            ("r2-trivial", R2, trivial_module(R2)),
            ("r2-adjoint", R2, adjoint_bimodule(R2)),
            ("h3-trivial", H3, trivial_module(H3)),
            ("h3-adjoint", H3, adjoint_bimodule(H3)),
            ("sl2+r2-adjoint", direct_sum(sl2(), R2), sum_adjoint),
        ]
    )


def _flat(args, dl):
    """Flat index of an argument tuple, lexicographic in base dim L."""
    out = 0
    for x in args:
        out = out * dl + x
    return out


CE_CASES = [
    pytest.param(algebra, module, n, id=f"{name}-d{n}")
    for name, algebra, module in _ce_pairs()
    for n in range(3)
]


class TestTotals:
    @pytest.mark.parametrize("m,total", [(2, 31), (3, 45), (5, 77)])
    def test_family_dimensions(self, m, total):
        algebra, grading = simple_leibniz_sl2(m)
        coh = AdjointCohomology(algebra, grading)
        assert coh.zl_dim(2) == total
        assert coh.bl_dim(2) == total
        assert coh.hl_dim(2) == 0

    def test_formula_for_generic_m(self):
        algebra, grading = simple_leibniz_sl2(6)
        coh = AdjointCohomology(algebra, grading)
        assert coh.zl_dim(2) == (6 + 4) ** 2 - 4

    def test_sl2_adjoint(self):
        algebra = sl2()
        module = adjoint_bimodule(algebra)
        assert hl_dim(algebra, module, 1) == 0
        assert hl_dim(algebra, module, 2) == 0
        # inner derivations: ZL^1 = Der = 3, BL^1 = dim - center = 3
        assert zl_dim(algebra, module, 1) == 3
        assert bl_dim(algebra, module, 1) == 3

    def test_arity_validation(self):
        algebra = sl2()
        module = adjoint_bimodule(algebra)
        with pytest.raises(ValueError):
            bl_dim(algebra, module, 3)
        with pytest.raises(ValueError):
            hl_dim(algebra, module, 0)


class TestGradedReport:
    def test_m2_ladder(self):
        algebra, grading = simple_leibniz_sl2(2)
        report = AdjointCohomology(algebra, grading).report(2)
        assert report.dim_z == report.dim_b == 31
        assert report.dim_h == 0
        assert report.per_degree == {
            -2: (0, 0, 0),
            -1: (9, 9, 0),
            0: (14, 14, 0),
            1: (8, 8, 0),
        }

    def test_m3_ladder(self):
        algebra, grading = simple_leibniz_sl2(3)
        report = AdjointCohomology(algebra, grading).report(2)
        assert report.per_degree == {
            -2: (0, 0, 0),
            -1: (12, 12, 0),
            0: (21, 21, 0),
            1: (12, 12, 0),
        }

    def test_report_validates_consistency(self):
        with pytest.raises(ValueError):
            CohomologyReport(2, 3, 5, -2, {})
        with pytest.raises(ValueError):
            CohomologyReport(2, 3, 3, 0, {0: (2, 1, 0)})

    def test_invalid_grading_rejected(self, monkeypatch):
        # the builder knows no grading, so the constructor's check is the
        # only guard: it must reject before any coboundary builder exists
        def never(*args):
            raise AssertionError("made a coboundary builder for an invalid grading")

        monkeypatch.setattr(cohomology, "_integer_builder", never)
        algebra, _ = simple_leibniz_sl2(2)
        with pytest.raises(ValueError, match="grading"):
            AdjointCohomology(algebra, Grading((0, 0, 0, 1, 1, 2))).zl_dim(2)


class TestBlockAnalyses:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_degree_zero_blocks(self, m):
        algebra, grading = simple_leibniz_sl2(m)
        coh = AdjointCohomology(algebra, grading)
        gi = coh.block_analysis(0, ("G", "I"))
        assert gi.projection_dim == 0
        gg = coh.block_analysis(0, ("G", "G"))
        assert gg.projection_dim == 6
        ig = coh.block_analysis(0, ("I", "G"))
        assert ig.supported_dim == m * m + 2 * m

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_degree_minus_one_blocks(self, m):
        algebra, grading = simple_leibniz_sl2(m)
        coh = AdjointCohomology(algebra, grading)
        gi = coh.block_analysis(-1, ("G", "I"))
        assert gi.projection_dim == 3 * (m + 1)
        assert gi.projection_injective
        union = coh.block_analysis(-1, (("G", "I"), ("I", "G")))
        assert union.projection_injective

    def test_block_invariants(self):
        algebra, grading = simple_leibniz_sl2(3)
        coh = AdjointCohomology(algebra, grading)
        analysis = coh.block_analysis(0, ("I", "G"))
        assert isinstance(analysis, BlockAnalysis)
        assert analysis.supported_dim <= analysis.projection_dim
        assert analysis.blocks == (("I", "G"),)

    def test_bad_tags_rejected(self):
        algebra, grading = simple_leibniz_sl2(2)
        coh = AdjointCohomology(algebra, grading)
        with pytest.raises(ValueError):
            coh.block_analysis(0, ("G", "Q"))
        with pytest.raises(ValueError):
            coh.block_analysis(0, ())

    def test_unreachable_target_rejected(self):
        algebra, grading = simple_leibniz_sl2(2)
        coh = AdjointCohomology(algebra, grading)
        # degree 0 with two degree-1 arguments needs a degree-2 target
        with pytest.raises(ValueError, match="target"):
            coh.block_analysis(0, ("I", "I"))

    def test_empty_argument_class_rejected(self):
        # the family graded all 0: I is empty, so every block with an I
        # argument holds no cochain, though each has degree-0 targets
        algebra, _ = simple_leibniz_sl2(3)
        coh = AdjointCohomology(algebra, Grading((0,) * algebra.dim))
        for degree, pairs in ((-1, ("G", "I")), (-1, ("I", "G")),
                              (-1, (("G", "I"), ("I", "G"))), (-2, ("I", "I"))):
            with pytest.raises(ValueError, match="target"):
                coh.block_analysis(degree, pairs)
        assert coh.block_analysis(0, ("G", "G")) == BlockAnalysis(0, (("G", "G"),), 45, 45, True)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_gg_block_is_lie_coboundary(self, m):
        algebra, grading = simple_leibniz_sl2(m)
        assert AdjointCohomology(algebra, grading).gg_block_is_lie_coboundary()

    def test_gg_projection_is_skew(self, zl_basis):
        algebra, grading = simple_leibniz_sl2(2)
        coh = AdjointCohomology(algebra, grading)
        from leibcohom.linalg import project

        coords = coh.block_coords(0, (("G", "G"),))
        projected = project(zl_basis(coh, 0), coords)
        assert projected.dim == 6
        for vec in projected.basis:
            for p, v in vec.items():
                rest, c = divmod(p, 3)
                a, b = divmod(rest, 3)
                swapped = (b * 3 + a) * 3 + c
                assert vec.get(swapped, F(0)) == -v


def ce_rows(algebra, module, n):
    """The columns of _ce_complex's d^n as rows, {Leibniz row: {CE column:
    value}}, divided by the scale back to the entries of the CE d^n: the
    least common denominator of the structure constants and of the
    actions of the symmetric bimodule."""
    sym = symmetric_bimodule(module)
    values = (*algebra.tensor.values(), *sym.left_action, *sym.right_action)
    scale = lcm(*(v.denominator for vec in values for v in vec.values()))
    columns = _ce_complex(algebra, module)[n]
    rows = {}
    for c, col in columns.items():
        assert all(type(v) is int for v in col.values())
        for r, v in col.items():
            rows.setdefault(r, {})[c] = F(v, scale)
    return rows


class TestLieCohomology:
    @pytest.mark.parametrize("m", range(0, 7))
    def test_whitehead_for_irreducibles(self, m):
        module = irreducible_sl2_module(m)
        assert lie_ce_h(sl2(), module) == (0, 0)

    def test_whitehead_adjoint(self):
        module = adjoint_bimodule(sl2())
        assert lie_ce_h(sl2(), module) == (0, 0)

    def test_abelian_with_trivial_coefficients(self):
        # for an abelian Lie algebra and trivial module the differentials
        # vanish, so H^n is the whole cochain space
        two = AlgebraStructure(2, ("a", "b"), {})
        trivial = Bimodule(2, 1, ({}, {}), ({}, {}))
        assert lie_ce_h(two, trivial) == (2, 1)

    @pytest.mark.parametrize(
        "algebra,module,expected",
        [
            # Betti numbers 1, 1, 0
            (R2, trivial_module(R2), (1, 0)),
            # r2 is complete: no outer derivations, no deformations
            (R2, adjoint_bimodule(R2), (0, 0)),
            # Betti numbers 1, 2, 2, 1
            (H3, trivial_module(H3), (2, 2)),
            # H^1 = dim Der - dim ad = 6 - 2; H^2 from the Euler
            # characteristic 0 and Poincare duality H^3 = H_0 = h3 / [h3, h3]
            (H3, adjoint_bimodule(H3), (4, 5)),
        ],
        ids=["r2-trivial", "r2-adjoint", "h3-trivial", "h3-adjoint"],
    )
    def test_bracket_signs(self, algebra, module, expected):
        # nonzero brackets exercise the f([x_i, x_j], ...) terms and their
        # (-1)^{i+j} signs, which vanish for abelian algebras
        assert lie_ce_h(algebra, module) == expected

    @pytest.mark.parametrize("n", [0, 1])
    def test_complex_property(self, n):
        # the reference's rows and columns share the increasing-tuple index
        for algebra, module in (
            (H3, adjoint_bimodule(H3)),
            (sl2(), irreducible_sl2_module(3)),
            (direct_sum(sl2(), R2), adjoint_bimodule(direct_sum(sl2(), R2))),
        ):
            d = reference_ce_coboundary(algebra, module, n)
            d_next = reference_ce_coboundary(algebra, module, n + 1)
            assert (d_next @ d).is_zero()

    @pytest.mark.parametrize("algebra,module,n", CE_CASES)
    def test_increasing_rows_match_reference(self, algebra, module, n):
        dl, dm = algebra.dim, module.module_dim
        rows = ce_rows(algebra, module, n)
        ref = reference_ce_coboundary(algebra, module, n).row_dicts()
        for pos, xs in enumerate(itertools.combinations(range(dl), n + 1)):
            for k in range(dm):
                assert rows.get(_flat(xs, dl) * dm + k, {}) == ref.get(pos * dm + k, {})

    @pytest.mark.parametrize("algebra,module,n", CE_CASES)
    def test_rows_alternate(self, algebra, module, n):
        # the row at any argument tuple is the sign of its sorting
        # permutation times the row at the sorted tuple, and zero when an
        # index repeats
        dl, dm = algebra.dim, module.module_dim
        rows = ce_rows(algebra, module, n)
        for args in itertools.product(range(dl), repeat=n + 1):
            inversions = sum(a > b for a, b in itertools.combinations(args, 2))
            sign = -1 if inversions % 2 else 1
            for k in range(dm):
                row = rows.get(_flat(args, dl) * dm + k, {})
                if len(set(args)) < len(args):
                    assert row == {}
                else:
                    base = rows.get(_flat(sorted(args), dl) * dm + k, {})
                    assert row == {c: sign * v for c, v in base.items()}

    @pytest.mark.parametrize(
        "algebra,module", [pytest.param(g, m, id=name) for name, g, m in _ce_pairs()]
    )
    def test_matches_reference_ranks(self, algebra, module):
        # dim H^n = cols(d^n) - rank d^n - rank d^{n-1}, on the oracle's
        # increasing-tuple matrices and the Fraction rank
        d = [reference_ce_coboundary(algebra, module, n) for n in range(3)]
        r = [linalg.rank(dn) for dn in d]
        assert lie_ce_h(algebra, module) == (d[1].cols - r[1] - r[0], d[2].cols - r[2] - r[1])

    def test_no_fraction_matrix_is_built(self, monkeypatch):
        # so neither rank nor @ runs: each complex is ranked on its
        # integer columns
        def never(*args):
            raise AssertionError("the Lie layer built a SparseRationalMatrix")

        monkeypatch.setattr(SparseRationalMatrix, "__init__", never)
        module = irreducible_sl2_module(3)
        assert lie_ce_h(sl2(), module) == (0, 0)
        assert leibniz_h_with_coefficients(sl2(), symmetric_bimodule(module)) == (0, 0)
        assert leibniz_h_with_coefficients(sl2(), module) == (0, 0)

    def test_requires_lie_algebra(self):
        algebra, _ = simple_leibniz_sl2(2)
        module = adjoint_bimodule(algebra)
        with pytest.raises(ValueError):
            lie_ce_h(algebra, module)

    def test_requires_module_axiom(self):
        module = irreducible_sl2_module(2)
        right = [dict(act) for act in module.right_action]
        right[0][(0, 0)] = F(7)
        bad = Bimodule(3, 3, module.left_action, tuple(right))
        with pytest.raises(ValueError):
            lie_ce_h(sl2(), bad)


class TestLeibnizWithCoefficients:
    @pytest.mark.parametrize("m", range(0, 7))
    def test_symmetric_structure_vanishes(self, m):
        module = symmetric_bimodule(irreducible_sl2_module(m))
        assert leibniz_h_with_coefficients(sl2(), module) == (0, 0)

    @pytest.mark.parametrize("m", range(0, 7))
    def test_zero_left_action_detects_module_maps(self, m):
        # with zero left action, HL^1 counts module morphisms from the
        # adjoint module, which exist exactly for the 3-dimensional one
        module = irreducible_sl2_module(m)
        expected = 1 if m == 2 else 0
        assert leibniz_h_with_coefficients(sl2(), module) == (expected, 0)

    def test_one_dimensional_abelian(self):
        one = AlgebraStructure(1, ("a",), {})
        trivial = Bimodule(1, 1, ({},), ({},))
        assert leibniz_h_with_coefficients(one, trivial) == (1, 1)

    @pytest.mark.parametrize(
        "algebra,module",
        [
            pytest.param(g, mod, id=f"{name}-{kind}")
            for name, g, m in _ce_pairs()
            for kind, mod in (("given", m), ("symmetric", symmetric_bimodule(m)))
        ],
    )
    def test_matches_fraction_path(self, algebra, module):
        assert leibniz_h_with_coefficients(algebra, module) == (
            hl_dim(algebra, module, 1),
            hl_dim(algebra, module, 2),
        )

    def test_rejects_broken_bimodule(self):
        module = irreducible_sl2_module(2)
        right = [dict(act) for act in module.right_action]
        right[2][(1, 1)] = right[2].get((1, 1), F(0)) + F(1)
        bad = Bimodule(3, 3, module.left_action, tuple(right))
        with pytest.raises(ValueError):
            leibniz_h_with_coefficients(sl2(), bad)


class TestBasisChangeInvariance:
    """Conjugated family members carry fractional structure constants and
    no grading, so every number comes from full-matrix elimination on
    fractional matrices."""

    @pytest.mark.parametrize("m,seed,z2,der", [(2, 1, 31, 5), (3, 2, 45, 4)])
    def test_dimensions_survive_conjugation(self, m, seed, z2, der, conjugate):
        algebra = conjugate(simple_leibniz_sl2(m)[0], seed)
        assert leibniz_defects(algebra) == []
        module = adjoint_bimodule(algebra)
        # HL^2 = ZL^2 - BL^2 = 0
        assert zl_dim(algebra, module, 2) == bl_dim(algebra, module, 2) == z2
        assert zl_dim(algebra, module, 1) == der
        assert bl_dim(algebra, module, 1) == 3
        assert derivation_space(algebra).dim == der


# the block analyses that verify-paper claims
VERIFY_BLOCKS = (
    (0, ("G", "I")),
    (0, ("G", "G")),
    (0, ("I", "G")),
    (-1, ("G", "I")),
    (-1, (("G", "I"), ("I", "G"))),
)


class TestGradedBasisChange:
    """A P that maps G to G and I to I keeps the grading, so the graded
    engine itself runs on fractional matrices."""

    @pytest.mark.parametrize("m,seed", [(2, 1), (3, 2), (4, 3)])
    def test_graded_analysis_survives_conjugation(self, m, seed, conjugate):
        algebra, grading = simple_leibniz_sl2(m)
        twisted = conjugate(algebra, seed, grading)
        assert any(c.denominator != 1 for vec in twisted.tensor.values() for c in vec.values())
        plain = AdjointCohomology(algebra, grading)
        coh = AdjointCohomology(twisted, grading)
        for n in (1, 2):
            assert coh.report(n) == plain.report(n)
        for degree, block in VERIFY_BLOCKS:
            assert coh.block_analysis(degree, block) == plain.block_analysis(degree, block)
        assert coh.gg_block_is_lie_coboundary() and plain.gg_block_is_lie_coboundary()
        module = adjoint_bimodule(twisted)
        for n in (1, 2):
            assert coh.zl_dim(n) == zl_dim(twisted, module, n)
            assert coh.bl_dim(n) == bl_dim(twisted, module, n)


class TestEngineTotals:
    """The engine's totals are sums over the degree blocks of d^n."""

    def test_uncovered_columns_raise(self, monkeypatch):
        real = cohomology.cochain_degrees
        monkeypatch.setattr(cohomology, "cochain_degrees", lambda *args: real(*args)[1:])
        coh = AdjointCohomology(*simple_leibniz_sl2(2))
        with pytest.raises(AssertionError, match="do not cover the columns"):
            coh.zl_dim(2)

    @pytest.mark.parametrize("n", [-1, 3])
    def test_unsupported_arity_rejected(self, n):
        coh = AdjointCohomology(*simple_leibniz_sl2(2))
        with pytest.raises(ValueError):
            coh.zl_dim(n)
        with pytest.raises(ValueError):
            coh.squares_to_zero(n)

    def test_full_matrix_rank_is_off_the_engine_path(self, monkeypatch):
        def no_rank(matrix):
            raise RuntimeError("full-matrix rank on the engine path")

        monkeypatch.setattr(cohomology, "rank", no_rank)
        report = AdjointCohomology(*simple_leibniz_sl2(3)).report(2)
        assert (report.dim_z, report.dim_b, report.dim_h) == (45, 45, 0)

    def test_ranks_do_not_reduce(self, monkeypatch, zl_basis):
        reduced, eliminated = [], []
        real_reduce, real_echelon = linalg._reduce, cohomology._echelon

        def counted_reduce(pivots):
            reduced.append(len(pivots))
            return real_reduce(pivots)

        def counted_echelon(vectors):
            eliminated.append(len(vectors))
            return real_echelon(vectors)

        monkeypatch.setattr(linalg, "_reduce", counted_reduce)
        monkeypatch.setattr(cohomology, "_echelon", counted_echelon)
        for certify in (True, False):
            reduced.clear()
            eliminated.clear()
            if not certify:
                no_certificate(monkeypatch)
            coh = AdjointCohomology(*simple_leibniz_sl2(3))
            assert (coh.zl_dim(2), coh.hl_dim(2)) == (45, 0)
            coh.report(2)
            assert reduced == []
            # every block of d^0 and d^1, and the larger key of each
            # weight-flip orbit of d^2, is ranked by one elimination of its
            # nonzero columns; with the Cartan certificate, of d^2 only the
            # blocks of weight 0 are
            assert coh._flip
            ranked = [(n, key) for n, key in coh._ranks if n < 2 or key >= flip_key(key)]
            if certify:
                ranked = [(n, key) for n, key in ranked if n < 2 or not any(key[1:])]
            assert len(ranked) < len(coh._ranks)
            assert sorted(eliminated) == sorted(
                len(coh._builder.columns(n, coh._blocks(n)[key])) for n, key in ranked
            )
            # reading a cocycle basis reduces the span of the d^1 columns,
            # once; the span itself is cached
            zl_basis(coh, 0)
            assert reduced == [coh.graded_bl_dim(2, 0)]
            assert coh._cocycle_span(0) is coh._cocycle_span(0)


def flip_key(key):
    """The twin of a block key under the weight flip: the degree kept,
    every weight negated."""
    return (key[0], *(-w for w in key[1:]))


def flip_cochain(flat, n, phi, dl):
    """phi* on the basis n-cochain at a flat index, as (image index,
    factor): (i_1, ..., i_n; k) goes to c_k / (c_{i_1} ... c_{i_n}) times
    (p(i_1), ..., p(i_n); p(k)), where phi(b_i) = c_i b_{p(i)}."""
    digits = []
    for _ in range(n + 1):
        flat, d = divmod(flat, dl)
        digits.append(d)
    k, *args = digits
    image = 0
    for d in reversed(digits):
        image = image * dl + phi[d][0]
    factor = F(phi[k][1])
    for a in args:
        factor /= phi[a][1]
    return image, factor


def flip_columns(columns, n, phi, dl):
    """The columns of d^n conjugated by phi*: the column at phi*(x) is
    phi* of the column at x, divided by the factor of phi*(x)."""
    out = {}
    for col, vec in columns.items():
        image, scale = flip_cochain(col, n, phi, dl)
        out[image] = {}
        for r, v in vec.items():
            row, factor = flip_cochain(r, n + 1, phi, dl)
            out[image][row] = v * factor / scale
    return out


def sl2_plus_line():
    return direct_sum(sl2(), AlgebraStructure(1, ("c",), {})), Grading((0, 0, 0, 1))


def recorded_blocks(coh, n):
    """The builds of d^n the engine makes while it streams d^n, as pairs
    (requested columns, copy of the columns built)."""
    seen = []
    real = coh._builder.columns

    def record(arity, cols=None):
        out = real(arity, cols)
        if arity == n:
            seen.append((tuple(cols), {c: dict(col) for c, col in out.items()}))
        return out

    coh._builder.columns = record
    coh.zl_dim(n)
    return seen


def no_certificate(patch):
    """Turn the Cartan certificate off: every block of d^2 is eliminated."""
    patch.setattr(AdjointCohomology, "_certified_rank", lambda *args: None)


def certificate_columns(coh, key):
    """The columns of d^2 the certificate of ``key`` reads, found here from
    the digits of the flat indices: supp(d^1) of the key, and the key's
    2-cochains whose last argument is h."""
    dl = coh.algebra.dim
    [h] = coh._contractions
    d1 = _integer_builder(coh.algebra, coh.module).columns(1, coh._blocks(1).get(key, ()))
    support = {r for col in d1.values() for r in col}
    return support | {c for c in coh._blocks(2).get(key, ()) if c // dl % dl == h}


class TestStreamedBlocks:
    """d^2 is built, checked and ranked one (degree, weight) block at a
    time; the blocks together are exactly the columns of d^2."""

    cases = pytest.mark.parametrize("build", [
        *(pytest.param(lambda m=m: simple_leibniz_sl2(m), id=f"m{m}") for m in (2, 3, 4, 5)),
        pytest.param(sl2_plus_line, id="sl2_plus_line"),
    ])

    @staticmethod
    def union_with_twins(builds, phi, dl):
        """The columns built, each block with phi* of it, which a block of
        weight 0 must equal, since it is its own twin."""
        union = {}
        for _, block in builds:
            image = flip_columns(block, 2, phi, dl)
            if image.keys() == block.keys():
                assert image == block
                image = {}
            for part in (block, image):
                assert not union.keys() & part.keys()
                union.update(part)
        return union

    @cases
    def test_union_of_blocks_is_d2(self, build, monkeypatch):
        algebra, grading = build()
        d2 = _integer_builder(algebra, adjoint_bimodule(algebra)).columns(2)
        coh = AdjointCohomology(algebra, grading)
        phi = cohomology._weight_flip(algebra, coh._gradings)
        keys = coh._blocks(2)
        # the stream visits the keys in order, one build per orbit
        kept = [key for key in sorted(keys | coh._blocks(1)) if key >= flip_key(key)]
        zero = [key for key in kept if not any(key[1:])]
        assert phi and zero and len(kept) < len(keys)
        # with the Cartan certificate a key of weight 0 is built whole, and
        # phi* of it is itself; any other kept key builds only the columns
        # its certificate reads, each equal to that column of d^2
        builds = recorded_blocks(coh, 2)
        assert len(builds) == len(kept)
        for key, (cols, block) in zip(kept, builds):
            assert block == {c: d2[c] for c in cols if c in d2}
            want = keys[key] if key in zero else sorted(certificate_columns(coh, key))
            assert list(cols) == list(want)
        assert sum(len(cols) for cols, _ in builds) < sum(len(keys[key]) for key in kept)
        whole = [build for key, build in zip(kept, builds) if key in zero]
        assert self.union_with_twins(whole, phi, algebra.dim) == {
            c: d2[c] for key in zero for c in keys[key] if c in d2}
        # with the certificate off, every kept key is built whole, and
        # phi* of each block is its twin
        no_certificate(monkeypatch)
        coh = AdjointCohomology(algebra, grading)
        builds = recorded_blocks(coh, 2)
        assert [cols for cols, _ in builds] == [keys.get(key, ()) for key in kept]
        assert self.union_with_twins(builds, phi, algebra.dim) == d2
        # without the flip either, every block is built
        monkeypatch.setattr(cohomology, "_weight_flip", lambda *args: None)
        coh = AdjointCohomology(algebra, grading)
        builds = recorded_blocks(coh, 2)
        assert len(builds) == len(coh._blocks(2)) > len(coh.degrees(2))
        union = {}
        for _, block in builds:
            assert not union.keys() & block.keys()
            union.update(block)
        assert union == d2

    @cases
    def test_blocks_partition_the_cochains(self, build):
        algebra, grading = build()
        coh = AdjointCohomology(algebra, grading)
        for n in range(4):
            cells = [c for cols in coh._blocks(n).values() for c in cols]
            assert sorted(cells) == list(range(algebra.dim ** (n + 1)))
            for degree in coh.degrees(n):
                by_degree = [c for key, cols in coh._blocks(n).items() if key[0] == degree
                             for c in cols]
                assert sorted(by_degree) == list(graded_columns(algebra, grading, n, degree))


def diagonal_non_grading():
    """[a, h] = a and [a, a] = h: right multiplication by h is diagonal
    with weights (1, 0), which [a, a] = h does not respect, and the
    Leibniz identity fails at (a, a, h)."""
    return AlgebraStructure(2, ("a", "h"), {(0, 1): {0: F(1)}, (0, 0): {1: F(1)}})


class TestWeightRefinement:
    """The engine refines the grading by every diagonal right
    multiplication that check_grading proves a grading, and by no other."""

    @pytest.mark.parametrize("m", [2, 3, 6])
    def test_family_weight_is_h(self, m):
        coh = AdjointCohomology(*simple_leibniz_sl2(m))
        assert coh._gradings[1:] == ((2, -2, 0, *range(m, -m - 1, -2)),)

    def test_diagonal_non_grading_refused(self, zl_basis):
        algebra = diagonal_non_grading()
        grading = Grading((0, 0))
        assert leibniz_defects(algebra)
        coh = AdjointCohomology(algebra, grading)
        assert coh._gradings == ((0, 0),)
        module = adjoint_bimodule(algebra)
        for n in (1, 2):
            assert coh.zl_dim(n) == zl_dim(algebra, module, n)
            assert coh.bl_dim(n) == bl_dim(algebra, module, n)
        for n in (0, 1, 2):
            assert coh.squares_to_zero(n) == TestBlockwiseComplex.full_product_is_zero(algebra, n)
        for degree in coh.degrees(2):
            assert zl_basis(coh, degree) == reference_zl_basis(algebra, grading, degree)


def sl2_without_fe():
    """sl2 with the product [f, e] = -h removed: the weights of h still
    pair e with f and h with itself, but no scalars make the pairing an
    automorphism, since [f, e] = 0 while [e, f] = h."""
    tensor = {key: vec for key, vec in sl2().tensor.items() if key != (1, 0)}
    return AlgebraStructure(3, ("e", "f", "h"), tensor)


def permuted(algebra, grading, seed):
    """The algebra and its grading with the basis in a seeded order."""
    order = list(range(algebra.dim))
    random.Random(seed).shuffle(order)
    tensor = {(order[i], order[j]): {order[t]: v for t, v in vec.items()}
              for (i, j), vec in algebra.tensor.items()}
    labels, degrees = [None] * algebra.dim, [None] * algebra.dim
    for i, o in enumerate(order):
        labels[o], degrees[o] = algebra.basis_labels[i], grading.degrees[i]
    return AlgebraStructure(algebra.dim, tuple(labels), tensor), Grading(tuple(degrees))


def assert_automorphism(algebra, phi):
    """phi(b_i) = c_i b_{p(i)} is a bijection with nonzero scalars, and
    phi([b_i, b_j]) = [phi b_i, phi b_j] for every pair, with the bracket
    of the algebra itself."""
    assert sorted(t for t, _ in phi) == list(range(algebra.dim))
    assert all(c for _, c in phi)
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            lhs = {phi[t][0]: phi[t][1] * v for t, v in algebra.product(i, j).items()}
            (pi, ci), (pj, cj) = phi[i], phi[j]
            rhs = algebra.bracket_vector_basis({pi: ci * cj}, pj)
            assert lhs == rhs, (i, j)


class TestWeightFlip:
    """_weight_flip finds the monomial automorphism that negates the
    h-weights, checked on every product, or returns None."""

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 20])
    def test_family_flip(self, m):
        algebra, grading = simple_leibniz_sl2(m)
        coh = AdjointCohomology(algebra, grading)
        phi = cohomology._weight_flip(algebra, coh._gradings)
        # e -> c f, f -> c' e, h -> c'' h, x_k -> c_k x_{m-k}
        assert [t for t, _ in phi] == [1, 0, 2, *range(algebra.dim - 1, 2, -1)]
        assert_automorphism(algebra, phi)
        coh.zl_dim(2)
        assert coh._flip

    def test_pairing_without_automorphism(self):
        algebra = sl2_without_fe()
        coh = AdjointCohomology(algebra, Grading((0, 0, 0)))
        assert coh._gradings == ((0, 0, 0), (2, -2, 0))
        assert cohomology._weight_flip(algebra, coh._gradings) is None
        assert coh.zl_dim(2) == zl_dim(algebra, adjoint_bimodule(algebra), 2)
        assert coh._flip is False

    def test_negated_weight_missing(self):
        # the Borel subalgebra [e, h] = 2e: e has weight 2, nothing has -2
        borel = AlgebraStructure(2, ("e", "h"), {(0, 1): {0: F(2)}, (1, 0): {0: F(-2)}})
        coh = AdjointCohomology(borel, Grading((0, 0)))
        assert coh._gradings == ((0, 0), (2, 0))
        assert cohomology._weight_flip(borel, coh._gradings) is None

    def test_partner_not_unique(self):
        # sl2 + C all in degree 0: h and c both have weight 0
        algebra, _ = sl2_plus_line()
        coh = AdjointCohomology(algebra, Grading((0, 0, 0, 0)))
        assert coh._gradings == ((0, 0, 0, 0), (2, -2, 0, 0))
        assert cohomology._weight_flip(algebra, coh._gradings) is None

    def test_graded_conjugate_has_no_flip(self, conjugate):
        algebra, grading = simple_leibniz_sl2(3)
        twisted = conjugate(algebra, 1, grading)
        coh = AdjointCohomology(twisted, grading)
        assert coh._gradings == (grading.degrees,)
        assert cohomology._weight_flip(twisted, coh._gradings) is None
        coh.report(2)
        assert coh._flip is False

    def test_d1_off_the_flip_turns_it_off(self):
        # one d^1 entry doubled in a block of negative weight, which the
        # flip would skip, at a row where d^2 is nonzero: the kept d^1 no
        # longer commutes with phi*, so every d^2 block is checked
        algebra, grading = simple_leibniz_sl2(2)
        coh = AdjointCohomology(algebra, grading)
        d1 = _integer_builder(algebra, coh.module).columns(1)
        d2 = _integer_builder(algebra, coh.module).columns(2)
        key = next(k for k in coh._blocks(1) if k < flip_key(k)
                   and any(r in d2 for c in coh._blocks(1)[k] for r in d1.get(c, {})))
        col = next(c for c in coh._blocks(1)[key] if any(r in d2 for r in d1.get(c, {})))
        row = next(r for r in d1[col] if r in d2)
        real = coh._builder.columns

        def changed(n, cols=None):
            out = real(n, cols)
            if n == 1 and col in out:
                out[col][row] *= 2
            return out

        coh._builder.columns = changed
        assert not coh.squares_to_zero(1)
        assert coh._flip is False


class TestFlipEquivalence:
    """With the flip, the engine gives every number it gives without it:
    each block rank, the complex checks, the reports and the block
    analyses of the CLI."""

    @staticmethod
    def results(algebra, grading, deep):
        coh = AdjointCohomology(algebra, grading)
        analyses = []
        for degree, pairs in STANDARD_BLOCKS:
            try:
                analyses.append(coh.block_analysis(degree, pairs))
            except ValueError as exc:
                analyses.append(str(exc))
        out = [coh.report(1), coh.report(2), coh.squares_to_zero(1), analyses]
        if deep:
            out.append(coh.squares_to_zero(2))
        return coh, out

    def assert_equivalent(self, algebra, grading, deep, monkeypatch):
        reduced, got = self.results(algebra, grading, deep)
        assert reduced._flip
        with monkeypatch.context() as patch:
            patch.setattr(cohomology, "_weight_flip", lambda *args: None)
            plain, want = self.results(algebra, grading, deep)
        assert plain._flip is False
        assert reduced._ranks == plain._ranks
        assert got == want

    @pytest.mark.parametrize("m", range(2, 9))
    def test_family(self, m, monkeypatch):
        self.assert_equivalent(*simple_leibniz_sl2(m), m <= 4, monkeypatch)

    @pytest.mark.parametrize("m,seed", [(3, 1), (6, 2)])
    def test_permuted_basis(self, m, seed, monkeypatch):
        algebra, grading = permuted(*simple_leibniz_sl2(m), seed)
        assert algebra.basis_labels[:3] != ("e", "f", "h")
        self.assert_equivalent(algebra, grading, m <= 4, monkeypatch)

    def test_sl2_plus_line(self, monkeypatch):
        # HL^2 = 1: the degree that does not close rebuilds its d^2 blocks
        self.assert_equivalent(*sl2_plus_line(), True, monkeypatch)


def certified_keys(patch):
    """The keys the Cartan certificate ranks, recorded as it runs."""
    keys = []
    real = AdjointCohomology._certified_rank

    def record(self, key, *args):
        r = real(self, key, *args)
        if r is not None:
            keys.append(key)
        return r

    patch.setattr(AdjointCohomology, "_certified_rank", record)
    return keys


def changed_builder(coh, n, col, change):
    """Make the engine's builder apply ``change`` to its column ``col`` of
    d^n, in every build that holds it."""
    real = coh._builder.columns

    def changed(arity, cols=None):
        out = real(arity, cols)
        if arity == n and col in out:
            change(out, col)
        return out

    coh._builder.columns = changed


class TestCartanCertificate:
    """A d^2 block of nonzero h-weight is ranked as cols - rank d^1 once
    d^2 d^1 = 0 on supp(d^1) and d^1 K_h + K_h d^2 = w on its columns
    ending in h are checked; any other block is eliminated. The engine
    gives every number it gives with the certificate off."""

    def assert_equivalent(self, algebra, grading, monkeypatch):
        """The certificate changes no rank, report, complex check or block
        analysis; returns the keys it ranked."""
        with monkeypatch.context() as patch:
            keys = certified_keys(patch)
            certified, got = TestFlipEquivalence.results(algebra, grading, False)
        with monkeypatch.context() as patch:
            no_certificate(patch)
            plain, want = TestFlipEquivalence.results(algebra, grading, False)
        assert certified._ranks == plain._ranks
        assert got == want
        return certified, keys

    @staticmethod
    def off_weight_zero(coh):
        """The keys of d^2 of nonzero weight that the stream of ``coh``
        visits, once it has run."""
        coh.zl_dim(2)
        flip = flip_key if coh._flip else (lambda key: key)
        return sorted(key for key in coh._blocks(2) if any(key[1:]) and key >= flip(key))

    @pytest.mark.parametrize("m", range(2, 9))
    def test_family(self, m, monkeypatch):
        coh, keys = self.assert_equivalent(*simple_leibniz_sl2(m), monkeypatch)
        assert keys == self.off_weight_zero(coh)

    @pytest.mark.parametrize("m,seed", [(3, 1), (6, 2)])
    def test_permuted_basis(self, m, seed, monkeypatch):
        algebra, grading = permuted(*simple_leibniz_sl2(m), seed)
        coh, keys = self.assert_equivalent(algebra, grading, monkeypatch)
        assert keys == self.off_weight_zero(coh)

    def test_sl2_plus_line(self, monkeypatch):
        # HL^2 = 1 sits at weight 0, which is eliminated
        algebra, grading = sl2_plus_line()
        coh, keys = self.assert_equivalent(algebra, grading, monkeypatch)
        assert coh.hl_dim(2) == 1
        assert keys == self.off_weight_zero(coh)

    def test_rescaled_basis(self, monkeypatch):
        # b'_i = c_i b_i with h kept: the weights stay integers, the
        # constants c_i c_j / c_k c_{ij}^k do not, so the builder's columns
        # are s > 1 times d^n and the identity must read s w
        algebra, grading = simple_leibniz_sl2(4)
        factors = [F(1, 2), F(2, 3), F(1), *(F(k + 1, 3) for k in range(algebra.dim - 3))]
        tensor = {(i, j): {k: factors[i] * factors[j] / factors[k] * v for k, v in vec.items()}
                  for (i, j), vec in algebra.tensor.items()}
        scaled = AlgebraStructure(algebra.dim, algebra.basis_labels, tensor)
        coh, keys = self.assert_equivalent(scaled, grading, monkeypatch)
        assert coh._builder.scale > 1
        assert keys == self.off_weight_zero(coh)

    def test_graded_conjugate_has_no_h(self, conjugate, monkeypatch):
        algebra, grading = simple_leibniz_sl2(3)
        coh, keys = self.assert_equivalent(conjugate(algebra, 1, grading), grading,
                                           monkeypatch)
        assert coh._contractions == [] and keys == []

    @staticmethod
    def family(m):
        algebra, grading = simple_leibniz_sl2(m)
        coh = AdjointCohomology(algebra, grading)
        builder = _integer_builder(algebra, coh.module)
        return coh, builder.columns(1), builder.columns(2)

    def test_changed_h_column_entry_forces_the_fallback(self, monkeypatch):
        # an entry of an h-row doubled in a column (i, h; k) outside
        # supp(d^1): d^2 d^1 = 0 still holds, the identity fails
        coh, d1, d2 = self.family(3)
        dl, [h] = coh.algebra.dim, coh._contractions
        support = {r for col in d1.values() for r in col}
        key, col = next((key, c) for key in self.off_weight_zero(self.family(3)[0])
                        for c in coh._blocks(2)[key]
                        if c // dl % dl == h and c not in support and c in d2)
        row = next(r for r in d2[col] if r // dl % dl == h)

        def double(out, c):
            out[c][row] *= 2

        changed_builder(coh, 2, col, double)
        keys = certified_keys(monkeypatch)
        assert coh.squares_to_zero(1)
        assert key not in keys and keys
        block = coh._builder.columns(2, coh._blocks(2)[key])
        assert block[col][row] == 2 * d2[col][row]
        assert coh._ranks[(2, key)] == len(linalg._echelon(list(block.values())))

    def test_zeroed_d1_column_caught_by_the_identity(self, monkeypatch):
        # d^2 d^1 = 0 holds with a column of d^1 zeroed, and the rank of
        # d^1 drops; the identity at (i, h; k) sees the missing column, so
        # the block is eliminated and keeps its true rank
        coh, d1, _ = self.family(3)
        plain = self.family(3)[0]
        blocks = plain._blocks(1)
        key, col = next(
            (key, c) for key in self.off_weight_zero(plain) for c in blocks.get(key, ())
            if c in d1 and len(linalg._echelon(
                [dict(d1[o]) for o in blocks[key] if o in d1 and o != c]))
            < plain._ranks[(1, key)])

        def zero(out, c):
            del out[c]

        changed_builder(coh, 1, col, zero)
        keys = certified_keys(monkeypatch)
        assert coh.squares_to_zero(1)
        assert coh._ranks[(1, key)] == plain._ranks[(1, key)] - 1
        assert key not in keys and keys
        assert coh._ranks[(2, key)] == plain._ranks[(2, key)]

    def test_changed_supp_d1_entry_fails_the_complex_check(self):
        # for every key of nonzero weight, an entry doubled in a column of
        # supp(d^1) that does not end in h: only d^2 d^1 = 0 can see it
        plain, d1, d2 = self.family(2)
        dl, [h] = plain.algebra.dim, plain._contractions
        checked = []
        for key in self.off_weight_zero(plain):
            coh = self.family(2)[0]
            support = {r for c in coh._blocks(1).get(key, ()) for r in d1.get(c, {})}
            col = next((c for c in sorted(support) if c // dl % dl != h and c in d2), None)
            if col is None:
                continue

            def double(out, c):
                r = next(iter(out[c]))
                out[c][r] *= 2

            changed_builder(coh, 2, col, double)
            assert not coh.squares_to_zero(1), key
            checked.append(key)
        assert (0, 2) in checked


def reference_zl_basis(algebra, grading, degree):
    """Kernel of the graded_submatrix block, re-expanded to the flat
    coordinates of Hom(L^2, L)."""
    d2 = coboundary_matrix(algebra, adjoint_bimodule(algebra), 2)
    cols = graded_columns(algebra, grading, 2, degree)
    kernel = kernel_basis(graded_submatrix(d2, algebra, grading, 2, degree))
    flat = [{cols[p]: v for p, v in vec.items()} for vec in kernel.basis]
    return Subspace.from_spanning(flat, d2.cols)


def chain_closes(coh, degree):
    return coh.graded_bl_dim(2, degree) == coh.graded_zl_dim(2, degree)


class TestCocycleBasisRead:
    """_cocycle_span reads ZL^2 off the d^1 columns where the rank chain
    closes and falls back to a kernel of d^2 elsewhere; both must give the
    kernel of the graded_submatrix block."""

    def test_sl2_plus_line_mixes_both_reads(self, zl_basis):
        # the h-weight of sl2 refines the grading
        algebra, grading = sl2_plus_line()
        coh = AdjointCohomology(algebra, grading)
        assert coh._gradings == ((0, 0, 0, 1), (2, -2, 0, 0))
        assert coh.hl_dim(2) == 1
        closed = {i: chain_closes(coh, i) for i in coh.degrees(2)}
        assert True in closed.values() and False in closed.values()
        for degree in closed:
            assert zl_basis(coh, degree) == reference_zl_basis(algebra, grading, degree)

    @pytest.mark.parametrize("degrees,degree", [((0, 0, 0, 1), -1), ((0, 0, 0, 0), 0)])
    def test_sl2_plus_line_rebuilds_only_weight_zero_blocks(self, degrees, degree, zl_basis):
        # the degree does not close; its keys of nonzero weight are
        # certified, so their d^1 columns span their cocycles, with rank
        # d^1 as the dimension, and only the weight-0 key reaches the
        # builder again. Graded all 0, keys (0, +-2) hold ad e and ad f in
        # ker d^1, so their d^1 columns outnumber their rank
        algebra, _ = sl2_plus_line()
        grading = Grading(degrees)
        coh = AdjointCohomology(algebra, grading)
        assert not chain_closes(coh, degree)
        key_of = {c: key for key, cols in coh._blocks(2).items() for c in cols}
        certified = {key for key in key_of.values() if key[0] == degree and any(key[1:])}
        assert certified and certified <= coh._certified
        built = []
        real = coh._builder.columns

        def record(arity, cols=None):
            if arity == 2:
                built.extend(key_of[c] for c in cols)
            return real(arity, cols)

        coh._builder.columns = record
        basis = zl_basis(coh, degree)
        assert built and {key[1:] for key in built} == {(0,)}
        assert basis == reference_zl_basis(algebra, grading, degree)
        assert coh._cocycle_span(degree)[1] == basis.dim

    def test_sl2_plus_line_blocks_report_unchanged(self, capsys, tmp_path, monkeypatch):
        # the --graded --blocks report with the certified spans read off
        # d^1 is the report with every block of d^2 rebuilt
        path = tmp_path / "line.alg"
        save_algebra(*sl2_plus_line(), path)
        argv = ["cohomology", "--algebra", str(path), "--graded", "--blocks", "--format", "json"]
        reports = []
        for patched in (False, True):
            with monkeypatch.context() as patch:
                if patched:
                    no_certificate(patch)
                assert main(argv) == 0
                reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert len(json.loads(reports[0])["blocks"]) == len(STANDARD_BLOCKS)

    @pytest.mark.parametrize("degrees", [(0, 1), (0, 0)])
    def test_abelian_plane_falls_back_everywhere(self, degrees, zl_basis):
        algebra = AlgebraStructure(2, ("a", "b"), {})
        grading = Grading(degrees)
        coh = AdjointCohomology(algebra, grading)
        for degree in coh.degrees(2):
            assert not chain_closes(coh, degree)
            basis = zl_basis(coh, degree)
            assert basis.dim == len(graded_columns(algebra, grading, 2, degree))
            assert basis == reference_zl_basis(algebra, grading, degree)

    def test_changed_d1_entry_forces_the_fallback(self, zl_basis):
        # doubling entry (row 7, column 1) of the degree-0 block of d^1 at
        # m = 2 keeps rank d^1 + rank d^2 = cols(d^2) in that degree but
        # breaks d^2 d^1 = 0, so the d^1 columns no longer span ker d^2
        # the builder doubles it in every block of d^1 it makes, so the
        # rank of d^1 and the check of d^2 d^1 both see the changed entry
        algebra, grading = simple_leibniz_sl2(2)
        coh = AdjointCohomology(algebra, grading)
        row = graded_columns(algebra, grading, 2, 0)[7]
        col = graded_columns(algebra, grading, 1, 0)[1]
        real = coh._builder.columns

        def changed(n, cols=None):
            out = real(n, cols)
            if n == 1 and col in out:
                out[col][row] *= 2
            return out

        coh._builder.columns = changed
        assert coh._rank(1, 0) + coh._rank(2, 0) == len(graded_columns(algebra, grading, 2, 0))
        assert not coh.squares_to_zero(1)
        assert zl_basis(coh, 0) == reference_zl_basis(algebra, grading, 0)

    @pytest.mark.parametrize("m", [2, 3])
    def test_family_reads_close_the_chain(self, m, zl_basis):
        algebra, grading = simple_leibniz_sl2(m)
        coh = AdjointCohomology(algebra, grading)
        for degree in coh.degrees(2):
            assert chain_closes(coh, degree)
            assert zl_basis(coh, degree) == reference_zl_basis(algebra, grading, degree)


class TestFlatIndex:
    """The engine keys cocycle bases and G/I blocks by the flat cochain
    index of Hom(L^2, L), on a family algebra (every degree closes the
    rank chain) and on sl2 + C (degree -1 falls back to a kernel)."""

    cases = pytest.mark.parametrize(
        "build", [lambda: simple_leibniz_sl2(2), sl2_plus_line], ids=["m2", "sl2_plus_line"]
    )

    @cases
    def test_cocycle_bases_sit_on_their_degree(self, build, zl_basis):
        algebra, grading = build()
        coh = AdjointCohomology(algebra, grading)
        for degree in coh.degrees(2):
            basis = zl_basis(coh, degree)
            assert basis.ambient_dim == algebra.dim**3
            cols = set(graded_columns(algebra, grading, 2, degree))
            assert all(set(vec) <= cols for vec in basis.basis)

    @cases
    def test_gg_coords_are_flat(self, build):
        algebra, grading = build()
        coh = AdjointCohomology(algebra, grading)
        dim = algebra.dim
        g = [k for k in range(dim) if grading.degrees[k] == 0]
        expected = {(a * dim + b) * dim + k for a in g for b in g for k in g}
        assert coh.block_coords(0, (("G", "G"),)) == tuple(sorted(expected))


class TestBlockAnalysisReference:
    """block_analysis counts pivots; project and restrict_to_coords build
    the projected and the supported subspaces as the reference, on the
    family, on a graded fractional conjugate and on sl2 + C, whose degree
    -1 basis comes from the fallback kernel."""

    @staticmethod
    def assert_blocks_match(coh, zl_basis):
        checked = 0
        for degree, pairs in STANDARD_BLOCKS:
            try:
                coords = coh.block_coords(degree, pairs)
            except ValueError:  # no target component in this degree
                continue
            space = zl_basis(coh, degree)
            proj = project(space, coords).dim
            supported = restrict_to_coords(space, coords).dim
            expected = BlockAnalysis(degree, pairs, proj, supported, proj == space.dim)
            assert coh.block_analysis(degree, pairs) == expected, (degree, pairs)
            checked += 1
        assert checked

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_family(self, m, zl_basis):
        self.assert_blocks_match(AdjointCohomology(*simple_leibniz_sl2(m)), zl_basis)

    def test_graded_conjugate(self, conjugate, zl_basis):
        algebra, grading = simple_leibniz_sl2(3)
        twisted = conjugate(algebra, 2, grading)
        assert any(c.denominator != 1 for vec in twisted.tensor.values() for c in vec.values())
        self.assert_blocks_match(AdjointCohomology(twisted, grading), zl_basis)

    def test_sl2_plus_line(self, zl_basis):
        coh = AdjointCohomology(*sl2_plus_line())
        assert not chain_closes(coh, -1)
        self.assert_blocks_match(coh, zl_basis)


def reference_gg_block_is_lie_coboundary(coh, zl_basis):
    """The G*G check on canonical bases: the cocycle basis of degree 0
    projected to G*G, checked skew vector by vector, and compared with
    the column space of the degree-0 part's Fraction d^1."""
    ng = len(coh.grading.parts()[0])
    projected = project(zl_basis(coh, 0), coh.block_coords(0, (("G", "G"),)))
    for vec in projected.basis:
        for p, v in vec.items():
            rest, c = divmod(p, ng)
            a, b = divmod(rest, ng)
            if vec.get((b * ng + a) * ng + c, F(0)) != -v:
                return False
    sub = coh.degree_zero_part()
    d1 = coboundary_matrix(sub, adjoint_bimodule(sub), 1)
    return subspace_equal(projected, column_space(d1))


class TestGGBlockReference:
    """gg_block_is_lie_coboundary compares integer ranks of spanning
    vectors (the d^1 columns where the rank chain closes); the reference
    compares canonical bases. Both must agree, on True and on False."""

    @staticmethod
    def assert_matches(coh, expected, zl_basis):
        assert coh.gg_block_is_lie_coboundary() is expected
        assert reference_gg_block_is_lie_coboundary(coh, zl_basis) is expected

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_family(self, m, zl_basis):
        coh = AdjointCohomology(*simple_leibniz_sl2(m))
        assert chain_closes(coh, 0)
        self.assert_matches(coh, True, zl_basis)

    def test_graded_conjugate(self, conjugate, zl_basis):
        algebra, grading = simple_leibniz_sl2(3)
        twisted = conjugate(algebra, 2, grading)
        assert any(c.denominator != 1 for vec in twisted.tensor.values() for c in vec.values())
        self.assert_matches(AdjointCohomology(twisted, grading), True, zl_basis)

    def test_sl2_plus_line_falls_back(self, zl_basis):
        # with c in degree 0 the degree-0 chain does not close, and the
        # 2-cocycle c (x) c -> c is not skew
        algebra, _ = sl2_plus_line()
        coh = AdjointCohomology(algebra, Grading((0, 0, 0, 0)))
        assert not chain_closes(coh, 0)
        self.assert_matches(coh, False, zl_basis)
        # with c in degree 1 it closes, and G*G holds sl2's coboundaries
        coh = AdjointCohomology(*sl2_plus_line())
        assert chain_closes(coh, 0)
        self.assert_matches(coh, True, zl_basis)

    def test_projection_not_skew(self, zl_basis):
        # with every element in degree 0, G*G is all of Hom(L^2, L), and
        # the coboundaries of a non-Lie Leibniz algebra are not all skew
        algebra, _ = simple_leibniz_sl2(2)
        coh = AdjointCohomology(algebra, Grading((0,) * algebra.dim))
        assert chain_closes(coh, 0)
        self.assert_matches(coh, False, zl_basis)

    def test_equal_dimension_different_span(self, monkeypatch, zl_basis):
        # the degree-0 part swapped for the Leibniz algebra [x, y] = x: its
        # coboundaries span a space of dimension 6, as sl2's do, but not
        # the same space, so only rank(A + B) tells them apart
        coh = AdjointCohomology(*simple_leibniz_sl2(2))
        other = AlgebraStructure(3, ("x", "y", "z"), {(0, 1): {0: F(1)}})
        assert leibniz_defects(other) == []
        d1 = coboundary_matrix(other, adjoint_bimodule(other), 1)
        assert linalg.rank(d1) == coh.block_analysis(0, ("G", "G")).projection_dim == 6
        monkeypatch.setattr(coh, "degree_zero_part", lambda: other)
        self.assert_matches(coh, False, zl_basis)


def family_with_left_action():
    """The m=2 family algebra with [x1, e] changed from -2*x0 to -3*x0: it
    still respects the grading, and fails the Leibniz identity."""
    algebra, _ = simple_leibniz_sl2(2)
    tensor = {key: dict(vec) for key, vec in algebra.tensor.items()}
    tensor[(4, 0)] = {3: F(-3)}
    return AlgebraStructure(algebra.dim, algebra.basis_labels, tensor)


class TestBlockwiseComplex:
    """squares_to_zero(n) applies d^{n+1} to each integer column of d^n;
    the full Fraction product is its reference."""

    @staticmethod
    def full_product_is_zero(algebra, n):
        module = adjoint_bimodule(algebra)
        d = coboundary_matrix(algebra, module, n)
        return (coboundary_matrix(algebra, module, n + 1) @ d).is_zero()

    @pytest.mark.parametrize("degrees", [(0, 0, 0, 1, 1, 1), (0,) * 6])
    def test_failed_identity_detected(self, degrees):
        bad = family_with_left_action()
        assert leibniz_defects(bad)
        coh = AdjointCohomology(bad, Grading(degrees))
        assert not coh.squares_to_zero(1)
        for n in (0, 1, 2):
            assert coh.squares_to_zero(n) == self.full_product_is_zero(bad, n)

    def test_failure_past_the_first_column_detected(self):
        # with sl2 as the first summand the leading columns of each d^n
        # are cochains of sl2, whose complex squares to zero; within the
        # (degree, weight) blocks the failures are spread over both
        bad = direct_sum(sl2(), family_with_left_action())
        coh = AdjointCohomology(bad, Grading((0,) * bad.dim))
        for n in (0, 1, 2):
            assert not coh.squares_to_zero(n)

    def test_change_past_the_first_column_and_block_detected(self):
        # one d^1 entry doubled in the last column of the largest block,
        # at a row where d^2 is nonzero; the block is not the first one
        algebra, grading = simple_leibniz_sl2(2)
        coh = AdjointCohomology(algebra, grading)
        d1 = _integer_builder(algebra, coh.module).columns(1)
        d2 = _integer_builder(algebra, coh.module).columns(2)
        blocks = coh._blocks(1)
        key = max(blocks, key=lambda k: len(blocks[k]))
        nonzero = [c for c in blocks[key] if c in d1]
        assert key != min(blocks) and len(nonzero) > 1
        col = nonzero[-1]
        row = next(r for r in d1[col] if r in d2)
        real = coh._builder.columns

        def changed(n, cols=None):
            out = real(n, cols)
            if n == 1 and col in out:
                out[col][row] *= 2
            return out

        coh._builder.columns = changed
        assert not coh.squares_to_zero(1)

    @pytest.mark.parametrize("m", [2, 3])
    def test_family_complex(self, m):
        algebra, grading = simple_leibniz_sl2(m)
        coh = AdjointCohomology(algebra, grading)
        for n in (0, 1, 2):
            assert coh.squares_to_zero(n) and self.full_product_is_zero(algebra, n)
