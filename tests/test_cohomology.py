"""Cohomology dimensions, graded reports, block analyses, and the Lie
comparison theorems."""

from fractions import Fraction

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
from leibcohom.catalog import direct_sum, irreducible_sl2_module, simple_leibniz_sl2, sl2
from leibcohom.cochain import coboundary_matrix
from leibcohom.cohomology import (
    AdjointCohomology,
    BlockAnalysis,
    CohomologyReport,
    _ce_coboundary,
    bl_dim,
    hl_dim,
    leibniz_h_with_coefficients,
    lie_ce_h,
    zl_dim,
)
from leibcohom.derivations import derivation_space

F = Fraction

# the 2-dimensional non-abelian Lie algebra, [a, b] = b
R2 = AlgebraStructure(2, ("a", "b"), {(0, 1): {1: F(1)}, (1, 0): {1: F(-1)}})
# the Heisenberg algebra, [x, y] = z
H3 = AlgebraStructure(3, ("x", "y", "z"), {(0, 1): {2: F(1)}, (1, 0): {2: F(-1)}})


def trivial_module(algebra):
    zero = tuple({} for _ in range(algebra.dim))
    return Bimodule(algebra.dim, 1, zero, zero)


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

    def test_invalid_grading_rejected(self):
        algebra, _ = simple_leibniz_sl2(2)
        with pytest.raises(ValueError):
            AdjointCohomology(algebra, Grading((0, 0, 0, 1, 1, 2)))


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

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_gg_block_is_lie_coboundary(self, m):
        algebra, grading = simple_leibniz_sl2(m)
        assert AdjointCohomology(algebra, grading).gg_block_is_lie_coboundary()

    def test_gg_projection_is_skew(self):
        algebra, grading = simple_leibniz_sl2(2)
        coh = AdjointCohomology(algebra, grading)
        from leibcohom.linalg import project

        coords = coh.block_local_coords(0, (("G", "G"),))
        projected = project(coh.zl_graded_basis(0), coords)
        assert projected.dim == 6
        for vec in projected.basis:
            for p, v in vec.items():
                rest, c = divmod(p, 3)
                a, b = divmod(rest, 3)
                swapped = (b * 3 + a) * 3 + c
                assert vec.get(swapped, F(0)) == -v


class TestLieCohomology:
    @pytest.mark.parametrize("m", range(0, 7))
    def test_whitehead_for_irreducibles(self, m):
        module = irreducible_sl2_module(m)
        assert lie_ce_h(sl2(), module, 1) == 0
        assert lie_ce_h(sl2(), module, 2) == 0

    def test_whitehead_adjoint(self):
        module = adjoint_bimodule(sl2())
        assert lie_ce_h(sl2(), module, 1) == 0
        assert lie_ce_h(sl2(), module, 2) == 0

    def test_abelian_with_trivial_coefficients(self):
        # for an abelian Lie algebra and trivial module the differentials
        # vanish, so H^n is the whole cochain space
        two = AlgebraStructure(2, ("a", "b"), {})
        trivial = Bimodule(2, 1, ({}, {}), ({}, {}))
        assert lie_ce_h(two, trivial, 1) == 2
        assert lie_ce_h(two, trivial, 2) == 1

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
        assert (lie_ce_h(algebra, module, 1), lie_ce_h(algebra, module, 2)) == expected

    @pytest.mark.parametrize("n", [0, 1])
    def test_complex_property(self, n):
        for algebra, module in (
            (H3, adjoint_bimodule(H3)),
            (sl2(), irreducible_sl2_module(3)),
            (direct_sum(sl2(), R2), adjoint_bimodule(direct_sum(sl2(), R2))),
        ):
            d = _ce_coboundary(algebra, module, n)
            d_next = _ce_coboundary(algebra, module, n + 1)
            assert (d_next @ d).is_zero()

    def test_requires_lie_algebra(self):
        algebra, _ = simple_leibniz_sl2(2)
        module = adjoint_bimodule(algebra)
        with pytest.raises(ValueError):
            lie_ce_h(algebra, module, 1)

    def test_requires_module_axiom(self):
        module = irreducible_sl2_module(2)
        right = [dict(act) for act in module.right_action]
        right[0][(0, 0)] = F(7)
        bad = Bimodule(3, 3, module.left_action, tuple(right))
        with pytest.raises(ValueError):
            lie_ce_h(sl2(), bad, 1)

    def test_arity_validation(self):
        with pytest.raises(ValueError):
            lie_ce_h(sl2(), adjoint_bimodule(sl2()), 3)


class TestLeibnizWithCoefficients:
    @pytest.mark.parametrize("m", range(0, 7))
    def test_symmetric_structure_vanishes(self, m):
        module = symmetric_bimodule(irreducible_sl2_module(m))
        assert leibniz_h_with_coefficients(sl2(), module, 1) == 0
        assert leibniz_h_with_coefficients(sl2(), module, 2) == 0

    @pytest.mark.parametrize("m", range(0, 7))
    def test_zero_left_action_detects_module_maps(self, m):
        # with zero left action, HL^1 counts module morphisms from the
        # adjoint module, which exist exactly for the 3-dimensional one
        module = irreducible_sl2_module(m)
        expected = 1 if m == 2 else 0
        assert leibniz_h_with_coefficients(sl2(), module, 1) == expected
        assert leibniz_h_with_coefficients(sl2(), module, 2) == 0

    def test_one_dimensional_abelian(self):
        one = AlgebraStructure(1, ("a",), {})
        trivial = Bimodule(1, 1, ({},), ({},))
        assert leibniz_h_with_coefficients(one, trivial, 1) == 1

    def test_rejects_broken_bimodule(self):
        module = irreducible_sl2_module(2)
        right = [dict(act) for act in module.right_action]
        right[2][(1, 1)] = right[2].get((1, 1), F(0)) + F(1)
        bad = Bimodule(3, 3, module.left_action, tuple(right))
        with pytest.raises(ValueError):
            leibniz_h_with_coefficients(sl2(), bad, 2)


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

    def test_full_matrix_rank_is_off_the_engine_path(self, monkeypatch):
        def no_rank(matrix):
            raise RuntimeError("full-matrix rank on the engine path")

        monkeypatch.setattr(cohomology, "rank", no_rank)
        report = AdjointCohomology(*simple_leibniz_sl2(3)).report(2)
        assert (report.dim_z, report.dim_b, report.dim_h) == (45, 45, 0)

    def test_ranks_do_not_reduce(self, monkeypatch):
        calls = []
        real = linalg._reduce

        def counted(pivots):
            calls.append(len(pivots))
            return real(pivots)

        monkeypatch.setattr(linalg, "_reduce", counted)
        coh = AdjointCohomology(*simple_leibniz_sl2(3))
        assert (coh.zl_dim(2), coh.hl_dim(2)) == (45, 0)
        coh.report(2)
        assert calls == []
        # reading a cocycle basis reduces that block, once
        coh.zl_graded_basis(0)
        coh.zl_graded_basis(0)
        assert len(calls) == 1


def family_with_left_action():
    """The m=2 family algebra with [x1, e] changed from -2*x0 to -3*x0: it
    still respects the grading, and fails the Leibniz identity."""
    algebra, _ = simple_leibniz_sl2(2)
    tensor = {key: dict(vec) for key, vec in algebra.tensor.items()}
    tensor[(4, 0)] = {3: F(-3)}
    return AlgebraStructure(algebra.dim, algebra.basis_labels, tensor)


class TestBlockwiseComplex:
    """squares_to_zero(n) composes d^{n+1} and d^n block by block; the full
    Fraction product is its reference."""

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

    @pytest.mark.parametrize("m", [2, 3])
    def test_family_complex(self, m):
        algebra, grading = simple_leibniz_sl2(m)
        coh = AdjointCohomology(algebra, grading)
        for n in (0, 1, 2):
            assert coh.squares_to_zero(n) and self.full_product_is_zero(algebra, n)
