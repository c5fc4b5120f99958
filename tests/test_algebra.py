"""Structure tensors, identity checking, gradings and bimodule axioms."""

from fractions import Fraction

import pytest

from leibcohom.algebra import (
    AlgebraStructure,
    Bimodule,
    Grading,
    adjoint_bimodule,
    check_bimodule_axioms,
    check_grading,
    leibniz_defects,
    squares_ideal,
    symmetric_bimodule,
)
from leibcohom.catalog import irreducible_sl2_module, simple_leibniz_sl2, sl2
from leibcohom.linalg import Subspace, subspace_equal

F = Fraction


def perturbed_family_algebra():
    """The m=2 family algebra with [x1, e] changed from -2*x0 to -3*x0."""
    algebra, _ = simple_leibniz_sl2(2)
    tensor = {key: dict(vec) for key, vec in algebra.tensor.items()}
    tensor[(4, 0)] = {3: F(-3)}
    return AlgebraStructure(algebra.dim, algebra.basis_labels, tensor)


class TestAlgebraStructure:
    def test_product_lookup(self):
        g = sl2()
        assert g.product(0, 1) == {2: F(1)}
        assert g.product(1, 0) == {2: F(-1)}
        assert g.product(0, 0) == {}

    def test_bracket_vectors_bilinear(self):
        g = sl2()
        u = {0: F(2), 2: F(1)}   # 2e + h
        # [2e + h, f] = 2[e,f] + [h,f] = 2h + 2f
        assert g.bracket_vector_basis(u, 1) == {2: F(2), 1: F(2)}
        # [f, 2e + h] = -2h - 2f
        assert g.bracket_basis_vector(1, u) == {2: F(-2), 1: F(-2)}
        # [e, 2e + h] = [e, h] = 2e: the square term drops out
        assert g.bracket_basis_vector(0, u) == {0: F(2)}
        # a zero coefficient contributes nothing, not a stored zero
        assert g.bracket_basis_vector(0, {2: F(0)}) == {}

    def test_rejects_bad_tensor_index(self):
        with pytest.raises(ValueError):
            AlgebraStructure(2, ("a", "b"), {(0, 5): {0: F(1)}})

    def test_rejects_float_coefficient(self):
        with pytest.raises(TypeError):
            AlgebraStructure(1, ("a",), {(0, 0): {0: 0.5}})

    def test_rejects_string_coefficient(self):
        with pytest.raises(TypeError):
            AlgebraStructure(1, ("a",), {(0, 0): {0: "1/2"}})

    def test_rejects_zero_at_bad_index(self):
        with pytest.raises(ValueError, match="out of range"):
            AlgebraStructure(2, ("a", "b"), {(0, 1): {0: F(1), 2: F(0)}})


class TestLeibnizIdentity:
    def test_family_satisfies_identity(self):
        for m in (2, 3, 5):
            algebra, _ = simple_leibniz_sl2(m)
            assert leibniz_defects(algebra) == []

    def test_sl2_satisfies_identity(self):
        assert leibniz_defects(sl2()) == []

    def test_perturbed_algebra_fails(self):
        bad = perturbed_family_algebra()
        defects = leibniz_defects(bad)
        assert defects
        by_triple = {v.triple: v.defect for v in defects}
        # (x1, e, f): 0 - [-3*x0, f] + [x2, e] = 3*x1 - 2*x1 = x1
        assert by_triple[(4, 0, 1)] == {4: F(1)}
        # (x1, e, h) stays balanced: both routes scale the same way
        assert (4, 0, 2) not in by_triple


class TestSquaresIdeal:
    def test_family_squares(self):
        for m in (2, 4):
            algebra, _ = simple_leibniz_sl2(m)
            sq = squares_ideal(algebra)
            assert sq.dim == m + 1
            expected = Subspace.from_spanning(
                [{k: F(1)} for k in range(3, algebra.dim)], algebra.dim
            )
            assert subspace_equal(sq, expected)

    def test_lie_algebra_squares_vanish(self):
        assert squares_ideal(sl2()).dim == 0


class TestGrading:
    def test_classes(self):
        g = Grading((0, 0, 1, 1, 1))
        assert g.classes() == {0: (0, 1), 1: (2, 3, 4)}

    def test_family_grading_respected(self):
        algebra, grading = simple_leibniz_sl2(3)
        assert grading.degrees == (0, 0, 0, 1, 1, 1, 1)
        assert check_grading(algebra, grading)

    def test_bogus_grading_rejected(self):
        algebra, _ = simple_leibniz_sl2(2)
        assert not check_grading(algebra, Grading((0, 0, 0, 1, 1, 2)))

    def test_wrong_length_raises(self):
        algebra, _ = simple_leibniz_sl2(2)
        with pytest.raises(ValueError):
            check_grading(algebra, Grading((0, 0)))


class TestBimodules:
    def test_adjoint_actions(self):
        algebra, _ = simple_leibniz_sl2(2)
        adj = adjoint_bimodule(algebra)
        # right multiplication by e: [h, e] = -2e and [x1, e] = -2x0
        assert adj.right_action[0][(0, 2)] == F(-2)
        assert adj.right_action[0][(3, 4)] == F(-2)
        # left multiplication by e: [e, f] = h, [e, h] = 2e, [e, x_k] = 0
        assert adj.left_action[0] == {(2, 1): F(1), (0, 2): F(2)}

    def test_module_axioms_hold(self):
        lie = sl2()
        for m in (0, 1, 2, 5):
            assert check_bimodule_axioms(lie, irreducible_sl2_module(m)) == []

    def test_adjoint_axioms_hold(self):
        algebra, _ = simple_leibniz_sl2(3)
        assert check_bimodule_axioms(algebra, adjoint_bimodule(algebra)) == []

    def test_broken_action_detected(self):
        module = irreducible_sl2_module(2)
        right = [dict(act) for act in module.right_action]
        right[0][(0, 1)] = right[0].get((0, 1), F(0)) + F(1)
        bad = Bimodule(3, 3, module.left_action, tuple(right))
        violations = check_bimodule_axioms(sl2(), bad)
        assert violations
        assert all(v.axiom in (1, 2, 3) for v in violations)

    def test_symmetric_bimodule(self):
        module = irreducible_sl2_module(4)
        sym = symmetric_bimodule(module)
        assert check_bimodule_axioms(sl2(), sym) == []
        for left, right in zip(sym.left_action, sym.right_action):
            assert left == {key: -v for key, v in right.items()}

    def test_dimension_mismatch_raises(self):
        module = irreducible_sl2_module(2)
        with pytest.raises(ValueError):
            check_bimodule_axioms(sl2(), Bimodule(4, 3, module.left_action, module.right_action))
