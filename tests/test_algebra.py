"""Structure tensors, identity checking, gradings and bimodule axioms."""

import random
from fractions import Fraction

import pytest

from leibcohom.algebra import (
    AlgebraStructure,
    Bimodule,
    Grading,
    IdentityViolation,
    adjoint_bimodule,
    check_bimodule_axioms,
    check_grading,
    leibniz_defects,
    squares_ideal,
    symmetric_bimodule,
)
from leibcohom.catalog import irreducible_sl2_module, simple_leibniz_sl2, sl2
from leibcohom.linalg import SparseRationalMatrix, Subspace, _axpy, subspace_equal

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


def reference_leibniz_defects(algebra):
    """The Leibniz identity checked triple by triple in Fractions, through
    the algebra's own bracket of a basis element and a vector."""
    n = algebra.dim
    violations = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                p_jk = algebra.product(j, k)
                p_ij = algebra.product(i, j)
                p_ik = algebra.product(i, k)
                if not (p_jk or p_ij or p_ik):
                    continue
                defect = algebra.bracket_basis_vector(i, p_jk)
                _axpy(defect, algebra.bracket_vector_basis(p_ij, k), F(-1))
                _axpy(defect, algebra.bracket_vector_basis(p_ik, j), F(1))
                if defect:
                    violations.append(IdentityViolation((i, j, k), defect))
    return violations


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

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fractional_defects_match_reference(self, seed, conjugate):
        # the integer defects, divided by the square of the tensor's
        # scale, against the Fraction loop: same triples, same vectors
        bad = conjugate(perturbed_family_algebra(), seed)
        denominators = {c.denominator for vec in bad.tensor.values() for c in vec.values()}
        assert max(denominators) > 1
        defects = leibniz_defects(bad)
        assert defects and defects == reference_leibniz_defects(bad)

    @pytest.mark.parametrize("m,seed", [(2, 1), (3, 2)])
    def test_fractional_family_satisfies_identity(self, m, seed, conjugate):
        algebra = conjugate(simple_leibniz_sl2(m)[0], seed)
        assert leibniz_defects(algebra) == reference_leibniz_defects(algebra) == []


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

    def test_parts(self):
        assert Grading((0, 1, 0, 1, 1)).parts() == ((0, 2), (1, 3, 4))
        # either part may be empty
        assert Grading((0, 0)).parts() == ((0, 1), ())
        assert Grading((1,)).parts() == ((), (0,))
        assert Grading(()).parts() == ((), ())

    @pytest.mark.parametrize("degrees", [(0, 2), (-1, 0, 1), (1, -1, 0)])
    def test_parts_reject_other_degrees(self, degrees):
        with pytest.raises(ValueError, match="degrees in"):
            Grading(degrees).parts()

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

    @pytest.mark.parametrize("degree", [0.7, 1.0, "1", F(1)])
    def test_non_integer_degree_rejected(self, degree):
        with pytest.raises(TypeError, match="integer degree"):
            Grading((0, degree))


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


def reference_bimodule_axioms(algebra, module):
    """The three axioms as composites of the action matrices, through
    ``@``: for each pair (i, j) the defect matrices

        1.  R_j R_i - R_i R_j - sum_t c_ij^t R_t
        2.  L_i R_j - R_j L_i + sum_t c_ij^t L_t
        3.  L_i L_j + R_j L_i - sum_t c_ij^t L_t

    each reported per nonzero column mu, in the order (i, j, axiom, mu)."""
    d = module.module_dim
    left = [SparseRationalMatrix(d, d, act) for act in module.left_action]
    right = [SparseRationalMatrix(d, d, act) for act in module.right_action]
    violations = []
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            c_ij = algebra.product(i, j).items()
            composites = (
                [(1, right[j] @ right[i]), (-1, right[i] @ right[j])]
                + [(-c, right[t]) for t, c in c_ij],
                [(1, left[i] @ right[j]), (-1, right[j] @ left[i])]
                + [(c, left[t]) for t, c in c_ij],
                [(1, left[i] @ left[j]), (1, right[j] @ left[i])]
                + [(-c, left[t]) for t, c in c_ij],
            )
            for axiom, terms in enumerate(composites, start=1):
                defect = {}
                for scale, mat in terms:
                    _axpy(defect, mat.entries, F(scale))
                by_col = {}
                for (out, inp), v in defect.items():
                    by_col.setdefault(inp, {})[out] = v
                for mu in sorted(by_col):
                    violations.append(IdentityViolation((i, j, mu), by_col[mu], axiom=axiom))
    return violations


def small_rational(rng):
    return F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))


def random_algebra(rng):
    """A seeded random tensor of dimension 1 to 5, Leibniz or not."""
    n = rng.randint(1, 5)
    tensor = {
        (i, j): {k: small_rational(rng) for k in range(n) if rng.random() < 0.4}
        for i in range(n) for j in range(n) if rng.random() < 0.5
    }
    return AlgebraStructure(n, tuple(f"b{i}" for i in range(n)), tensor)


def broken_sl2_module(rng):
    """V_m or its symmetric bimodule over sl2, m in 0..5, with a few
    entries of both the left and the right actions changed."""
    module = irreducible_sl2_module(rng.randint(0, 5))
    if rng.random() < 0.5:
        module = symmetric_bimodule(module)
    d = module.module_dim
    actions = []
    for side in (module.left_action, module.right_action):
        side = [dict(act) for act in side]
        for _ in range(rng.randint(1, 2)):
            x, key = rng.randrange(3), (rng.randrange(d), rng.randrange(d))
            side[x][key] = side[x].get(key, F(0)) + small_rational(rng)
        actions.append(tuple(side))
    return Bimodule(3, d, *actions)


class TestBimoduleAxiomsReference:
    """check_bimodule_axioms, which runs the Leibniz identity of L ⋉ M,
    against the axioms written out as composites of action matrices:
    the same violations in the same order, with the same defects."""

    def test_broken_sl2_modules(self):
        rng = random.Random(1)
        axioms = set()
        for _ in range(60):
            module = broken_sl2_module(rng)
            violations = check_bimodule_axioms(sl2(), module)
            assert violations == reference_bimodule_axioms(sl2(), module)
            axioms.update(v.axiom for v in violations)
        assert axioms == {1, 2, 3}

    def test_adjoint_bimodules_of_random_algebras(self):
        rng = random.Random(2)
        axioms = set()
        for _ in range(60):
            algebra = random_algebra(rng)
            module = adjoint_bimodule(algebra)
            violations = check_bimodule_axioms(algebra, module)
            assert violations == reference_bimodule_axioms(algebra, module)
            axioms.update(v.axiom for v in violations)
        assert axioms == {1, 2, 3}

    def test_axiom_2_alone_fails(self):
        # over the line, L_0 = E_01 and R_0 = E_11 give L_0^2 = R_0 L_0 = 0,
        # so axioms 1 and 3 hold, but L_0 R_0 - R_0 L_0 = E_01
        line = AlgebraStructure(1, ("a",), {})
        module = Bimodule(1, 2, ({(0, 1): F(1)},), ({(1, 1): F(1)},))
        expected = [IdentityViolation((0, 0, 1), {0: F(1)}, axiom=2)]
        assert check_bimodule_axioms(line, module) == expected
        assert reference_bimodule_axioms(line, module) == expected

    def test_axiom_1_defect_sign(self):
        # [e, f] = h acts as 2 on x0 of V_2; with R_h doubled there,
        # R_f R_e - R_e R_f - R_h = -2 on x0, and axiom 1 reports that
        module = irreducible_sl2_module(2)
        right = [dict(act) for act in module.right_action]
        right[2][(0, 0)] = F(4)
        bad = Bimodule(3, 3, module.left_action, tuple(right))
        violations = check_bimodule_axioms(sl2(), bad)
        assert IdentityViolation((0, 1, 0), {0: F(-2)}, axiom=1) in violations
        assert violations == reference_bimodule_axioms(sl2(), bad)
