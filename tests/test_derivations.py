"""Derivation spaces, operator encodings, and canonical decompositions."""

import random
from fractions import Fraction

import pytest

import leibcohom.derivations as derivations
from leibcohom.algebra import AlgebraStructure, Grading, adjoint_bimodule, leibniz_defects
from leibcohom.catalog import simple_leibniz_sl2, sl2
from leibcohom.cochain import coboundary_matrix
from leibcohom.cohomology import AdjointCohomology
from leibcohom.derivations import (
    DerivationDecomposition,
    cochain_to_matrix,
    decompose_derivation,
    delta_generator,
    derivation_space,
    ideal_projection,
    matrix_to_cochain,
    right_mult_operator,
)
from leibcohom.linalg import (
    SparseRationalMatrix,
    kernel_basis,
    subspace_equal,
)

F = Fraction


def is_derivation(algebra, op):
    """Direct check of D([a,b]) = [D(a),b] + [a,D(b)] on all basis pairs."""
    n = algebra.dim
    cols = [
        {t: v for (t, z), v in op.entries.items() if z == j} for j in range(n)
    ]
    for i in range(n):
        for j in range(n):
            lhs = {}
            for k, c in algebra.product(i, j).items():
                for t, v in cols[k].items():
                    lhs[t] = lhs.get(t, F(0)) + c * v
            rhs = algebra.bracket_vector_basis(cols[i], j)
            for t, v in algebra.bracket_basis_vector(i, cols[j]).items():
                rhs[t] = rhs.get(t, F(0)) + v
            lhs = {t: v for t, v in lhs.items() if v}
            rhs = {t: v for t, v in rhs.items() if v}
            if lhs != rhs:
                return False
    return True


def random_tensor(rng):
    """A seeded random algebra of dimension 1 to 5 with small rational
    structure constants, Leibniz or not."""
    n = rng.randint(1, 5)
    tensor = {
        (i, j): {k: F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))
                 for k in range(n) if rng.random() < 0.4}
        for i in range(n) for j in range(n) if rng.random() < 0.5
    }
    return AlgebraStructure(n, tuple(f"b{i}" for i in range(n)), tensor)


def constraint_matrix(algebra, monkeypatch):
    """The matrix whose kernel derivation_space returns."""
    seen = []

    def capture(matrix):
        seen.append(matrix)
        return kernel_basis(matrix)

    monkeypatch.setattr(derivations, "kernel_basis", capture)
    derivation_space(algebra)
    (matrix,) = seen
    return matrix


def minus_d1(algebra):
    d1 = coboundary_matrix(algebra, adjoint_bimodule(algebra), 1)
    return SparseRationalMatrix(d1.rows, d1.cols, {key: -v for key, v in d1.entries.items()})


class TestDerivationSpace:
    def test_sl2_is_inner_only(self):
        assert derivation_space(sl2()).dim == 3

    @pytest.mark.parametrize("m,expected", [(2, 5), (3, 4), (4, 4), (7, 4)])
    def test_family_dimension(self, m, expected):
        algebra, _ = simple_leibniz_sl2(m)
        assert derivation_space(algebra).dim == expected

    @pytest.mark.parametrize("m", [2, 3])
    def test_equals_kernel_of_d1(self, m):
        algebra, grading = simple_leibniz_sl2(m)
        d1 = coboundary_matrix(algebra, adjoint_bimodule(algebra), 1)
        assert subspace_equal(derivation_space(algebra), kernel_basis(d1))

    # the hand-built constraints are -d^1 of the adjoint bimodule entry
    # for entry, on any tensor: Der = ZL^1 needs no Leibniz identity
    @pytest.mark.parametrize("m", range(2, 9))
    def test_constraints_are_minus_d1_family(self, m, monkeypatch):
        algebra, _ = simple_leibniz_sl2(m)
        assert constraint_matrix(algebra, monkeypatch) == minus_d1(algebra)

    @pytest.mark.parametrize("m,seed", [(2, 1), (3, 2), (4, 3)])
    def test_constraints_are_minus_d1_conjugated(self, m, seed, monkeypatch, conjugate):
        algebra, grading = simple_leibniz_sl2(m)
        twisted = conjugate(algebra, seed, grading)
        assert constraint_matrix(twisted, monkeypatch) == minus_d1(twisted)

    def test_constraints_are_minus_d1_random(self, monkeypatch):
        rng = random.Random(25)
        leibniz = 0
        for _ in range(30):
            algebra = random_tensor(rng)
            leibniz += not leibniz_defects(algebra)
            assert constraint_matrix(algebra, monkeypatch) == minus_d1(algebra)
        assert 0 < leibniz < 30

    def test_every_basis_vector_is_a_derivation(self):
        algebra, _ = simple_leibniz_sl2(3)
        for vec in derivation_space(algebra).basis:
            assert is_derivation(algebra, cochain_to_matrix(dict(vec), algebra.dim))


class TestOperators:
    def test_right_mult_entries(self):
        algebra, _ = simple_leibniz_sl2(2)
        r_e = right_mult_operator(algebra, 0)
        assert r_e.entries[(3, 4)] == F(-2)   # [x1, e] = -2 x0
        assert r_e.entries[(0, 2)] == F(-2)   # [h, e] = -2e
        r_h = right_mult_operator(algebra, 2)
        assert r_h.entries[(0, 0)] == F(2)    # [e, h] = 2e

    def test_right_mult_by_vector(self):
        algebra, _ = simple_leibniz_sl2(2)
        combo = right_mult_operator(algebra, {0: F(1), 2: F(3)})
        single = right_mult_operator(algebra, 0)
        triple_h = right_mult_operator(algebra, 2)
        expected = {
            key: single.entries.get(key, F(0)) + 3 * triple_h.entries.get(key, F(0))
            for key in set(single.entries) | set(triple_h.entries)
        }
        expected = {k: v for k, v in expected.items() if v}
        assert combo.entries == expected

    def test_right_mult_is_derivation(self):
        # right multiplications are derivations in any Leibniz algebra
        algebra, _ = simple_leibniz_sl2(3)
        for s in range(algebra.dim):
            assert is_derivation(algebra, right_mult_operator(algebra, s))

    def test_ideal_projection(self):
        algebra, grading = simple_leibniz_sl2(2)
        proj = ideal_projection(algebra, grading)
        assert proj.entries == {(z, z): F(1) for z in (3, 4, 5)}
        assert is_derivation(algebra, proj)

    def test_encoding_round_trip(self):
        mat = SparseRationalMatrix(3, 3, {(0, 1): F(5), (2, 2): F(-1)})
        assert cochain_to_matrix(matrix_to_cochain(mat), 3).entries == mat.entries


class TestDeltaGenerator:
    def test_m2_pinned_values(self):
        algebra, grading = simple_leibniz_sl2(2)
        delta = delta_generator(algebra, grading, derivation_space(algebra))
        # rows are ideal positions (x0,x1,x2), columns are (e,f,h):
        # e -> x0, f -> x2/2, h -> x1 after normalization
        assert delta.entries == {
            (0, 0): F(1),
            (2, 1): F(1, 2),
            (1, 2): F(1),
        }

    def test_m2_delta_is_a_derivation(self):
        algebra, grading = simple_leibniz_sl2(2)
        delta = delta_generator(algebra, grading, derivation_space(algebra))
        full = {}
        g_idx = (0, 1, 2)
        i_idx = (3, 4, 5)
        for (r, c), v in delta.entries.items():
            full[(i_idx[r], g_idx[c])] = v
        assert is_derivation(algebra, SparseRationalMatrix(6, 6, full))

    @pytest.mark.parametrize("m", [3, 4, 6])
    def test_absent_for_other_m(self, m):
        algebra, grading = simple_leibniz_sl2(m)
        assert delta_generator(algebra, grading, derivation_space(algebra)) is None

    def test_needs_01_grading(self):
        with pytest.raises(ValueError):
            delta_generator(sl2(), Grading((0, 0, 0)), derivation_space(sl2()))


class TestDecomposition:
    def test_right_mult_decomposes_to_itself(self):
        algebra, grading = simple_leibniz_sl2(3)
        [dec] = decompose_derivation(algebra, grading, [right_mult_operator(algebra, 1)])
        assert dec.coefficients == (F(0), F(1), F(0))
        assert dec.lam == 0
        assert dec.delta.is_zero()
        assert dec.is_exact

    def test_ideal_projection_decomposes(self):
        algebra, grading = simple_leibniz_sl2(2)
        [dec] = decompose_derivation(algebra, grading, [ideal_projection(algebra, grading)])
        assert dec.coefficients == (F(0), F(0), F(0))
        assert dec.lam == 1
        assert dec.delta.is_zero()
        assert dec.is_exact

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_full_basis_decomposes_exactly(self, m):
        algebra, grading = simple_leibniz_sl2(m)
        space = derivation_space(algebra)
        deltas = 0
        operators = [cochain_to_matrix(dict(vec), algebra.dim) for vec in space.basis]
        for dec in decompose_derivation(algebra, grading, operators):
            assert isinstance(dec, DerivationDecomposition)
            assert dec.is_exact
            if not dec.delta.is_zero():
                deltas += 1
        if m == 2:
            assert deltas >= 1
        else:
            assert deltas == 0

    def test_non_derivation_leaves_residual(self):
        algebra, grading = simple_leibniz_sl2(2)
        bogus = SparseRationalMatrix(6, 6, {(0, 3): F(1)})
        [dec] = decompose_derivation(algebra, grading, [bogus])
        assert not dec.is_exact

    @staticmethod
    def assert_batch_is_per_derivation(algebra, grading, operators):
        """One call over all the operators, which builds and ranks the
        family once, equals one call per operator."""
        batch = decompose_derivation(algebra, grading, operators)
        assert batch == [decompose_derivation(algebra, grading, [op])[0] for op in operators]
        return batch

    @pytest.mark.parametrize("m", range(2, 9))
    def test_batch_equals_one_call_per_derivation(self, m):
        algebra, grading = simple_leibniz_sl2(m)
        operators = [cochain_to_matrix(dict(vec), algebra.dim)
                     for vec in derivation_space(algebra).basis]
        batch = self.assert_batch_is_per_derivation(algebra, grading, operators)
        assert len(batch) == (5 if m == 2 else 4) and all(dec.is_exact for dec in batch)

    def test_batch_on_a_graded_conjugate(self, conjugate):
        algebra, grading = simple_leibniz_sl2(3)
        twisted = conjugate(algebra, 4, grading)
        operators = [cochain_to_matrix(dict(vec), twisted.dim)
                     for vec in derivation_space(twisted).basis]
        batch = self.assert_batch_is_per_derivation(twisted, grading, operators)
        assert len(batch) == 4 and all(dec.is_exact for dec in batch)

    def test_batch_keeps_a_residual(self):
        # a non-derivation between two derivations keeps its own residual
        algebra, grading = simple_leibniz_sl2(2)
        bogus = SparseRationalMatrix(6, 6, {(0, 3): F(1)})
        operators = [right_mult_operator(algebra, 1), bogus, ideal_projection(algebra, grading)]
        batch = self.assert_batch_is_per_derivation(algebra, grading, operators)
        assert [dec.is_exact for dec in batch] == [True, False, True]

    def test_wrong_shape_rejected(self):
        algebra, grading = simple_leibniz_sl2(2)
        with pytest.raises(ValueError):
            decompose_derivation(algebra, grading, [SparseRationalMatrix(3, 3, {})])

    def test_link_between_coboundaries_and_derivations(self):
        # rank d^1 = (dim L)^2 - dim Der pairs the two computations
        for m in (2, 4):
            algebra, grading = simple_leibniz_sl2(m)
            coh = AdjointCohomology(algebra, grading)
            n = algebra.dim
            assert coh.bl_dim(2) == n * n - derivation_space(algebra).dim
