"""Coboundary matrices: shapes, frozen entries, an independent evaluator,
and the graded substructure."""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import pytest

from leibcohom.algebra import (
    AlgebraStructure,
    Bimodule,
    Grading,
    adjoint_bimodule,
    symmetric_bimodule,
)
from leibcohom.catalog import direct_sum, irreducible_sl2_module, simple_leibniz_sl2, sl2
from leibcohom.cochain import (
    _integer_builder,
    coboundary_matrix,
    cochain_degrees,
    graded_columns,
    graded_submatrix,
)
from leibcohom.cohomology import AdjointCohomology
from leibcohom.linalg import kernel_basis, rank

from conftest import cells

F = Fraction


@dataclass(frozen=True)
class CochainIndex:
    """Flat enumeration of the basis of Hom(L^arity, M): the coordinate
    ``(i_1, ..., i_n; k)`` sits at ``((i_1 * dim L + i_2) * ...) * dim M + k``.
    The reference evaluator below reads cochains through it."""

    algebra_dim: int
    module_dim: int
    arity: int

    @property
    def size(self):
        return self.algebra_dim**self.arity * self.module_dim

    def flat(self, args, target):
        assert len(args) == self.arity
        assert all(0 <= a < self.algebra_dim for a in args)
        assert 0 <= target < self.module_dim
        idx = 0
        for a in args:
            idx = idx * self.algebra_dim + a
        return idx * self.module_dim + target

    def unflat(self, index):
        assert 0 <= index < self.size
        index, target = divmod(index, self.module_dim)
        args = []
        for _ in range(self.arity):
            index, a = divmod(index, self.algebra_dim)
            args.append(a)
        return tuple(reversed(args)), target


def reference_coboundary_value(algebra, module, n, cochain, args):
    """Pointwise (d^n f)(x_1, ..., x_{n+1}), written 1-based and term by
    term, independently of the matrix assembly.

    ``cochain`` maps an n-tuple of basis indices to a module vector.
    """
    out = {}

    def accumulate(vec, scale):
        for k, v in vec.items():
            cur = out.get(k, F(0)) + scale * v
            if cur:
                out[k] = cur
            else:
                out.pop(k, None)

    def act(action_matrix, vec, scale):
        for (tgt, src), a in action_matrix.items():
            v = vec.get(src)
            if v:
                cur = out.get(tgt, F(0)) + scale * a * v
                if cur:
                    out[tgt] = cur
                else:
                    out.pop(tgt, None)

    # [x_1, f(x_2, ..., x_{n+1})]
    act(module.left_action[args[0]], cochain(args[1:]), F(1))
    # sum over p = 2..n+1 of (-1)^p [f(..., omit x_p, ...), x_p]
    for p in range(2, n + 2):
        rest = args[: p - 1] + args[p:]
        sign = F(1) if p % 2 == 0 else F(-1)
        act(module.right_action[args[p - 1]], cochain(rest), sign)
    # sum over i < j of (-1)^(j+1) f(..., [x_i, x_j] in slot i, ..., omit x_j, ...)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 2):
            sign = F(1) if (j + 1) % 2 == 0 else F(-1)
            for t, c in algebra.product(args[i - 1], args[j - 1]).items():
                new_args = args[: i - 1] + (t,) + args[i:j - 1] + args[j:]
                accumulate(cochain(new_args), sign * c)
    return out


def random_cochain_vector(rng, index):
    return {
        p: F(rng.randint(-3, 3))
        for p in range(index.size)
        if rng.random() < 0.3 and rng.randint(-3, 3)
    }


class TestCochainIndex:
    def test_sizes(self):
        idx = CochainIndex(6, 6, 2)
        assert idx.size == 6 * 6 * 6
        assert CochainIndex(6, 6, 1).size == 36
        assert CochainIndex(6, 6, 3).size == 6**4

    def test_flat_unflat_round_trip(self):
        idx = CochainIndex(5, 4, 2)
        rng = random.Random(3)
        for _ in range(30):
            args = tuple(rng.randrange(5) for _ in range(2))
            k = rng.randrange(4)
            flat = idx.flat(args, k)
            assert idx.unflat(flat) == (args, k)

    def test_flat_is_lexicographic(self):
        idx = CochainIndex(3, 2, 2)
        flats = [
            idx.flat(args, k)
            for args in itertools.product(range(3), repeat=2)
            for k in range(2)
        ]
        assert flats == list(range(idx.size))


class TestCoboundaryMatrices:
    def test_shapes(self):
        algebra, _ = simple_leibniz_sl2(2)
        module = adjoint_bimodule(algebra)
        assert coboundary_matrix(algebra, module, 0).rows == 36
        assert coboundary_matrix(algebra, module, 0).cols == 6
        d2 = coboundary_matrix(algebra, module, 2)
        assert (d2.rows, d2.cols) == (1296, 216)

    def test_arity_validation(self):
        algebra, _ = simple_leibniz_sl2(2)
        module = adjoint_bimodule(algebra)
        with pytest.raises(ValueError):
            coboundary_matrix(algebra, module, 4)
        with pytest.raises(ValueError):
            coboundary_matrix(algebra, module, -1)

    def test_dimension_mismatch(self):
        algebra, _ = simple_leibniz_sl2(2)
        module = adjoint_bimodule(sl2())
        with pytest.raises(ValueError):
            coboundary_matrix(algebra, module, 1)

    def test_frozen_entries(self):
        """Hand-evaluated matrix entries for the m=2 family algebra.

        Flat index convention: an n-cochain coordinate (i_1..i_n; k) sits
        at ((i_1*6 + i_2)*6 + ...)*6 + k.
        """
        algebra, _ = simple_leibniz_sl2(2)
        module = adjoint_bimodule(algebra)
        d0 = coboundary_matrix(algebra, module, 0)
        d1 = coboundary_matrix(algebra, module, 1)
        d2 = coboundary_matrix(algebra, module, 2)
        # (d0 e)(f) = [f, e] = -h: row (1; 2) = 8, column e = 0
        assert cells(d0)[(8, 0)] == F(-1)
        # f = unit cochain f -> h (column 1*6+2 = 8):
        # (d1 f)(e, f) = [e, f(f)] + [f(e), f] - f([e,f]) = [e,h] = 2e
        assert cells(d1)[(6, 8)] == F(2)
        # f = unit cochain e -> e (column 0):
        # (d1 f)(e, f) picks up [f(e), f] = [e,f] = h at row (0,1; 2) = 8
        assert cells(d1)[(8, 0)] == F(1)
        # f = unit cochain h -> b_t (column 12 + t): the term -f([e,f])
        # hits row (0,1; t) = 6 + t with -1
        for t in range(6):
            assert cells(d1)[(6 + t, 12 + t)] == F(-1)
        # f = unit cochain x0 -> x0 (column 3*6+3 = 21):
        # (d1 f)(x0, f) includes [f(x0), f] = [x0, f] = x1,
        # row (3,1; 4) = 118
        assert cells(d1)[(118, 21)] == F(1)
        # phi = unit 2-cochain (e,h) -> e (column (0*6+2)*6+0 = 12):
        # (d2 phi)(e,f,h) includes +[phi(e,h), f] = [e,f] = h,
        # row ((0*6+1)*6+2)*6 + 2 = 50
        assert cells(d2)[(50, 12)] == F(1)
        # phi = unit 2-cochain (e,f) -> x2 (column 11):
        # (d2 phi)(e,f,h) = -[phi(e,f), h] - phi([e,f], h-slot...) nets 2
        # at row 53
        assert cells(d2)[(53, 11)] == F(2)
        # phi = unit 2-cochain (x0,e) -> x0 (column 111): value 2 at
        # row ((3*6+0)*6+2)*6+3 = 663, args (x0, e, h)
        assert cells(d2)[(663, 111)] == F(2)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_matches_reference_evaluator_sl2(self, n):
        algebra = sl2()
        module = adjoint_bimodule(algebra)
        self._cross_check(algebra, module, n, seed=100 + n)

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_reference_evaluator_family(self, n):
        algebra, _ = simple_leibniz_sl2(2)
        module = adjoint_bimodule(algebra)
        self._cross_check(algebra, module, n, seed=200 + n, samples=40)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_family_entries_are_ints(self, m):
        # the family's constants are integers, so every entry of d is an int
        algebra, _ = simple_leibniz_sl2(m)
        for n in (0, 1, 2):
            d = coboundary_matrix(algebra, adjoint_bimodule(algebra), n)
            assert cells(d) and all(type(v) is int for v in cells(d).values())

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_reference_evaluator_graded_conjugate(self, n, conjugate):
        # fractional constants: the integral entries are ints, the others
        # stay Fractions, and the matrix is still exactly d
        algebra, grading = simple_leibniz_sl2(3)
        twisted = conjugate(algebra, 6, grading)
        module = adjoint_bimodule(twisted)
        values = cells(coboundary_matrix(twisted, module, n)).values()
        assert any(type(v) is int for v in values)
        assert any(type(v) is F and v.denominator > 1 for v in values)
        self._cross_check(twisted, module, n, seed=500 + n, samples=60)

    @staticmethod
    def _cross_check(algebra, module, n, seed, samples=None):
        d = coboundary_matrix(algebra, module, n)
        idx_in = CochainIndex(algebra.dim, module.module_dim, n)
        idx_out = CochainIndex(algebra.dim, module.module_dim, n + 1)
        rng = random.Random(seed)
        vec = random_cochain_vector(rng, idx_in)

        def cochain(args):
            out = {}
            for k in range(module.module_dim):
                v = vec.get(idx_in.flat(args, k))
                if v:
                    out[k] = v
            return out

        image = d.apply(vec)
        tuples = list(itertools.product(range(algebra.dim), repeat=n + 1))
        if samples is not None and samples < len(tuples):
            tuples = rng.sample(tuples, samples)
        for args in tuples:
            expected = reference_coboundary_value(algebra, module, n, cochain, args)
            got = {
                k: image[idx_out.flat(args, k)]
                for k in range(module.module_dim)
                if idx_out.flat(args, k) in image
            }
            assert got == expected, f"mismatch at {args}"

    @pytest.mark.parametrize("n", range(4))
    def test_builder_matches_reference_sl2_plus_sl2(self, n):
        algebra = direct_sum(sl2(), sl2())
        self._cross_check_builder(algebra, adjoint_bimodule(algebra), n, seed=300 + n)

    @pytest.mark.parametrize("m,seed,n", [
        (m, seed, n) for m, seed in ((2, 1), (3, 2), (4, 3)) for n in range(4)
    ])
    def test_builder_matches_reference_conjugates(self, m, seed, n, conjugate):
        algebra = conjugate(simple_leibniz_sl2(m)[0], seed)
        self._cross_check_builder(algebra, adjoint_bimodule(algebra), n, seed=400 + n)

    @staticmethod
    def _cross_check_builder(algebra, module, n, seed, count=40, samples=40):
        """The integer builder on a random subset of the columns of d^n,
        divided by the inputs' scale and applied to a random cochain
        supported there, against the reference evaluator at every argument
        tuple the image reaches and at random others."""
        scale = input_scale(algebra, module)
        builder = _integer_builder(algebra, module)
        idx_in = CochainIndex(algebra.dim, module.module_dim, n)
        idx_out = CochainIndex(algebra.dim, module.module_dim, n + 1)
        rng = random.Random(seed)
        chosen = sorted(rng.sample(range(idx_in.size), min(count, idx_in.size)))
        vec = {c: F(rng.choice((-2, -1, 1, 3))) for c in chosen}
        image = {}
        for c, col in builder.columns(n, chosen).items():
            assert c in vec and all(type(v) is int and v for v in col.values())
            for r, v in col.items():
                image[r] = image.get(r, 0) + vec[c] * F(v, scale)
        image = {r: v for r, v in image.items() if v}

        def cochain(args):
            return {
                k: vec[idx_in.flat(args, k)]
                for k in range(module.module_dim) if idx_in.flat(args, k) in vec
            }

        tuples = {idx_out.unflat(r)[0] for r in image}
        assert tuples
        tuples |= {
            tuple(rng.randrange(algebra.dim) for _ in range(n + 1)) for _ in range(samples)
        }
        for args in tuples:
            expected = reference_coboundary_value(algebra, module, n, cochain, args)
            got = {
                k: image[idx_out.flat(args, k)]
                for k in range(module.module_dim)
                if idx_out.flat(args, k) in image
            }
            assert got == expected, f"mismatch at {args}"

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: simple_leibniz_sl2(2), id="m2"),
        pytest.param(
            lambda: (direct_sum(sl2(), AlgebraStructure(1, ("c",), {})), Grading((0, 0, 0, 1))),
            id="sl2_plus_line",
        ),
    ])
    def test_one_builder_across_arities_and_blocks(self, build):
        # the builder keeps each argument tuple's row bases per arity for
        # its whole life; d^1 whole, then the blocks of d^2, d^1 and d^3
        # in shuffled order, all on one builder, against fresh whole builds
        algebra, grading = build()
        module = adjoint_bimodule(algebra)
        coh = AdjointCohomology(algebra, grading)
        builder = _integer_builder(algebra, module)
        rng = random.Random(7)
        assert builder.columns(1) == _integer_builder(algebra, module).columns(1)
        for n in (2, 1, 3):
            whole = _integer_builder(algebra, module).columns(n)
            blocks = list(coh._blocks(n).values())
            rng.shuffle(blocks)
            got = {}
            for cols in blocks:
                got.update(builder.columns(n, cols))
            assert got == whole, n

    def test_complex_property(self):
        algebra, _ = simple_leibniz_sl2(3)
        module = adjoint_bimodule(algebra)
        d0 = coboundary_matrix(algebra, module, 0)
        d1 = coboundary_matrix(algebra, module, 1)
        d2 = coboundary_matrix(algebra, module, 2)
        assert (d1 @ d0).is_zero()
        assert (d2 @ d1).is_zero()


class TestGradedStructure:
    def test_degrees_present(self):
        algebra, grading = simple_leibniz_sl2(2)
        degrees = cochain_degrees(algebra, grading, 2)
        assert degrees == (-2, -1, 0, 1)

    def test_columns_partition(self):
        algebra, grading = simple_leibniz_sl2(2)
        seen = []
        for degree in cochain_degrees(algebra, grading, 2):
            seen.extend(graded_columns(algebra, grading, 2, degree))
        assert sorted(seen) == list(range(216))
        assert len(set(seen)) == 216

    def test_graded_kernel_dimension(self):
        algebra, grading = simple_leibniz_sl2(3)
        module = adjoint_bimodule(algebra)
        d2 = coboundary_matrix(algebra, module, 2)
        sub = graded_submatrix(d2, algebra, grading, 2, 0)
        assert sub.cols - rank(sub) == 21  # m^2 + 2m + 6 at m = 3

    def test_graded_blocks_sum_to_total(self):
        algebra, grading = simple_leibniz_sl2(2)
        module = adjoint_bimodule(algebra)
        d2 = coboundary_matrix(algebra, module, 2)
        total = d2.cols - rank(d2)
        parts = 0
        for degree in cochain_degrees(algebra, grading, 2):
            sub = graded_submatrix(d2, algebra, grading, 2, degree)
            parts += sub.cols - rank(sub)
        assert parts == total == 31

    def test_invalid_grading_rejected(self):
        algebra, _ = simple_leibniz_sl2(2)
        module = adjoint_bimodule(algebra)
        d2 = coboundary_matrix(algebra, module, 2)
        bogus = Grading((0, 0, 0, 1, 1, 2))
        with pytest.raises(ValueError, match="grading"):
            graded_submatrix(d2, algebra, bogus, 2, 0)

    def test_kernel_vectors_are_cocycles(self):
        algebra, grading = simple_leibniz_sl2(2)
        module = adjoint_bimodule(algebra)
        d2 = coboundary_matrix(algebra, module, 2)
        cols = graded_columns(algebra, grading, 2, -1)
        sub = graded_submatrix(d2, algebra, grading, 2, -1)
        ker = kernel_basis(sub)
        assert ker.dim == 9
        for vec in ker.basis:
            # re-expand local coordinates to the full cochain space
            full = {cols[p]: v for p, v in vec.items()}
            assert d2.apply(full) == {}


def input_scale(algebra, module):
    """The least common denominator of the structure constants and of
    both actions."""
    values = (*algebra.tensor.values(), *module.left_action, *module.right_action)
    return lcm(*(v.denominator for vec in values for v in vec.values()))


def assert_blocks_match_reference(algebra, grading, n, module=None):
    """The integer columns of d^n, all together, are scale times the full
    Fraction matrix, and with a grading the columns of each degree are
    scale times the block that graded_submatrix cuts out of it, mapped
    back to flat indices through graded_columns; every value is an int
    and no column is empty. The scale is :func:`input_scale`, computed
    here from the inputs. The module defaults to the adjoint one, the
    only one a grading splits. Returns the scale."""
    module = module or adjoint_bimodule(algebra)
    scale = input_scale(algebra, module)
    columns = _integer_builder(algebra, module).columns(n)
    d = coboundary_matrix(algebra, module, n)
    assert all(columns.values())
    got = {(r, c): v for c, col in columns.items() for r, v in col.items()}
    assert all(type(v) is int for v in got.values())
    assert got == {key: v * scale for key, v in cells(d).items()}
    for degree in cochain_degrees(algebra, grading, n) if grading else ():
        ref = graded_submatrix(d, algebra, grading, n, degree)
        rows = graded_columns(algebra, grading, n + 1, degree)
        cols = graded_columns(algebra, grading, n, degree)
        block = {(r, c): v for c in cols for r, v in columns.get(c, {}).items()}
        assert block == {(rows[r], cols[c]): v * scale for (r, c), v in cells(ref).items()}
    return scale


def rescaled(module, factors):
    """The module on the basis b_k / factors[k]: each action entry (out,
    in) is multiplied by factors[out] / factors[in]."""
    def scale(act):
        return {(o, i): v * factors[o] / factors[i] for (o, i), v in act.items()}

    return Bimodule(
        module.algebra_dim,
        module.module_dim,
        tuple(scale(act) for act in module.left_action),
        tuple(scale(act) for act in module.right_action),
    )


class TestCoboundaryBlocks:
    """The engine's integer columns, whole and split by degree, against
    the Fraction matrix."""

    @pytest.mark.parametrize("m,n", [
        (m, n) for m in (2, 3, 4, 5) for n in range(4) if n < 3 or m <= 3
    ])
    def test_blocks_match_graded_submatrix(self, m, n):
        algebra, grading = simple_leibniz_sl2(m)
        assert assert_blocks_match_reference(algebra, grading, n) == 1

    @pytest.mark.parametrize("m,seed", [(2, 1), (3, 2), (4, 3)])
    def test_fractional_conjugates_are_scaled(self, m, seed, conjugate):
        algebra, grading = simple_leibniz_sl2(m)
        twisted = conjugate(algebra, seed, grading)
        for n in (0, 1, 2):
            assert assert_blocks_match_reference(twisted, grading, n) > 1

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_sl2_plus_line(self, n):
        algebra = direct_sum(sl2(), AlgebraStructure(1, ("c",), {}))
        assert assert_blocks_match_reference(algebra, Grading((0, 0, 0, 1)), n) == 1

    @pytest.mark.parametrize("m,n", [(m, n) for m in (0, 1, 2, 4) for n in range(3)])
    def test_sl2_modules(self, m, n):
        # V_m with zero left action and as the symmetric bimodule
        module = irreducible_sl2_module(m)
        assert assert_blocks_match_reference(sl2(), None, n, module) == 1
        assert assert_blocks_match_reference(sl2(), None, n, symmetric_bimodule(module)) == 1

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_trivial_module(self, n):
        zero = ({}, {}, {})
        trivial = Bimodule(3, 2, zero, zero)
        assert assert_blocks_match_reference(sl2(), None, n, trivial) == 1

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fractional_actions_are_scaled(self, n):
        # sl2's structure constants are integers; only the actions of the
        # rescaled module carry denominators, 2 and 3 among them
        module = rescaled(symmetric_bimodule(irreducible_sl2_module(3)), (1, F(1, 2), 3, 1))
        assert assert_blocks_match_reference(sl2(), None, n, module) == 6
