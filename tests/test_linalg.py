"""Exact sparse linear algebra: frozen examples, randomized identities,
and exact agreement with an independent Fraction Gauss-Jordan reference."""

import random
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest

from leibcohom.algebra import adjoint_bimodule
from leibcohom.catalog import simple_leibniz_sl2
from leibcohom.cochain import coboundary_matrix
from leibcohom.cohomology import bl_dim, zl_dim
from leibcohom.linalg import (
    SparseRationalMatrix,
    Subspace,
    _count_ordered,
    _echelon,
    _integer_row,
    column_space,
    embed,
    kernel_basis,
    project,
    rank,
    rank_modular,
    restrict_to_coords,
    solve,
    subspace_equal,
    subspace_sum_dim,
)

from conftest import cells, matrix

F = Fraction


def mat(rows, cols, entries):
    return matrix(rows, cols, {k: F(v) for k, v in entries.items()})


def transpose(m):
    return matrix(m.cols, m.rows, {(c, r): v for (r, c), v in cells(m).items()})


def random_matrix(rng, rows, cols, density=0.4, span=9):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                v = rng.randint(-span, span)
                if v:
                    entries[(r, c)] = F(v)
    return matrix(rows, cols, entries)


def reference_span(vectors, ambient_dim):
    """Canonical reduced-echelon basis by Fraction Gauss-Jordan reduction,
    independent of the package's elimination."""
    reduced = []
    for vec in vectors:
        w = {c: F(v) for c, v in vec.items() if v}
        assert all(0 <= c < ambient_dim for c in w)
        for p, r in reduced:
            cv = w.get(p)
            if cv:
                for c, rv in r.items():
                    nv = w.get(c, F(0)) - cv * rv
                    if nv:
                        w[c] = nv
                    else:
                        w.pop(c, None)
        if not w:
            continue
        p = min(w)
        pv = w[p]
        w = {c: v / pv for c, v in w.items()}
        for _, r in reduced:
            cv = r.get(p)
            if cv:
                for c, wv in w.items():
                    nv = r.get(c, F(0)) - cv * wv
                    if nv:
                        r[c] = nv
                    else:
                        r.pop(c, None)
        reduced.append((p, w))
    reduced.sort(key=lambda item: item[0])
    return tuple(r for _, r in reduced)


def reference_kernel(m):
    """One back-solve per free column against the reference echelon rows,
    then canonicalized by :func:`reference_span`."""
    pivots = {min(r): r for r in reference_span(m.row_dicts().values(), m.cols)}
    vectors = []
    for fc in range(m.cols):
        if fc in pivots:
            continue
        v = {fc: F(1)}
        for pc in sorted(pivots, reverse=True):
            row = pivots[pc]
            s = sum((val * v.get(c, F(0)) for c, val in row.items() if c != pc), F(0))
            if s:
                v[pc] = -s / row[pc]
        vectors.append(v)
    return reference_span(vectors, m.cols)


def reference_solve(m, b):
    """The solution with every free variable zero, read off the reference
    reduced rows of ``[M | b]``, or None when the system is inconsistent."""
    aug = m.row_dicts()
    for r, v in b.items():
        aug.setdefault(r, {})[m.cols] = v
    x = {}
    for row in reference_span(aug.values(), m.cols + 1):
        p = min(row)
        if p == m.cols:
            return None
        if m.cols in row:
            x[p] = row[m.cols]
    return x


def random_fraction(rng, span=6):
    return F(rng.randint(-span, span), rng.randint(1, span))


def random_fractional_matrix(rng, rows, cols, kind=None):
    """Dense, sparse or rank-deficient (``kind``, drawn when not given),
    with p/q entries and some rows and columns forced to zero."""
    kind = kind or rng.choice(("dense", "sparse", "low_rank"))
    if kind == "low_rank" and rows and cols:
        k = rng.randint(0, min(rows, cols) - 1)
        left = {(r, i): random_fraction(rng) for r in range(rows) for i in range(k)}
        right = {(i, c): random_fraction(rng) for i in range(k) for c in range(cols)}
        m = matrix(rows, k, left) @ matrix(k, cols, right)
        entries = cells(m)
    else:
        density = 0.9 if kind == "dense" else 0.25
        entries = {
            (r, c): random_fraction(rng)
            for r in range(rows)
            for c in range(cols)
            if rng.random() < density
        }
    dead_rows = {r for r in range(rows) if rng.random() < 0.15}
    dead_cols = {c for c in range(cols) if rng.random() < 0.15}
    entries = {
        (r, c): v
        for (r, c), v in entries.items()
        if r not in dead_rows and c not in dead_cols
    }
    return matrix(rows, cols, entries)


def fractional_family(seed, count=60):
    """Seeded random matrices, including the empty shapes 0 x n and n x 0."""
    rng = random.Random(seed)
    out = [SparseRationalMatrix(0, 4, {}), SparseRationalMatrix(4, 0, {}),
           SparseRationalMatrix(0, 0, {})]
    for _ in range(count):
        out.append(random_fractional_matrix(rng, rng.randint(0, 8), rng.randint(0, 8)))
    return out


def reference_eliminate(row, pivots):
    """The integer elimination step as first written: the content (gcd)
    is stripped after every combination step, not once per survivor."""

    def strip(row):
        g = reduce(gcd, row.values(), 0)
        for c in row:
            row[c] //= g

    while row:
        lead = min(row)
        piv = pivots.get(lead)
        if piv is None:
            strip(row)
            if row[lead] < 0:
                for c in row:
                    row[c] = -row[c]
            return lead, row
        a = row.pop(lead)
        b = piv[lead]
        for c in row:
            row[c] *= b
        for c, pv in piv.items():
            if c != lead:
                nv = row.get(c, 0) - a * pv
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
        strip(row)
    return None


def reference_echelon(rows):
    """Pivot table of :func:`reference_eliminate` over the rows, sparsest
    first, as ``_echelon`` orders them."""
    pivots = {}
    for row in sorted(rows, key=len):
        res = reference_eliminate(dict(row), pivots)
        if res is not None:
            pivots[res[0]] = res[1]
    return pivots


def reference_rank(m):
    return len(reference_span(m.row_dicts().values(), m.cols))


def conjugate_coboundaries(conjugate):
    """d^1 and d^2 of sl2 + V_2 in a fractional basis with no grading."""
    algebra = conjugate(simple_leibniz_sl2(2)[0], 1)
    module = adjoint_bimodule(algebra)
    return algebra, module, [coboundary_matrix(algebra, module, n) for n in (1, 2)]


class TestMatrixBasics:
    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            SparseRationalMatrix(1, 1, {0: {0: 0.5}})

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            mat(2, 2, {(2, 0): 1})

    def test_drops_zero_entries(self):
        m = mat(2, 2, {(0, 0): 1, (1, 1): 0})
        assert m.nnz == 1

    def test_identity_and_matmul(self):
        ident = mat(3, 3, {(i, i): 1 for i in range(3)})
        m = mat(3, 3, {(0, 1): 2, (2, 0): -3})
        assert cells(ident @ m) == cells(m)
        assert cells(m @ ident) == cells(m)

    def test_apply(self):
        m = mat(2, 3, {(0, 0): 1, (0, 2): 2, (1, 1): -1})
        out = m.apply({0: F(3), 2: F(1)})
        assert out == {0: F(5)}


def dense(m):
    """The matrix as a list of rows of Fractions."""
    out = [[F(0)] * m.cols for _ in range(m.rows)]
    for (r, c), v in cells(m).items():
        out[r][c] = F(v)
    return out


class TestColumnLayout:
    """The matrix stores its nonzero columns, ``{col: {row: value}}``, as
    its own copies, and reads everything else off them."""

    def test_emptied_column_is_dropped(self):
        m = SparseRationalMatrix(2, 3, {0: {0: F(1), 1: F(0)}, 1: {1: 0}, 2: {}})
        assert m.columns == {0: {0: 1}}
        assert m == SparseRationalMatrix(2, 3, {0: {0: F(1)}})
        assert m.nnz == 1 and not m.is_zero()
        assert SparseRationalMatrix(2, 3, {1: {0: 0}, 2: {}}).is_zero()

    def test_nnz_counts_entries(self):
        m = SparseRationalMatrix(3, 2, {0: {0: 1, 2: F(1, 2)}, 1: {1: -1}})
        assert m.nnz == len(cells(m)) == 3

    @pytest.mark.parametrize("col", [2, -1])
    def test_out_of_range_empty_column_is_rejected(self, col):
        with pytest.raises(ValueError, match=rf"column {col} outside a 2 x 2 matrix"):
            SparseRationalMatrix(2, 2, {col: {}})
        # a zero entry is range-checked before it is dropped
        with pytest.raises(ValueError, match=rf"entry \(0, {col}\) outside a 2 x 2 matrix"):
            SparseRationalMatrix(2, 2, {col: {0: 0}})
        with pytest.raises(ValueError, match=r"entry \(2, 0\) outside a 2 x 2 matrix"):
            SparseRationalMatrix(2, 2, {0: {2: 0}})

    def test_callers_dicts_are_copied(self):
        col = {0: F(1)}
        columns = {0: col}
        m = SparseRationalMatrix(2, 2, columns)
        col[0], col[1] = F(7), F(3)
        columns[1] = {0: F(2)}
        assert m.columns == {0: {0: 1}}
        assert m == SparseRationalMatrix(2, 2, {0: {0: F(1)}})

    def test_apply_and_matmul_match_a_dense_reference(self):
        rng = random.Random(32)
        for _ in range(40):
            rows, inner, cols = (rng.randint(0, 6) for _ in range(3))
            a = random_fractional_matrix(rng, rows, inner)
            b = random_fractional_matrix(rng, inner, cols)
            da, db = dense(a), dense(b)
            x = {c: random_fraction(rng) for c in range(inner) if rng.random() < 0.6}
            expected = {}
            for r in range(rows):
                s = sum((da[r][c] * x.get(c, 0) for c in range(inner)), F(0))
                if s:
                    expected[r] = s
            assert a.apply(x) == expected
            product = a @ b
            assert (product.rows, product.cols) == (rows, cols)
            assert dense(product) == [
                [sum((da[r][t] * db[t][c] for t in range(inner)), F(0)) for c in range(cols)]
                for r in range(rows)
            ]
            assert all(product.columns.values())

    def test_row_dicts_is_the_transpose(self):
        for m in fractional_family(33, count=30):
            rows = m.row_dicts()
            assert {(r, c): v for r, row in rows.items() for c, v in row.items()} == cells(m)
            assert all(rows.values())
            assert SparseRationalMatrix(m.cols, m.rows, rows) == transpose(m)


class TestRejectedInput:
    """Scalars are Fraction or int, vectors are index -> value mappings,
    and every index is range-checked before its value is read."""

    m = mat(2, 2, {(0, 0): 1, (1, 1): 2})
    space = Subspace.from_spanning([{0: F(1)}], 2)
    takers = {
        "apply": lambda v: TestRejectedInput.m.apply(v),
        "solve": lambda v: solve(TestRejectedInput.m, [v]),
        "from_spanning": lambda v: Subspace.from_spanning([v], 2),
        "contains": lambda v: TestRejectedInput.space.contains(v),
    }

    def test_string_scalar_in_matrix(self):
        with pytest.raises(TypeError):
            SparseRationalMatrix(1, 1, {0: {0: "1/2"}})

    @pytest.mark.parametrize("name", sorted(takers))
    def test_string_scalar_in_vector(self, name):
        with pytest.raises(TypeError):
            self.takers[name]({0: "1/2"})

    @pytest.mark.parametrize("name", sorted(takers))
    def test_list_vector(self, name):
        with pytest.raises(TypeError):
            self.takers[name]([F(1), F(0)])

    @pytest.mark.parametrize("name", sorted(takers))
    def test_zero_at_out_of_range_index(self, name):
        with pytest.raises(ValueError, match="out of range"):
            self.takers[name]({0: F(1), 2: F(0)})


class TestRankAndKernel:
    def test_rank_dependent_rows(self):
        m = mat(2, 2, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4})
        assert rank(m) == 1

    def test_rank_zero_matrix(self):
        assert rank(SparseRationalMatrix(3, 4, {})) == 0
        assert kernel_basis(SparseRationalMatrix(3, 4, {})).dim == 4

    def test_kernel_annihilates(self):
        m = mat(2, 3, {(0, 0): 1, (0, 1): 2, (1, 2): 1})
        ker = kernel_basis(m)
        assert ker.dim == 1
        for vec in ker.basis:
            assert m.apply(dict(vec)) == {}

    def test_rank_nullity_random(self):
        rng = random.Random(20260817)
        for _ in range(25):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            m = random_matrix(rng, rows, cols)
            r = rank(m)
            ker = kernel_basis(m)
            assert r + ker.dim == cols
            assert r == rank(transpose(m))
            for vec in ker.basis:
                assert m.apply(dict(vec)) == {}

    def test_rank_on_shared_counts(self):
        # coordinates that occur in equally many lines must still get
        # distinct labels: columns 0 and 1 of the square matrix (its rows
        # are eliminated) and rows 0 and 1 of the tall one (its columns
        # are) each occur in one line
        square = mat(2, 2, {(0, 0): 1, (1, 1): 1})
        tall = mat(3, 2, {(0, 0): 1, (1, 1): 1, (2, 0): 1, (2, 1): 1})
        for m in (square, tall):
            assert rank(m) == reference_rank(m) == rank(transpose(m)) == 2

    def test_modular_rank_agrees(self):
        rng = random.Random(7)
        for _ in range(15):
            m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
            assert rank_modular(m) == rank(m)

    def test_column_space_dim(self):
        m = mat(3, 3, {(0, 0): 1, (1, 0): 2, (0, 1): 1, (1, 1): 2, (2, 2): 1})
        space = column_space(m)
        assert space.dim == rank(m) == 2


class TestSolve:
    def test_consistent_system(self):
        rng = random.Random(99)
        for _ in range(20):
            rows = rng.randint(1, 7)
            cols = rng.randint(1, 7)
            m = random_matrix(rng, rows, cols, density=0.5)
            x0 = {c: F(rng.randint(-4, 4)) for c in range(cols) if rng.random() < 0.6}
            x0 = {c: v for c, v in x0.items() if v}
            b = m.apply(x0)
            [(x, residual)] = solve(m, [b])
            assert residual == {}
            assert m.apply(x) == b

    def test_inconsistent_system(self):
        m = mat(2, 1, {(0, 0): 1, (1, 0): 1})
        [(x, residual)] = solve(m, [{0: F(1), 1: F(2)}])
        assert residual != {}


class TestBatchedSolve:
    """One elimination for several right-hand sides gives each the pair
    it gets on its own."""

    def test_batch_equals_one_at_a_time(self):
        rng = random.Random(28)
        for m in fractional_family(28, count=40):
            bs = [m.apply({c: random_fraction(rng) for c in range(m.cols)})
                  for _ in range(rng.randint(1, 4))]
            batch = solve(m, bs)
            assert batch == [solve(m, [b])[0] for b in bs]
            assert all(residual == {} for _, residual in batch)
            for (x, _), b in zip(batch, bs):
                assert m.apply(x) == b

    def test_inconsistent_right_hand_sides_keep_their_residuals(self):
        rng = random.Random(29)
        for m in fractional_family(29, count=40):
            bs = [{r: v for r in range(m.rows) if (v := random_fraction(rng))}
                  for _ in range(3)]
            batch = solve(m, bs)
            assert batch == [solve(m, [b])[0] for b in bs]
            for (_, residual), b in zip(batch, bs):
                assert (residual == {}) == (reference_solve(m, b) is not None)

    def test_inconsistent_one_between_consistent_ones(self):
        m = mat(2, 1, {(0, 0): 1, (1, 0): 1})
        [(x1, r1), (_, r2), (x3, r3)] = solve(m, [{0: F(3), 1: F(3)}, {0: F(1), 1: F(2)}, {}])
        assert (x1, r1, x3, r3) == ({0: F(3)}, {}, {}, {})
        assert r2 != {}

    def test_no_right_hand_side(self):
        assert solve(mat(2, 2, {(0, 0): 1}), []) == []


class TestIntegerEntries:
    """An int entry is kept as int; the matrix equals its Fraction twin,
    its entries hash alike, and rank and kernel agree."""

    def test_int_kept_fraction_kept(self):
        m = SparseRationalMatrix(2, 2, {0: {0: 3, 1: F(1, 2)}, 1: {1: F(4), 0: 0}})
        assert cells(m) == {(0, 0): 3, (1, 0): F(1, 2), (1, 1): 4}
        assert type(cells(m)[(0, 0)]) is int
        assert type(cells(m)[(1, 0)]) is F and type(cells(m)[(1, 1)]) is F

    def test_twin_of_a_fraction_matrix(self):
        rng = random.Random(30)
        for _ in range(30):
            m = random_matrix(rng, rng.randint(0, 7), rng.randint(0, 7))
            twin = matrix(m.rows, m.cols, {rc: int(v) for rc, v in cells(m).items()})
            assert all(type(v) is int for v in cells(twin).values())
            assert all(type(v) is F for v in cells(m).values())
            assert twin == m
            assert hash(frozenset(cells(twin).items())) == hash(frozenset(cells(m).items()))
            assert rank(twin) == rank(m) == reference_rank(m)
            assert kernel_basis(twin) == kernel_basis(m)
            for row in m.row_dicts().values():
                assert _integer_row({c: int(v) for c, v in row.items()}) == _integer_row(row)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            SparseRationalMatrix(1, 1, {0: {0: 1.0}})

    def test_bool_stored_as_fraction(self):
        m = SparseRationalMatrix(1, 2, {0: {0: True}, 1: {0: False}})
        assert cells(m) == {(0, 0): F(1)}
        assert type(cells(m)[(0, 0)]) is F


class TestSubspace:
    def test_from_spanning_canonical(self):
        s = Subspace.from_spanning([{0: F(2), 1: F(4)}, {0: F(1), 1: F(2)}], 3)
        assert s.dim == 1
        assert s.basis[0] == {0: F(1), 1: F(2)}

    @pytest.mark.parametrize("basis,message", [
        (({0: F(2)},), "pivot entries must be 1"),
        (({},), "zero vector"),
        (({1: F(1)}, {0: F(1)}), "pivots must strictly increase"),
        (({0: F(1), 3: F(1)},), "outside the ambient space"),
        # the first vector has an entry at the second vector's pivot
        (({0: F(1), 2: F(5)}, {2: F(1)}), "not fully reduced"),
        (({0: F(1), 1: F(3), 2: F(5)}, {1: F(1)}, {2: F(1)}), "not fully reduced"),
    ])
    def test_rejection_names_the_defect(self, basis, message):
        with pytest.raises(ValueError, match=message):
            Subspace(3, basis)

    def test_rejects_non_canonical_basis(self):
        with pytest.raises(ValueError):
            Subspace(2, ({0: F(2)},))

    def test_accepts_entries_off_the_pivots(self):
        s = Subspace(4, ({0: F(1), 1: F(2), 3: F(-1)}, {2: F(1), 3: F(7)}))
        assert s.dim == 2

    def test_contains(self):
        s = Subspace.from_spanning([{0: F(1), 1: F(1)}, {2: F(1)}], 3)
        assert s.contains({0: F(3), 1: F(3), 2: F(-1)})
        assert not s.contains({0: F(1)})

    def test_full(self):
        # any spanning set of the whole space canonicalizes to the unit basis
        full = Subspace.from_spanning([{0: F(2), 3: F(1)}, {1: F(1)}, {0: F(1)}, {2: F(-3)}], 4)
        assert full.basis == tuple({i: F(1)} for i in range(4))

    def test_project_and_restrict(self):
        # the line through (1, 0, 1): projects onto coordinate 0 but has
        # no nonzero vector supported on coordinates (0, 1)
        line = Subspace.from_spanning([{0: F(1), 2: F(1)}], 3)
        assert project(line, (0, 1)).dim == 1
        assert restrict_to_coords(line, (0, 1)).dim == 0
        assert restrict_to_coords(line, (0, 2)).dim == 1
        # the plane x2 = x0 + x1 meets the plane x2 = 0 in the line
        # through (1, -1, 0)
        plane = Subspace.from_spanning(
            [{0: F(1), 2: F(1)}, {1: F(1), 2: F(1)}], 3
        )
        proj = project(plane, (0, 1))
        assert proj.ambient_dim == 2 and proj.dim == 2
        supported = restrict_to_coords(plane, (0, 1))
        assert supported.dim == 1
        assert supported.contains({0: F(1), 1: F(-1)})

    def test_restrict_outside_is_whole_kernel_of_projection(self):
        rng = random.Random(5150)
        for _ in range(15):
            cols = rng.randint(2, 7)
            m = random_matrix(rng, rng.randint(1, 5), cols)
            s = kernel_basis(m)
            coords = tuple(c for c in range(cols) if rng.random() < 0.5)
            if not coords or len(coords) == cols:
                continue
            complement = tuple(c for c in range(cols) if c not in coords)
            proj = project(s, coords)
            hidden = restrict_to_coords(s, complement)
            assert proj.dim + hidden.dim == s.dim
            assert restrict_to_coords(s, coords).dim <= proj.dim <= s.dim

    def test_embed_round_trip(self):
        s = Subspace.from_spanning([{0: F(1), 1: F(-2)}], 2)
        big = embed(s, (1, 3), 5)
        assert big.ambient_dim == 5
        assert big.contains({1: F(1), 3: F(-2)})
        back = project(big, (1, 3))
        assert subspace_equal(back, s)

    def test_subspace_equal_requires_same_ambient(self):
        a = Subspace.from_spanning([{0: F(1)}], 2)
        b = Subspace.from_spanning([{0: F(1)}], 3)
        with pytest.raises(ValueError):
            subspace_equal(a, b)

    def test_sum_dim(self):
        a = Subspace.from_spanning([{0: F(1)}], 3)
        b = Subspace.from_spanning([{0: F(1)}, {1: F(1)}], 3)
        assert subspace_sum_dim(a, b) == 2
        c = Subspace.from_spanning([{2: F(1)}], 3)
        assert subspace_sum_dim(a, c) == 2


class TestAgainstReference:
    """Exact equality with the Fraction Gauss-Jordan reference on matrices
    whose kernels and spans carry genuine denominators."""

    def test_kernel_basis(self):
        for m in fractional_family(11):
            assert kernel_basis(m).basis == reference_kernel(m)

    def test_from_spanning_and_column_space(self):
        for m in fractional_family(12):
            rows = list(m.row_dicts().values())
            assert Subspace.from_spanning(rows, m.cols).basis == reference_span(rows, m.cols)
            cols = [col for _, col in sorted(m.columns.items())]
            assert column_space(m).basis == reference_span(cols, m.rows)

    def test_project_and_restrict(self):
        rng = random.Random(13)
        for m in fractional_family(14):
            space = Subspace.from_spanning(m.row_dicts().values(), m.cols)
            coords = [c for c in range(m.cols) if rng.random() < 0.5]
            pos = {c: i for i, c in enumerate(coords)}
            projected = [
                {pos[c]: v for c, v in b.items() if c in pos} for b in space.basis
            ]
            assert project(space, coords).basis == reference_span(projected, len(coords))
            # vectors supported on coords: combinations y of the basis whose
            # entries outside coords cancel, i.e. the kernel of that block
            outside = [c for c in range(m.cols) if c not in pos]
            block = matrix(len(outside), space.dim, {
                (r, i): b[c]
                for i, b in enumerate(space.basis)
                for r, c in enumerate(outside)
                if c in b
            })
            supported = []
            for y in reference_kernel(block):
                v = {}
                for i, coeff in y.items():
                    for c, val in space.basis[i].items():
                        v[c] = v.get(c, F(0)) + coeff * val
                supported.append(v)
            assert restrict_to_coords(space, coords).basis == reference_span(
                supported, m.cols
            )

    def test_rank(self):
        rng = random.Random(17)
        shaped = [random_fractional_matrix(rng, rows, cols, kind)
                  for rows, cols in ((14, 5), (5, 14), (9, 9))
                  for kind in ("dense", "sparse", "low_rank")]
        for m in fractional_family(18) + shaped:
            assert rank(m) == reference_rank(m) == rank(transpose(m))

    def test_rank_of_conjugate_coboundary(self, conjugate):
        algebra, module, (_, d2) = conjugate_coboundaries(conjugate)
        assert (d2.rows, d2.cols) == (1296, 216)
        assert rank(d2) == reference_rank(d2) == rank(transpose(d2)) == 216 - 31
        assert zl_dim(algebra, module, 2) == bl_dim(algebra, module, 2) == 31

    def test_solve(self):
        rng = random.Random(15)
        for m in fractional_family(16):
            if rng.random() < 0.5:
                b = m.apply({c: random_fraction(rng) for c in range(m.cols)})
            else:
                b = {r: random_fraction(rng) for r in range(m.rows)}
            b = {r: v for r, v in b.items() if v}
            expected = reference_solve(m, b)
            [(x, residual)] = solve(m, [b])
            if expected is None:
                assert residual != {}
            else:
                assert residual == {}
                assert x == expected


class TestKernelShapes:
    """kernel_basis, which eliminates the columns, on every shape it can
    meet: tall (the derivation constraints), square and wide, with zero
    columns, the zero matrix and no columns at all, against the reference
    kernel."""

    @staticmethod
    def check(m):
        ker = kernel_basis(m)
        assert ker.ambient_dim == m.cols
        assert ker.basis == reference_kernel(m)
        assert ker.dim + reference_rank(m) == m.cols
        for vec in ker.basis:
            assert m.apply(dict(vec)) == {}

    @pytest.mark.parametrize("rows,cols", [(7, 3), (4, 4), (2, 6)],
                             ids=["tall", "square", "wide"])
    def test_shapes(self, rows, cols):
        rng = random.Random(100 * rows + cols)
        for _ in range(20):
            self.check(random_matrix(rng, rows, cols, density=0.5))

    @pytest.mark.parametrize("m", [2, 3])
    def test_tall_coboundary(self, m):
        algebra, _ = simple_leibniz_sl2(m)
        d1 = coboundary_matrix(algebra, adjoint_bimodule(algebra), 1)
        assert d1.rows > d1.cols
        self.check(d1)

    def test_proportional_columns(self):
        m = mat(4, 2, {(0, 0): 1, (0, 1): 2, (1, 0): -3, (1, 1): -6, (3, 0): 5, (3, 1): 10})
        assert kernel_basis(m).basis == ({0: 1, 1: F(-1, 2)},)
        self.check(m)

    def test_zero_columns(self):
        # columns 1 and 3 are zero, the others independent
        m = mat(3, 4, {(0, 0): 1, (1, 2): 2, (2, 0): 3, (2, 2): 1})
        assert kernel_basis(m).basis == ({1: 1}, {3: 1})
        self.check(m)

    def test_zero_matrix_and_no_columns(self):
        assert kernel_basis(SparseRationalMatrix(3, 4, {})).basis == tuple(
            {c: 1} for c in range(4))
        assert kernel_basis(SparseRationalMatrix(0, 2, {})).basis == ({0: 1}, {1: 1})
        for rows in (0, 3):
            assert kernel_basis(SparseRationalMatrix(rows, 0, {})) == Subspace(0, ())

    def test_fraction_entries(self):
        # the second row is 3/2 times the first
        m = matrix(3, 3, {(0, 0): F(1, 2), (0, 1): F(1, 3), (1, 0): F(3, 4),
                          (1, 1): F(1, 2), (2, 2): F(2, 5)})
        assert kernel_basis(m).basis == ({0: 1, 1: F(-3, 2)},)
        self.check(m)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_integer_and_fractional(self, seed):
        rng = random.Random(4100 + seed)
        for _ in range(15):
            rows, cols = rng.randint(0, 9), rng.randint(0, 9)
            self.check(random_matrix(rng, rows, cols))
            self.check(random_fractional_matrix(rng, rows, cols))


class TestDeferredStrip:
    """Stripping the content once per surviving row stores the same pivot
    rows as a strip after every step."""

    @staticmethod
    def assert_same_pivots(m):
        """On the integer rows of the matrix's rows and of its columns, in
        natural order and in the count order that rank eliminates them in."""
        for lines in (m.row_dicts().values(), m.columns.values()):
            for rows in ([_integer_row(line) for line in lines], _count_ordered(lines)):
                assert _echelon([dict(r) for r in rows]) == reference_echelon(rows)

    def test_random_matrices(self):
        rng = random.Random(19)
        for rows, cols in ((16, 6), (6, 16), (10, 10)):
            for kind in ("dense", "sparse", "low_rank"):
                for _ in range(4):
                    self.assert_same_pivots(random_fractional_matrix(rng, rows, cols, kind))

    def test_conjugate_coboundaries(self, conjugate):
        for d in conjugate_coboundaries(conjugate)[2]:
            self.assert_same_pivots(d)
