"""Exact sparse linear algebra: frozen examples, randomized identities,
and exact agreement with an independent Fraction Gauss-Jordan reference."""

import random
from fractions import Fraction

import pytest

from leibcohom.linalg import (
    SparseRationalMatrix,
    Subspace,
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

F = Fraction


def mat(rows, cols, entries):
    return SparseRationalMatrix(rows, cols, {k: F(v) for k, v in entries.items()})


def transpose(m):
    return SparseRationalMatrix(m.cols, m.rows, {(c, r): v for (r, c), v in m.entries.items()})


def random_matrix(rng, rows, cols, density=0.4, span=9):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                v = rng.randint(-span, span)
                if v:
                    entries[(r, c)] = F(v)
    return SparseRationalMatrix(rows, cols, entries)


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


def random_fractional_matrix(rng, rows, cols):
    """Dense, sparse or rank-deficient, with p/q entries and some rows and
    columns forced to zero."""
    kind = rng.choice(("dense", "sparse", "low_rank"))
    if kind == "low_rank" and rows and cols:
        k = rng.randint(0, min(rows, cols) - 1)
        left = {(r, i): random_fraction(rng) for r in range(rows) for i in range(k)}
        right = {(i, c): random_fraction(rng) for i in range(k) for c in range(cols)}
        m = SparseRationalMatrix(rows, k, left) @ SparseRationalMatrix(k, cols, right)
        entries = dict(m.entries)
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
    return SparseRationalMatrix(rows, cols, entries)


def fractional_family(seed, count=60):
    """Seeded random matrices, including the empty shapes 0 x n and n x 0."""
    rng = random.Random(seed)
    out = [SparseRationalMatrix(0, 4, {}), SparseRationalMatrix(4, 0, {}),
           SparseRationalMatrix(0, 0, {})]
    for _ in range(count):
        out.append(random_fractional_matrix(rng, rng.randint(0, 8), rng.randint(0, 8)))
    return out


class TestMatrixBasics:
    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            SparseRationalMatrix(1, 1, {(0, 0): 0.5})

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            mat(2, 2, {(2, 0): 1})

    def test_drops_zero_entries(self):
        m = mat(2, 2, {(0, 0): 1, (1, 1): 0})
        assert m.nnz == 1

    def test_identity_and_matmul(self):
        ident = mat(3, 3, {(i, i): 1 for i in range(3)})
        m = mat(3, 3, {(0, 1): 2, (2, 0): -3})
        assert (ident @ m).entries == m.entries
        assert (m @ ident).entries == m.entries

    def test_apply(self):
        m = mat(2, 3, {(0, 0): 1, (0, 2): 2, (1, 1): -1})
        out = m.apply({0: F(3), 2: F(1)})
        assert out == {0: F(5)}


class TestRejectedInput:
    """Scalars are Fraction or int, vectors are index -> value mappings,
    and every index is range-checked before its value is read."""

    m = mat(2, 2, {(0, 0): 1, (1, 1): 2})
    space = Subspace.from_spanning([{0: F(1)}], 2)
    takers = {
        "apply": lambda v: TestRejectedInput.m.apply(v),
        "solve": lambda v: solve(TestRejectedInput.m, v),
        "from_spanning": lambda v: Subspace.from_spanning([v], 2),
        "contains": lambda v: TestRejectedInput.space.contains(v),
    }

    def test_string_scalar_in_matrix(self):
        with pytest.raises(TypeError):
            SparseRationalMatrix(1, 1, {(0, 0): "1/2"})

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
            x, residual = solve(m, b)
            assert residual == {}
            assert m.apply(x) == b

    def test_inconsistent_system(self):
        m = mat(2, 1, {(0, 0): 1, (1, 0): 1})
        x, residual = solve(m, {0: F(1), 1: F(2)})
        assert residual != {}


class TestSubspace:
    def test_from_spanning_canonical(self):
        s = Subspace.from_spanning([{0: F(2), 1: F(4)}, {0: F(1), 1: F(2)}], 3)
        assert s.dim == 1
        assert s.basis[0] == {0: F(1), 1: F(2)}

    def test_rejects_non_canonical_basis(self):
        with pytest.raises(ValueError):
            Subspace(2, ({0: F(2)},))

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
            cols = [col for _, col in sorted(m.column_dicts().items())]
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
            block = SparseRationalMatrix(len(outside), space.dim, {
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

    def test_solve(self):
        rng = random.Random(15)
        for m in fractional_family(16):
            if rng.random() < 0.5:
                b = m.apply({c: random_fraction(rng) for c in range(m.cols)})
            else:
                b = {r: random_fraction(rng) for r in range(m.rows)}
            b = {r: v for r, v in b.items() if v}
            expected = reference_solve(m, b)
            x, residual = solve(m, b)
            if expected is None:
                assert residual != {}
            else:
                assert residual == {}
                assert x == expected
