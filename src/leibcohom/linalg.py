"""Exact sparse linear algebra over the rationals.

Everything in this module works with ``fractions.Fraction`` scalars, so
ranks, kernels and subspace operations are exact; no floating point is
accepted anywhere. The two carriers are :class:`SparseRationalMatrix`,
a mapping from ``(row, col)`` to nonzero entries, and :class:`Subspace`,
which stores a canonical reduced-echelon basis so that two subspaces are
equal exactly when their stored bases are equal.

There is one elimination, :func:`_echelon`. It is fraction free: each
row is scaled to integers and reduced by cross-multiplication against
earlier pivot rows, with the content (gcd) stripped after every
combination step so entries stay small. Rows are processed sparsest
first, which keeps fill-in low on the highly structured matrices this
package produces, and each pivot row leads at its smallest column.
:func:`rank` counts its pivots. Everything else adds one back-substitution,
:func:`_reduce`, which brings the pivot rows to reduced echelon form:

* :meth:`Subspace.from_spanning` (and so :func:`column_space` and
  :func:`project`) stores the reduced rows of a spanning set as its
  canonical basis;
* :func:`restrict_to_coords` eliminates a basis with the outside
  coordinates ordered first; the pivot rows that lead at a chosen
  coordinate span the vectors supported on the chosen ones;
* :func:`solve` reads the solution off the reduced rows of the augmented
  matrix, in the right-hand-side column;
* :func:`kernel_basis` eliminates with the columns reversed
  (:func:`_reversed_echelon`), so each pivot leads at its largest
  original column. The kernel vector of a free column then has its lowest
  coordinate, 1, at that column and vanishes at every other free column,
  which is already the canonical basis (:func:`_reversed_kernel`). A
  caller that holds integer rows and may never need the basis keeps the
  reversed echelon, counts its pivots for the rank, and reduces it only
  when the basis is read.

:func:`rank_modular` runs its own elimination mod a few word-size primes.
It is an independent cross-check of :func:`rank` for the tests, never the
source of truth, and no faster than the rational rank on the matrices of
this package.

Sparse vectors from outside the module pass through one check,
:func:`_sparse` (indices in range, exact scalars, zeros dropped), and
every sparse accumulation in the package goes through :func:`_add` (one
entry) or :func:`_axpy` (a scaled vector), which drop entries that
cancel. Only the integer row update inside :func:`_eliminate` and the
modular loop of :func:`rank_modular` stay inline, for speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

# Word-size primes for the modular rank cross-check.
DEFAULT_PRIMES = (2147483647, 1000000007, 998244353)

VectorLike = Mapping[int, Fraction]


def _as_rational(value) -> Fraction:
    """Coerce an exact scalar (Fraction or int) to Fraction; anything
    else, floats and strings included, is rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r}")


def _sparse(vec: VectorLike, dim: int, what: str) -> dict[int, Fraction]:
    """Checked copy of a sparse vector: every index in ``range(dim)``,
    checked before its value is read, every value an exact scalar, and
    zeros dropped."""
    try:
        items = vec.items()
    except AttributeError:
        raise TypeError(f"{what}: not a sparse mapping: {vec!r}") from None
    out: dict[int, Fraction] = {}
    for k, v in items:
        if not 0 <= k < dim:
            raise ValueError(f"{what}: index {k} out of range")
        fv = _as_rational(v)
        if fv:
            out[k] = fv
    return out


def _add(acc: dict, key, value: Fraction) -> None:
    """``acc[key] += value`` for a nonzero value, dropping the entry when
    it cancels. A new key stores ``value`` itself: no ``0 + value``."""
    cur = acc.get(key)
    if cur is None:
        acc[key] = value
    else:
        cur += value
        if cur:
            acc[key] = cur
        else:
            del acc[key]


def _axpy(acc: dict, vec: Mapping, scale: Fraction) -> None:
    """``acc += scale * vec`` for a vector of nonzero entries, dropping
    entries that cancel. A zero scale adds nothing."""
    if scale:
        for k, v in vec.items():
            _add(acc, k, scale * v)


@dataclass(frozen=True)
class SparseRationalMatrix:
    """Immutable sparse matrix with Fraction entries.

    ``entries`` maps ``(row, col)`` to a nonzero value; zeros are dropped
    on construction and out-of-range indices are rejected.
    """

    rows: int
    cols: int
    entries: dict[tuple[int, int], Fraction]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        clean: dict[tuple[int, int], Fraction] = {}
        for (r, c), v in self.entries.items():
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(
                    f"entry ({r}, {c}) outside a {self.rows} x {self.cols} matrix"
                )
            fv = _as_rational(v)
            if fv:
                clean[(r, c)] = fv
        object.__setattr__(self, "entries", clean)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def row_dicts(self) -> dict[int, dict[int, Fraction]]:
        """Nonzero rows as ``{row: {col: value}}``."""
        out: dict[int, dict[int, Fraction]] = {}
        for (r, c), v in self.entries.items():
            out.setdefault(r, {})[c] = v
        return out

    def column_dicts(self) -> dict[int, dict[int, Fraction]]:
        out: dict[int, dict[int, Fraction]] = {}
        for (r, c), v in self.entries.items():
            out.setdefault(c, {})[r] = v
        return out

    def apply(self, vec: VectorLike) -> dict[int, Fraction]:
        """Matrix-vector product, returned as a sparse mapping."""
        x = _sparse(vec, self.cols, "vector")
        out: dict[int, Fraction] = {}
        for (r, c), v in self.entries.items():
            xv = x.get(c)
            if xv:
                _add(out, r, v * xv)
        return out

    def __matmul__(self, other: SparseRationalMatrix) -> SparseRationalMatrix:
        if not isinstance(other, SparseRationalMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        other_rows = other.row_dicts()
        acc: dict[tuple[int, int], Fraction] = {}
        for (r, c), v in self.entries.items():
            row = other_rows.get(c)
            if row:
                for c2, w in row.items():
                    _add(acc, (r, c2), v * w)
        return SparseRationalMatrix(self.rows, other.cols, acc)


def _strip_content(row: dict[int, int]) -> None:
    """Divide an integer row by the gcd of its entries, in place."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for c in row:
            row[c] //= g


def _integer_row(row: Mapping[int, Fraction]) -> dict[int, int]:
    """Scale a rational row to a content-free integer row."""
    den = 1
    for v in row.values():
        d = v.denominator
        if d != 1:
            den = den * d // gcd(den, d)
    if den == 1:
        out = {c: v.numerator for c, v in row.items() if v}
    else:
        out = {}
        for c, v in row.items():
            iv = v.numerator * (den // v.denominator)
            if iv:
                out[c] = iv
    _strip_content(out)
    return out


def _eliminate(row: dict[int, int], pivots: dict[int, dict[int, int]]):
    """Reduce ``row`` against the pivot table.

    Returns ``(lead, row)`` for a surviving row normalized to positive
    leading entry and content 1, or None when the row reduces to zero.
    """
    while row:
        lead = min(row)
        piv = pivots.get(lead)
        if piv is None:
            _strip_content(row)
            if row[lead] < 0:
                for c in row:
                    row[c] = -row[c]
            return lead, row
        a = row.pop(lead)
        b = piv[lead]
        # row := b*row - a*piv; the lead entry cancels by construction.
        if b != 1:
            for c in row:
                row[c] *= b
        for c, pv in piv.items():
            if c == lead:
                continue
            nv = row.get(c, 0) - a * pv
            if nv:
                row[c] = nv
            else:
                row.pop(c, None)
        _strip_content(row)
    return None


def _echelon(rows: list[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Row echelon pivot table ``{leading column: integer row}``, built
    from the integer rows sparsest first."""
    rows.sort(key=len)
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        res = _eliminate(row, pivots)
        if res is not None:
            pivots[res[0]] = res[1]
    return pivots


def _reduce(pivots: Mapping[int, dict[int, int]]) -> dict[int, dict[int, Fraction]]:
    """Reduced echelon form of a pivot table: each row scaled to 1 at its
    lead and cleared at every other pivot column.

    Rows are reduced from the largest lead down, so every pivot column a
    row meets past its lead already holds a reduced row; subtracting that
    row (1 at its lead) clears the column and touches only non-pivot
    columns.
    """
    reduced: dict[int, dict[int, Fraction]] = {}
    for p in sorted(pivots, reverse=True):
        row = pivots[p]
        lead = row[p]
        out = {c: Fraction(v, lead) for c, v in row.items()}
        for q in [c for c in row if c != p and c in pivots]:
            _axpy(out, reduced[q], -out[q])
        reduced[p] = out
    return reduced


def rank(matrix: SparseRationalMatrix) -> int:
    """Exact rank over the rationals."""
    return len(_echelon([_integer_row(r) for r in matrix.row_dicts().values()]))


def rank_modular(
    matrix: SparseRationalMatrix, primes: Sequence[int] = DEFAULT_PRIMES
) -> int:
    """Rank of the matrix mod each prime; the maximum is returned.

    A modular rank never exceeds the rational rank, so this is a certified
    lower bound and, for all but finitely many primes, the exact value.
    Tests cross-check it against :func:`rank` on every instance where both
    run.
    """
    if not primes:
        raise ValueError("at least one prime required")
    int_rows = [_integer_row(r) for r in matrix.row_dicts().values()]
    int_rows.sort(key=len)
    best = 0
    for p in primes:
        if p < 2:
            raise ValueError(f"not a usable modulus: {p}")
        pivots: dict[int, dict[int, int]] = {}
        for base in int_rows:
            row = {}
            for c, v in base.items():
                mv = v % p
                if mv:
                    row[c] = mv
            while row:
                lead = min(row)
                piv = pivots.get(lead)
                if piv is None:
                    inv = pow(row[lead], p - 2, p)
                    pivots[lead] = {c: (v * inv) % p for c, v in row.items()}
                    break
                a = row.pop(lead)
                for c, pv in piv.items():
                    if c == lead:
                        continue
                    nv = (row.get(c, 0) - a * pv) % p
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
        best = max(best, len(pivots))
    return best


def _reversed_echelon(
    rows: Iterable[Mapping[int, int]], cols: int
) -> dict[int, dict[int, int]]:
    """Echelon of integer rows with the columns reversed, c -> cols - 1 - c,
    so each pivot leads at its largest original column. Its pivot count is
    the rank; :func:`_reversed_kernel` reads the kernel off it."""
    last = cols - 1
    return _echelon([{last - c: v for c, v in row.items()} for row in rows])


def _reversed_kernel(pivots: Mapping[int, dict[int, int]], cols: int) -> Subspace:
    """Canonical kernel basis from a :func:`_reversed_echelon` table.

    The reduced row of pivot column p has its other entries at free
    columns c < p only. The kernel vector of free column c is 1 at c and
    -row[c] at each such p: its lowest coordinate is c and it vanishes at
    every other free column.
    """
    last = cols - 1
    reduced = _reduce(pivots)
    vectors = {f: {f: Fraction(1)} for f in range(cols) if last - f not in reduced}
    for p, row in reduced.items():
        for c, v in row.items():
            if c != p:
                vectors[last - c][last - p] = -v
    return Subspace(cols, tuple(vectors.values()))


def kernel_basis(matrix: SparseRationalMatrix) -> Subspace:
    """Canonical basis of the exact null space ``{v : Mv = 0}``."""
    pivots = _reversed_echelon(
        (_integer_row(row) for row in matrix.row_dicts().values()), matrix.cols
    )
    return _reversed_kernel(pivots, matrix.cols)


def column_space(matrix: SparseRationalMatrix) -> Subspace:
    """Span of the columns, as a subspace of the row-index space."""
    cols = matrix.column_dicts()
    vectors = [cols[c] for c in sorted(cols)]
    return Subspace.from_spanning(vectors, matrix.rows)


def solve(matrix: SparseRationalMatrix, rhs: VectorLike):
    """Pivot solution of ``M x = b`` with all free variables set to zero.

    Returns ``(x, residual)`` as sparse mappings; the residual ``M x - b``
    is empty exactly when the system is consistent.
    """
    b = _sparse(rhs, matrix.rows, "rhs")
    sentinel = matrix.cols
    aug_rows: dict[int, dict[int, Fraction]] = matrix.row_dicts()
    for r, v in b.items():
        aug_rows.setdefault(r, {})[sentinel] = v
    pivots = _echelon([_integer_row(row) for row in aug_rows.values()])
    # a pivot in the sentinel column marks an inconsistent system; it is
    # left out so the other rows keep their right-hand sides
    pivots.pop(sentinel, None)
    x = {
        p: row[sentinel] for p, row in _reduce(pivots).items() if sentinel in row
    }
    residual = matrix.apply(x)
    _axpy(residual, b, Fraction(-1))
    return x, residual


def _check_coords(coords: Iterable[int], ambient_dim: int) -> tuple[int, ...]:
    cs = sorted(set(coords))
    if cs and not (0 <= cs[0] and cs[-1] < ambient_dim):
        raise ValueError("coordinate outside the ambient space")
    return tuple(cs)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace held in canonical reduced-echelon form.

    Basis vectors are sparse mappings; each has leading coordinate 1 at a
    pivot position, pivots strictly increase along the basis, and every
    other basis vector vanishes at each pivot. Build instances through
    :meth:`from_spanning`, which canonicalizes any spanning set; the raw
    constructor validates and should only see already-canonical data.
    """

    ambient_dim: int
    basis: tuple[dict[int, Fraction], ...]

    def __post_init__(self) -> None:
        if self.ambient_dim < 0:
            raise ValueError("ambient dimension must be nonnegative")
        last_pivot = -1
        pivot_rows: list[int] = []
        for vec in self.basis:
            if not vec:
                raise ValueError("zero vector stored in a basis")
            p = min(vec)
            if p <= last_pivot:
                raise ValueError("basis pivots must strictly increase")
            if max(vec) >= self.ambient_dim:
                raise ValueError("basis vector outside the ambient space")
            if vec[p] != 1:
                raise ValueError("basis pivot entries must be 1")
            pivot_rows.append(p)
            last_pivot = p
        pivset = set(pivot_rows)
        for i, vec in enumerate(self.basis):
            for p in pivset:
                if p != pivot_rows[i] and p in vec:
                    raise ValueError("basis is not fully reduced")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @staticmethod
    def from_spanning(vectors: Iterable[VectorLike], ambient_dim: int) -> Subspace:
        """Canonicalize a spanning set: its reduced echelon rows."""
        rows: list[dict[int, int]] = []
        for vec in vectors:
            w = _sparse(vec, ambient_dim, "vector")
            if w:
                rows.append(_integer_row(w))
        reduced = _reduce(_echelon(rows))
        return Subspace(ambient_dim, tuple(reduced[p] for p in sorted(reduced)))

    def contains(self, vec: VectorLike) -> bool:
        w = _sparse(vec, self.ambient_dim, "vector")
        for b in self.basis:
            cv = w.get(min(b))
            if cv:
                _axpy(w, b, -cv)
        return not w


def project(space: Subspace, coords: Iterable[int]) -> Subspace:
    """Image of the subspace under restriction to the chosen coordinates.

    The result lives in an ambient of dimension ``len(coords)``, indexed
    by the coordinates in increasing original order.
    """
    cs = _check_coords(coords, space.ambient_dim)
    pos = {c: i for i, c in enumerate(cs)}
    vectors = []
    for b in space.basis:
        v = {pos[c]: val for c, val in b.items() if c in pos}
        vectors.append(v)
    return Subspace.from_spanning(vectors, len(cs))


def restrict_to_coords(space: Subspace, coords: Iterable[int]) -> Subspace:
    """Subspace of vectors supported entirely on the chosen coordinates.

    Unlike :func:`project` this returns vectors in the full ambient
    space; its dimension never exceeds the projection's. The basis is
    eliminated with every outside coordinate ordered before every chosen
    one, so a pivot row leading at a chosen coordinate has no outside
    entry, and those rows span the answer.
    """
    chosen = _check_coords(coords, space.ambient_dim)
    kept = set(chosen)
    order = [c for c in range(space.ambient_dim) if c not in kept] + list(chosen)
    first = space.ambient_dim - len(chosen)
    pos = {c: i for i, c in enumerate(order)}
    pivots = _echelon([
        _integer_row({pos[c]: v for c, v in b.items()}) for b in space.basis
    ])
    vectors = [
        {order[c]: v for c, v in row.items()} for p, row in pivots.items() if p >= first
    ]
    return Subspace.from_spanning(vectors, space.ambient_dim)


def embed(space: Subspace, coords: Sequence[int], ambient_dim: int) -> Subspace:
    """Inverse of the reindexing done by :func:`project`.

    ``coords[i]`` names the ambient coordinate that local coordinate ``i``
    maps to; the list must be strictly increasing so the canonical form is
    preserved.
    """
    if len(coords) != space.ambient_dim:
        raise ValueError("coordinate list does not match the local ambient")
    if any(coords[i] >= coords[i + 1] for i in range(len(coords) - 1)):
        raise ValueError("coordinates must strictly increase")
    if coords and not (0 <= coords[0] and coords[-1] < ambient_dim):
        raise ValueError("coordinate outside the target ambient space")
    basis = tuple({coords[c]: v for c, v in b.items()} for b in space.basis)
    return Subspace(ambient_dim, basis)


def subspace_equal(a: Subspace, b: Subspace) -> bool:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    return a.basis == b.basis


def subspace_sum_dim(a: Subspace, b: Subspace) -> int:
    """Dimension of the (not necessarily direct) sum of two subspaces."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    return len(_echelon([_integer_row(v) for v in a.basis + b.basis]))
