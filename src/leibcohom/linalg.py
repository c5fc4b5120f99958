"""Exact sparse linear algebra over the rationals.

Everything in this module works with ``fractions.Fraction`` scalars, so
ranks, kernels and subspace operations are exact; no floating point is
accepted anywhere. The two carriers are :class:`SparseRationalMatrix`,
a mapping from ``(row, col)`` to nonzero entries, and :class:`Subspace`,
which stores a canonical reduced-echelon basis so that two subspaces are
equal exactly when their stored bases are equal.

There is one elimination, :func:`_echelon`. It is fraction free: each
row is scaled to integers and reduced by cross-multiplication against
earlier pivot rows, each step divided through by the gcd of the two
lead entries; the content (gcd) of a row is stripped once, when it
survives to become a pivot, so every stored pivot row is content free.
Rows are processed sparsest first, which keeps fill-in low on the highly
structured matrices this package produces, and each pivot row leads at
its smallest column. :func:`rank` counts its pivots: it eliminates the
shorter side of the matrix (the columns of a tall one), with the
coordinates relabelled in increasing order of the number of lines they
occur in. Everything else keeps the natural order, on which its
canonical form depends, and adds one back-substitution,
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
  which is already the canonical basis (:func:`_reversed_kernel`).

The Lie layer of :mod:`leibcohom.cohomology` ranks each coboundary by
one :func:`_echelon` of its integer columns. The graded engine there
holds them keyed by the flat cochain index and splits them by degree
itself: it counts the pivots of :func:`_echelon` on copies of one
degree's columns for each rank; for each block analysis, on integer
vectors spanning the cocycles (the d^1 columns where the rank chain
closes, the rows of a fallback kernel elsewhere) restricted to a block's
coordinates and to the other coordinates; and for the G*G check, on two
spans and their union, which are equal when the three ranks are. It
calls :func:`_reversed_echelon` and :func:`_reversed_kernel` on the
rows only for a kernel it cannot read off the image of the previous
coboundary. That kernel numbers the degree's columns of d^2 by position,
and :func:`embed` maps it back to flat coordinates.

:func:`rank_modular` runs its own elimination mod a few word-size primes.
It is an independent cross-check of :func:`rank` for the tests, never the
source of truth, and no faster than the rational rank on the matrices of
this package.

Sparse vectors from outside the module pass through one check,
:func:`_sparse` (indices in range, exact scalars, zeros dropped), and
every sparse accumulation in the package goes through :func:`_add` (one
entry) or :func:`_axpy` (a scaled vector), which drop entries that
cancel. Three accumulators stay inline, for speed: the integer row
update inside :func:`_eliminate`, the modular loop of
:func:`rank_modular`, and :func:`leibcohom.cochain._merge`, which adds
each coboundary term into its column. The one sparse matrix product is
``@``, which only the tests use.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Collection, Iterable, Mapping, Sequence

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


class _Value:
    """Base of the package's immutable value classes. Equality (within one
    class only), hash and repr run over the fields named in ``_fields``,
    and attributes can be neither assigned nor deleted, as for a frozen
    dataclass; each subclass's ``__init__`` checks its arguments and
    stores the fields through ``__dict__``. ``dataclasses`` would give the
    same, but importing it loads ``inspect`` (with ``ast``, ``dis`` and
    ``tokenize``) at the start of every command."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class SparseRationalMatrix(_Value):
    """Immutable sparse matrix with Fraction entries.

    ``entries`` maps ``(row, col)`` to a nonzero value; zeros are dropped
    on construction and out-of-range indices are rejected.
    """

    _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: dict[tuple[int, int], Fraction]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        clean: dict[tuple[int, int], Fraction] = {}
        for (r, c), v in entries.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r}, {c}) outside a {rows} x {cols} matrix")
            fv = _as_rational(v)
            if fv:
                clean[(r, c)] = fv
        self.__dict__.update(rows=rows, cols=cols, entries=clean)

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
        by_col: dict[int, list[tuple[int, Fraction]]] = {}
        for (r, c), v in self.entries.items():
            by_col.setdefault(c, []).append((r, v))
        out: dict[tuple[int, int], Fraction] = {}
        for (t, c), yv in other.entries.items():
            for r, xv in by_col.get(t, ()):
                _add(out, (r, c), xv * yv)
        return SparseRationalMatrix(self.rows, other.cols, out)


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
    Each step scales the row by a nonzero number only, so stripping the
    content once, from the survivor, gives the row a strip after every
    step would give; most rows of a tall matrix reduce to zero and never
    pay for it.
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
        g = gcd(a, b)
        if g != 1:
            a //= g
            b //= g
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


def _count_ordered(lines: Collection[Mapping[int, Fraction]]) -> list[dict[int, int]]:
    """Integer rows of the lines with each coordinate relabelled by the
    number of lines it occurs in, fewest first (ties in natural order)."""
    count: dict[int, int] = {}
    for line in lines:
        for c in line:
            count[c] = count.get(c, 0) + 1
    pos = {c: i for i, c in enumerate(sorted(count, key=lambda c: (count[c], c)))}
    return [{pos[c]: v for c, v in _integer_row(line).items()} for line in lines]


def rank(matrix: SparseRationalMatrix) -> int:
    """Exact rank over the rationals.

    Rank ignores both the side eliminated and the order of the
    coordinates, so this eliminates the columns of a tall matrix and the
    rows otherwise, with the coordinates in increasing-count order: a
    coordinate that few lines share leads few eliminations, which keeps
    fill-in low on the tall, dense coboundaries of an ungraded basis.
    """
    side = matrix.column_dicts if matrix.rows > matrix.cols else matrix.row_dicts
    # the Fraction lines are a temporary, freed before the elimination runs
    return len(_echelon(_count_ordered(side().values())))


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


class Subspace(_Value):
    """A linear subspace held in canonical reduced-echelon form.

    Basis vectors are sparse mappings; each has leading coordinate 1 at a
    pivot position, pivots strictly increase along the basis, and every
    other basis vector vanishes at each pivot. Build instances through
    :meth:`from_spanning`, which canonicalizes any spanning set; the raw
    constructor validates and should only see already-canonical data.
    """

    _fields = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: tuple[dict[int, Fraction], ...]) -> None:
        if ambient_dim < 0:
            raise ValueError("ambient dimension must be nonnegative")
        last_pivot = -1
        leads: list[int] = []
        for vec in basis:
            if not vec:
                raise ValueError("zero vector stored in a basis")
            p = min(vec)
            if p <= last_pivot:
                raise ValueError("basis pivots must strictly increase")
            if max(vec) >= ambient_dim:
                raise ValueError("basis vector outside the ambient space")
            if vec[p] != 1:
                raise ValueError("basis pivot entries must be 1")
            leads.append(p)
            last_pivot = p
        # each vector's only stored entry at a pivot is its own
        pivots = set(leads)
        for vec in basis:
            if len(pivots.intersection(vec)) != 1:
                raise ValueError("basis is not fully reduced")
        # the pivot of each basis vector, for contains; not a field
        self.__dict__.update(ambient_dim=ambient_dim, basis=basis, _leads=tuple(leads))

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
        for p, b in zip(self._leads, self.basis):
            cv = w.get(p)
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
    # only the order of the coordinates the basis uses matters
    outside = sorted(set().union(*space.basis).difference(chosen))
    order = outside + list(chosen)
    first = len(outside)
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
