"""Exact sparse linear algebra over the rationals.

Every scalar in this module is exact, an ``int`` or a
``fractions.Fraction``, so ranks, kernels and subspace operations are
exact; no floating point is accepted anywhere. An integral value may stay
an ``int`` from the structure constants to the elimination: it equals and
hashes like its Fraction and is cheaper to multiply and add. The two
carriers are :class:`SparseRationalMatrix`, which stores its nonzero
columns as ``{col: {row: value}}`` (ints kept as ints), the layout the
coboundary builder writes and the eliminations of columns read, and
:class:`Subspace`, which stores a canonical reduced-echelon basis so that
two subspaces are equal exactly when their stored bases are equal.

There is one elimination, :func:`_echelon`. It is fraction free: each
row is scaled to integers (:func:`_integer_row`, which takes a row of
ints as it is) and reduced by cross-multiplication against
earlier pivot rows, each step divided through by the gcd of the two
lead entries; the content (gcd) of a row is stripped once, when it
survives to become a pivot, so every stored pivot row is content free.
Rows are processed sparsest first, which keeps fill-in low on the highly
structured matrices this package produces, and each pivot row leads at
its smallest column. :func:`rank` counts its pivots: it eliminates the
columns, the short side of every matrix the package ranks, with the
coordinates relabelled in increasing order of the number of columns they
occur in; its callers are named in its docstring. Everything else keeps
the natural order, on which its canonical form depends, and adds one
back-substitution, :func:`_reduce`, which brings the pivot rows to
reduced echelon form:

* :meth:`Subspace.from_spanning` (and so :func:`column_space` and
  :func:`project`) stores the reduced rows of a spanning set as its
  canonical basis;
* :func:`restrict_to_coords` eliminates a basis with the outside
  coordinates ordered first; the pivot rows that lead at a chosen
  coordinate span the vectors supported on the chosen ones;
* :func:`solve` reads the solution of each right-hand side off the
  reduced rows of the matrix augmented with all of them, in that
  right-hand side's column, so one elimination serves them all;
* :func:`kernel_basis` eliminates the columns, the short side of the
  tall matrices this package feeds it, each tagged with 1 at its own
  coordinate past the rows (:func:`_kernel_vectors`). A pivot row that
  leads in the tags has no matrix part, so its tags are an integer
  kernel vector, and :meth:`Subspace.from_spanning` makes these
  canonical.

The Lie layer of :mod:`leibcohom.cohomology` ranks each coboundary by
one :func:`_echelon` of its integer columns. The graded engine there
holds them keyed by the flat cochain index and splits them by degree
itself: it counts the pivots of :func:`_echelon` on copies of one
degree's columns for each rank; for each block analysis, on integer
vectors spanning the cocycles (the d^1 columns where the rank chain
closes, the vectors of a fallback kernel elsewhere) restricted to a
block's coordinates and to the other coordinates; and for the G*G
check, on two spans and their union, which are equal when the three
ranks are. A kernel it cannot read off the image of the previous
coboundary it reads by the same rule as :func:`kernel_basis`,
:func:`_kernel_vectors` on the integer columns of a d^2 block, tagged
past the last 3-cochain, so the vectors come out in flat coordinates
and as integers, and their count is the kernel's dimension.

The Der = ker d^1 claim of :mod:`leibcohom.claims` counts the pivots of
one :func:`_echelon` of the integer d^1 columns in natural order too, and
:func:`leibcohom.algebra.squares_ideal` reduces the products of the
squares span's basis by :func:`_eliminate` against its basis rows, where
a surviving row is a product outside the span; so only the tests call
:meth:`Subspace.contains`.

:func:`rank_modular` runs its own elimination mod a few word-size primes.
It is an independent cross-check of :func:`rank` for the tests, never the
source of truth, and no faster than the rational rank on the matrices of
this package.

Sparse vectors from outside the module pass through one check,
:func:`_sparse` (indices in range, exact scalars, zeros dropped), and
every sparse accumulation in the package goes through :func:`_add` (one
entry) or :func:`_axpy` (a scaled vector), which drop entries that
cancel. Four accumulators stay inline, for speed: the integer row
update inside :func:`_eliminate`, the modular loop of
:func:`rank_modular`, :func:`leibcohom.cochain._merge`, which adds each
coboundary term into its column, and the integer sums of
:func:`leibcohom.cohomology._annihilates`, the one check that columns
send vectors to zero (d^{n+1} applied to the columns of d^n, and d^1 to
a basis of Der). A matrix applied to a vector
is one :func:`_axpy` of a column per nonzero coordinate, and the one
sparse matrix product, ``@``, which only the tests use, applies the left
factor to each column of the right one.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd

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
    """Immutable sparse matrix with exact rational entries.

    ``columns`` maps each nonzero column to its nonzero entries,
    ``{col: {row: value}}``, the layout the coboundary builder writes and
    the elimination reads. The constructor copies every column, drops
    zeros and emptied columns, and rejects an index out of range, of an
    empty column too. An ``int`` entry is stored as it is: it is exact,
    and it equals and hashes like its Fraction. Every other entry goes
    through :func:`_as_rational`, so a bool becomes a Fraction and a
    float or a string is rejected.
    """

    _fields = ("rows", "cols", "columns")

    def __init__(self, rows: int, cols: int,
                 columns: Mapping[int, Mapping[int, Fraction]]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        clean: dict[int, dict[int, Fraction]] = {}
        for c, col in columns.items():
            inside = 0 <= c < cols
            out = {}
            for r, v in col.items():
                if not (inside and 0 <= r < rows):
                    raise ValueError(f"entry ({r}, {c}) outside a {rows} x {cols} matrix")
                if v.__class__ is not int:
                    v = _as_rational(v)
                if v:
                    out[r] = v
            if out:
                clean[c] = out
            elif not inside:
                raise ValueError(f"column {c} outside a {rows} x {cols} matrix")
        self.__dict__.update(rows=rows, cols=cols, columns=clean)

    @property
    def nnz(self) -> int:
        return sum(map(len, self.columns.values()))

    def is_zero(self) -> bool:
        return not self.columns

    def row_dicts(self) -> dict[int, dict[int, Fraction]]:
        """Nonzero rows as ``{row: {col: value}}``: the transpose layout."""
        out: dict[int, dict[int, Fraction]] = {}
        for c, col in self.columns.items():
            for r, v in col.items():
                out.setdefault(r, {})[c] = v
        return out

    def apply(self, vec: VectorLike) -> dict[int, Fraction]:
        """Matrix-vector product, returned as a sparse mapping: the sum of
        the columns scaled by the coordinates of the vector."""
        out: dict[int, Fraction] = {}
        for c, xv in _sparse(vec, self.cols, "vector").items():
            _axpy(out, self.columns.get(c, {}), xv)
        return out

    def __matmul__(self, other: SparseRationalMatrix) -> SparseRationalMatrix:
        if not isinstance(other, SparseRationalMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        columns = {c: self.apply(col) for c, col in other.columns.items()}
        return SparseRationalMatrix(self.rows, other.cols, columns)


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
    """Scale a rational row (int or Fraction values) to a content-free
    integer row. A row of ints skips the denominators."""
    den, ints = 1, True
    for v in row.values():
        if v.__class__ is not int:
            ints = False
            d = v.denominator
            if d != 1:
                den = den * d // gcd(den, d)
    if ints:
        out = {c: v for c, v in row.items() if v}
    elif den == 1:
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


def _echelon(rows: list[dict[int, int]], key=len) -> dict[int, dict[int, int]]:
    """Row echelon pivot table ``{leading column: integer row}``, built
    from the integer rows sparsest first (in increasing ``key``, ties in
    the given order)."""
    rows.sort(key=key)
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
    coordinates, so this eliminates the columns, the short side of every
    matrix the package ranks, with the coordinates in increasing-count
    order: a coordinate that few columns share leads few eliminations,
    which keeps fill-in low on the tall, dense coboundaries of an
    ungraded basis. Its callers are the ungraded totals of
    :mod:`leibcohom.cochain` and the spanning-family check of
    :func:`leibcohom.derivations.decompose_derivation`. On the sparse
    columns of a graded basis the relabel costs more than it saves, so
    the graded engine, the Lie layer and the Der = ker d^1 claim count
    the pivots of :func:`_echelon` on integer columns in natural order.
    """
    return len(_echelon(_count_ordered(matrix.columns.values())))


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


def _kernel_vectors(
    columns: Mapping[int, Mapping[int, Fraction]], cols: Iterable[int], tag: int
) -> list[dict[int, int]]:
    """Integer vectors spanning the null space of the matrix whose column
    c is ``columns.get(c)`` (absent for a zero column), for each c in
    ``cols``, with every row index below ``tag``; the vectors are indexed
    by c.

    Each column becomes one line, tagged with 1 at coordinate tag + c, so
    the lines are the rows of [M^T | I], of full rank, and :func:`_echelon`
    reduces them. A pivot row leading at or past ``tag`` has no matrix
    part, so its tag part t, an integer combination of the tags, has
    M t = 0. There are as many such rows as columns minus rank M, and
    they are independent, so they span the null space.
    """
    # the tag first, so the content scan of _integer_row stops at its 1
    lines = [_integer_row({tag + c: 1, **columns.get(c, {})}) for c in cols]
    return [{c - tag: v for c, v in row.items()}
            for p, row in _echelon(lines).items() if p >= tag]


def kernel_basis(matrix: SparseRationalMatrix) -> Subspace:
    """Canonical basis of the exact null space ``{v : Mv = 0}``: the
    reduced rows of the vectors :func:`_kernel_vectors` reads off an
    echelon of the columns."""
    vectors = _kernel_vectors(matrix.columns, range(matrix.cols), matrix.rows)
    return Subspace.from_spanning(vectors, matrix.cols)


def column_space(matrix: SparseRationalMatrix) -> Subspace:
    """Span of the columns, as a subspace of the row-index space."""
    cols = matrix.columns
    vectors = [cols[c] for c in sorted(cols)]
    return Subspace.from_spanning(vectors, matrix.rows)


def solve(matrix: SparseRationalMatrix, rhs: Sequence[VectorLike]):
    """Pivot solutions of ``M x = b``, all free variables set to zero, for
    each right-hand side b, from one elimination of the matrix augmented
    with every b.

    Returns one ``(x, residual)`` pair of sparse mappings per right-hand
    side, in order; the residual ``M x - b`` is empty exactly when that
    system is consistent. Right-hand side j sits in column ``cols + j``.
    The rows are eliminated in an order set by their matrix entries
    alone, so the pivot rows that lead in the matrix are the same
    combinations of rows whatever the right-hand sides are, and each x is
    the one its right-hand side gets when solved on its own.
    """
    bs = [_sparse(b, matrix.rows, "rhs") for b in rhs]
    sentinel = matrix.cols
    aug_rows: dict[int, dict[int, Fraction]] = matrix.row_dicts()
    for j, b in enumerate(bs):
        for r, v in b.items():
            aug_rows.setdefault(r, {})[sentinel + j] = v
    pivots = _echelon([_integer_row(row) for row in aug_rows.values()],
                      key=lambda row: sum(c < sentinel for c in row))
    # a pivot in a right-hand-side column marks an inconsistent system; it
    # is left out so the other rows keep their right-hand sides
    for lead in [p for p in pivots if p >= sentinel]:
        del pivots[lead]
    reduced = _reduce(pivots)
    out = []
    for j, b in enumerate(bs):
        col = sentinel + j
        x = {p: row[col] for p, row in reduced.items() if col in row}
        residual = matrix.apply(x)
        _axpy(residual, b, Fraction(-1))
        out.append((x, residual))
    return out


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
