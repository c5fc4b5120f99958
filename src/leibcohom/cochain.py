"""Cochain spaces Hom(L^n, M) and their coboundary matrices.

A basis n-cochain is a tuple ``(i_1, ..., i_n; k)``: the map sending the
basis argument tuple to the k-th module basis vector and every other
argument tuple to zero. Flat indices run lexicographically in
``(i_1, ..., i_n, k)``. The coboundary of an n-cochain f is

    (d f)(x_1, ..., x_{n+1})
        = [x_1, f(x_2, ..., x_{n+1})]
        + sum_{p=2}^{n+1} (-1)^p [f(x_1, ..., ^x_p, ..., x_{n+1}), x_p]
        + sum_{p<q} (-1)^{q+1}
              f(x_1, ..., x_{p-1}, [x_p, x_q], x_{p+1}, ..., ^x_q, ..., x_{n+1})

with ^ marking an omitted argument, the first bracket the left module
action and the second the right one. One builder,
:class:`_ColumnBuilder`, evaluates these three sums column by column, a
column being d^n of one basis cochain, for all columns or for any chosen
subset of them. For any bimodule,

* :func:`coboundary_matrix` hands the columns as they are to a rational
  matrix, exactly d, whose integral entries are ints; it is the ungraded
  path, which :func:`zl_dim`, :func:`bl_dim` and :func:`hl_dim` rank for
  the totals dim ZL^n, dim BL^n and dim HL^n;
* :func:`_integer_builder` hands out a builder of integer columns,
  scaled by one common denominator, with no grading. No rank or span
  sees the denominator; the builder keeps it as ``scale`` for the Cartan
  certificate of :mod:`leibcohom.cohomology`, which compares entries
  with the structure constants. Rows and columns keep their flat
  cochain index, so the columns of d^{n+1} and the rows of d^n share one
  index space. :mod:`leibcohom.cohomology` keeps one such builder per
  complex and builds d^n whole or one block of columns at a time.

A cochain has degree i when it shifts the total argument degree by i;
when the grading respects the product, the coboundary preserves that
degree. Only :func:`graded_columns`, :func:`cochain_degrees` and
:func:`graded_submatrix` read a grading: the graded engine in
:mod:`leibcohom.cohomology` classifies the cochains into blocks itself,
and :func:`graded_submatrix` cuts a degree block out of a full matrix,
checking every entry, as the reference the tests hold the engine to.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import lcm

from .algebra import AlgebraStructure, Bimodule, Grading, _integral, _integral_as_int
from .linalg import SparseRationalMatrix, rank

MAX_ARITY = 3


def _by_input(actions: Sequence[Mapping], dm: int) -> list[list[tuple]]:
    """An action inverted by input: ``k -> [(x, out, v)]`` for each entry
    v of x acting on the k-th module basis vector."""
    index: list[list[tuple]] = [[] for _ in range(dm)]
    for x, act in enumerate(actions):
        for (out, inp), v in act.items():
            index[inp].append((x, out, v))
    return index


class _ColumnBuilder:
    """The columns of d^n for one algebra and bimodule, n in 0..3.

    Three inverted indices are made once: the left and the right action
    by input, ``k -> [(x, out, v)]``, and the bracket by output,
    ``t -> [(x, y, c)]`` for each c = c_{xy}^t. The column of the basis
    cochain (i_1, ..., i_n; k) is nonzero only at argument tuples that
    insert one argument x into (i_1, ..., i_n), the action terms, or that
    split one i_p into a bracket [x, y], the bracket terms, so each term
    of the formula is one loop over an index list. The row bases of each
    argument tuple are kept per arity for the builder's life, O(dim L^n)
    small tuples, so a tuple whose columns fall in several blocks is
    planned once. Scalars are whatever the actions and the tensor hold,
    so integer inputs give integer columns; ``scale`` records that they
    are ``scale`` times the actions and constants of the input.
    """

    def __init__(self, left: Sequence[Mapping], right: Sequence[Mapping], tensor: Mapping,
                 dm: int, scale: int = 1):
        self.dl, self.dm, self.scale = len(left), dm, scale
        self.left, self.right = _by_input(left, dm), _by_input(right, dm)
        self.bracket: list[list[tuple]] = [[] for _ in range(self.dl)]
        for (x, y), vec in tensor.items():
            for t, c in vec.items():
                self.bracket[t].append((x, y, c))
        self._plans: dict[int, tuple[list, list]] = {}
        # per arity, the row bases of each argument tuple met so far
        self._bases: dict[int, dict[int, tuple[list, list]]] = {}

    def _plan(self, n: int) -> tuple[list, list]:
        """The row offsets of d^n's terms, which depend on n only.

        An action term inserts x before argument j of the cochain: j = 0
        is [x_1, f(..)], j = p - 1 the term (-1)^p [f(.., ^x_p, ..), x_p].
        Its entry (x, out, v) lies at x * dim L^{n-j} * dim M + out past
        the row of the tuple with x = 0; the entries are kept by k, next
        to dim L^{n-j}. A bracket term splits argument p of the cochain
        into [x, y], x at position p and y at q of the argument tuple
        (zero-based), with the sign (-1)^q; its offsets are kept by the
        output t of the bracket, next to the powers of dim L that locate
        the rest of the tuple.
        """
        if n not in self._plans:
            dl, dm = self.dl, self.dm
            acts = []
            for j in range(n + 1):
                step = dl ** (n - j) * dm
                index, sign = (self.right, 1 if j % 2 else -1) if j else (self.left, 1)
                acts.append((dl ** (n - j), [
                    [(x * step + o, sign * v) for x, o, v in entries] for entries in index
                ]))
            splits = []
            for p in range(n):
                for q in range(p + 1, n + 1):
                    sx, sy = dl ** (n - p) * dm, dl ** (n - q) * dm
                    by_output = [
                        [(x * sx + y * sy, c if q % 2 == 0 else -c) for x, y, c in pairs]
                        for pairs in self.bracket
                    ]
                    powers = dl ** (n - 1 - p), dl ** (n - q), dl ** (q - 1 - p)
                    splits.append((*powers, dl ** (n - q + 1) * dm, by_output))
            self._plans[n] = acts, splits
        return self._plans[n]

    def columns(self, n: int,
                cols: Iterable[int] | None = None) -> dict[int, dict[int, int | Fraction]]:
        """d^n as ``{column: {row: value}}`` at flat cochain indices, for
        the given increasing columns (all of them by default), nonzero
        columns only, in column order. The row bases of one argument tuple
        are computed once per arity and kept, so a tuple whose columns
        fall in different blocks costs one computation."""
        if not 0 <= n <= MAX_ARITY:
            # nothing needs n > 3, and the index spaces grow geometrically
            raise ValueError(f"coboundary arity must be between 0 and {MAX_ARITY}")
        dm = self.dm
        left = self._plan(n)[0][0][1]
        bases = self._bases.setdefault(n, {})
        out: dict[int, dict[int, int | Fraction]] = {}
        last = -1
        for c in range(self.dl**n * dm) if cols is None else cols:
            a, k = divmod(c, dm)
            if a != last:
                last = a
                got = bases.get(a)
                if got is None:
                    got = bases[a] = self._bases_of(n, a)
                moves, parts = got
            # one insertion position never repeats a row
            col = {a * dm + off: v for off, v in left[k]}
            for base, by_k in moves:
                _merge(col, base, by_k[k])
            for base, entries in parts:
                _merge(col, base + k, entries)
            if col:
                out[c] = col
        return out

    def _bases_of(self, n: int, a: int) -> tuple[list, list]:
        """The row bases of the argument tuple ``a`` of arity n: for each
        right-action term, the row of its tuple with x = 0, next to the
        term's entries by k; for each bracket term whose split argument
        is the output of some bracket, the row of its tuple with x = y = 0
        and k = 0, next to the term's offsets."""
        dl, dm = self.dl, self.dm
        acts, splits = self._plan(n)
        # a // s and a % s are the arguments before and after the
        # insertion point, s = dim L^{n-j}
        moves = [((a // s * s * dl + a % s) * dm, by_k) for s, by_k in acts[1:]]
        # the split argument t = a // dp % dim L is zeroed in the first q
        # arguments a // dq, which y = 0 and a % dq follow
        parts = []
        for dp, dq, dt, dh, by_output in splits:
            entries = by_output[a // dp % dl]
            if entries:
                parts.append(((a // dq - a // dp % dl * dt) * dh + a % dq * dm, entries))
        return moves, parts


def _merge(col: dict, base: int, entries: Iterable[tuple]) -> None:
    """Add each ``(offset, value)`` at row ``base + offset`` of a column,
    dropping a sum that cancels."""
    for off, v in entries:
        r = base + off
        s = col.get(r)
        if s is None:
            col[r] = v
        else:
            s += v
            if s:
                col[r] = s
            else:
                del col[r]


def _check(algebra: AlgebraStructure, module: Bimodule) -> None:
    if module.algebra_dim != algebra.dim:
        raise ValueError("module is over an algebra of different dimension")


def coboundary_matrix(
    algebra: AlgebraStructure, module: Bimodule, n: int
) -> SparseRationalMatrix:
    """Matrix of d: Hom(L^n, M) -> Hom(L^{n+1}, M) in flat coordinates, n in 0..3.

    The builder gets each integral constant and action entry as an int, so
    the entries are exactly d, and integral ones (all, for the sl2 family)
    are ints: no Fraction is made on the way to the elimination."""
    _check(algebra, module)
    dm = module.module_dim
    builder = _ColumnBuilder(
        [_integral_as_int(act) for act in module.left_action],
        [_integral_as_int(act) for act in module.right_action],
        {key: _integral_as_int(vec) for key, vec in algebra.tensor.items()}, dm)
    return SparseRationalMatrix(algebra.dim ** (n + 1) * dm, algebra.dim**n * dm,
                                builder.columns(n))


def zl_dim(algebra: AlgebraStructure, module: Bimodule, n: int) -> int:
    """dim ZL^n(L, M) = dim ker d^n, supported for n in 0..3."""
    d = coboundary_matrix(algebra, module, n)
    return d.cols - rank(d)


def bl_dim(algebra: AlgebraStructure, module: Bimodule, n: int) -> int:
    """dim BL^n(L, M) = rank d^{n-1}, supported for n in 1..2."""
    if n not in (1, 2):
        raise ValueError("coboundary dimensions are supported for n in {1, 2}")
    return rank(coboundary_matrix(algebra, module, n - 1))


def hl_dim(algebra: AlgebraStructure, module: Bimodule, n: int) -> int:
    """dim HL^n(L, M), supported for n in 1..2."""
    if n not in (1, 2):
        raise ValueError("cohomology dimensions are supported for n in {1, 2}")
    return zl_dim(algebra, module, n) - bl_dim(algebra, module, n)


def _integer_builder(algebra: AlgebraStructure, module: Bimodule) -> _ColumnBuilder:
    """The builder of s times the columns of :func:`coboundary_matrix`, as
    integers, where s is the least common denominator of the structure
    constants and of both actions, kept as its ``scale``. Ranks and spans
    do not see s; only an entry compared with the constants does."""
    _check(algebra, module)
    vectors = (*algebra.tensor.values(), *module.left_action, *module.right_action)
    scale = lcm(*(v.denominator for vec in vectors for v in vec.values()))
    left = [_integral(act, scale) for act in module.left_action]
    right = [_integral(act, scale) for act in module.right_action]
    tensor = {key: _integral(vec, scale) for key, vec in algebra.tensor.items()}
    return _ColumnBuilder(left, right, tensor, module.module_dim, scale)


def _check_degrees(algebra: AlgebraStructure, grading: Grading) -> tuple[int, ...]:
    if len(grading.degrees) != algebra.dim:
        raise ValueError("grading length does not match the algebra")
    return grading.degrees


def graded_columns(
    algebra: AlgebraStructure, grading: Grading, n: int, degree: int
) -> tuple[int, ...]:
    """Flat indices of the basis cochains of Hom(L^n, L) of the given degree.

    The cochain ``(i_1, ..., i_n; k)`` has degree
    ``grading[k] - sum(grading[i_p])``.
    """
    degs = _check_degrees(algebra, grading)
    dl = algebra.dim
    out: list[int] = []
    flat_base = 0
    for args in itertools.product(range(dl), repeat=n):
        s = 0
        for a in args:
            s += degs[a]
        for k in range(dl):
            if degs[k] - s == degree:
                out.append(flat_base + k)
        flat_base += dl
    return tuple(out)


def cochain_degrees(
    algebra: AlgebraStructure, grading: Grading, n: int
) -> tuple[int, ...]:
    """All degrees realized by nonzero components of Hom(L^n, L)."""
    degs = _check_degrees(algebra, grading)
    if algebra.dim == 0 and n > 0:
        return ()
    arg_sums = {0}
    values = set(degs)
    for _ in range(n):
        arg_sums = {s + d for s in arg_sums for d in values} if values else set()
    return tuple(sorted({mk - s for mk in degs for s in arg_sums}))


def graded_submatrix(
    d: SparseRationalMatrix,
    algebra: AlgebraStructure,
    grading: Grading,
    n: int,
    degree: int,
) -> SparseRationalMatrix:
    """Block of a coboundary matrix between fixed-degree components.

    Restricts d (the arity-n coboundary of L acting on itself) to the
    degree-``degree`` columns of Hom(L^n, L) and rows of Hom(L^{n+1}, L).
    Any entry leading from such a column to a row of a different degree
    makes the claimed grading invalid and raises ValueError. The graded
    engine splits the integer builder's columns by degree instead; this
    is the reference it is tested against.
    """
    cols = graded_columns(algebra, grading, n, degree)
    rows = graded_columns(algebra, grading, n + 1, degree)
    col_pos = {c: i for i, c in enumerate(cols)}
    row_pos = {r: i for i, r in enumerate(rows)}
    sub: dict[int, dict[int, Fraction]] = {}
    for c, col in d.columns.items():
        pc = col_pos.get(c)
        if pc is None:
            continue
        out = sub[pc] = {}
        for r, v in col.items():
            pr = row_pos.get(r)
            if pr is None:
                raise ValueError(
                    "coboundary does not preserve the grading: entry "
                    f"({r}, {c}) leaves degree {degree}"
                )
            out[pr] = v
    return SparseRationalMatrix(len(rows), len(cols), sub)

