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
action and the second the right one. One loop, :func:`_coboundary_rows`,
evaluates these three sums for both builders:

* :func:`coboundary_matrix` assembles d^n as a Fraction matrix, for any
  bimodule; it is the ungraded path and the reference for the graded one;
* :func:`coboundary_blocks` builds every degree block of d^n for a graded
  algebra acting on itself as integer rows (the structure constants
  scaled by one common denominator), without assembling d^n.

A cochain has degree i when it shifts the total argument degree by i;
the coboundary preserves that degree, which :func:`coboundary_blocks`
verifies entry by entry while it builds the blocks.
:func:`graded_submatrix` cuts the same blocks out of a full matrix, with
the same check, and serves as the builder's reference.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import lcm
from typing import Any, Iterator, Mapping, NamedTuple, Sequence

from .algebra import AlgebraStructure, Bimodule, Grading, adjoint_bimodule
from .linalg import SparseRationalMatrix, _add

MAX_ARITY = 3


def _coboundary_rows(
    left: Sequence[Mapping], right: Sequence[Mapping], tensor: Mapping, dm: int, n: int
) -> Iterator[tuple[tuple[int, ...], int, dict[tuple[int, int], Any]]]:
    """The rows of d^n, one argument tuple at a time.

    Yields ``(args, row_base, entries)`` for every ``args`` in L^{n+1}, in
    flat order: ``entries`` maps ``(row_base + k, column)`` to the nonzero
    coefficients of the rows ``(args; k)``. Scalars are whatever the
    actions and the tensor hold, so integer inputs give integer rows.
    """
    dl = len(left)

    def base(t: Sequence[int]) -> int:
        idx = 0
        for a in t:
            idx = idx * dl + a
        return idx * dm

    for args in itertools.product(range(dl), repeat=n + 1):
        row_base = base(args)
        entries: dict[tuple[int, int], Any] = {}
        # [x_1, f(x_2, ..., x_{n+1})]
        col_base = base(args[1:])
        for (out, inp), v in left[args[0]].items():
            _add(entries, (row_base + out, col_base + inp), v)
        # (-1)^p [f(..., ^x_p, ...), x_p], p = 2..n+1 one-based
        for p in range(1, n + 1):
            sign = 1 if p % 2 else -1
            col_b = base(args[:p] + args[p + 1 :])
            if sign == 1:
                for (out, inp), v in right[args[p]].items():
                    _add(entries, (row_base + out, col_b + inp), v)
            else:
                for (out, inp), v in right[args[p]].items():
                    _add(entries, (row_base + out, col_b + inp), -v)
        # (-1)^{q+1} f(..., [x_p, x_q], ..., ^x_q, ...), p < q one-based
        for p in range(n + 1):
            for q in range(p + 1, n + 1):
                sign = 1 if q % 2 == 0 else -1
                prod = tensor.get((args[p], args[q]))
                if not prod:
                    continue
                mid = args[:p]
                tail = args[p + 1 : q] + args[q + 1 :]
                for t, coeff in prod.items():
                    col_b = base(mid + (t,) + tail)
                    s = coeff if sign == 1 else -coeff
                    for k in range(dm):
                        _add(entries, (row_base + k, col_b + k), s)
        yield args, row_base, entries


def _check_arity(n: int) -> None:
    if not 0 <= n <= MAX_ARITY:
        raise ValueError(f"coboundary arity must be between 0 and {MAX_ARITY}")


def coboundary_matrix(
    algebra: AlgebraStructure, module: Bimodule, n: int
) -> SparseRationalMatrix:
    """Matrix of d: Hom(L^n, M) -> Hom(L^{n+1}, M) in flat coordinates.

    Supported for n in 0..3; higher arities are rejected because nothing
    downstream needs them and the index spaces grow geometrically.
    """
    _check_arity(n)
    if module.algebra_dim != algebra.dim:
        raise ValueError("module is over an algebra of different dimension")
    dm = module.module_dim
    entries: dict[tuple[int, int], Fraction] = {}
    for _, _, row_entries in _coboundary_rows(
        module.left_action, module.right_action, algebra.tensor, dm, n
    ):
        entries.update(row_entries)
    return SparseRationalMatrix(algebra.dim ** (n + 1) * dm, algebra.dim**n * dm, entries)


class IntegerBlock(NamedTuple):
    """One degree block of a coboundary, scaled to integers: ``columns``
    holds its columns' flat indices in :func:`graded_columns` order, and
    ``rows`` maps each nonzero block-local row to ``{block-local column:
    value}``."""

    columns: tuple[int, ...]
    rows: dict[int, dict[int, int]]


def _integral(vec: Mapping, scale: int) -> dict:
    return {k: v.numerator * (scale // v.denominator) for k, v in vec.items()}


def coboundary_blocks(
    algebra: AlgebraStructure, grading: Grading, n: int
) -> tuple[int, dict[int, IntegerBlock]]:
    """Every degree block of d^n for L acting on itself, as integer rows.

    Returns ``(scale, blocks)``: ``scale`` is the least common denominator
    of the structure constants, and ``blocks[degree]`` is ``scale`` times
    :func:`graded_submatrix` of d^n for that degree, built straight from
    the tensor without assembling d^n. Any entry whose column has another
    degree than its row makes the grading invalid and raises ValueError.
    """
    _check_arity(n)
    degs = _check_degrees(algebra, grading)
    scale = lcm(*(v.denominator for vec in algebra.tensor.values() for v in vec.values()))
    module = adjoint_bimodule(algebra)
    left = [_integral(act, scale) for act in module.left_action]
    right = [_integral(act, scale) for act in module.right_action]
    tensor = {key: _integral(vec, scale) for key, vec in algebra.tensor.items()}

    # each column's degree and its position in graded_columns order; a
    # column no degree claims keeps None and fails the check below
    dl = algebra.dim
    col_degree: list[int | None] = [None] * (dl ** (n + 1))
    col_local = [0] * (dl ** (n + 1))
    blocks: dict[int, IntegerBlock] = {}
    for degree in cochain_degrees(algebra, grading, n):
        cols = graded_columns(algebra, grading, n, degree)
        for p, c in enumerate(cols):
            col_degree[c] = degree
            col_local[c] = p
        blocks[degree] = IntegerBlock(cols, {})
    # rows run in flat order, so the block-local index of row (args; k) is
    # the number of rows of its degree before args, start[degree], plus
    # the number of basis elements before k with the degree of k
    class_size = Counter(degs)
    rank_in_class = [degs[:k].count(degs[k]) for k in range(dl)]
    start: Counter[int] = Counter()
    # the adjoint module has dimension dl
    for args, row_base, entries in _coboundary_rows(left, right, tensor, dl, n):
        s = 0
        for a in args:
            s += degs[a]
        for (r, c), v in entries.items():
            k = r - row_base
            degree = degs[k] - s
            if col_degree[c] != degree:
                raise ValueError(
                    "coboundary does not preserve the grading: entry "
                    f"({r}, {c}) of d^{n} joins a degree {degree} row to a"
                    f" degree {col_degree[c]} column"
                )
            row = start[degree] + rank_in_class[k]
            blocks[degree].rows.setdefault(row, {})[col_local[c]] = v
        for d, size in class_size.items():
            start[d - s] += size
    return scale, blocks


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
    engine builds its blocks with :func:`coboundary_blocks`; this is the
    reference that builder is tested against.
    """
    cols = graded_columns(algebra, grading, n, degree)
    rows = graded_columns(algebra, grading, n + 1, degree)
    col_pos = {c: i for i, c in enumerate(cols)}
    row_pos = {r: i for i, r in enumerate(rows)}
    sub: dict[tuple[int, int], Fraction] = {}
    for (r, c), v in d.entries.items():
        pc = col_pos.get(c)
        if pc is None:
            continue
        pr = row_pos.get(r)
        if pr is None:
            raise ValueError(
                "coboundary does not preserve the grading: entry "
                f"({r}, {c}) leaves degree {degree}"
            )
        sub[(pr, pc)] = v
    return SparseRationalMatrix(len(rows), len(cols), sub)

