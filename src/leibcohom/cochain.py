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
action and the second the right one. For a graded algebra acting on
itself, a cochain has degree i when it shifts the total argument degree
by i; the coboundary preserves that degree, which
:func:`graded_submatrix` verifies entry by entry while extracting a
block.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from .algebra import AlgebraStructure, Bimodule, Grading
from .linalg import SparseRationalMatrix, _add

MAX_ARITY = 3


def coboundary_matrix(
    algebra: AlgebraStructure, module: Bimodule, n: int
) -> SparseRationalMatrix:
    """Matrix of d: Hom(L^n, M) -> Hom(L^{n+1}, M) in flat coordinates.

    Supported for n in 0..3; higher arities are rejected because nothing
    downstream needs them and the index spaces grow geometrically.
    """
    if not 0 <= n <= MAX_ARITY:
        raise ValueError(f"coboundary arity must be between 0 and {MAX_ARITY}")
    if module.algebra_dim != algebra.dim:
        raise ValueError("module is over an algebra of different dimension")
    dl = algebra.dim
    dm = module.module_dim
    rows = dl ** (n + 1) * dm
    cols = dl**n * dm
    left = module.left_action
    right = module.right_action
    tensor = algebra.tensor
    entries: dict[tuple[int, int], Fraction] = {}

    def base(t: Sequence[int]) -> int:
        idx = 0
        for a in t:
            idx = idx * dl + a
        return idx * dm

    for args in itertools.product(range(dl), repeat=n + 1):
        row_base = base(args)
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
    return SparseRationalMatrix(rows, cols, entries)


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
    makes the claimed grading invalid and raises ValueError.
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

