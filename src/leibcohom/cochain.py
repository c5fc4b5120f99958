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
action and the second the right one. One loop, :func:`_coboundary_columns`,
evaluates these three sums and writes each term once into its column, a
column being d^n of one basis cochain. For any bimodule,

* :func:`coboundary_matrix` flattens the columns into a Fraction matrix;
  it is the ungraded path;
* :func:`coboundary_columns` scales them to integers by one common
  denominator, with no grading, for :mod:`leibcohom.cohomology` to rank.
  Rows and columns keep their flat cochain index, so the columns of
  d^{n+1} and the rows of d^n share one index space.

A cochain has degree i when it shifts the total argument degree by i;
when the grading respects the product, the coboundary preserves that
degree. Only :func:`graded_columns`, :func:`cochain_degrees` and
:func:`graded_submatrix` read a grading: the graded engine in
:mod:`leibcohom.cohomology` splits the columns by degree itself, and
:func:`graded_submatrix` cuts a degree block out of a full matrix,
checking every entry, as the reference the tests hold the engine to.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Any, Mapping, Sequence

from .algebra import AlgebraStructure, Bimodule, Grading
from .linalg import SparseRationalMatrix, _add

MAX_ARITY = 3


def _coboundary_columns(
    left: Sequence[Mapping], right: Sequence[Mapping], tensor: Mapping, dm: int, n: int
) -> dict[int, dict[int, Any]]:
    """d^n as ``{column: {row: value}}``, flat cochain indices, nonzero
    columns only, in increasing column order.

    One pass over the argument tuples of L^{n+1} writes every term of the
    three sums straight into its column. Scalars are whatever the actions
    and the tensor hold, so integer inputs give integer columns.
    """
    dl = len(left)

    def base(t: Sequence[int]) -> int:
        idx = 0
        for a in t:
            idx = idx * dl + a
        return idx * dm

    columns: list[dict[int, Any]] = [{} for _ in range(dl**n * dm)]
    for args in itertools.product(range(dl), repeat=n + 1):
        row_base = base(args)
        # [x_1, f(x_2, ..., x_{n+1})]
        col_base = base(args[1:])
        for (out, inp), v in left[args[0]].items():
            _add(columns[col_base + inp], row_base + out, v)
        # (-1)^p [f(..., ^x_p, ...), x_p], p = 2..n+1 one-based
        for p in range(1, n + 1):
            col_b = base(args[:p] + args[p + 1 :])
            if p % 2:
                for (out, inp), v in right[args[p]].items():
                    _add(columns[col_b + inp], row_base + out, v)
            else:
                for (out, inp), v in right[args[p]].items():
                    _add(columns[col_b + inp], row_base + out, -v)
        # (-1)^{q+1} f(..., [x_p, x_q], ..., ^x_q, ...), p < q one-based
        for p in range(n + 1):
            for q in range(p + 1, n + 1):
                prod = tensor.get((args[p], args[q]))
                if not prod:
                    continue
                mid = args[:p]
                tail = args[p + 1 : q] + args[q + 1 :]
                for t, coeff in prod.items():
                    col_b = base(mid + (t,) + tail)
                    s = coeff if q % 2 == 0 else -coeff
                    for k in range(dm):
                        _add(columns[col_b + k], row_base + k, s)
    return {c: col for c, col in enumerate(columns) if col}


def _check(algebra: AlgebraStructure, module: Bimodule, n: int) -> None:
    # nothing needs n > 3, and the index spaces grow geometrically
    if not 0 <= n <= MAX_ARITY:
        raise ValueError(f"coboundary arity must be between 0 and {MAX_ARITY}")
    if module.algebra_dim != algebra.dim:
        raise ValueError("module is over an algebra of different dimension")


def coboundary_matrix(
    algebra: AlgebraStructure, module: Bimodule, n: int
) -> SparseRationalMatrix:
    """Matrix of d: Hom(L^n, M) -> Hom(L^{n+1}, M) in flat coordinates, n in 0..3."""
    _check(algebra, module, n)
    dm = module.module_dim
    columns = _coboundary_columns(module.left_action, module.right_action, algebra.tensor, dm, n)
    entries = {(r, c): v for c, col in columns.items() for r, v in col.items()}
    return SparseRationalMatrix(algebra.dim ** (n + 1) * dm, algebra.dim**n * dm, entries)


def _integral(vec: Mapping, scale: int) -> dict:
    return {k: v.numerator * (scale // v.denominator) for k, v in vec.items()}


def coboundary_columns(
    algebra: AlgebraStructure, module: Bimodule, n: int
) -> tuple[int, dict[int, dict[int, int]]]:
    """d^n with coefficients in a bimodule, as integer columns, n in 0..3.

    Returns ``(scale, columns)``: ``scale`` is the least common
    denominator of the structure constants and of both actions, and
    ``columns`` maps each nonzero column of d^n to ``{row: value}``,
    ``scale`` times the entries of :func:`coboundary_matrix`, at their
    flat cochain indices.
    """
    _check(algebra, module, n)
    vectors = (*algebra.tensor.values(), *module.left_action, *module.right_action)
    scale = lcm(*(v.denominator for vec in vectors for v in vec.values()))
    left = [_integral(act, scale) for act in module.left_action]
    right = [_integral(act, scale) for act in module.right_action]
    tensor = {key: _integral(vec, scale) for key, vec in algebra.tensor.items()}
    return scale, _coboundary_columns(left, right, tensor, module.module_dim, n)


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
    engine splits :func:`coboundary_columns` by degree instead; this is
    the reference it is tested against.
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

