"""Shared test helpers, handed to the test modules as fixtures."""

import random
from fractions import Fraction as F

import pytest

from leibcohom.algebra import AlgebraStructure


def inverse_and_det(p):
    """Exact inverse and determinant of a square integer matrix by
    Fraction Gauss-Jordan elimination; (None, 0) when it is singular."""
    n = len(p)
    rows = [[F(v) for v in row] + [F(int(i == j)) for j in range(n)] for i, row in enumerate(p)]
    det = F(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            return None, 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        pv = rows[c][c]
        det *= pv
        rows[c] = [v / pv for v in rows[c]]
        for r in range(n):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [row[n:] for row in rows], det


def conjugate_algebra(algebra, seed, grading=None):
    """The algebra in the basis b'_i = sum_a P[a][i] b_a for a seeded
    integer P with determinant other than 0 and +-1, drawn again until

        c'_{ij}^k = sum_{a,b,t} P[a][i] P[b][j] c_{ab}^t Pinv[k][t]

    has a fractional constant and at least three times the nonzero
    constants of the algebra, so that P mixes the basis. With a grading,
    P only mixes basis elements of equal degree, so the grading holds in
    the new basis too."""
    n = algebra.dim
    nnz = sum(len(vec) for vec in algebra.tensor.values())
    degs = grading.degrees if grading is not None else (0,) * n
    rng = random.Random(seed)
    while True:
        p = [
            [rng.choice((1, 2)) if a == i else
             (rng.choice((-2, -1, 1, 2)) if degs[a] == degs[i] and rng.random() < 0.1 else 0)
             for i in range(n)]
            for a in range(n)
        ]
        q, det = inverse_and_det(p)
        if det in (0, 1, -1):
            continue
        tensor = {}
        for (a, b), vec in algebra.tensor.items():
            for t, c in vec.items():
                for i in range(n):
                    for j in range(n):
                        w = p[a][i] * p[b][j] * c
                        if not w:
                            continue
                        for k in range(n):
                            if q[k][t]:
                                out = tensor.setdefault((i, j), {})
                                out[k] = out.get(k, F(0)) + w * q[k][t]
        values = [c for vec in tensor.values() for c in vec.values() if c]
        if len(values) >= 3 * nnz and any(c.denominator != 1 for c in values):
            break
    labels = tuple(f"b{i}" for i in range(n))
    return AlgebraStructure(n, labels, tensor)


@pytest.fixture
def conjugate():
    """``conjugate_algebra``, for the tests that draw basis changes."""
    return conjugate_algebra
