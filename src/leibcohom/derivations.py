"""Derivations: the full derivation space and canonical decompositions.

A derivation is a linear map D with D([a, b]) = [D(a), b] + [a, D(b)].
The space of all derivations is cut out by one linear equation per basis
triple and solved exactly. The equations are -d^1 of the adjoint
bimodule, entry for entry, and are written from the nonzero structure
constants, so building them costs what the matrix holds rather than a
pass over every basis triple. For algebras graded in degrees {0, 1} the
module also expresses derivations in the canonical spanning family:
right multiplications by degree-0 basis elements, the projection onto
the degree-1 part, and the maps sending the degree-0 part into the
degree-1 part. The family is built and ranked once per call, and one
:func:`~leibcohom.linalg.solve` eliminates it with every derivation given
as a right-hand side.

Linear maps D are encoded two ways, and helpers convert between them:
as n x n matrices whose column z is D(basis element z), so entry (t, z)
is the coefficient of basis element t in it, and as flat 1-cochain
vectors with coordinate z * n + t for the same coefficient. Every matrix
here is written column by column, the constraints and the spanning
family included.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .algebra import AlgebraStructure, Grading, _integral_as_int
from .linalg import (
    SparseRationalMatrix,
    Subspace,
    _Value,
    _add,
    _axpy,
    kernel_basis,
    rank,
    restrict_to_coords,
    solve,
)


def derivation_space(algebra: AlgebraStructure) -> Subspace:
    """All derivations, as flat 1-cochain vectors (coordinate z*n + t).

    Row (i, j, t) of the constraint matrix states that the coefficient
    of basis element t in D([b_i, b_j]) - [D(b_i), b_j] - [b_i, D(b_j)]
    vanishes. The entries are written into their columns from the nonzero
    structure constants c_ab^t, each of which enters n entries of every
    term: +c at row (a, b, s), column (t; s) from D([b_a, b_b]); -c at
    row (i, b, t), column (i; a) from [D(b_i), b_b]; and -c at row
    (a, j, t), column (j; b) from [b_a, D(b_j)], for every s, i and j. An
    integral c is written as an ``int``, so the family's constraints hold
    only ints.
    """
    n = algebra.dim
    columns: dict[int, dict[int, Fraction]] = {col: {} for col in range(n * n)}
    for (a, b), vec in algebra.tensor.items():
        row_base = (a * n + b) * n
        for t, c in _integral_as_int(vec).items():
            for s in range(n):
                _add(columns[t * n + s], row_base + s, c)
            for i in range(n):
                _add(columns[i * n + a], (i * n + b) * n + t, -c)
            for j in range(n):
                _add(columns[j * n + b], (a * n + j) * n + t, -c)
    return kernel_basis(SparseRationalMatrix(n * n * n, n * n, columns))


def right_mult_operator(
    algebra: AlgebraStructure, element: int | dict[int, Fraction]
) -> SparseRationalMatrix:
    """The operator z -> [z, element] as an n x n matrix: column z is
    [b_z, element]."""
    n = algebra.dim
    if isinstance(element, int):
        element = {element: Fraction(1)}
    columns: dict[int, dict[int, Fraction]] = {}
    for z in range(n):
        col = columns[z] = {}
        for s, xs in element.items():
            _axpy(col, algebra.product(z, s), xs)
    return SparseRationalMatrix(n, n, columns)


def _classes_01(grading: Grading) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """:meth:`~leibcohom.algebra.Grading.parts`, with both parts nonempty."""
    g_idx, i_idx = grading.parts()
    if not (g_idx and i_idx):
        raise ValueError("decomposition needs a grading with degrees exactly {0, 1}")
    return g_idx, i_idx


def ideal_projection(algebra: AlgebraStructure, grading: Grading) -> SparseRationalMatrix:
    """The projection onto the degree-1 part along the degree-0 part."""
    _, ideal = _classes_01(grading)
    return SparseRationalMatrix(algebra.dim, algebra.dim, {z: {z: Fraction(1)} for z in ideal})


def matrix_to_cochain(mat: SparseRationalMatrix) -> dict[int, Fraction]:
    """Flatten an n x n operator matrix to 1-cochain coordinates."""
    if mat.rows != mat.cols:
        raise ValueError("operator matrix must be square")
    n = mat.rows
    return {z * n + t: v for z, col in mat.columns.items() for t, v in col.items()}


def cochain_to_matrix(vec: dict[int, Fraction], n: int) -> SparseRationalMatrix:
    """Inverse of :func:`matrix_to_cochain` for ambient dimension n*n."""
    columns: dict[int, dict[int, Fraction]] = {}
    for flat, v in vec.items():
        z, t = divmod(flat, n)
        columns.setdefault(z, {})[t] = v
    return SparseRationalMatrix(n, n, columns)


def delta_generator(
    algebra: AlgebraStructure, grading: Grading, space: Subspace
) -> SparseRationalMatrix | None:
    """The derivation mapping degree 0 into degree 1, when it exists.

    ``space`` is :func:`derivation_space` of the algebra. Returns the
    unique (up to scale) derivation in it supported entirely on the
    degree-0 -> degree-1 coordinates, as a matrix over the local
    bases (rows indexed by the degree-1 part, columns by the degree-0
    part). It comes out normalized: the image of the first degree-0
    basis element it does not kill has leading coordinate 1, since the
    canonical basis vector of :func:`~leibcohom.linalg.restrict_to_coords`
    is 1 at its least flat coordinate z * n + t, and both parts keep
    the basis order. Returns None when no such derivation exists, and
    raises if there are several independent ones.
    """
    g_idx, i_idx = _classes_01(grading)
    n = algebra.dim
    coords = sorted(p * n + k for p in g_idx for k in i_idx)
    pure = restrict_to_coords(space, coords)
    if pure.dim == 0:
        return None
    if pure.dim > 1:
        raise ValueError("several independent degree-raising derivations")
    g_pos = {g: p for p, g in enumerate(g_idx)}
    i_pos = {k: p for p, k in enumerate(i_idx)}
    local: dict[int, dict[int, Fraction]] = {}
    for flat, v in pure.basis[0].items():
        z, t = divmod(flat, n)
        local.setdefault(g_pos[z], {})[i_pos[t]] = v
    return SparseRationalMatrix(len(i_idx), len(g_idx), local)


class DerivationDecomposition(_Value):
    """Coordinates of a derivation in the canonical spanning family.

    The derivation equals
    sum_s a[s] * (right multiplication by the s-th degree-0 basis element)
    + lam * (projection onto the degree-1 part)
    + the map given by ``delta`` from the degree-0 part to the degree-1
    part, plus ``residual``. A residual of zero means the decomposition
    is exact.
    """

    _fields = ("coefficients", "lam", "delta", "residual")

    def __init__(self, coefficients: tuple[Fraction, ...], lam: Fraction,
                 delta: SparseRationalMatrix, residual: SparseRationalMatrix) -> None:
        self.__dict__.update(coefficients=coefficients, lam=lam, delta=delta, residual=residual)

    @property
    def is_exact(self) -> bool:
        return self.residual.is_zero()


def decompose_derivation(
    algebra: AlgebraStructure, grading: Grading, derivs: Sequence[SparseRationalMatrix]
) -> list[DerivationDecomposition]:
    """Express each derivation over the canonical spanning family.

    The family consists of right multiplications by the degree-0 basis,
    the projection onto the degree-1 part, and the elementary maps from
    the degree-0 part into the degree-1 part. It is built and ranked once
    for all the derivations given, typically a basis of
    :func:`derivation_space`, and one elimination solves for all of them;
    each decomposition is the one a single-derivation call gives. Its
    members must be linearly independent
    for the coordinates to be well defined; if they are not, a ValueError
    reports the dependency.
    """
    n = algebra.dim
    if any(deriv.rows != n or deriv.cols != n for deriv in derivs):
        raise ValueError("derivation matrix has the wrong shape")
    g_idx, i_idx = _classes_01(grading)
    ng, ni = len(g_idx), len(i_idx)
    cols = ng + 1 + ng * ni

    columns = {pos: matrix_to_cochain(right_mult_operator(algebra, s))
               for pos, s in enumerate(g_idx)}
    columns[ng] = matrix_to_cochain(ideal_projection(algebra, grading))
    for gp, z in enumerate(g_idx):
        for ip, t in enumerate(i_idx):
            columns[ng + 1 + gp * ni + ip] = {z * n + t: Fraction(1)}
    family = SparseRationalMatrix(n * n, cols, columns)

    if rank(family) != cols:
        raise ValueError(
            "canonical spanning family is linearly dependent for this algebra"
        )
    out = []
    for x, residual_vec in solve(family, [matrix_to_cochain(deriv) for deriv in derivs]):
        coeffs = tuple(x.get(p, Fraction(0)) for p in range(ng))
        lam = x.get(ng, Fraction(0))
        delta: dict[int, dict[int, Fraction]] = {}
        for p, v in x.items():
            if p > ng:
                gp, ip = divmod(p - ng - 1, ni)
                delta.setdefault(gp, {})[ip] = v
        out.append(DerivationDecomposition(
            coefficients=coeffs,
            lam=lam,
            delta=SparseRationalMatrix(ni, ng, delta),
            residual=cochain_to_matrix(residual_vec, n),
        ))
    return out
