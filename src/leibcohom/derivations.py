"""Derivations: the full derivation space and canonical decompositions.

A derivation is a linear map D with D([a, b]) = [D(a), b] + [a, D(b)].
The space of all derivations is cut out by one linear equation per basis
triple and solved exactly. For algebras graded in degrees {0, 1} the
module also expresses a given derivation in the canonical spanning
family: right multiplications by degree-0 basis elements, the projection
onto the degree-1 part, and the maps sending the degree-0 part into the
degree-1 part.

Linear maps D are encoded two ways, and helpers convert between them:
as n x n matrices with entry (t, z) the coefficient of basis element t
in D(basis element z), and as flat 1-cochain vectors with coordinate
z * n + t for the same coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraStructure, Grading
from .linalg import (
    SparseRationalMatrix,
    Subspace,
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
    vanishes.
    """
    n = algebra.dim
    entries: dict[tuple[int, int], Fraction] = {}
    for i in range(n):
        for j in range(n):
            row_base = (i * n + j) * n
            for k, c in algebra.product(i, j).items():
                for t in range(n):
                    _add(entries, (row_base + t, k * n + t), c)
            for k in range(n):
                for t, c in algebra.product(k, j).items():
                    _add(entries, (row_base + t, i * n + k), -c)
                for t, c in algebra.product(i, k).items():
                    _add(entries, (row_base + t, j * n + k), -c)
    constraints = SparseRationalMatrix(n * n * n, n * n, entries)
    return kernel_basis(constraints)


def right_mult_operator(
    algebra: AlgebraStructure, element: int | dict[int, Fraction]
) -> SparseRationalMatrix:
    """The operator z -> [z, element] as an n x n matrix."""
    n = algebra.dim
    if isinstance(element, int):
        element = {element: Fraction(1)}
    entries: dict[tuple[int, int], Fraction] = {}
    for z in range(n):
        acc: dict[int, Fraction] = {}
        for s, xs in element.items():
            _axpy(acc, algebra.product(z, s), xs)
        for t, v in acc.items():
            entries[(t, z)] = v
    return SparseRationalMatrix(n, n, entries)


def _classes_01(grading: Grading) -> tuple[tuple[int, ...], tuple[int, ...]]:
    classes = grading.classes()
    if not set(classes) <= {0, 1} or 0 not in classes or 1 not in classes:
        raise ValueError("decomposition needs a grading with degrees exactly {0, 1}")
    return classes[0], classes[1]


def ideal_projection(algebra: AlgebraStructure, grading: Grading) -> SparseRationalMatrix:
    """The projection onto the degree-1 part along the degree-0 part."""
    _, ideal = _classes_01(grading)
    entries = {(z, z): Fraction(1) for z in ideal}
    return SparseRationalMatrix(algebra.dim, algebra.dim, entries)


def matrix_to_cochain(mat: SparseRationalMatrix) -> dict[int, Fraction]:
    """Flatten an n x n operator matrix to 1-cochain coordinates."""
    if mat.rows != mat.cols:
        raise ValueError("operator matrix must be square")
    n = mat.rows
    return {z * n + t: v for (t, z), v in mat.entries.items()}

def cochain_to_matrix(vec: dict[int, Fraction], n: int) -> SparseRationalMatrix:
    """Inverse of :func:`matrix_to_cochain` for ambient dimension n*n."""
    entries: dict[tuple[int, int], Fraction] = {}
    for flat, v in vec.items():
        z, t = divmod(flat, n)
        entries[(t, z)] = v
    return SparseRationalMatrix(n, n, entries)


def delta_generator(
    algebra: AlgebraStructure, grading: Grading
) -> SparseRationalMatrix | None:
    """The derivation mapping degree 0 into degree 1, when it exists.

    Returns the unique (up to scale) derivation supported entirely on
    the degree-0 -> degree-1 coordinates, as a matrix over the local
    bases (rows indexed by the degree-1 part, columns by the degree-0
    part), scaled so that the image of the first degree-0 basis element
    has leading coordinate 1. Returns None when no such derivation
    exists, and raises if there are several independent ones.
    """
    g_idx, i_idx = _classes_01(grading)
    n = algebra.dim
    coords = sorted(p * n + k for p in g_idx for k in i_idx)
    pure = restrict_to_coords(derivation_space(algebra), coords)
    if pure.dim == 0:
        return None
    if pure.dim > 1:
        raise ValueError("several independent degree-raising derivations")
    full = cochain_to_matrix(dict(pure.basis[0]), n)
    g_pos = {g: p for p, g in enumerate(g_idx)}
    i_pos = {k: p for p, k in enumerate(i_idx)}
    local = {
        (i_pos[t], g_pos[z]): v for (t, z), v in full.entries.items()
    }
    cells = sorted(local)
    lead_col = min(c for _, c in cells)
    lead = min(r for r, c in cells if c == lead_col)
    scale = 1 / local[(lead, lead_col)]
    local = {rc: v * scale for rc, v in local.items()}
    return SparseRationalMatrix(len(i_idx), len(g_idx), local)


@dataclass(frozen=True)
class DerivationDecomposition:
    """Coordinates of a derivation in the canonical spanning family.

    The derivation equals
    sum_s a[s] * (right multiplication by the s-th degree-0 basis element)
    + lam * (projection onto the degree-1 part)
    + the map given by ``delta`` from the degree-0 part to the degree-1
    part, plus ``residual``. A residual of zero means the decomposition
    is exact.
    """

    coefficients: tuple[Fraction, ...]
    lam: Fraction
    delta: SparseRationalMatrix
    residual: SparseRationalMatrix

    @property
    def is_exact(self) -> bool:
        return self.residual.is_zero()


def decompose_derivation(
    algebra: AlgebraStructure, grading: Grading, deriv: SparseRationalMatrix
) -> DerivationDecomposition:
    """Express a derivation over the canonical spanning family.

    The family consists of right multiplications by the degree-0 basis,
    the projection onto the degree-1 part, and the elementary maps from
    the degree-0 part into the degree-1 part. These must be linearly
    independent for the coordinates to be well defined; if they are not,
    a ValueError reports the dependency.
    """
    n = algebra.dim
    if deriv.rows != n or deriv.cols != n:
        raise ValueError("derivation matrix has the wrong shape")
    g_idx, i_idx = _classes_01(grading)
    ng, ni = len(g_idx), len(i_idx)
    cols = ng + 1 + ng * ni

    entries: dict[tuple[int, int], Fraction] = {}

    def put(op: SparseRationalMatrix, col: int) -> None:
        for flat, v in matrix_to_cochain(op).items():
            entries[(flat, col)] = v

    for pos, s in enumerate(g_idx):
        put(right_mult_operator(algebra, s), pos)
    put(ideal_projection(algebra, grading), ng)
    for gp, z in enumerate(g_idx):
        for ip, t in enumerate(i_idx):
            entries[(z * n + t, ng + 1 + gp * ni + ip)] = Fraction(1)
    family = SparseRationalMatrix(n * n, cols, entries)

    if rank(family) != cols:
        raise ValueError(
            "canonical spanning family is linearly dependent for this algebra"
        )
    x, residual_vec = solve(family, matrix_to_cochain(deriv))
    coeffs = tuple(x.get(p, Fraction(0)) for p in range(ng))
    lam = x.get(ng, Fraction(0))
    delta_entries = {
        (ip, gp): x[ng + 1 + gp * ni + ip]
        for gp in range(ng)
        for ip in range(ni)
        if ng + 1 + gp * ni + ip in x
    }
    residual = cochain_to_matrix(residual_vec, n)
    return DerivationDecomposition(
        coefficients=coeffs,
        lam=lam,
        delta=SparseRationalMatrix(ni, ng, delta_entries),
        residual=residual,
    )
