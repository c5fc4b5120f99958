"""Structure-constant algebras, gradings, bimodules and their checkers.

An algebra is a bilinear bracket on a based vector space, stored as the
tensor ``(i, j) -> [b_i, b_j]`` with sparse rational coefficient vectors.
The checkers in this module are exhaustive over basis tuples and report
every violation they find, so a clean run is a finite certificate for the
bilinear identity in question.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .linalg import Subspace, _add, _as_rational, _axpy, _sparse

_EMPTY: dict[int, Fraction] = {}

ActionMatrix = Mapping[tuple[int, int], Fraction]


@dataclass(frozen=True)
class AlgebraStructure:
    """A finite-dimensional algebra given by its multiplication tensor.

    ``tensor[(i, j)]`` holds the coefficients of ``[b_i, b_j]`` on the
    basis; absent pairs multiply to zero. No bracket identity is assumed
    at construction time; run :func:`leibniz_defects` to certify one.
    """

    dim: int
    basis_labels: tuple[str, ...]
    tensor: dict[tuple[int, int], dict[int, Fraction]]

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise ValueError("dimension must be nonnegative")
        if len(self.basis_labels) != self.dim:
            raise ValueError("label count does not match the dimension")
        clean: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), vec in self.tensor.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise ValueError(f"product ({i}, {j}) out of range")
            cv = _sparse(vec, self.dim, f"product ({i}, {j})")
            if cv:
                clean[(i, j)] = cv
        object.__setattr__(self, "tensor", clean)
        object.__setattr__(self, "basis_labels", tuple(self.basis_labels))

    def product(self, i: int, j: int) -> Mapping[int, Fraction]:
        """Coefficient vector of ``[b_i, b_j]``."""
        return self.tensor.get((i, j), _EMPTY)

    def bracket_basis_vector(self, i: int, vec: Mapping[int, Fraction]) -> dict[int, Fraction]:
        """``[b_i, v]`` for a sparse coefficient vector v."""
        out: dict[int, Fraction] = {}
        for t, c in vec.items():
            prod = self.tensor.get((i, t))
            if prod:
                _axpy(out, prod, c)
        return out

    def bracket_vector_basis(self, vec: Mapping[int, Fraction], j: int) -> dict[int, Fraction]:
        """``[v, b_j]`` for a sparse coefficient vector v."""
        out: dict[int, Fraction] = {}
        for t, c in vec.items():
            prod = self.tensor.get((t, j))
            if prod:
                _axpy(out, prod, c)
        return out


@dataclass(frozen=True)
class Grading(object):
    """Integer degrees per basis index; validity is a property of a pair
    (algebra, grading) and is checked by :func:`check_grading`."""

    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))

    def classes(self) -> dict[int, tuple[int, ...]]:
        """Basis indices grouped by degree, each group in index order."""
        out: dict[int, list[int]] = {}
        for i, d in enumerate(self.degrees):
            out.setdefault(d, []).append(i)
        return {d: tuple(ix) for d, ix in sorted(out.items())}


@dataclass(frozen=True)
class IdentityViolation:
    """One failed instance of a bilinear identity on basis elements.

    ``triple`` names the basis indices that were substituted and
    ``defect`` is the nonzero left-minus-right coefficient vector. For
    bimodule checks, ``axiom`` says which of the three axioms failed and
    the last triple entry indexes the module basis.
    """

    triple: tuple[int, int, int]
    defect: dict[int, Fraction]
    axiom: int | None = None

    def __post_init__(self) -> None:
        if not self.defect:
            raise ValueError("a violation must carry a nonzero defect")


@dataclass(frozen=True)
class Bimodule:
    """Two-sided action matrices over a based algebra.

    ``left_action[x]`` is the matrix of ``m -> [b_x, m]`` and
    ``right_action[x]`` the matrix of ``m -> [m, b_x]``, both stored as
    sparse ``(out, in)`` mappings of size module_dim x module_dim.
    """

    algebra_dim: int
    module_dim: int
    left_action: tuple[dict[tuple[int, int], Fraction], ...]
    right_action: tuple[dict[tuple[int, int], Fraction], ...]

    def __post_init__(self) -> None:
        if self.algebra_dim < 0 or self.module_dim < 0:
            raise ValueError("dimensions must be nonnegative")
        for name, actions in (("left", self.left_action), ("right", self.right_action)):
            if len(actions) != self.algebra_dim:
                raise ValueError(f"{name} action count does not match the algebra")
            clean = []
            for x, mat in enumerate(actions):
                cm: dict[tuple[int, int], Fraction] = {}
                for (out, inp), v in mat.items():
                    if not (0 <= out < self.module_dim and 0 <= inp < self.module_dim):
                        raise ValueError(f"{name} action of index {x}: entry out of range")
                    fv = _as_rational(v)
                    if fv:
                        cm[(out, inp)] = fv
                clean.append(cm)
            object.__setattr__(self, f"{name}_action", tuple(clean))


def adjoint_bimodule(algebra: AlgebraStructure) -> Bimodule:
    """The algebra acting on itself by left and right multiplication."""
    n = algebra.dim
    left = [dict() for _ in range(n)]
    right = [dict() for _ in range(n)]
    for (i, j), vec in algebra.tensor.items():
        for t, c in vec.items():
            left[i][(t, j)] = c
            right[j][(t, i)] = c
    return Bimodule(n, n, tuple(left), tuple(right))


def symmetric_bimodule(module: Bimodule) -> Bimodule:
    """Replace the left action by the negative of the right action.

    For a right module over a Lie algebra this is the canonical way to
    extend it to a two-sided module: the bimodule axioms then all reduce
    to the right-module condition, and the cohomology of a Lie algebra
    with such coefficients vanishes whenever its Chevalley-Eilenberg
    cohomology does.
    """
    left = tuple(
        {key: -v for key, v in act.items()} for act in module.right_action
    )
    return Bimodule(module.algebra_dim, module.module_dim, left, module.right_action)


def leibniz_defects(algebra: AlgebraStructure) -> list[IdentityViolation]:
    """All basis triples where [x,[y,z]] - [[x,y],z] + [[x,z],y] != 0.

    An empty list certifies the (right) Leibniz identity, since the
    identity is trilinear and the basis triples span everything.
    """
    n = algebra.dim
    violations = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                p_jk = algebra.product(j, k)
                p_ij = algebra.product(i, j)
                p_ik = algebra.product(i, k)
                if not (p_jk or p_ij or p_ik):
                    continue
                defect = algebra.bracket_basis_vector(i, p_jk)
                _axpy(defect, algebra.bracket_vector_basis(p_ij, k), Fraction(-1))
                _axpy(defect, algebra.bracket_vector_basis(p_ik, j), Fraction(1))
                if defect:
                    violations.append(IdentityViolation((i, j, k), defect))
    return violations


def squares_ideal(algebra: AlgebraStructure) -> Subspace:
    """Span of all squares, i.e. of [b_i, b_j] + [b_j, b_i] over i <= j.

    When the Leibniz identity holds this span is a two-sided ideal; a
    debug assertion verifies closure under multiplication from both
    sides.
    """
    n = algebra.dim
    vectors = []
    for i in range(n):
        for j in range(i, n):
            v = dict(algebra.product(i, j))
            _axpy(v, algebra.product(j, i), Fraction(1))
            if v:
                vectors.append(v)
    span = Subspace.from_spanning(vectors, n)
    if __debug__:
        for vec in span.basis:
            for i in range(n):
                assert span.contains(algebra.bracket_basis_vector(i, vec)), (
                    "squares span not closed under left multiplication"
                )
                assert span.contains(algebra.bracket_vector_basis(vec, i)), (
                    "squares span not closed under right multiplication"
                )
    return span


def check_grading(algebra: AlgebraStructure, grading: Grading) -> bool:
    """True iff every product lands in the degree-sum component."""
    if len(grading.degrees) != algebra.dim:
        raise ValueError("grading length does not match the algebra")
    degs = grading.degrees
    for (i, j), vec in algebra.tensor.items():
        want = degs[i] + degs[j]
        for t in vec:
            if degs[t] != want:
                return False
    return True


def _compose(x: ActionMatrix, y: ActionMatrix) -> dict[tuple[int, int], Fraction]:
    """Matrix of the composition (apply y, then x)."""
    x_by_col: dict[int, list[tuple[int, Fraction]]] = {}
    for (r, c), v in x.items():
        x_by_col.setdefault(c, []).append((r, v))
    out: dict[tuple[int, int], Fraction] = {}
    for (t, c), yv in y.items():
        hits = x_by_col.get(t)
        if not hits:
            continue
        for r, xv in hits:
            _add(out, (r, c), xv * yv)
    return out


def check_bimodule_axioms(algebra: AlgebraStructure, module: Bimodule) -> list[IdentityViolation]:
    """Exhaustively check the three two-sided module axioms.

    With L and R the left/right action maps and c the structure
    constants, the axioms for a pair (i, j) of algebra indices read

        1.  sum_t c_ij^t R_t = R_j R_i - R_i R_j
        2.  L_i R_j = R_j L_i - sum_t c_ij^t L_t
        3.  L_i L_j = sum_t c_ij^t L_t - R_j L_i

    Each violation is reported per module basis column with the defect
    vector of the failing composite.
    """
    if module.algebra_dim != algebra.dim:
        raise ValueError("module is over an algebra of different dimension")
    n = algebra.dim
    m = module.module_dim
    violations = []
    for i in range(n):
        l_i = module.left_action[i]
        r_i = module.right_action[i]
        for j in range(n):
            l_j = module.left_action[j]
            r_j = module.right_action[j]
            c_ij = algebra.product(i, j)
            rj_li = _compose(r_j, l_i)

            d1 = _compose(r_j, r_i)
            _axpy(d1, _compose(r_i, r_j), Fraction(-1))
            for t, c in c_ij.items():
                _axpy(d1, module.right_action[t], -c)

            d2 = _compose(l_i, r_j)
            _axpy(d2, rj_li, Fraction(-1))
            for t, c in c_ij.items():
                _axpy(d2, module.left_action[t], c)

            d3 = _compose(l_i, l_j)
            _axpy(d3, rj_li, Fraction(1))
            for t, c in c_ij.items():
                _axpy(d3, module.left_action[t], -c)

            for axiom, defect in ((1, d1), (2, d2), (3, d3)):
                if not defect:
                    continue
                by_col: dict[int, dict[int, Fraction]] = {}
                for (out, inp), v in defect.items():
                    by_col.setdefault(inp, {})[out] = v
                for mu in sorted(by_col):
                    violations.append(
                        IdentityViolation((i, j, mu), by_col[mu], axiom=axiom)
                    )
    return violations
