"""Structure-constant algebras, gradings, bimodules and their checkers.

An algebra is a bilinear bracket on a based vector space, stored as the
tensor ``(i, j) -> [b_i, b_j]`` with sparse rational coefficient vectors.
The checkers in this module are exhaustive over basis tuples and report
every violation they find, so a clean run is a finite certificate for the
bilinear identity in question.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Mapping

from .linalg import Subspace, _Value, _as_rational, _axpy, _sparse

_EMPTY: dict[int, Fraction] = {}


class AlgebraStructure(_Value):
    """A finite-dimensional algebra given by its multiplication tensor.

    ``tensor[(i, j)]`` holds the coefficients of ``[b_i, b_j]`` on the
    basis; absent pairs multiply to zero. No bracket identity is assumed
    at construction time; run :func:`leibniz_defects` to certify one.
    """

    _fields = ("dim", "basis_labels", "tensor")

    def __init__(self, dim: int, basis_labels: tuple[str, ...],
                 tensor: dict[tuple[int, int], dict[int, Fraction]]) -> None:
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        if len(basis_labels) != dim:
            raise ValueError("label count does not match the dimension")
        clean: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), vec in tensor.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"product ({i}, {j}) out of range")
            cv = _sparse(vec, dim, f"product ({i}, {j})")
            if cv:
                clean[(i, j)] = cv
        self.__dict__.update(dim=dim, basis_labels=tuple(basis_labels), tensor=clean)

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


class Grading(_Value):
    """Integer degrees per basis index; validity is a property of a pair
    (algebra, grading) and is checked by :func:`check_grading`."""

    _fields = ("degrees",)

    def __init__(self, degrees: tuple[int, ...]) -> None:
        for d in degrees:
            if not isinstance(d, int):
                raise TypeError(f"not an integer degree: {d!r}")
        self.__dict__.update(degrees=tuple(int(d) for d in degrees))

    def classes(self) -> dict[int, tuple[int, ...]]:
        """Basis indices grouped by degree, each group in index order."""
        out: dict[int, list[int]] = {}
        for i, d in enumerate(self.degrees):
            out.setdefault(d, []).append(i)
        return {d: tuple(ix) for d, ix in sorted(out.items())}

    def parts(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(G, I): the basis indices of degree 0 and of degree 1, either
        possibly empty. Raises ValueError for any other degree."""
        classes = self.classes()
        if not set(classes) <= {0, 1}:
            raise ValueError("the G/I split needs a grading with degrees in {0, 1}")
        return classes.get(0, ()), classes.get(1, ())


class IdentityViolation(_Value):
    """One failed instance of a bilinear identity on basis elements.

    ``triple`` names the basis indices that were substituted and
    ``defect`` is the nonzero left-minus-right coefficient vector. For
    bimodule checks, ``axiom`` says which of the three axioms failed and
    the last triple entry indexes the module basis.
    """

    _fields = ("triple", "defect", "axiom")

    def __init__(self, triple: tuple[int, int, int], defect: dict[int, Fraction],
                 axiom: int | None = None) -> None:
        if not defect:
            raise ValueError("a violation must carry a nonzero defect")
        self.__dict__.update(triple=triple, defect=defect, axiom=axiom)


class Bimodule(_Value):
    """Two-sided action matrices over a based algebra.

    ``left_action[x]`` is the matrix of ``m -> [b_x, m]`` and
    ``right_action[x]`` the matrix of ``m -> [m, b_x]``, both stored as
    sparse ``(out, in)`` mappings of size module_dim x module_dim.
    """

    _fields = ("algebra_dim", "module_dim", "left_action", "right_action")

    def __init__(self, algebra_dim: int, module_dim: int,
                 left_action: tuple[dict[tuple[int, int], Fraction], ...],
                 right_action: tuple[dict[tuple[int, int], Fraction], ...]) -> None:
        if algebra_dim < 0 or module_dim < 0:
            raise ValueError("dimensions must be nonnegative")
        fields = {"algebra_dim": algebra_dim, "module_dim": module_dim}
        for name, actions in (("left", left_action), ("right", right_action)):
            if len(actions) != algebra_dim:
                raise ValueError(f"{name} action count does not match the algebra")
            clean = []
            for x, mat in enumerate(actions):
                cm: dict[tuple[int, int], Fraction] = {}
                for (out, inp), v in mat.items():
                    if not (0 <= out < module_dim and 0 <= inp < module_dim):
                        raise ValueError(f"{name} action of index {x}: entry out of range")
                    fv = _as_rational(v)
                    if fv:
                        cm[(out, inp)] = fv
                clean.append(cm)
            fields[f"{name}_action"] = tuple(clean)
        self.__dict__.update(fields)


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


def _integral(vec: Mapping, scale: int) -> dict:
    """``scale`` times a vector whose denominators divide ``scale``, as
    integers."""
    return {k: v.numerator * (scale // v.denominator) for k, v in vec.items()}


def _semidirect_tensor(algebra: AlgebraStructure, module: Bimodule) -> dict:
    """The tensor of L ⋉ M: the products of L, ``[b_x, m] = L_x m`` and
    ``[m, b_x] = R_x m``, and M·M = 0, with the module basis numbered
    after the algebra's."""
    n = algebra.dim
    tensor = dict(algebra.tensor)
    for x in range(n):
        for (out, inp), v in module.left_action[x].items():
            tensor.setdefault((x, n + inp), {})[n + out] = v
        for (out, inp), v in module.right_action[x].items():
            tensor.setdefault((n + inp, x), {})[n + out] = v
    return tensor


def _defects(algebra: AlgebraStructure, groups) -> list[IdentityViolation]:
    """The triples (i, j, k), for each k in ks of every group (i, j, ks),
    where [x,[y,z]] - [[x,y],z] + [[x,z],y] != 0.

    The tensor is scaled once to integers by the lcm s of its
    denominators; every term is a product of two structure constants, so
    the integer defect is s^2 times the rational one, which is reported.
    """
    n = algebra.dim
    scale = lcm(*(v.denominator for vec in algebra.tensor.values() for v in vec.values()))
    square = scale * scale
    # the products [b_i, b_t] by i and [b_t, b_k] by k, each keyed by t
    lefts: list[dict[int, dict[int, int]]] = [{} for _ in range(n)]
    rights: list[dict[int, dict[int, int]]] = [{} for _ in range(n)]
    for (i, t), vec in algebra.tensor.items():
        lefts[i][t] = rights[t][i] = _integral(vec, scale)
    violations = []
    for i, j, ks in groups:
        p_ij = lefts[i].get(j)
        for k in ks:
            p_jk = lefts[j].get(k)
            p_ik = lefts[i].get(k)
            if not (p_jk or p_ij or p_ik):
                continue
            defect: dict[int, int] = {}
            for vec, products, sign in (
                (p_jk, lefts[i], 1), (p_ij, rights[k], -1), (p_ik, rights[j], 1)
            ):
                if vec:
                    for t, c in vec.items():
                        prod = products.get(t)
                        if prod:
                            _axpy(defect, prod, sign * c)
            if defect:
                violations.append(IdentityViolation(
                    (i, j, k), {t: Fraction(v, square) for t, v in defect.items()}
                ))
    return violations


def leibniz_defects(algebra: AlgebraStructure) -> list[IdentityViolation]:
    """All basis triples where [x,[y,z]] - [[x,y],z] + [[x,z],y] != 0.

    An empty list certifies the (right) Leibniz identity, since the
    identity is trilinear and the basis triples span everything. The
    defects are exact rationals; see :func:`_defects`.
    """
    xs = range(algebra.dim)
    return _defects(algebra, itertools.product(xs, xs, [xs]))


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


def check_bimodule_axioms(algebra: AlgebraStructure, module: Bimodule) -> list[IdentityViolation]:
    """Exhaustively check the three two-sided module axioms.

    With L and R the left/right action maps and c the structure
    constants, the axioms for a pair (i, j) of algebra indices read

        1.  sum_t c_ij^t R_t = R_j R_i - R_i R_j
        2.  L_i R_j = R_j L_i - sum_t c_ij^t L_t
        3.  L_i L_j = sum_t c_ij^t L_t - R_j L_i

    Each violation is reported per module basis column with the defect
    vector of the failing composite. They are checked by :func:`_defects`
    on L ⋉ M, whose Leibniz identity at (m, i, j), (i, m, j) and (i, j, m)
    is axiom 1 negated, 2 and 3 (Loday and Pirashvili, Math. Ann. 296, 1993).
    """
    if module.algebra_dim != algebra.dim:
        raise ValueError("module is over an algebra of different dimension")
    n = algebra.dim
    total = n + module.module_dim
    semidirect = AlgebraStructure(total, ("",) * total, _semidirect_tensor(algebra, module))
    xs, ms = range(n), range(n, total)
    groups = [(mu, i, xs) for mu in ms for i in xs]
    groups += [(i, mu, xs) for i in xs for mu in ms]
    groups += [(i, j, ms) for i in xs for j in xs]
    violations = []
    for v in _defects(semidirect, groups):
        pos = next(p for p, x in enumerate(v.triple) if x >= n)
        i, j = (x for x in v.triple if x < n)
        sign = -1 if pos == 0 else 1
        defect = {t - n: sign * c for t, c in v.defect.items()}
        violations.append(IdentityViolation((i, j, v.triple[pos] - n), defect, axiom=pos + 1))
    violations.sort(key=lambda v: (*v.triple[:2], v.axiom, v.triple[2]))
    return violations
