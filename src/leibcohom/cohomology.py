"""Cocycle, coboundary and cohomology dimensions, graded and by block.

The totals ZL^n = ker d^n, BL^n = im d^{n-1} and HL^n = ZL^n / BL^n are
computed from the coboundary matrices by exact elimination. For a graded
algebra acting on itself, :class:`AdjointCohomology` splits everything by
cochain degree and by argument-signature block and never assembles a
full coboundary: it builds the degree blocks of each d^n as integer
columns (:func:`~leibcohom.cochain.coboundary_blocks`, which also rejects
an entry that leaves its degree), eliminates the columns of each block
once, and reads the totals off the block ranks. Blocks, cocycle bases
and G/I coordinates all use the flat cochain index, so a row of d^n is
also a column of d^{n+1}: d^{n+1} d^n = 0 is checked by applying each
degree block of d^{n+1} to the columns of the block of d^n. A cocycle
basis of degree i is the span of the d^1 columns when d^2 d^1 = 0 and
rank d^1_i + rank d^2_i = cols(d^2_i), since im d^1_i then fills
ker d^2_i; only a degree where that chain does not close (HL^2 nonzero
there, or a broken complex) is reduced to a kernel of d^2.

Blocks are named by G/I tags, where G is the degree-0 part of the algebra
and I the degree-1 part; a tag pair such as ("I", "G") selects the
cochains with first argument in I, second in G, and target in whichever
part the cochain degree forces. A block analysis reports dimensions
only, so it counts pivots instead of building the projected and the
supported subspaces.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .algebra import (
    AlgebraStructure,
    Bimodule,
    Grading,
    adjoint_bimodule,
    check_bimodule_axioms,
    check_grading,
)
from .cochain import (
    IntegerBlock,
    coboundary_blocks,
    cochain_degrees,
    coboundary_matrix,
)
from .linalg import (
    SparseRationalMatrix,
    Subspace,
    _add,
    _axpy,
    _echelon,
    _integer_row,
    _reversed_echelon,
    _reversed_kernel,
    column_space,
    embed,
    project,
    rank,
    subspace_equal,
)

_TAG_DEGREE = {"G": 0, "I": 1}
_NO_BLOCK = IntegerBlock((), {})

BlockSpec = Sequence[str] | Iterable[Sequence[str]]


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


@dataclass(frozen=True)
class CohomologyReport:
    """Total and per-degree dimensions of ZL^n, BL^n and HL^n."""

    arity: int
    dim_z: int
    dim_b: int
    dim_h: int
    per_degree: dict[int, tuple[int, int, int]]

    def __post_init__(self) -> None:
        if self.dim_h != self.dim_z - self.dim_b or self.dim_h < 0:
            raise ValueError("inconsistent cohomology dimensions")
        for degree, (z, b, h) in self.per_degree.items():
            if h != z - b or h < 0:
                raise ValueError(f"inconsistent dimensions in degree {degree}")

    def to_dict(self) -> dict:
        return {
            "n": self.arity,
            "dim_z": self.dim_z,
            "dim_b": self.dim_b,
            "dim_h": self.dim_h,
            "per_degree": {
                str(i): {"dim_z": z, "dim_b": b, "dim_h": h}
                for i, (z, b, h) in sorted(self.per_degree.items())
            },
        }


@dataclass(frozen=True)
class BlockAnalysis:
    """How the degree-``degree`` cocycles meet one signature block.

    ``projection_dim`` is the dimension of the image of the cocycle space
    under restriction of coordinates to the block; ``supported_dim``
    counts the cocycles living entirely inside the block; the projection
    is injective when no nonzero cocycle vanishes on the block.
    """

    degree: int
    blocks: tuple[tuple[str, str], ...]
    projection_dim: int
    supported_dim: int
    projection_injective: bool

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "blocks": ["*".join(pair) for pair in self.blocks],
            "projection_dim": self.projection_dim,
            "supported_dim": self.supported_dim,
            "projection_injective": self.projection_injective,
        }


class AdjointCohomology:
    """Graded cocycle analysis of CL^*(L, L) for one graded algebra.

    Construction validates the grading. The degree blocks of each d^n are
    built once, as integer columns straight from the tensor; each block's
    rank is the pivot count of an echelon of its columns, computed once.
    A cocycle basis (:meth:`zl_graded_basis`) is read off the columns of
    d^1 where the rank chain closes, and off a kernel of d^2 elsewhere.
    """

    def __init__(self, algebra: AlgebraStructure, grading: Grading):
        if not check_grading(algebra, grading):
            raise ValueError("the grading does not respect the multiplication")
        self.algebra = algebra
        self.grading = grading
        self.module = adjoint_bimodule(algebra)
        self._blocks: dict[int, dict[int, IntegerBlock]] = {}
        self._ranks: dict[tuple[int, int], int] = {}
        self._squares: dict[int, bool] = {}
        self._kernel: dict[int, Subspace] = {}
        self._kernel_rows: dict[int, list[dict[int, int]]] = {}

    # degree blocks and totals

    def _block(self, n: int, degree: int) -> IntegerBlock:
        """The degree block of d^n; empty for a degree no cochain has."""
        if n not in self._blocks:
            self._blocks[n] = coboundary_blocks(self.algebra, self.grading, n)[1]
        return self._blocks[n].get(degree, _NO_BLOCK)

    def _rank(self, n: int, degree: int) -> int:
        """Rank of the degree block of d^n: the pivots of an echelon of
        copies of its columns, which the elimination consumes."""
        key = (n, degree)
        if key not in self._ranks:
            columns = self._block(n, degree).by_column.values()
            self._ranks[key] = len(_echelon([dict(col) for col in columns]))
        return self._ranks[key]

    def squares_to_zero(self, n: int) -> bool:
        """Whether d^{n+1} after d^n is zero, as d^{n+1} applied to each
        column of d^n, one degree block at a time: the builder rejects an
        entry that leaves its degree, so the composite is the sum of the
        products of equal-degree blocks."""
        if n not in self._squares:
            self._squares[n] = all(
                self._kills_columns(n, degree) for degree in self.degrees(n)
            )
        return self._squares[n]

    def _kills_columns(self, n: int, degree: int) -> bool:
        upper = self._block(n + 1, degree).by_column
        for col in self._block(n, degree).by_column.values():
            acc: dict[int, int] = {}
            for r, v in col.items():
                if r in upper:
                    _axpy(acc, upper[r], v)
            if acc:
                return False
        return True

    def _cob_rank(self, n: int) -> int:
        """rank d^n, summed over its degree blocks: the builder rejects an
        entry that leaves its degree, so once the blocks' columns add up
        to those of d^n, d^n is block diagonal up to a permutation."""
        degrees = self.degrees(n)
        if sum(len(self.graded_cols(n, i)) for i in degrees) != self.algebra.dim ** (n + 1):
            raise AssertionError(f"the degree blocks do not cover the columns of d^{n}")
        return sum(self._rank(n, i) for i in degrees)

    def zl_dim(self, n: int) -> int:
        return self.algebra.dim ** (n + 1) - self._cob_rank(n)

    def bl_dim(self, n: int) -> int:
        if n not in (1, 2):
            raise ValueError("coboundary dimensions are supported for n in {1, 2}")
        return self._cob_rank(n - 1)

    def hl_dim(self, n: int) -> int:
        return self.zl_dim(n) - self.bl_dim(n)

    # graded pieces

    def degrees(self, n: int) -> tuple[int, ...]:
        return cochain_degrees(self.algebra, self.grading, n)

    def graded_cols(self, n: int, degree: int) -> tuple[int, ...]:
        return self._block(n, degree).columns

    def graded_zl_dim(self, n: int, degree: int) -> int:
        return len(self.graded_cols(n, degree)) - self._rank(n, degree)

    def graded_bl_dim(self, n: int, degree: int) -> int:
        return self._rank(n - 1, degree)

    def zl_graded_basis(self, degree: int) -> Subspace:
        """Kernel of the degree block of d^2, in flat coordinates of
        Hom(L^2, L).

        d^2 d^1 = 0 puts im d^1 inside ker d^2; when also rank d^1 +
        rank d^2 = cols(d^2) in this degree, the two are equal and the
        canonical basis is that of the span of the d^1 columns. Otherwise
        the kernel is read off a reversed echelon of the d^2 rows, with
        the block's columns numbered by position and mapped back by
        :func:`~leibcohom.linalg.embed`.
        """
        if degree not in self._kernel:
            ambient = self.algebra.dim**3
            cols = self.graded_cols(2, degree)
            if self.squares_to_zero(1) and (
                self._rank(1, degree) + self._rank(2, degree) == len(cols)
            ):
                space = Subspace.from_spanning(self._block(1, degree).by_column.values(), ambient)
            else:
                pos = {c: p for p, c in enumerate(cols)}
                rows: dict[int, dict[int, int]] = {}
                for c, col in self._block(2, degree).by_column.items():
                    for r, v in col.items():
                        rows.setdefault(r, {})[pos[c]] = v
                kernel = _reversed_kernel(_reversed_echelon(rows.values(), len(cols)), len(cols))
                space = embed(kernel, cols, ambient)
            self._kernel[degree] = space
        return self._kernel[degree]

    def report(self, n: int) -> CohomologyReport:
        """Totals plus the per-degree split, cross-checked against each
        other: the graded dimensions must sum to the totals."""
        if n not in (1, 2):
            raise ValueError("reports are supported for n in {1, 2}")
        per: dict[int, tuple[int, int, int]] = {}
        for i in self.degrees(n):
            z = self.graded_zl_dim(n, i)
            b = self.graded_bl_dim(n, i)
            per[i] = (z, b, z - b)
        total_z = self.zl_dim(n)
        total_b = self.bl_dim(n)
        if sum(z for z, _, _ in per.values()) != total_z:
            raise AssertionError("graded cocycle dimensions do not sum to the total")
        if sum(b for _, b, _ in per.values()) != total_b:
            raise AssertionError("graded coboundary dimensions do not sum to the total")
        return CohomologyReport(n, total_z, total_b, total_z - total_b, per)

    # G/I blocks

    def _classes(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        classes = self.grading.classes()
        if not set(classes) <= {0, 1}:
            raise ValueError("block analysis needs a grading with degrees in {0, 1}")
        return classes.get(0, ()), classes.get(1, ())

    def _normalize_block(self, block: BlockSpec) -> tuple[tuple[str, str], ...]:
        pairs = list(block)
        if pairs and isinstance(pairs[0], str):
            pairs = [tuple(pairs)]
        out = []
        for pair in pairs:
            pair = tuple(pair)
            if len(pair) != 2 or any(tag not in _TAG_DEGREE for tag in pair):
                raise ValueError(f"not a G/I tag pair: {pair!r}")
            out.append(pair)
        if not out:
            raise ValueError("no tag pairs given")
        return tuple(out)

    def block_coords(self, degree: int, pairs: Sequence[tuple[str, str]]) -> tuple[int, ...]:
        """Flat indices of the blocks' cochains of the given degree."""
        g_idx, i_idx = self._classes()
        by_tag = {"G": g_idx, "I": i_idx}
        dl = self.algebra.dim
        degs = self.grading.degrees
        out: set[int] = set()
        for ta, tb in pairs:
            target_deg = degree + _TAG_DEGREE[ta] + _TAG_DEGREE[tb]
            targets = [k for k in range(dl) if degs[k] == target_deg]
            if not targets:
                raise ValueError(
                    f"block {ta}*{tb} has no target component in degree {degree}"
                )
            for a in by_tag[ta]:
                for b in by_tag[tb]:
                    base = (a * dl + b) * dl
                    for k in targets:
                        out.add(base + k)
        return tuple(sorted(out))

    def block_analysis(self, degree: int, block: BlockSpec) -> BlockAnalysis:
        """Dimensions only, as pivot counts of :func:`_echelon` on the
        integer rows of the cocycle basis: restricted to the block's
        coordinates they give the projection's dimension, and restricted
        to the other coordinates, by rank-nullity, the dimension of the
        cocycles that vanish off the block."""
        pairs = self._normalize_block(block)
        coords = set(self.block_coords(degree, pairs))
        if degree not in self._kernel_rows:
            self._kernel_rows[degree] = [
                _integer_row(vec) for vec in self.zl_graded_basis(degree).basis
            ]
        rows = self._kernel_rows[degree]
        proj = len(_echelon([{c: v for c, v in r.items() if c in coords} for r in rows]))
        off = len(_echelon([{c: v for c, v in r.items() if c not in coords} for r in rows]))
        supported = len(rows) - off
        if not supported <= proj <= len(rows):
            raise AssertionError("block dimensions violate the projection bounds")
        return BlockAnalysis(
            degree=degree,
            blocks=pairs,
            projection_dim=proj,
            supported_dim=supported,
            projection_injective=proj == len(rows),
        )

    def degree_zero_part(self) -> AlgebraStructure:
        """The degree-0 block as an algebra on its own basis."""
        g_idx, _ = self._classes()
        pos = {g: p for p, g in enumerate(g_idx)}
        tensor: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), vec in self.algebra.tensor.items():
            if i in pos and j in pos:
                tensor[(pos[i], pos[j])] = {pos[t]: c for t, c in vec.items()}
        labels = tuple(self.algebra.basis_labels[g] for g in g_idx)
        return AlgebraStructure(len(g_idx), labels, tensor)

    def gg_block_is_lie_coboundary(self) -> bool:
        """Degree-0 cocycles restricted to G*G: skew, and exactly the
        2-coboundaries of the degree-0 subalgebra acting on itself.

        The comparison space is the image of t -> [t(x), y] + [x, t(y)]
        - t([x, y]) over all linear maps t on the degree-0 part.
        """
        g_idx, _ = self._classes()
        ng = len(g_idx)
        coords = self.block_coords(0, (("G", "G"),))
        projected = project(self.zl_graded_basis(0), coords)
        # coordinate p inside the block decodes as ((a, b), c) over the
        # degree-0 basis in index order
        for vec in projected.basis:
            for p, v in vec.items():
                rest, c = divmod(p, ng)
                a, b = divmod(rest, ng)
                swapped = (b * ng + a) * ng + c
                if vec.get(swapped, Fraction(0)) != -v:
                    return False
        sub = self.degree_zero_part()
        d1 = coboundary_matrix(sub, adjoint_bimodule(sub), 1)
        return subspace_equal(projected, column_space(d1))


# Chevalley-Eilenberg cohomology for Lie algebras, via the right action.


def _require_lie(algebra: AlgebraStructure) -> None:
    from .catalog import lie_as_leibniz

    lie_as_leibniz(algebra)


def _require_right_module(algebra: AlgebraStructure, module: Bimodule) -> None:
    zero: tuple[dict, ...] = tuple({} for _ in range(algebra.dim))
    probe = Bimodule(module.algebra_dim, module.module_dim, zero, module.right_action)
    bad = check_bimodule_axioms(algebra, probe)
    if bad:
        raise ValueError(
            f"right action is not a Lie module action ({len(bad)} defects)"
        )


def _ce_coboundary(
    algebra: AlgebraStructure, module: Bimodule, n: int
) -> SparseRationalMatrix:
    """Matrix of the Chevalley-Eilenberg coboundary d^n on alternating
    n-cochains,

        (d f)(x_0, ..., x_n) = sum_i (-1)^i x_i . f(x_0, ..., ^x_i, ..., x_n)
            + sum_{i<j} (-1)^{i+j} f([x_i, x_j], x_0, ..., ^x_i, ..., ^x_j, ..., x_n)

    with x.m = -[m, x]. An n-cochain coordinate (i_1 < ... < i_n; k) sits
    at (position of the tuple among the increasing n-tuples) * dim M + k.
    """
    dm = module.module_dim
    cols = {
        args: pos for pos, args in enumerate(itertools.combinations(range(algebra.dim), n))
    }
    rows = list(itertools.combinations(range(algebra.dim), n + 1))
    entries: dict[tuple[int, int], Fraction] = {}
    for row_pos, xs in enumerate(rows):
        row_base = row_pos * dm
        for i, x in enumerate(xs):
            col_base = cols[xs[:i] + xs[i + 1 :]] * dm
            # (-1)^i x_i . m = (-1)^{i+1} [m, x_i]
            sign = 1 if i % 2 else -1
            for (out, inp), v in module.right_action[x].items():
                _add(entries, (row_base + out, col_base + inp), sign * v)
        for i, j in itertools.combinations(range(n + 1), 2):
            rest = xs[:i] + xs[i + 1 : j] + xs[j + 1 :]
            for t, c in algebra.product(xs[i], xs[j]).items():
                # moving t into its sorted place in rest adds (-1)^pos, and
                # an alternating cochain vanishes on a repeated argument
                pos = bisect.bisect_left(rest, t)
                if pos < len(rest) and rest[pos] == t:
                    continue
                col_base = cols[rest[:pos] + (t,) + rest[pos:]] * dm
                coeff = c if (i + j + pos) % 2 == 0 else -c
                for k in range(dm):
                    _add(entries, (row_base + k, col_base + k), coeff)
    return SparseRationalMatrix(len(rows) * dm, len(cols) * dm, entries)


def lie_ce_h(algebra: AlgebraStructure, module: Bimodule, n: int) -> int:
    """dim H^n of the Chevalley-Eilenberg complex, n in {1, 2}.

    The algebra must be Lie (antisymmetric bracket, Jacobi identity) and
    only the right action of the bimodule is used, through the induced
    left action x.m = -[m, x]. Cochains are alternating, with basis
    indexed by increasing argument tuples.
    """
    if n not in (1, 2):
        raise ValueError("Chevalley-Eilenberg dimensions are supported for n in {1, 2}")
    if module.algebra_dim != algebra.dim:
        raise ValueError("module is over an algebra of different dimension")
    _require_lie(algebra)
    _require_right_module(algebra, module)
    d_prev = _ce_coboundary(algebra, module, n - 1)
    d = _ce_coboundary(algebra, module, n)
    return d.cols - rank(d) - rank(d_prev)


def leibniz_h_with_coefficients(
    algebra: AlgebraStructure, module: Bimodule, n: int
) -> int:
    """dim HL^n(G, M) for a Lie algebra G and a Leibniz bimodule M.

    The bimodule axioms are enforced first, so results are only produced
    for coefficient systems where the complex actually squares to zero.
    """
    if n not in (1, 2):
        raise ValueError("cohomology dimensions are supported for n in {1, 2}")
    _require_lie(algebra)
    bad = check_bimodule_axioms(algebra, module)
    if bad:
        raise ValueError(f"not a Leibniz bimodule ({len(bad)} axiom defects)")
    return hl_dim(algebra, module, n)
