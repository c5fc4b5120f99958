"""Cocycle, coboundary and cohomology dimensions, graded and by block.

The totals ZL^n = ker d^n, BL^n = im d^{n-1} and HL^n = ZL^n / BL^n are
computed from the coboundary matrices by exact elimination. For a graded
algebra acting on itself, :class:`AdjointCohomology` splits everything by
cochain degree and by argument-signature block and never holds a whole
d^2. It is the only code that maps cochains to blocks. The constructor
checks that the grading respects the product and refines it by the
h-weights: each basis element h whose right multiplication is diagonal
with integer entries, [u, h] = w(u) u, gives a weight vector w, used
only once :func:`~leibcohom.algebra.check_grading` proves it a grading.
A cochain's block key is its degree, then its weight under each w; every
term of d^n joins a row and a column of the same key. All cochains of
one arity are classified in one pass. The blocks of d^n are built one
at a time by the column builder of :mod:`leibcohom.cochain`; each is
checked against d^{n-1}, eliminated once in place and dropped, so only
the block ranks and the blocks of d^0 and d^1 stay. The totals and the
per-degree numbers are sums of block ranks.
Columns, cocycle bases and G/I coordinates all use the flat cochain
index, so a row of d^n is also a column of d^{n+1}: d^{n+1} d^n = 0 is
checked by applying each block of d^{n+1} to the columns of d^n with the
same key. A cocycle basis of degree i is the span of the d^1 columns
when d^2 d^1 = 0 and rank d^1_i + rank d^2_i = cols(d^2_i), since
im d^1_i then fills ker d^2_i; only a degree where that chain does not
close (HL^2 nonzero there, or a broken complex) rebuilds its d^2 blocks
and reduces each to a kernel.

Blocks are named by G/I tags, where G is the degree-0 part of the algebra
and I the degree-1 part; a tag pair such as ("I", "G") selects the
cochains with first argument in I, second in G, and target in whichever
part the cochain degree forces. A block analysis reports dimensions
only, so it counts pivots instead of building the projected and the
supported subspaces, on integer vectors that span the cocycles: where
the rank chain closes these are the kept d^1 columns of the degree,
whose span has dimension rank d^1 there, so no basis is reduced to
echelon form over the rationals; elsewhere the rows of the fallback
kernel. The G*G check reads the same vectors: skewness is linear, and
two integer spans A and B are equal when rank A = rank B = rank(A + B).

The Lie layer (:func:`lie_ce_h`, :func:`leibniz_h_with_coefficients`)
checks its inputs once and ranks d^0, d^1 and d^2 once each as integer
columns; the Chevalley-Eilenberg complex is the alternating subcomplex of
the Leibniz one with symmetric coefficients (:func:`_ce_columns`).
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .algebra import (
    AlgebraStructure,
    Bimodule,
    Grading,
    adjoint_bimodule,
    check_bimodule_axioms,
    check_grading,
    symmetric_bimodule,
)
from .catalog import lie_as_leibniz
from .cochain import (
    _integer_builder,
    coboundary_columns,
    coboundary_matrix,
    cochain_degrees,
)
from .linalg import (
    Subspace,
    _Value,
    _axpy,
    _echelon,
    _integer_row,
    _reversed_echelon,
    _reversed_kernel,
    embed,
    rank,
)

_TAG_DEGREE = {"G": 0, "I": 1}

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


class CohomologyReport(_Value):
    """Total and per-degree dimensions of ZL^n, BL^n and HL^n."""

    _fields = ("arity", "dim_z", "dim_b", "dim_h", "per_degree")

    def __init__(self, arity: int, dim_z: int, dim_b: int, dim_h: int,
                 per_degree: dict[int, tuple[int, int, int]]) -> None:
        if dim_h != dim_z - dim_b or dim_h < 0:
            raise ValueError("inconsistent cohomology dimensions")
        for degree, (z, b, h) in per_degree.items():
            if h != z - b or h < 0:
                raise ValueError(f"inconsistent dimensions in degree {degree}")
        self.__dict__.update(arity=arity, dim_z=dim_z, dim_b=dim_b, dim_h=dim_h,
                             per_degree=per_degree)

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


class BlockAnalysis(_Value):
    """How the degree-``degree`` cocycles meet one signature block.

    ``projection_dim`` is the dimension of the image of the cocycle space
    under restriction of coordinates to the block; ``supported_dim``
    counts the cocycles living entirely inside the block; the projection
    is injective when no nonzero cocycle vanishes on the block.
    """

    _fields = ("degree", "blocks", "projection_dim", "supported_dim", "projection_injective")

    def __init__(self, degree: int, blocks: tuple[tuple[str, str], ...], projection_dim: int,
                 supported_dim: int, projection_injective: bool) -> None:
        self.__dict__.update(degree=degree, blocks=blocks, projection_dim=projection_dim,
                             supported_dim=supported_dim,
                             projection_injective=projection_injective)

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "blocks": ["*".join(pair) for pair in self.blocks],
            "projection_dim": self.projection_dim,
            "supported_dim": self.supported_dim,
            "projection_injective": self.projection_injective,
        }


def _weights(algebra: AlgebraStructure, grading: Grading) -> list[tuple[int, ...]]:
    """The h-weights that refine a grading. For each basis element h whose
    right multiplication is diagonal with integer entries, [u, h] = w(u) u,
    the vector w, when it is nonzero, new, and proved a grading by
    :func:`~leibcohom.algebra.check_grading`. For a Leibniz algebra the
    right Leibniz identity with z = h makes every such w a grading; the
    check is what lets an algebra that fails it be refined safely."""
    dl = algebra.dim
    out: list[tuple[int, ...]] = []
    for h in range(dl):
        w = []
        for u in range(dl):
            vec = algebra.tensor.get((u, h), {})
            c = vec.get(u, 0)
            if set(vec) - {u} or c != int(c):
                break
            w.append(int(c))
        else:
            w = tuple(w)
            new = any(w) and w != grading.degrees and w not in out
            if new and check_grading(algebra, Grading(w)):
                out.append(w)
    return out


def _annihilates(upper: dict[int, dict[int, int]], cells: set[int],
                 columns: Iterable[dict[int, int]]) -> bool:
    """Whether the block ``upper`` of d^{n+1}, the nonzero columns among
    the cochains ``cells``, maps every column of d^n in ``columns`` to
    zero. A row outside ``cells`` would mean that the block keys are no
    grading."""
    for col in columns:
        acc: dict[int, int] = {}
        for r, v in col.items():
            if r not in cells:
                raise AssertionError("a coboundary column leaves its block")
            if r in upper:
                _axpy(acc, upper[r], v)
        if acc:
            return False
    return True


class AdjointCohomology:
    """Graded cocycle analysis of CL^*(L, L) for one graded algebra.

    Construction validates the grading and finds the h-weights that
    refine it (:func:`_weights`). Every cochain gets a block key: its
    degree in the grading, then its degree in each weight. The blocks of
    each d^n are built one at a time from one integer column builder;
    each block's rank is the pivot count of an echelon of its columns,
    computed once, and only the blocks of d^0 and d^1 are kept. A cocycle
    basis (:meth:`zl_graded_basis`) is read off the columns of d^1 where
    the rank chain closes, and off kernels of rebuilt d^2 blocks
    elsewhere; the block analyses and the G*G check use those d^1
    columns directly (:meth:`_cocycle_span`).
    """

    def __init__(self, algebra: AlgebraStructure, grading: Grading):
        if not check_grading(algebra, grading):
            raise ValueError("the grading does not respect the multiplication")
        self.algebra = algebra
        self.grading = grading
        self.module = adjoint_bimodule(algebra)
        # the input grading is always the first component of a key
        self._gradings = (grading.degrees, *_weights(algebra, grading))
        self._builder = _integer_builder(algebra, self.module)[1]
        self._cells: dict[int, dict[tuple[int, ...], tuple[int, ...]]] = {}
        self._kept: dict[tuple[int, tuple[int, ...]], dict[int, dict[int, int]]] = {}
        self._ranks: dict[tuple[int, tuple[int, ...]], int] = {}
        self._squares: dict[int, bool] = {}
        self._streamed: set[int] = set()
        self._kernel: dict[int, Subspace] = {}
        self._spans: dict[int, tuple[list[dict[int, int]], int]] = {}

    # blocks and totals

    def _blocks(self, n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
        """The flat indices of the basis n-cochains by block key, in
        increasing key and index order, classified in one pass: the
        cochain (i_1, ..., i_n; k) has degree g[k] - sum g[i_p] in each
        grading g of the key."""
        if n not in self._cells:
            dl = self.algebra.dim
            per = list(zip(*self._gradings))
            # the argument degree sums of the n-tuples, in flat order
            sums = [(0,) * len(per[0])] if per else [()]
            for _ in range(n):
                sums = [tuple(map(operator.add, s, d)) for s in sums for d in per]
            # the (key, k) of each target k, by argument degree sum
            targets: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
            cells: dict[tuple[int, ...], list[int]] = {}
            for pos, s in enumerate(sums):
                if s not in targets:
                    targets[s] = [(tuple(map(operator.sub, d, s)), k) for k, d in enumerate(per)]
                    for key, _ in targets[s]:
                        cells.setdefault(key, [])
                base = pos * dl
                for key, k in targets[s]:
                    cells[key].append(base + k)
            self._cells[n] = {key: tuple(cells[key]) for key in sorted(cells)}
        return self._cells[n]

    def _count(self, n: int, degree: int) -> int:
        """The number of basis n-cochains of one degree."""
        return sum(len(cols) for key, cols in self._blocks(n).items() if key[0] == degree)

    def _stream(self, n: int) -> None:
        """One pass over the blocks of d^n, n in 0..3, holding one block at
        a time: build it, check d^n d^{n-1} = 0 on the d^{n-1} columns of
        the same key, and for n <= 2 rank it by eliminating its columns in
        place. The d^0 and d^1 blocks are kept (copies are eliminated);
        the d^{n-1} columns of d^3 after d^2 are rebuilt."""
        if n in self._streamed:
            return
        if 0 < n <= 2:
            self._stream(n - 1)
        upper = self._blocks(n)
        lower = self._blocks(n - 1) if n else {}
        ok = True
        keys = sorted(upper.keys() | lower.keys())
        for key in keys:
            cols = upper.get(key, ())
            block = self._builder.columns(n, cols)
            if n:
                below = self._kept.get((n - 1, key))
                if below is None:
                    below = self._builder.columns(n - 1, lower.get(key, ()))
                if ok and not _annihilates(block, set(cols), below.values()):
                    ok = False
            if n <= 1:
                self._kept[(n, key)] = block
                self._ranks[(n, key)] = len(_echelon([dict(col) for col in block.values()]))
            elif n == 2:
                self._ranks[(n, key)] = len(_echelon(list(block.values())))
        if n:
            self._squares[n - 1] = ok
        self._streamed.add(n)

    def _rank(self, n: int, degree: int) -> int:
        """Rank of the degree block of d^n, n in 0..2: the sum of the ranks
        of its blocks."""
        self._stream(n)
        return sum(r for (m, key), r in self._ranks.items() if m == n and key[0] == degree)

    def squares_to_zero(self, n: int) -> bool:
        """Whether d^{n+1} after d^n is zero, as d^{n+1} applied to each
        column of d^n, block by block."""
        if n not in (0, 1, 2):
            raise ValueError("complex checks are supported for n in 0..2")
        self._stream(n + 1)
        return self._squares[n]

    def _cob_rank(self, n: int) -> int:
        """rank d^n, summed over its degree blocks. The constructor checked
        the grading and each weight, so every term of d^n joins a row to a
        column of the same key: [x_1, f(..)] and [f(..), x_p] need a
        structure constant c_{x i}^o, so g(o) = g(x) + g(i), and f(..,
        [x_p, x_q], ..) needs c_{x_p x_q}^t, so g(t) = g(x_p) + g(x_q).
        Once the degrees' columns add up to those of d^n, d^n is block
        diagonal up to a permutation."""
        if n not in (0, 1, 2):
            raise ValueError("ranks are supported for n in 0..2")
        degrees = self.degrees(n)
        if sum(self._count(n, i) for i in degrees) != self.algebra.dim ** (n + 1):
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

    def graded_zl_dim(self, n: int, degree: int) -> int:
        return self._count(n, degree) - self._rank(n, degree)

    def graded_bl_dim(self, n: int, degree: int) -> int:
        return self._rank(n - 1, degree)

    def zl_graded_basis(self, degree: int) -> Subspace:
        """Kernel of the degree block of d^2, in flat coordinates of
        Hom(L^2, L).

        d^2 d^1 = 0 puts im d^1 inside ker d^2; when also rank d^1 +
        rank d^2 = cols(d^2) in this degree, the two are equal and the
        canonical basis is that of the span of the d^1 columns. Otherwise
        the d^2 blocks of the degree are rebuilt, and each kernel is read
        off a reversed echelon of the block's rows, with its columns
        numbered by position and mapped back by
        :func:`~leibcohom.linalg.embed`. The blocks use disjoint
        coordinates, so the union of their canonical bases is the
        canonical basis of the degree.
        """
        if degree not in self._kernel:
            ambient = self.algebra.dim**3
            if self._closes(degree):
                space = Subspace.from_spanning(self._d1_columns(degree), ambient)
            else:
                vectors: list[dict[int, Fraction]] = []
                for key, cols in self._blocks(2).items():
                    if key[0] != degree:
                        continue
                    d2 = self._builder.columns(2, cols)
                    rows: dict[int, dict[int, int]] = {}
                    for p, c in enumerate(cols):
                        for r, v in d2.get(c, {}).items():
                            rows.setdefault(r, {})[p] = v
                    pivots = _reversed_echelon(rows.values(), len(cols))
                    vectors += embed(_reversed_kernel(pivots, len(cols)), cols, ambient).basis
                space = Subspace(ambient, tuple(sorted(vectors, key=min)))
            self._kernel[degree] = space
        return self._kernel[degree]

    def _closes(self, degree: int) -> bool:
        """Whether the d^1 columns of a degree span its 2-cocycles:
        d^2 d^1 = 0 puts im d^1 inside ker d^2, and rank d^1 + rank d^2 =
        cols(d^2) in the degree makes the two equal."""
        return self.squares_to_zero(1) and (
            self._rank(1, degree) + self._rank(2, degree) == self._count(2, degree)
        )

    def _d1_columns(self, degree: int) -> list[dict[int, int]]:
        """The kept integer columns of d^1 of one degree."""
        return [col for (n, key), block in self._kept.items() if n == 1 and key[0] == degree
                for col in block.values()]

    def _cocycle_span(self, degree: int) -> tuple[list[dict[int, int]], int]:
        """``(vectors, dim)``: integer vectors spanning the 2-cocycles of a
        degree, and the dimension of their span. Where the rank chain
        closes these are the kept d^1 columns, of dimension rank d^1 in
        the degree, so no basis is reduced; elsewhere they are the rows of
        :meth:`zl_graded_basis`, the fallback kernel."""
        if degree not in self._spans:
            if self._closes(degree):
                span = self._d1_columns(degree)
                dim = self._rank(1, degree)
            else:
                span = [_integer_row(vec) for vec in self.zl_graded_basis(degree).basis]
                dim = len(span)
            self._spans[degree] = span, dim
        return self._spans[degree]

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
        """Dimensions only, as pivot counts of :func:`_echelon` on integer
        vectors spanning the cocycles (:meth:`_cocycle_span`: the d^1
        columns where the rank chain closes): restricted to the block's
        coordinates they give the projection's dimension, and restricted
        to the other coordinates, by rank-nullity, the dimension of the
        cocycles that vanish off the block."""
        pairs = self._normalize_block(block)
        coords = set(self.block_coords(degree, pairs))
        span, dim = self._cocycle_span(degree)
        proj = len(_echelon([{c: v for c, v in r.items() if c in coords} for r in span]))
        off = len(_echelon([{c: v for c, v in r.items() if c not in coords} for r in span]))
        supported = dim - off
        if not supported <= proj <= dim:
            raise AssertionError("block dimensions violate the projection bounds")
        return BlockAnalysis(
            degree=degree,
            blocks=pairs,
            projection_dim=proj,
            supported_dim=supported,
            projection_injective=proj == dim,
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
        - t([x, y]) over all linear maps t on the degree-0 part, spanned
        by the integer columns of its d^1. Both sides are spans of integer
        vectors, the cocycles restricted to G*G and those columns, and two
        spans A and B are equal exactly when rank A = rank B = rank(A + B).
        Skewness is linear, so checking it on the spanning vectors checks
        it on their span.
        """
        g_idx, _ = self._classes()
        ng = len(g_idx)
        pos = {c: p for p, c in enumerate(self.block_coords(0, (("G", "G"),)))}
        projected = [{pos[c]: v for c, v in vec.items() if c in pos}
                     for vec in self._cocycle_span(0)[0]]
        # coordinate p inside the block decodes as ((a, b), c) over the
        # degree-0 basis in index order
        for vec in projected:
            for p, v in vec.items():
                rest, c = divmod(p, ng)
                a, b = divmod(rest, ng)
                if vec.get((b * ng + a) * ng + c, 0) != -v:
                    return False
        sub = self.degree_zero_part()
        lie = list(coboundary_columns(sub, adjoint_bimodule(sub), 1)[1].values())
        r_zl, r_lie, r_both = (
            len(_echelon([dict(vec) for vec in vectors]))
            for vectors in (projected, lie, projected + lie)
        )
        return r_zl == r_lie == r_both


def _require_lie_module(algebra: AlgebraStructure, module: Bimodule, what: str) -> None:
    """Reject a non-Lie bracket, and a module failing the bimodule axioms."""
    lie_as_leibniz(algebra)
    bad = check_bimodule_axioms(algebra, module)
    if bad:
        raise ValueError(f"{what} ({len(bad)} axiom defects)")


def _ce_columns(algebra: AlgebraStructure, module: Bimodule, n: int) -> dict[int, dict[int, int]]:
    """The Chevalley-Eilenberg d^n on alternating n-cochains, x.m = -[m, x],
    as integer columns (Loday-Pirashvili): column (i_1 < ... < i_n; k), at
    (position among the increasing n-tuples) * dim M + k, is sum_sigma
    sgn(sigma) times the column at (i_sigma(1), ..., i_sigma(n); k) of the
    Leibniz d^n of ``symmetric_bimodule(module)``, with its scale and rows.
    For an alternating f each Leibniz term is the CE term: (-1)^p [f(..,
    ^x_p, ..), x_p] = (-1)^{p+1} x_p . f(..), and moving [x_p, x_q] to the
    front costs (-1)^{p-1}, turning (-1)^{q+1} into (-1)^{p+q}. So d_L f =
    d_CE f, the image is alternating and every rank is the CE one."""
    dl, dm = algebra.dim, module.module_dim
    leibniz = coboundary_columns(algebra, symmetric_bimodule(module), n)[1]
    out: dict[int, dict[int, int]] = {}
    for pos, args in enumerate(itertools.combinations(range(dl), n)):
        terms = []
        for perm in itertools.permutations(range(n)):
            sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
            flat = 0
            for p in perm:
                flat = flat * dl + args[p]
            terms.append((sign, flat * dm))
        for k in range(dm):
            col: dict[int, int] = {}
            for sign, base in terms:
                _axpy(col, leibniz.get(base + k, {}), sign)
            if col:
                out[pos * dm + k] = col
    return out


def _h1_h2(cochains: tuple[int, int], columns: Iterable[Iterable[dict]]) -> tuple[int, int]:
    """(dim H^1, dim H^2) from dim C^1, dim C^2 and the integer columns of
    d^0, d^1 and d^2, each ranked by one :func:`_echelon`."""
    r0, r1, r2 = (len(_echelon(list(cols))) for cols in columns)
    return cochains[0] - r1 - r0, cochains[1] - r2 - r1


def lie_ce_h(algebra: AlgebraStructure, module: Bimodule) -> tuple[int, int]:
    """(dim H^1, dim H^2) of the Chevalley-Eilenberg complex.

    The algebra must be Lie and only the right action of the bimodule is
    used, checked as a bimodule with zero left action.
    """
    probe = Bimodule(module.algebra_dim, module.module_dim,
                     tuple({} for _ in module.right_action), module.right_action)
    _require_lie_module(algebra, probe, "right action is not a Lie module action")
    dl, dm = algebra.dim, module.module_dim
    columns = (_ce_columns(algebra, module, n).values() for n in range(3))
    return _h1_h2((dl * dm, dl * (dl - 1) // 2 * dm), columns)


def leibniz_h_with_coefficients(algebra: AlgebraStructure, module: Bimodule) -> tuple[int, int]:
    """(dim HL^1, dim HL^2)(G, M) for a Lie algebra G and a Leibniz bimodule M.

    The bimodule axioms are enforced first, so results are only produced
    for coefficient systems where the complex actually squares to zero.
    """
    _require_lie_module(algebra, module, "not a Leibniz bimodule")
    dl, dm = algebra.dim, module.module_dim
    columns = (coboundary_columns(algebra, module, n)[1].values() for n in range(3))
    return _h1_h2((dl * dm, dl * dl * dm), columns)
