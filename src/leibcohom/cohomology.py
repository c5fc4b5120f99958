"""Cocycle, coboundary and cohomology dimensions, graded and by block.

The ungraded totals ZL^n = ker d^n, BL^n = im d^{n-1} and HL^n =
ZL^n / BL^n (:func:`zl_dim`, :func:`bl_dim`, :func:`hl_dim`) rank the
full coboundary matrices; they live in :mod:`leibcohom.cochain`, next to
the matrix they rank, so an ungraded run compiles none of this module,
and are re-exported here by name. For a graded
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
per-degree numbers are sums of block ranks. A checked automorphism that
negates the weights pairs the blocks of d^2 and d^3 into orbits of equal
rank, and one block per orbit is built. A block of d^2 of nonzero weight
is not eliminated either: the Cartan homotopy of h makes its rank
cols - rank d^1 once two exact checks pass on the few columns they read,
so only the weight-0 blocks of d^2 are built whole and eliminated.
Columns, cocycle bases and G/I coordinates all use the flat cochain
index, so a row of d^n is also a column of d^{n+1}: d^{n+1} d^n = 0 is
checked by applying each block of d^{n+1} to the columns of d^n with the
same key. The 2-cocycles of degree i are read in one place, key by key,
as integer vectors spanning them: a key whose chain closes gives its d^1
columns, since d^2 d^1 = 0 puts im d^1 in ker d^2 and rank d^1 +
rank d^2 = cols(d^2) on the key makes them equal; every other key's d^2
block is rebuilt and its kernel read. The block analyses and the G*G
check both read that span.

Blocks are named by G/I tags, where G is the degree-0 part of the algebra
and I the degree-1 part, as :meth:`~leibcohom.algebra.Grading.parts`
splits them; a tag pair such as ("I", "G") selects the cochains with
first argument in I, second in G, and target in whichever part the
cochain degree forces, and a block that selects no cochain is refused.
A block analysis reports dimensions only, so it counts pivots on the
integer cocycle span instead of building the projected and the
supported subspaces; where the rank chain closes, that span has
dimension rank d^1, so no basis is reduced to echelon form over the
rationals. The G*G check reads the same vectors: skewness is linear, and
two integer spans A and B are equal when rank A = rank B = rank(A + B).

The Lie layer (:func:`lie_ce_h`, :func:`leibniz_h_with_coefficients`)
checks its inputs once and ranks d^0, d^1 and d^2 once each as the
integer columns of one builder per complex; the Chevalley-Eilenberg
complex is the alternating subcomplex of the Leibniz one with symmetric
coefficients (:func:`_ce_complex`).
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Container, Iterable, Sequence
from fractions import Fraction

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
from .cochain import _integer_builder, cochain_degrees
# the ungraded totals, kept by name for the callers of this module
from .cochain import bl_dim, hl_dim, zl_dim  # noqa: F401
from .linalg import _Value, _add, _axpy, _echelon, _kernel_vectors

_TAG_DEGREE = {"G": 0, "I": 1}

BlockSpec = Sequence[str] | Iterable[Sequence[str]]


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


def _weights(algebra: AlgebraStructure,
             grading: Grading) -> list[tuple[int, tuple[int, ...]]]:
    """The h-weights that refine a grading, as pairs (h, w). For each basis
    element h whose right multiplication is diagonal with integer entries,
    [u, h] = w(u) u, the vector w, when it is nonzero, new, and proved a
    grading by :func:`~leibcohom.algebra.check_grading`. For a Leibniz
    algebra the right Leibniz identity with z = h makes every such w a
    grading; the check is what lets an algebra that fails it be refined
    safely."""
    dl = algebra.dim
    out: list[tuple[int, tuple[int, ...]]] = []
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
            new = any(w) and w != grading.degrees and w not in (v for _, v in out)
            if new and check_grading(algebra, Grading(w)):
                out.append((h, w))
    return out


def _weight_flip(algebra: AlgebraStructure,
                 gradings: Sequence[tuple[int, ...]]) -> list[tuple[int, Fraction]] | None:
    """A monomial automorphism phi(b_i) = c_i b_{p(i)} that keeps the first
    grading and negates the others, as the pairs (p(i), c_i); None when
    there is no other grading, when some b_i has no partner or more than
    one, or when phi fails a product.

    p(i) is the one basis element whose degrees are those of b_i with every
    weight negated. phi is multiplicative exactly when c_t c_{ij}^t =
    c_i c_j c_{p(i) p(j)}^{p(t)} for all i, j, t, so each nonzero pair of
    constants gives one unknown scalar from the other two; when nothing
    follows, the unknown scalar of the least key is set to 1, so neither
    step depends on the order of the basis. The scalars are only a guess
    until phi([b_i, b_j]) = [phi b_i, phi b_j] is checked exactly for every
    pair (i, j)."""
    if len(gradings) < 2:
        return None
    keys = list(zip(*gradings))
    by_key: dict[tuple[int, ...], list[int]] = {}
    for i, key in enumerate(keys):
        by_key.setdefault(key, []).append(i)
    p = []
    for key in keys:
        twins = by_key.get((key[0], *(-w for w in key[1:])), ())
        if len(twins) != 1:
            return None
        p.append(twins[0])
    tensor = algebra.tensor
    # c_t = c_i c_j r over the products whose partner constant is nonzero
    rules = [(i, j, t, image[p[t]] / v)
             for (i, j), vec in tensor.items()
             if (image := tensor.get((p[i], p[j])))
             for t, v in vec.items() if p[t] in image]
    c: list[Fraction | None] = [None] * algebra.dim
    for first in sorted(range(algebra.dim), key=keys.__getitem__):
        if c[first] is not None:
            continue
        c[first] = Fraction(1)
        found = True
        while found:
            found = False
            for i, j, t, r in rules:
                if c[t] is None and c[i] is not None and c[j] is not None:
                    c[t] = c[i] * c[j] * r
                elif i != j and c[t] is not None and (c[i] is None) != (c[j] is None):
                    if c[i] is None:
                        c[i] = c[t] / (c[j] * r)
                    else:
                        c[j] = c[t] / (c[i] * r)
                else:
                    continue
                found = True
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            lhs = {p[t]: c[t] * v for t, v in tensor.get((i, j), {}).items()}
            rhs = {s: c[i] * c[j] * v for s, v in tensor.get((p[i], p[j]), {}).items()}
            if lhs != rhs:
                return None
    return list(zip(p, c))


def _annihilates(upper: dict[int, dict[int, int]], cells: Container[int],
                 columns: Iterable[dict[int, int]]) -> bool:
    """Whether the columns ``upper``, the nonzero ones among ``cells``, send
    every integer vector in ``columns``, each coordinate inside ``cells``,
    to zero: a block of d^{n+1} applied to the columns of d^n (a coordinate
    outside the block means its keys are no grading), or d^1 to a basis of
    Der. The sums are accumulated inline, in integers."""
    for col in columns:
        acc: dict[int, int] = {}
        for r, v in col.items():
            if r not in cells:
                raise AssertionError("a coboundary column leaves its block")
            up = upper.get(r)
            if up:
                for t, u in up.items():
                    acc[t] = acc.get(t, 0) + u * v
        if any(acc.values()):
            return False
    return True


class AdjointCohomology:
    """Graded cocycle analysis of CL^*(L, L) for one graded algebra.

    Construction validates the grading and finds the h-weights that
    refine it (:func:`_weights`). Every cochain gets a block key: its
    degree in the grading, then its degree in each weight. The blocks of
    each d^n are built one at a time from one integer column builder;
    each block's rank is the pivot count of an echelon of its columns,
    computed once, and only the blocks of d^0 and d^1 are kept. The
    2-cocycles of a degree are read in one place, :meth:`_cocycle_span`,
    one d^2 key at a time: off the key's d^1 columns where its chain
    closes, since d^2 d^1 = 0 puts im d^1 in ker d^2 and rank d^1 +
    rank d^2 = cols makes them equal; elsewhere off the kernel of its d^2
    block, rebuilt. The block analyses and the G*G check both use that
    span.

    d^2 and d^3 are streamed by orbits of a weight flip. Let phi(b_i) =
    c_i b_{p(i)} keep the degree and negate every weight, with c_t c_{ij}^t
    = c_i c_j c_{p(i) p(j)}^{p(t)} checked on every product
    (:func:`_weight_flip`). Then phi* f = phi o f o (phi^{-1})^n sends the
    basis cochain (i_1, ..., i_n; k) to c_k / (c_{i_1} ... c_{i_n}) times
    (p(i_1), ..., p(i_n); p(k)), the cochains of key (deg, w) onto those of
    key (deg, -w). d^n is built from the structure constants alone, which
    phi preserves, so phi* d^n = d^n phi*, and block (deg, -w) of d^n is
    D P (block (deg, w)) P' D' with permutations P, P' and invertible
    diagonals D, D'. The two blocks have the same rank, and d^n d^{n-1} is
    zero on one exactly when it is zero on the other. So only the larger
    key of each orbit {(deg, w), (deg, -w)} is built, checked and ranked,
    and a key with w = 0 is its own orbit. d^0 and d^1 stay whole: the
    cocycle span and the block lemmas read them, and :meth:`_commutes`
    checks that the kept d^1 commutes with phi* before any block is skipped.

    A kept d^2 block of nonzero weight is certified by the Cartan homotopy
    instead of eliminated (:meth:`_certified_rank`). Let h be the basis
    element of a weight component in which the key has weight w != 0, with
    degree 0 in every component, so (i, h; k) and (i; k) share a key.
    Checked gradings force that: some u has w(u) != 0, and [u, h] = w(u) u
    then needs g(u) + g(h) = g(u) in each of them. Contraction in the last
    argument, (K_h f)(x_1, .., x_{n-1}) = (-1)^n f(x_1, .., x_{n-1}, h),
    satisfies d^1 K_h + K_h d^2 = theta_h on C^2, theta_h f = [f(..), h] -
    sum_p f(.., [x_p, h], ..), for any bracket (tests/test_cartan.py checks
    it entry for entry). R_h is diagonal, so theta_h is w times the
    identity on the block, and f in ker d^2 gives w f = d^1 K_h f: ker d^2
    lies in im d^1. With d^2 d^1 = 0 the two are equal, and rank d^2 =
    cols - rank d^1, with no elimination and no Leibniz identity.

    * Checked exactly, on the key's own columns: d^2 d^1 = 0 on supp(d^1),
      the 2-cochains the key's d^1 columns touch, which is all the product
      reads; and the identity on each column (i, h; k): the d^1 column of
      (i; k), less the rows (a, b, h; t) of the d^2 column read as (a, b;
      t), is s w (i, h; k), s the builder's scale. Each 1-cochain (i; k) of
      the key is K_h of (i, h; k), so this reads every d^1 column of the
      key, and a d^1 fault that keeps d^2 d^1 = 0 still fails it.
    * Proved, not checked, the diagonal lemma: in a column (i, j; k) with
      j != h, the h-rows (a, b, h; t) hold only -s w, at (i, j, h; k), so
      K_h d^2 (i, j; k) = s w (i, j; k). They come from -[f(x_1, x_2), h],
      -s w(k), and from f([x_1, h], x_2) and f(x_1, [x_2, h]), s w(i) and
      s w(j), which land on (i, j) because R_h is diagonal; every other
      term needs j = h. C4's full-matrix ranks, the reference evaluator of
      tests/test_cochain.py and tests/test_cartan.py are the oracles for
      a builder fault there, which this path would not see.
    * Not read: the entries outside the h-rows in columns outside
      supp(d^1). Neither argument uses them, so they cannot change the
      certified rank, and they are never built.

    A key that fails either check is built whole, checked and eliminated,
    as a weight-0 key is, and as every key is when no h is found (a graded
    conjugate), so a failing check costs time and never a number. The
    twin of a certified key gets its rank through the flip as before.
    """

    def __init__(self, algebra: AlgebraStructure, grading: Grading):
        if not check_grading(algebra, grading):
            raise ValueError("the grading does not respect the multiplication")
        self.algebra = algebra
        self.grading = grading
        self.module = adjoint_bimodule(algebra)
        weights = _weights(algebra, grading)
        # the input grading is always the first component of a key
        self._gradings = (grading.degrees, *(w for _, w in weights))
        # per weight component, its h when h has degree 0 in every
        # component, so that (i, h; k) has the key of (i; k); else None
        self._contractions = [h if not any(g[h] for g in self._gradings) else None
                              for h, _ in weights]
        self._builder = _integer_builder(algebra, self.module)
        self._cells: dict[int, dict[tuple[int, ...], tuple[int, ...]]] = {}
        self._kept: dict[tuple[int, tuple[int, ...]], dict[int, dict[int, int]]] = {}
        self._ranks: dict[tuple[int, tuple[int, ...]], int] = {}
        self._squares: dict[int, bool] = {}
        self._streamed: set[int] = set()
        self._flip: bool | None = None
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
        the d^{n-1} columns of d^3 after d^2 are rebuilt. For n >= 2, when
        :func:`_weight_flip` finds an automorphism and the kept d^1
        commutes with it, only the larger key of each orbit {(deg, w),
        (deg, -w)} is built, checked and ranked, and its twin gets the
        same rank. A d^2 block that :meth:`_certified_rank` certifies is
        neither built whole nor eliminated."""
        if n in self._streamed:
            return
        if 0 < n <= 2:
            self._stream(n - 1)
        if n >= 2 and self._flip is None:
            self._stream(1)
            phi = _weight_flip(self.algebra, self._gradings)
            self._flip = phi is not None and self._commutes(phi)
        flip = n >= 2 and self._flip
        upper = self._blocks(n)
        lower = self._blocks(n - 1) if n else {}
        ok = True
        keys = sorted(upper.keys() | lower.keys())
        for key in keys:
            twin = (key[0], *(-w for w in key[1:])) if flip else key
            if twin > key:
                continue
            cols = upper.get(key, ())
            if n:
                below = self._kept.get((n - 1, key))
                if below is None:
                    below = self._builder.columns(n - 1, lower.get(key, ()))
            r = self._certified_rank(key, below) if n == 2 else None
            if r is None:
                block = self._builder.columns(n, cols)
                if n and ok and not _annihilates(block, set(cols), below.values()):
                    ok = False
                if n <= 1:
                    self._kept[(n, key)] = block
                    r = len(_echelon([dict(col) for col in block.values()]))
                elif n == 2:
                    r = len(_echelon(list(block.values())))
            if n <= 2:
                self._ranks[(n, key)] = self._ranks[(n, twin)] = r
        if n:
            self._squares[n - 1] = ok
        self._streamed.add(n)

    def _certified_rank(self, key: tuple[int, ...],
                        below: dict[int, dict[int, int]]) -> int | None:
        """rank d^2 on the block ``key`` as cols - rank d^1, certified by the
        Cartan homotopy of h, or None when the block must be eliminated:
        when every weight of the key is 0, when there is no h, or when a
        check fails. ``below`` holds the key's kept d^1 columns.

        Two exact checks run on the key's own columns of d^2: d^2 d^1 = 0
        on supp(d^1), and, for each (i, h; k), d^1 (i; k) + K_h d^2 (i, h; k)
        = s w (i, h; k), with s the builder's scale and K_h d^2 the rows
        (a, b, h; t) of the column, negated, as the 2-cochains (a, b; t)."""
        j = next((j for j, w in enumerate(key[1:]) if w), None)
        h = None if j is None else self._contractions[j]
        if h is None:
            return None
        dl = self.algebra.dim
        sw = self._builder.scale * key[1 + j]
        ones, cols = self._blocks(1).get(key, ()), self._blocks(2).get(key, ())
        # the columns (i, h; k) ending in h, one per 1-cochain (i; k)
        ends = [(c // dl * dl + h) * dl + c % dl for c in ones]
        support = {r for col in below.values() for r in col}
        part = self._builder.columns(2, sorted(support.union(ends)))
        if not _annihilates(part, set(cols), below.values()):
            return None
        for i_k, c in zip(ones, ends):
            got = dict(below.get(i_k, {}))
            for r, v in part.get(c, {}).items():
                if r // dl % dl == h:
                    _add(got, r // (dl * dl) * dl + r % dl, -v)
            if got != {c: sw}:
                return None
        return len(cols) - self._ranks.get((1, key), 0)

    def _commutes(self, phi: list[tuple[int, Fraction]]) -> bool:
        """Whether the kept d^1 commutes with phi*, which sends the basis
        cochain (i; k) to c_k / c_i times (p(i); p(k)), and (a, b; t) to
        c_t / (c_a c_b) times (p(a), p(b); p(t)): the column of (p(i); p(k))
        must hold c_t c_i / (c_a c_b c_k) times the entry of (i; k) at
        (a, b; t), at (p(a), p(b); p(t)). A builder fault in a d^1 block
        that breaks the symmetry thus turns the reduction off, and the
        d^2 d^1 check of its own key sees it."""
        dl = self.algebra.dim
        p = [t for t, _ in phi]
        # with c = num / den, in integers, which multiply faster than Fractions
        num = [c.numerator for _, c in phi]
        den = [c.denominator for _, c in phi]
        columns = {col: vec for (n, _), block in self._kept.items() if n == 1
                   for col, vec in block.items()}
        for col, vec in columns.items():
            i, k = divmod(col, dl)
            twin = columns.get(p[i] * dl + p[k], {})
            if len(twin) != len(vec):
                return False
            left, right = num[k] * den[i], num[i] * den[k]
            for r, v in vec.items():
                ab, t = divmod(r, dl)
                a, b = divmod(ab, dl)
                w = twin.get((p[a] * dl + p[b]) * dl + p[t])
                if w is None or (w * num[a] * num[b] * den[t] * left
                                 != v * num[t] * den[a] * den[b] * right):
                    return False
        return True

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

    def _cocycle_span(self, degree: int) -> tuple[list[dict[int, int]], int]:
        """``(vectors, dim)``: integer vectors spanning the 2-cocycles of a
        degree, and the dimension of their span. The only reader of the
        2-cocycles.

        One rule reads each d^2 key of the degree; the keys use disjoint
        coordinates, so the spans add up. Where d^2 d^1 = 0 and the key's
        ranks r1 + r2 equal its cols, its kept d^1 columns span its
        cocycles with dimension r1: d^2 d^1 = 0 puts im d^1 in ker d^2,
        and r1 + r2 = cols makes them equal. A key the Cartan certificate
        ranked and its flip twin pass by construction, and so does every
        key of a degree where HL^2 is 0, since r1 + r2 <= cols on each
        key. Every other key's d^2 block is rebuilt, and its kernel is
        read straight off the builder's integer columns by
        :func:`~leibcohom.linalg._kernel_vectors`, tagged at dim^4 + c, so
        the vectors come out in flat coordinates.
        """
        if degree not in self._spans:
            exact = self.squares_to_zero(1)
            span, dim = [], 0
            for key, cols in self._blocks(2).items():
                if key[0] != degree:
                    continue
                r1 = self._ranks.get((1, key), 0)
                if exact and r1 + self._ranks[(2, key)] == len(cols):
                    span += self._kept.get((1, key), {}).values()
                    dim += r1
                    continue
                kernel = _kernel_vectors(self._builder.columns(2, cols), cols,
                                         self.algebra.dim**4)
                span += kernel
                dim += len(kernel)
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
        """Flat indices of the blocks' cochains of the given degree. A
        block whose target class or either argument class is empty holds
        no cochain and raises ValueError."""
        by_tag = dict(zip("GI", self.grading.parts()))
        dl = self.algebra.dim
        degs = self.grading.degrees
        out: set[int] = set()
        for ta, tb in pairs:
            target_deg = degree + _TAG_DEGREE[ta] + _TAG_DEGREE[tb]
            targets = [k for k in range(dl) if degs[k] == target_deg]
            if not (targets and by_tag[ta] and by_tag[tb]):
                raise ValueError(f"block {ta}*{tb} holds no cochain in degree {degree}: "
                                 "an empty argument class or no target component")
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
        g_idx, _ = self.grading.parts()
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
        ng = len(self.grading.parts()[0])
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
        lie = list(_integer_builder(sub, adjoint_bimodule(sub)).columns(1).values())
        r_zl, r_lie, r_both = (
            len(_echelon([dict(vec) for vec in vectors]))
            for vectors in (projected, lie, projected + lie)
        )
        return r_zl == r_lie == r_both


def _require_lie_module(algebra: AlgebraStructure, module: Bimodule, what: str,
                        bad: list | None) -> None:
    """Reject a non-Lie bracket, and a module failing the bimodule axioms,
    whose defects ``bad`` are found here unless the caller found them."""
    lie_as_leibniz(algebra)
    if bad is None:
        bad = check_bimodule_axioms(algebra, module)
    if bad:
        raise ValueError(f"{what} ({len(bad)} axiom defects)")


def _ce_complex(
    algebra: AlgebraStructure, module: Bimodule
) -> tuple[dict[int, dict[int, int]], ...]:
    """The Chevalley-Eilenberg d^0, d^1 and d^2 on alternating cochains,
    x.m = -[m, x], as integer columns (Loday-Pirashvili), all from one
    builder of the Leibniz complex of ``symmetric_bimodule(module)``, with
    its rows. Every 0- and 1-cochain is alternating, so d^0 and d^1 are
    the Leibniz ones; column (i < j; k) of d^2, at (position of (i, j)
    among the increasing pairs) * dim M + k, is the Leibniz column at
    (i, j; k) minus the one at (j, i; k). For an alternating f each
    Leibniz term is the CE term: (-1)^p [f(.., ^x_p, ..), x_p] =
    (-1)^{p+1} x_p . f(..), and moving [x_p, x_q] to the front costs
    (-1)^{p-1}, turning (-1)^{q+1} into (-1)^{p+q}. So d_L f = d_CE f, the
    image is alternating and every rank is the CE one."""
    dl, dm = algebra.dim, module.module_dim
    builder = _integer_builder(algebra, symmetric_bimodule(module))
    leibniz = builder.columns(2)
    d2: dict[int, dict[int, int]] = {}
    for pos, (i, j) in enumerate(itertools.combinations(range(dl), 2)):
        for k in range(dm):
            col = dict(leibniz.get((i * dl + j) * dm + k, {}))
            _axpy(col, leibniz.get((j * dl + i) * dm + k, {}), -1)
            if col:
                d2[pos * dm + k] = col
    return builder.columns(0), builder.columns(1), d2


def _h1_h2(cochains: tuple[int, int], columns: Iterable[Iterable[dict]]) -> tuple[int, int]:
    """(dim H^1, dim H^2) from dim C^1, dim C^2 and the integer columns of
    d^0, d^1 and d^2, each ranked by one :func:`_echelon`."""
    r0, r1, r2 = (len(_echelon(list(cols))) for cols in columns)
    return cochains[0] - r1 - r0, cochains[1] - r2 - r1


def lie_ce_h(algebra: AlgebraStructure, module: Bimodule, *,
             _defects: list | None = None) -> tuple[int, int]:
    """(dim H^1, dim H^2) of the Chevalley-Eilenberg complex.

    The algebra must be Lie and only the right action of the bimodule is
    used, checked as a bimodule with zero left action. ``_defects`` is for
    a caller that has run :func:`~leibcohom.algebra.check_bimodule_axioms`
    on that zero-left bimodule already: its result, used instead of a
    second run.
    """
    probe = Bimodule(module.algebra_dim, module.module_dim,
                     tuple({} for _ in module.right_action), module.right_action)
    _require_lie_module(algebra, probe, "right action is not a Lie module action", _defects)
    dl, dm = algebra.dim, module.module_dim
    columns = (cols.values() for cols in _ce_complex(algebra, module))
    return _h1_h2((dl * dm, dl * (dl - 1) // 2 * dm), columns)


def leibniz_h_with_coefficients(algebra: AlgebraStructure, module: Bimodule, *,
                                _defects: list | None = None) -> tuple[int, int]:
    """(dim HL^1, dim HL^2)(G, M) for a Lie algebra G and a Leibniz bimodule M.

    The bimodule axioms are enforced first, so results are only produced
    for coefficient systems where the complex actually squares to zero;
    ``_defects`` is the result of that check when the caller has run it.
    """
    _require_lie_module(algebra, module, "not a Leibniz bimodule", _defects)
    dl, dm = algebra.dim, module.module_dim
    builder = _integer_builder(algebra, module)
    columns = (builder.columns(n).values() for n in range(3))
    return _h1_h2((dl * dm, dl * dl * dm), columns)
