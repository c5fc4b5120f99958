"""Seeded basis-conjugated members of the simple Leibniz family sl2 + V_m.

Each generated algebra is the family member m written in a random basis
b'_i = sum_a P[a][i] b_a, where P is an integer matrix that is checked to
be invertible over the rationals. The structure constants in the new
basis are

    c'_{ij}^k = sum_{a,b,t} P[a][i] P[b][j] c_{ab}^t Pinv[k][t],

so a matrix P with determinant other than +-1 gives fractional constants.
The files carry no ``grading`` line, which sends the program down its
ungraded path: full-matrix rank on denser fractional matrices.

The cost of that path depends on the basis, and mostly on how many
nonzero structure constants it produces, so a draw is kept only when the
tensor has between ``NNZ_LOW`` and ``NNZ_HIGH`` times the nonzeros of the
member in its original basis and at least one fractional constant. That
keeps the cost of one seed close to the cost of another.

Everything here is stdlib-only and independent of the program under
test. Run ``python3 bench/conjugate.py --seed 7 --out DIR`` to write the
files of one seed and print their digest.
"""

from __future__ import annotations

import argparse
import hashlib
import random
from fractions import Fraction
from pathlib import Path

MEMBERS = (2, 3, 4)
PER_MEMBER = 6
OFF_DIAGONAL_DENSITY = 0.1
OFF_DIAGONAL_VALUES = (-2, -1, 1, 2)
DIAGONAL_VALUES = (1, 2)
NNZ_LOW, NNZ_HIGH = 3.0, 3.5
MAX_DRAWS = 100_000


def family_tensor(m: int) -> dict[tuple[int, int], dict[int, int]]:
    """Structure constants of sl2 + V_m on (e, f, h, x_0..x_m).

    [e,f] = h, [e,h] = 2e, [h,f] = 2f (and their antisymmetric partners);
    [x_k, e] = -k(m+1-k) x_{k-1}, [x_k, f] = x_{k+1}, [x_k, h] = (m-2k) x_k.
    """
    tensor = {
        (0, 1): {2: 1}, (1, 0): {2: -1},
        (0, 2): {0: 2}, (2, 0): {0: -2},
        (2, 1): {1: 2}, (1, 2): {1: -2},
    }
    for k in range(m + 1):
        x = 3 + k
        if k >= 1:
            tensor[(x, 0)] = {x - 1: -k * (m + 1 - k)}
        if k <= m - 1:
            tensor[(x, 1)] = {x + 1: 1}
        if m != 2 * k:
            tensor[(x, 2)] = {x: m - 2 * k}
    return tensor


def inverse(matrix: list[list[int]]) -> list[list[Fraction]] | None:
    """Exact inverse by Gauss-Jordan elimination, or None if singular."""
    n = len(matrix)
    rows = [
        [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c]), None)
        if p is None:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        pv = rows[c][c]
        rows[c] = [v / pv for v in rows[c]]
        for r in range(n):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def conjugate(
    tensor: dict[tuple[int, int], dict[int, int]],
    p: list[list[int]],
    p_inv: list[list[Fraction]],
) -> dict[tuple[int, int, int], Fraction]:
    """Structure constants in the basis given by the columns of ``p``."""
    n = len(p)
    out: dict[tuple[int, int, int], Fraction] = {}
    for i in range(n):
        for j in range(n):
            acc: dict[int, Fraction] = {}
            for a in range(n):
                if not p[a][i]:
                    continue
                for b in range(n):
                    if not p[b][j]:
                        continue
                    for t, c in tensor.get((a, b), {}).items():
                        scale = p[a][i] * p[b][j] * c
                        for k in range(n):
                            if p_inv[k][t]:
                                acc[k] = acc.get(k, 0) + scale * p_inv[k][t]
            for k, v in acc.items():
                if v:
                    out[(i, j, k)] = v
    return out


def random_basis(n: int, rng: random.Random) -> list[list[int]]:
    """An integer matrix with a nonzero diagonal and sparse off-diagonal part."""
    def entry(i: int, j: int) -> int:
        if i == j:
            return rng.choice(DIAGONAL_VALUES)
        if rng.random() < OFF_DIAGONAL_DENSITY:
            return rng.choice(OFF_DIAGONAL_VALUES)
        return 0

    return [[entry(i, j) for j in range(n)] for i in range(n)]


def draw(m: int, rng: random.Random) -> str:
    """One conjugated member m as an ungraded structure file."""
    tensor = family_tensor(m)
    n = m + 4
    base_nnz = sum(len(v) for v in tensor.values())
    low, high = NNZ_LOW * base_nnz, NNZ_HIGH * base_nnz
    for _ in range(MAX_DRAWS):
        p = random_basis(n, rng)
        p_inv = inverse(p)
        if p_inv is None:
            continue
        consts = conjugate(tensor, p, p_inv)
        if low <= len(consts) <= high and any(v.denominator > 1 for v in consts.values()):
            break
    else:
        raise RuntimeError(f"no basis with the target density found for m={m}")
    lines = ["algebra-file 1", f"dim {n}", "basis " + " ".join(f"b{i}" for i in range(n))]
    lines += [f"product {i} {j} {k} {v}" for (i, j, k), v in sorted(consts.items())]
    return "\n".join(lines) + "\n"


def generate(seed: int, out_dir: Path) -> tuple[list[tuple[int, Path]], str]:
    """Write PER_MEMBER conjugates of every member; return (m, path) pairs
    and the sha256 digest over all file names and contents."""
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    files = []
    for m in MEMBERS:
        for c in range(PER_MEMBER):
            text = draw(m, rng)
            path = out_dir / f"m{m}_{c}.alg"
            path.write_text(text)
            digest.update(path.name.encode() + b"\0" + text.encode())
            files.append((m, path))
    return files, digest.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    files, digest = generate(args.seed, args.out)
    print(f"{len(files)} files in {args.out}, sha256 {digest}")


if __name__ == "__main__":
    main()
