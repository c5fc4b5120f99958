"""The benchmark's workloads: the command sequence of each and the check
of every output.

Every workload is a closed loop with one client: one ``leibcohom``
command at a time, each in its own process, the next one started when
the previous one has exited.

* ``paper_range``: ``verify-paper --m-range 2..12``, the acceptance
  range of the paper reproduction. It spreads its cost over every module
  and carries the fixed per-m costs (checks, derivations, the Lie
  Chevalley-Eilenberg comparison).
* ``large_m20``: ``verify-paper --m-range 20..20``, the scaling rung where
  d^2 is 331,776 x 13,824. Graded kernels and ranks, d^2 assembly and
  graded extraction carry the cost.
* ``conjugated``: members m = 2..4 in seeded random bases, without a
  grading, each through ``cohomology --n 2``, ``cohomology --n 1`` and
  ``derivations``. This is the ungraded file-input path: full-matrix
  rank on fractional matrices, no graded blocks and no claims, so a
  graded-block optimisation should leave it unchanged.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from conjugate import generate

# sha256 of the JSON reports of the seed commit; byte identity of these
# reports is the program's own reproducibility contract.
PAPER_RANGE_SHA256 = "a306f5a50cdfa49f81c4e3dbe51db33d64b00651f7ca7114aaabf19c5f861de8"
LARGE_M20_SHA256 = "7c82cf931c5df5f362bfc93cd6d4d2100dbeaf59215d938a3f6a9b9999d51e13"

NAMES = ("paper_range", "large_m20", "conjugated")

Check = Callable[[bytes], "str | None"]


@dataclass(frozen=True)
class Invocation:
    """One command line and the check of its standard output; the check
    returns None when the output is right, else what is wrong."""

    argv: tuple[str, ...]
    check: Check


def _digest_check(expected: str) -> Check:
    def check(out: bytes) -> str | None:
        got = hashlib.sha256(out).hexdigest()
        return None if got == expected else f"report sha256 {got}, expected {expected}"

    return check


def _dims_check(expected: dict[str, int]) -> Check:
    def check(out: bytes) -> str | None:
        try:
            payload = json.loads(out)
        except ValueError:
            return "output is not JSON"
        got = {key: payload.get(key) for key in expected}
        return None if got == expected else f"got {got}, expected {expected}"

    return check


def closed_forms(m: int) -> tuple[int, int]:
    """(dim ZL^2 = dim BL^2, dim Der) of sl2 + V_m, from the paper.

    Both are invariant under a change of basis. dim BL^1 is 3 for every
    m: the inner derivations are the right multiplications, which vanish
    on V_m and are faithful on sl2.
    """
    z2 = 31 if m == 2 else (m + 4) ** 2 - 4
    der = 5 if m == 2 else 4
    return z2, der


def invocations(name: str, seed: int, workdir: Path) -> tuple[list[Invocation], str]:
    """The command sequence of one workload and a description of its
    inputs (the digest of the generated files, where there are any)."""
    if name == "paper_range":
        argv = ("verify-paper", "--m-range", "2..12", "--format", "json")
        return [Invocation(argv, _digest_check(PAPER_RANGE_SHA256))], "fixed input"
    if name == "large_m20":
        argv = ("verify-paper", "--m-range", "20..20", "--format", "json")
        return [Invocation(argv, _digest_check(LARGE_M20_SHA256))], "fixed input"
    if name == "conjugated":
        files, digest = generate(seed, workdir / f"conjugated-{seed}")
        seq = []
        for m, path in files:
            z2, der = closed_forms(m)
            alg = ("--algebra", str(path), "--format", "json")
            seq += [
                Invocation(
                    ("cohomology", "--n", "2", *alg),
                    _dims_check({"dim_z": z2, "dim_b": z2, "dim_h": 0}),
                ),
                Invocation(
                    ("cohomology", "--n", "1", *alg),
                    _dims_check({"dim_z": der, "dim_b": 3, "dim_h": der - 3}),
                ),
                Invocation(("derivations", *alg), _dims_check({"dim": der})),
            ]
        return seq, f"{len(files)} conjugated files, sha256 {digest}"
    raise ValueError(f"unknown workload {name!r}")
