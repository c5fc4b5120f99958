"""A fixed probe of how fast this machine runs Python right now.

The benchmark runs on shared hosts whose speed for one process drifts by
a third or more within minutes, as neighbours come and go; user CPU time
drifts with it. run.py times the probe between the workload's commands
and reports its times scaled to a machine on which the probe takes
NOMINAL_S seconds, wall and CPU alike, so that the drift cancels while a
change in the program's own work does not. The probe runs in a process
of its own, so that its memory does not show in the peak RSS of the
program's processes.

The probe is stdlib-only and independent of the program under test, and
does the two kinds of work the program's cost is made of: exact sparse
elimination over Fractions in dict rows, and the assembly of a large
dict keyed by tuples. Its inputs are fixed; only its time varies.

    python3 bench/speed.py            # prints the wall and CPU seconds of one probe
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter, process_time

# about the probe's median time on the 2-vCPU Intel Xeon host of bench/baseline.json
NOMINAL_S = 0.22

_SIZE = 36
_DENSITY = 0.3
_ELIMINATIONS = 3
_TABLE_ENTRIES = 200_000


def _matrix() -> list[dict[int, Fraction]]:
    rng = random.Random(1502_00609)
    return [
        {j: Fraction(rng.choice((-2, -1, 1, 2))) for j in range(_SIZE) if rng.random() < _DENSITY}
        for _ in range(_SIZE)
    ]


_MATRIX = _matrix()


def _rank(rows: list[dict[int, Fraction]]) -> int:
    rows = [dict(row) for row in rows]
    rank = 0
    for c in range(_SIZE):
        pivot = next((r for r in range(rank, len(rows)) if rows[r].get(c)), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        inv = 1 / prow[c]
        for r in range(rank + 1, len(rows)):
            f = rows[r].get(c)
            if not f:
                continue
            f *= inv
            row = rows[r]
            for k, v in prow.items():
                nv = row.get(k, 0) - f * v
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
        rank += 1
    return rank


def probe() -> tuple[float, float]:
    """Wall and CPU seconds one run of the probe takes now."""
    start, start_cpu = perf_counter(), process_time()
    for _ in range(_ELIMINATIONS):
        _rank(_MATRIX)
    table: dict[tuple[int, int, int], int] = {}
    for i in range(_TABLE_ENTRIES):
        key = (i % 331, (i * 7) % 1009, i % 13)
        table[key] = table.get(key, 0) + i
    return perf_counter() - start, process_time() - start_cpu


if __name__ == "__main__":
    print(*map(repr, probe()))
