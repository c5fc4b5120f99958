"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 bench/compare.py .bench_build/series-parent .bench_build/series-change

Each argument is a directory written by series.py; runs are paired by
seed. Every (metric, workload) pair gets one verdict:

* ``improved``: the change wins at least nine tenths of the pairs (ties
  count for neither) and its median is better than the parent's by more
  than the distance between the parent's quartiles;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json (for a per-layer metric, which has
  no bound: it loses nine tenths of the pairs by more than the parent's
  quartile distance);
* ``unresolved``: neither, and the parent's own spread is wider than the
  bound, unless every run of the change reads better than every run of
  the parent;
* ``unchanged``: otherwise.

The exit code is 1 when any pair is worse or a side has failed runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import quartiles
from series import read_runs
from workloads import NAMES

ROOT = Path.cwd()


def verdict(base: list[float], change: list[float], pairs: list[tuple[float, float]],
            lower_better: bool, bound: float | None) -> tuple[str, int]:
    sign = 1 if lower_better else -1
    wins = sum(sign * (b - a) < 0 for a, b in pairs)
    losses = sum(sign * (b - a) > 0 for a, b in pairs)
    q1, med_a, q3 = quartiles(base)
    worsening = sign * (statistics.median(change) - med_a)
    if wins >= 0.9 * len(pairs) and -worsening > q3 - q1:
        return "improved", wins
    if bound is None:
        lost = losses >= 0.9 * len(pairs) and worsening > q3 - q1
        return ("worse" if lost else "unchanged"), wins
    if worsening > bound * abs(med_a):
        return "worse", wins
    if (q3 - q1) > bound * abs(med_a):
        all_better = max(sign * b for b in change) < min(sign * a for a in base)
        return ("unchanged" if all_better else "unresolved"), wins
    return "unchanged", wins


def main() -> int:
    if len(sys.argv) != 3:
        print("usage: compare.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    base_dir, change_dir = Path(sys.argv[1]), Path(sys.argv[2])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"] == "lower", m["bound"]) for m in spec["end_to_end"]]
    metrics += [(m["name"], m["better"] == "lower", None) for m in spec["per_layer"]]
    status = 0
    print(f"{'workload':<13}{'metric':<26}{'parent q1/med/q3':>32}{'change q1/med/q3':>32}"
          f"{'won':>7}  verdict")
    for workload in NAMES:
        base, change = read_runs(base_dir, workload), read_runs(change_dir, workload)
        if not base or not change:
            continue
        for side, runs in (("parent", base), ("change", change)):
            failed = sum(r["failed"] for r in runs.values())
            if failed:
                status = 1
                print(f"{workload:<13}{side} has {failed} failed operations")
        for name, lower_better, bound in metrics:
            a = {s: r["metrics"][name]["value"] for s, r in base.items() if name in r["metrics"]}
            b = {s: r["metrics"][name]["value"] for s, r in change.items() if name in r["metrics"]}
            seeds = sorted(set(a) & set(b))
            if not seeds:
                continue
            pairs = [(a[s], b[s]) for s in seeds]
            result, wins = verdict(list(a.values()), list(b.values()), pairs,
                                   lower_better, bound)
            if result == "worse":
                status = 1
            cells = ["/".join(f"{q:.4g}" for q in quartiles(list(side.values())))
                     for side in (a, b)]
            print(f"{workload:<13}{name:<26}{cells[0]:>32}{cells[1]:>32}"
                  f"{wins:>4}/{len(pairs):<2}  {result}")
    return status


if __name__ == "__main__":
    sys.exit(main())
