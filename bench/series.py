"""Run the benchmark over several seeds and report the spread of each metric.

    python3 bench/series.py --out .bench_build/series-a --seeds 1..10
    python3 bench/series.py --out .bench_build/series-a --workloads conjugated --seeds 1..5

Each run's standard output is kept as ``OUT/<workload>/<seed>.txt``, and
the run context (machine, Python, commit, lines of ``src/``) with the
quartiles of every metric over the runs as ``OUT/summary.json``. For every
end-to-end metric the table gives the median of the runs and the distance
between their first and third quartiles as a share of the median; that
spread must stay within the metric's bound in BENCHMARK.json, and should
stay below a third of it.
Two such directories are compared with compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from run import quartiles
from workloads import NAMES

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent


def read_runs(directory: Path, workload: str) -> dict[int, dict]:
    """Result objects of one workload's runs, by seed."""
    runs = {}
    for path in sorted((directory / workload).glob("*.txt")):
        lines = path.read_text().strip().splitlines()
        if lines:
            try:
                runs[int(path.stem)] = json.loads(lines[-1])
            except ValueError:
                pass
    return runs


def context() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, cwd=ROOT, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "commit": commit,
            "src_lines": src_lines}


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("..")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", default=",".join(NAMES))
    parser.add_argument("--seeds", default="1..10", help="inclusive range a..b")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    args.out.mkdir(parents=True, exist_ok=True)

    workloads = args.workloads.split(",")
    for workload in workloads:
        (args.out / workload).mkdir(exist_ok=True)
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            (args.out / workload / f"{seed}.txt").write_text(proc.stdout)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{workload} seed {seed}: exit {proc.returncode} {last[0]}", flush=True)
            if proc.returncode:
                sys.stderr.write(proc.stderr)

    summary = {"context": context(), "run_seconds": spec["run_seconds"],
               "seeds": args.seeds, "trace": args.trace, "workloads": {}}
    for workload in workloads:
        runs = list(read_runs(args.out, workload).values())
        summary["workloads"][workload] = {
            name: quartiles([r["metrics"][name]["value"] for r in runs])
            for name in (runs[0]["metrics"] if runs else ())
        }
    (args.out / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    if args.trace:
        return 0
    print(f"\n{'workload':<13}{'metric':<13}{'median':>11}{'spread':>9}{'bound':>7}  n")
    worst = 0.0
    for workload in workloads:
        runs = read_runs(args.out, workload)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs.values()]
            if len(values) < 2:
                continue
            q1, med, q3 = quartiles(values)
            share = (q3 - q1) / med
            flag = "" if share < bound / 3 else "  above a third of the bound"
            if name != "setup_s":
                worst = max(worst, share / bound)
            print(f"{workload:<13}{name:<13}{med:>11.4f}{share:>9.3f}{bound:>7.2f}"
                  f"  {len(values)}{flag}")
    return 0 if worst <= 1 else 1


if __name__ == "__main__":
    sys.exit(main())
