"""Time raw ``leibcohom`` runs of two checkouts against each other.

    python3 tools/rawrun.py PARENT CHANGE --pairs 4 -- verify-paper --m-range 60..60 --format json
    python3 tools/rawrun.py PARENT CHANGE --pairs 10 --json out.json -- derivations --algebra F

Each side is a checkout holding ``src/leibcohom``. A run starts as the
benchmark's runs do, ``python3 -c ENTRY ARGS``, ENTRY being :data:`ENTRY`
(import ``leibcohom.cli``, call its ``main`` on ARGS and exit with its
code) and ARGS every argument after ``--``, so ``cli`` is imported as a
module, not run as ``__main__``. ``PYTHONPATH`` is at that side's
``src``, and the run is started in the current directory (so a relative
path in ARGS names the same file for both sides) as a child of this
small process, which imports nothing of the package: the child's CPU time (user plus system) and peak RSS come
from ``os.wait4``, its wall time from the clock around it. So a run
includes the interpreter's start and the package's imports. Every run
compiles the package from source, as the benchmark's runs do: at start
each side's ``src`` is copied once, without any ``__pycache__``, into a
temporary directory, ``PYTHONPATH`` is at that copy, and the child gets
``PYTHONDONTWRITEBYTECODE=1`` and no ``PYTHONPYCACHEPREFIX``. So an
in-tree cache left by a test run is never read and the copy never gets
one, while the standard library loads from its installed cache, as it
does under ``bench/run.py``. Each pair runs both sides once, the first
side first in even pairs and second in odd ones.

For each side it prints the quartiles and median of the CPU time, the
median wall time, the peak RSS over its runs and the sha256 of its
reports, then the pairs in which the second side used less CPU. The exit
code is 1 when the two sides' reports differ, a side's reports differ
between runs, or a run exits nonzero; else 0. Only the standard library
is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# the child's program, as bench/run.py starts each command
ENTRY = "import sys; from leibcohom.cli import main; sys.exit(main(sys.argv[1:]))"


def run_once(src: Path, command: list[str]) -> dict:
    """One child run on the package copy in ``src``: its CPU and wall
    seconds, peak RSS in MB, exit code and the sha256 of its report."""
    cmd = [sys.executable, "-c", ENTRY, *command]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}
    env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
    report = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 4),
        "wall_s": round(wall, 4),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
        "exit": proc.returncode,
        "sha256": hashlib.sha256(report).hexdigest(),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, by linear interpolation."""
    xs = sorted(values)

    def at(q: float) -> float:
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        usage="%(prog)s FIRST SECOND [--pairs N] [--json FILE] -- LEIBCOHOM_ARGS...")
    parser.add_argument("first", type=Path, help="checkout of the first side (the parent)")
    parser.add_argument("second", type=Path, help="checkout of the second side (the change)")
    parser.add_argument("--pairs", type=int, default=4)
    parser.add_argument("--json", type=Path, help="also write every run to this file")
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args, command = parser.parse_args(argv[:split]), argv[split + 1:]
    if not command:
        parser.error("give the leibcohom arguments after --")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"first": args.first.resolve(), "second": args.second.resolve()}
    for checkout in sides.values():
        if not (checkout / "src" / "leibcohom").is_dir():
            parser.error(f"{checkout} holds no src/leibcohom")

    runs: dict[str, list[dict]] = {name: [] for name in sides}
    with tempfile.TemporaryDirectory(prefix="rawrun-src-") as tmp:
        copies = {name: shutil.copytree(checkout / "src", Path(tmp) / name,
                                        ignore=shutil.ignore_patterns("__pycache__"))
                  for name, checkout in sides.items()}
        for pair in range(args.pairs):
            order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
            for name in order:
                runs[name].append(run_once(copies[name], command))

    print(f"{' '.join(command)}, {args.pairs} pair(s)")
    digests = {}
    for name, checkout in sides.items():
        side = runs[name]
        q1, med, q3 = quartiles([r["cpu_s"] for r in side])
        wall = quartiles([r["wall_s"] for r in side])[1]
        peak = max(r["peak_rss_mb"] for r in side)
        digests[name] = {r["sha256"] for r in side}
        exits = sorted({r["exit"] for r in side})
        print(f"{name:<7} cpu q1/median/q3 {q1:.3f}/{med:.3f}/{q3:.3f} s"
              f"  wall median {wall:.3f} s  peak RSS {peak:.1f} MB  exit {exits}"
              f"  sha256 {', '.join(sorted(d[:8] for d in digests[name]))}  ({checkout})")
    won = sum(b["cpu_s"] < a["cpu_s"] for a, b in zip(runs["first"], runs["second"]))
    print(f"second side used less CPU in {won} of {args.pairs} pair(s)")

    failed = [f"{name} exited {r['exit']}" for name, side in runs.items()
              for r in side if r["exit"]]
    if len(digests["first"]) != 1 or digests["first"] != digests["second"]:
        failed.append("the reports differ")
    if args.json:
        args.json.write_text(json.dumps(
            {"command": command, "pairs": args.pairs, "won": won,
             "sides": {name: {"checkout": str(sides[name]), "runs": runs[name]}
                       for name in sides}}, indent=1) + "\n")
    for problem in failed:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
