"""The leibcohom benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload paper_range --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each command of the workload (see workloads.py) runs as its own process,
one at a time, with one worker (LEIBCOHOM_WORKERS unset). A pass is the
workload's whole command sequence; passes repeat until the next one
would end after ``--seconds``, and every output of every pass is checked.

With ``--trace 0`` the end-to-end metrics are reported:

* ``wall_s``: wall seconds of one pass, median over the passes;
* ``cpu_s``: user plus system CPU seconds of one pass's processes, from
  ``os.wait4``, median over the passes;
* ``peak_rss_mb``: the largest ``ru_maxrss`` of any process in the run;
* ``setup_s``: interpreter start plus ``import leibcohom.cli``, median
  of SETUP_PER_PASS processes before each pass that do no algebra work.

The three times are scaled to a machine of fixed speed. The speed
probe (speed.py) runs in a process of its own before every pass and
after every PROBE_EVERY_S seconds of its commands. A pass's wall times,
and those of the set-up samples before it, are multiplied by its scale:
speed.NOMINAL_S over the median wall time of the probes taken between
the end of the pass before it and the start of the pass after it; its
CPU time is multiplied by the same ratio for the probes' CPU time, since
time the host takes the processor away shows in wall time but not in
CPU time. On a shared host the speed of one process drifts by a third
or more within minutes; the probe drifts with it, so the scaled times
hold still while a change in the program's own work still shows in
full. The table printed before the result gives the quartiles over
passes of the measured (unscaled) times and of the two scales.

With ``--trace 1`` each command runs untraced and traced (in-process
through ``cli.main`` under tracer.py), in turn; the traced reports must be
byte-identical to the untraced ones. The per-layer metrics are self
seconds per layer (a span's duration minus that of its child spans), call
and size counts, the seconds of each value of m in ``verify-paper``, the
share of ``cli.main`` time the layer spans cover, and the traced minus the
untraced wall time of a pass (median over pairs). Spans are kept as JSON
lines under ``.bench_build/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
1 when an output is wrong, and 2 when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from speed import NOMINAL_S
from tracer import LAYERS
from workloads import NAMES, Invocation, invocations

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
ENTRY = "import sys; from leibcohom.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_PER_PASS = 3
PROBE_EVERY_S = 2.0
VERIFY_MS = (*range(2, 13), 20)
LAYER_NAMES = tuple(layer for layer in LAYERS if not layer.startswith("cli."))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("LEIBCOHOM_WORKERS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(cmd: list[str], env: dict[str, str], stderr_path: Path):
    """Run one process to its end; return (wall s, cpu s, maxrss KB, exit
    code, stdout bytes)."""
    with open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode, out


def setup_sample(env: dict[str, str], work: Path) -> float:
    """Seconds to start the interpreter and import the CLI, doing no algebra."""
    wall, _, _, code, _ = spawn([sys.executable, "-c", "import leibcohom.cli"], env,
                                work / "stderr.txt")
    if code != 0:
        sys.stderr.write((work / "stderr.txt").read_text())
        raise SystemExit("error: cannot import leibcohom.cli from src/")
    return wall


def probe(env: dict[str, str], work: Path) -> tuple[float, float]:
    """Wall and CPU seconds the speed probe takes now, timed inside its own
    process."""
    _, _, _, code, out = spawn([sys.executable, str(BENCH / "speed.py")], env,
                               work / "stderr.txt")
    if code != 0:
        sys.stderr.write((work / "stderr.txt").read_text())
        raise SystemExit("error: the speed probe failed")
    wall, cpu = map(float, out.split())
    return wall, cpu


class Pass:
    """Measurements of one run of a workload's command sequence."""

    def __init__(self) -> None:
        self.start = self.end = 0.0  # perf_counter() at the first start and last end
        self.wall = 0.0
        self.cpu = 0.0
        self.rss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.outputs: list[bytes] = []

    def run(self, inv: Invocation, cmd: list[str], env: dict[str, str], work: Path) -> None:
        """Run one command line of the sequence and check its output."""
        wall, cpu, rss, code, out = spawn(cmd, env, work / "stderr.txt")
        self.wall += wall
        self.cpu += cpu
        self.rss_kb = max(self.rss_kb, rss)
        self.attempted += 1
        problem = f"exit code {code}" if code != 0 else inv.check(out)
        if problem:
            self.failed += 1
            print(f"FAILED {' '.join(inv.argv)}: {problem}", file=sys.stderr)
            sys.stderr.write((work / "stderr.txt").read_text()[-2000:])
        self.outputs.append(out)


def plain_cmd(inv: Invocation) -> list[str]:
    return [sys.executable, "-c", ENTRY, *inv.argv]


def traced_cmd(inv: Invocation, spans: Path) -> list[str]:
    return [sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans), "--", *inv.argv]


def run_pass(seq: list[Invocation], env: dict[str, str], work: Path,
             probes: list[tuple[float, float, float]]) -> Pass:
    """Run the sequence once, timing the speed probe after every
    PROBE_EVERY_S seconds of commands and appending (perf_counter() at its
    start, its wall time, its CPU time) to ``probes``."""
    result = Pass()
    result.start = perf_counter()
    since_probe = 0.0
    for inv in seq:
        before = result.wall
        result.run(inv, plain_cmd(inv), env, work)
        result.end = perf_counter()
        since_probe += result.wall - before
        while since_probe >= PROBE_EVERY_S:
            probes.append((perf_counter(), *probe(env, work)))
            since_probe -= PROBE_EVERY_S
    return result


def repeat(seconds: float, step) -> list:
    """Call step() until the next call would end after ``seconds``."""
    results, durations = [], []
    start = perf_counter()
    while True:
        t = perf_counter()
        results.append(step())
        durations.append(perf_counter() - t)
        if perf_counter() - start + statistics.median(durations) > seconds:
            return results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(seq, env, work, seconds) -> tuple[dict, int, int]:
    probes: list[tuple[float, float, float]] = []

    def step() -> tuple[Pass, list[float]]:
        # set-up samples and probes are spread over the run, so that each
        # sees the same machine as the pass it is taken with
        probes.append((perf_counter(), *probe(env, work)))
        setup = [setup_sample(env, work) for _ in range(SETUP_PER_PASS)]
        return run_pass(seq, env, work, probes), setup

    passes_setup = repeat(seconds, step)
    passes = [p for p, _ in passes_setup]
    # a pass's probes: those from the end of the pass before it to the start
    # of the pass after it
    ends = [0.0] + [p.end for p in passes[:-1]]
    starts = [p.start for p in passes[1:]] + [perf_counter()]
    near = [[(wall, cpu) for t, wall, cpu in probes if lo <= t <= hi]
            for lo, hi in zip(ends, starts)]
    scales = [NOMINAL_S / statistics.median(wall for wall, _ in pool) for pool in near]
    cpu_scales = [NOMINAL_S / statistics.median(cpu for _, cpu in pool) for pool in near]
    measured = {
        "wall_s": [p.wall for p in passes],
        "cpu_s": [p.cpu for p in passes],
        "setup_s": [t for _, setup in passes_setup for t in setup],
        "scale": scales,
        "cpu_scale": cpu_scales,
    }
    scaled = {
        "wall_s": [p.wall * scale for p, scale in zip(passes, scales)],
        "cpu_s": [p.cpu * scale for p, scale in zip(passes, cpu_scales)],
        "setup_s": [t * scale for (_, setup), scale in zip(passes_setup, scales)
                    for t in setup],
    }
    metrics = {name: {"value": statistics.median(values), "unit": "s"}
               for name, values in scaled.items()}
    # the peak is the largest process of the whole run, not a typical pass
    metrics["peak_rss_mb"] = {"value": max(p.rss_kb for p in passes) / 1024, "unit": "MB"}
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"{len(passes)} passes of {len(seq)} commands, "
          f"{len(measured['setup_s'])} set-up samples")
    print(f"{'metric':<14}{'value':>12}  unit  {'measured q1':>12}{'median':>10}{'q3':>10}   n")
    for name, values in measured.items():
        q1, med, q3 = quartiles(values)
        value, unit = metrics[name].values() if name in metrics else (med, "")
        print(f"{name:<14}{value:>12.4f}  {unit:<5}{q1:>12.4f}{med:>10.4f}{q3:>10.4f}"
              f"  {len(values):>2}")
    print(f"{'peak_rss_mb':<14}{metrics['peak_rss_mb']['value']:>12.4f}  MB")
    print(f"{'failed_frac':<14}{failed / attempted:>12.4f}  fraction ({failed} of {attempted})")
    return metrics, attempted, failed


COUNT_METRICS = ("cochain.assemble_nnz", "linalg.kernel_calls", "linalg.kernel_dim",
                 "linalg.rank_calls", "linalg.rank_in_nnz")


def layer_values(spans_dir: Path) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Per-layer metrics of one traced pass, from its span files, and a
    table of [calls, total seconds, self seconds] by layer."""
    table: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    values: dict[str, float] = defaultdict(float)
    for path in sorted(spans_dir.glob("*.jsonl")):
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        child_s: dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        layer_of = {s["id"]: s["layer"] for s in spans}
        for s in spans:
            dur = s["end"] - s["start"]
            row = table[s["layer"]]
            row[0] += 1
            if layer_of.get(s["parent"]) != s["layer"]:  # outermost span of its layer
                row[1] += dur
            row[2] += dur - child_s[s["id"]]
            fn = s["fn"]
            if fn == "cli._verify_one":
                values[f"cli.verify_one_s.m{s['m']}"] += dur
            elif fn == "cochain.coboundary_matrix":
                values["cochain.assemble_nnz"] += s["nnz"]
            elif fn == "linalg.kernel_basis":
                values["linalg.kernel_calls"] += 1
                values["linalg.kernel_dim"] += s["dim"]
            elif fn == "linalg.rank":
                values["linalg.rank_calls"] += 1
                values["linalg.rank_in_nnz"] += s["in_nnz"]
    for layer in LAYER_NAMES:
        values[f"{layer}_s"] = table[layer][2]
    for m in VERIFY_MS:
        values.setdefault(f"cli.verify_one_s.m{m}", 0.0)
    cli_self = table["cli.main"][2] + table["cli.verify_one"][2]
    main_s = table["cli.main"][1]
    values["cli.self_s"] = cli_self
    values["trace.coverage"] = 1 - cli_self / main_s if main_s else 0.0
    return dict(values), dict(table)


def per_layer(seq, env, work, seconds) -> tuple[dict, int, int]:
    spans_root = work / "spans"
    shutil.rmtree(spans_root, ignore_errors=True)
    numbers = itertools.count(1)

    def pair():
        # each command runs untraced and traced back to back, so that both
        # see the same machine; which goes first alternates between pairs
        number = next(numbers)
        spans_dir = spans_root / f"pass{number}"
        spans_dir.mkdir(parents=True)
        plain, traced = Pass(), Pass()
        for i, inv in enumerate(seq):
            runs = [(plain, plain_cmd(inv)), (traced, traced_cmd(inv, spans_dir / f"{i}.jsonl"))]
            for side, cmd in runs[::1 if number % 2 else -1]:
                side.run(inv, cmd, env, work)
        changed = sum(a != b for a, b in zip(plain.outputs, traced.outputs))
        if changed:
            print(f"FAILED {changed} traced reports differ from the untraced ones",
                  file=sys.stderr)
        return plain, traced, changed, *layer_values(spans_dir)

    pairs = repeat(seconds, pair)
    attempted = sum(p.attempted + t.attempted for p, t, *_ in pairs)
    failed = sum(p.failed + t.failed + c for p, t, c, *_ in pairs)
    metrics = {}
    for name in pairs[0][3]:
        value = statistics.median(v[name] for *_, v, _ in pairs)
        unit = ("count" if name in COUNT_METRICS
                else "fraction" if name == "trace.coverage" else "s")
        metrics[name] = {"value": int(value) if unit == "count" else value, "unit": unit}
    overhead = statistics.median(t.wall - p.wall for p, t, *_ in pairs)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}

    print(f"{len(pairs)} untraced/traced pass pairs; spans in {spans_root}")
    main_s = statistics.median(t["cli.main"][1] for *_, t in pairs)
    print(f"{'layer':<22}{'calls':>8}{'total s':>10}{'self s':>10}{'self share':>12}")
    for layer in ("cli.main", "cli.verify_one", *LAYER_NAMES):
        calls, total, own = (statistics.median(t[layer][i] for *_, t in pairs) for i in range(3))
        print(f"{layer:<22}{calls:>8.0f}{total:>10.4f}{own:>10.4f}{own / main_s:>12.1%}")
    print(f"{'other metric':<30}{'value':>14}  unit")
    layer_metrics = {f"{layer}_s" for layer in LAYER_NAMES}
    for name in sorted(metrics):
        if name not in layer_metrics:
            print(f"{name:<30}{metrics[name]['value']:>14.4f}  {metrics[name]['unit']}")
    return metrics, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description="leibcohom benchmark")
    parser.add_argument("--workload", choices=NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "leibcohom" / "cli.py").is_file():
        print(f"error: no leibcohom sources under {ROOT / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    work = ROOT / ".bench_build" / f"{args.workload}-{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    env = child_env()

    t0 = perf_counter()
    setup_sample(env, work)  # fills the bytecode cache, which users do not pay for each run
    seq, inputs = invocations(args.workload, args.seed, work)
    print(f"workload {args.workload}, seed {args.seed}: {inputs}; "
          f"set-up and inputs took {perf_counter() - t0:.2f} s")
    if args.trace:
        metrics, attempted, failed = per_layer(seq, env, work, args.seconds)
    else:
        metrics, attempted, failed = end_to_end(seq, env, work, args.seconds)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
