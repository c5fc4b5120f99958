"""The names bench/tracer.py wraps must exist in the package, and the
spans they record must yield every per-layer metric of the benchmark.

The tracer resolves every LAYERS target by name when it installs its
wrappers, so a renamed or deleted function makes every traced benchmark
run fail before the command starts. These tests load the tracer without
installing it, resolve each target by the rule ``Tracer.install`` uses,
and run one traced command in a subprocess against the untraced report.

A count metric is only recorded when a traced command calls the function
it counts, so a change that moves a workload off ``coboundary_matrix``,
``rank`` or ``kernel_basis`` leaves its traced result without those
metrics. The last test feeds bench/run.py's ``layer_values`` the spans of
a graded and of an ungraded traced pass and checks that each one yields
every ``per_layer`` name of BENCHMARK.json.
"""

import importlib
import importlib.util
import inspect
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from leibcohom.algebra import adjoint_bimodule
from leibcohom.catalog import simple_leibniz_sl2
from leibcohom.cli import CLAIMS, main
from leibcohom.cochain import coboundary_matrix

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_target_resolves():
    tracer = load_tracer()
    for layer, targets in tracer.LAYERS.items():
        for target in targets:
            module_name, _, attr = target.partition(".")
            module = importlib.import_module(f"leibcohom.{module_name}")
            if "." not in attr:
                assert callable(getattr(module, attr, None)), f"{layer}: {target}"
                continue
            cls_name, _, method = attr.partition(".")
            cls = getattr(module, cls_name, None)
            assert inspect.isclass(cls), f"{layer}: {target}"
            if method == "*":
                assert any(inspect.isfunction(v) for v in vars(cls).values()), target
            else:
                assert method in vars(cls), f"{layer}: {target}"


def test_counted_results_keep_their_fields():
    # the span counts read .nnz off coboundary_matrix's result
    algebra, _ = simple_leibniz_sl2(2)
    d = coboundary_matrix(algebra, adjoint_bimodule(algebra), 1)
    assert d.nnz == len(d.entries) > 0


def test_traced_report_equals_untraced(tmp_path):
    argv = ["verify-paper", "--m-range", "2..2", "--format", "json"]
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(argv) == 0
    spans = tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, str(TRACER), "--spans", str(spans), "--", *argv],
        capture_output=True, text=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == buf.getvalue()
    layers = {json.loads(line)["layer"] for line in spans.read_text().splitlines()}
    assert {"cli.verify_one", "cohomology.engine"} <= layers
    # every claim's stage is a layer the traced run records, so no row
    # calls a function the tracer could not rewrap
    assert sorted({stage for _, stage, *_ in CLAIMS} - layers) == []


def load_bench_run(monkeypatch):
    # run.py imports its sibling modules by bare name, as when it is run
    # as a script
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_pass(argvs, spans_dir):
    """Run each command under the tracer, its spans in its own file, as
    bench/run.py's traced pass does; return the reports."""
    spans_dir.mkdir()
    outputs = []
    for i, argv in enumerate(argvs):
        proc = subprocess.run(
            [sys.executable, str(TRACER), "--spans", str(spans_dir / f"{i}.jsonl"),
             "--", *argv],
            capture_output=True, cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    return outputs


@pytest.mark.parametrize("workload", ["graded", "ungraded"])
def test_traced_pass_yields_every_per_layer_metric(workload, tmp_path, monkeypatch):
    run = load_bench_run(monkeypatch)
    if workload == "graded":
        invocations = [run.Invocation(
            ("verify-paper", "--m-range", "2..2", "--format", "json"), lambda out: None
        )]
    else:
        # the conjugated workload's commands for its first file: cohomology
        # --n 2 and --n 1 without a grading, then derivations
        seq, _ = run.invocations("conjugated", 1, tmp_path)
        first = seq[0].argv[seq[0].argv.index("--algebra") + 1]
        invocations = [inv for inv in seq if first in inv.argv]
        assert invocations[0].argv[:3] == ("cohomology", "--n", "2")
    outputs = traced_pass([inv.argv for inv in invocations], tmp_path / "spans")
    for inv, out in zip(invocations, outputs):
        assert inv.check(out) is None, inv.argv
    values, _ = run.layer_values(tmp_path / "spans")
    # per_layer() adds the traced minus untraced wall time of a pass
    values["trace.overhead_s"] = 0.0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted({m["name"] for m in declared} - set(values)) == []
