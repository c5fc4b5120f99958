"""The names bench/tracer.py wraps must exist in the package.

The tracer resolves every LAYERS target by name when it installs its
wrappers, so a renamed or deleted function makes every traced benchmark
run fail before the command starts. These tests load the tracer without
installing it, resolve each target by the rule ``Tracer.install`` uses,
and run one traced command in a subprocess against the untraced report.
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

from leibcohom.algebra import adjoint_bimodule
from leibcohom.catalog import simple_leibniz_sl2
from leibcohom.cli import main
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
