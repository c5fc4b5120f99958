"""Smoke tests of tools/claimtime.py at m=2."""

import json
import subprocess
import sys
from pathlib import Path

from leibcohom.claims import _DEEP_ONLY, CLAIMS

ROOT = Path(__file__).resolve().parent.parent
CLAIMTIME = ROOT / "tools" / "claimtime.py"


def claimtime(*args):
    return subprocess.run([sys.executable, str(CLAIMTIME), *args],
                          capture_output=True, text=True)


def test_every_claim_in_table_order():
    proc = claimtime("--m", "2")
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [line["id"] for line in lines] == [cid for cid, *_ in CLAIMS if cid != _DEEP_ONLY]
    assert {line["status"] for line in lines} == {"pass"}
    assert all(line["cpu_s"] >= 0 for line in lines)
    assert lines[0]["setup_cpu_s"] >= 0
    assert all("setup_cpu_s" not in line for line in lines[1:])
    rss = [line["maxrss_mb"] for line in lines]
    assert rss[0] > 0
    assert rss == sorted(rss)


def test_chosen_claims_keep_table_order():
    proc = claimtime("--m", "2", "--claims", "der_equals_zl1,der_dim,d3d2_zero")
    assert proc.returncode == 0, proc.stderr
    ids = [json.loads(line)["id"] for line in proc.stdout.splitlines()]
    assert ids == ["d3d2_zero", "der_dim", "der_equals_zl1"]


def test_unknown_claim_exits_2():
    proc = claimtime("--m", "2", "--claims", "der_dim,no_such_claim")
    assert proc.returncode == 2
    assert "unknown claim id(s): no_such_claim" in proc.stderr
    assert proc.stdout == ""
