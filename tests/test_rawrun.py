"""Smoke tests of tools/rawrun.py on small commands, one pair."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAWRUN = ROOT / "tools" / "rawrun.py"


def rawrun(*args):
    return subprocess.run([sys.executable, str(RAWRUN), *map(str, args)],
                          capture_output=True, text=True)


def test_same_checkout_on_both_sides(tmp_path):
    out = tmp_path / "runs.json"
    proc = rawrun(ROOT, ROOT, "--pairs", "1", "--json", out,
                  "--", "verify-paper", "--m-range", "2..2", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "verify-paper --m-range 2..2 --format json, 1 pair(s)"
    assert lines[1].startswith("first ") and lines[2].startswith("second ")
    assert "peak RSS" in lines[1] and "sha256" in lines[1]
    assert re.fullmatch(r"second side used less CPU in [01] of 1 pair\(s\)", lines[3])
    record = json.loads(out.read_text())
    assert record["command"] == ["verify-paper", "--m-range", "2..2", "--format", "json"]
    runs = [record["sides"][side]["runs"] for side in ("first", "second")]
    assert [len(r) for r in runs] == [1, 1]
    assert runs[0][0]["sha256"] == runs[1][0]["sha256"]
    assert runs[0][0]["exit"] == 0 and runs[0][0]["peak_rss_mb"] > 0


def test_differing_reports_exit_1(tmp_path):
    # a copy whose report names one claim differently
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    table = tmp_path / "src" / "leibcohom" / "claims.py"
    text = table.read_text()
    assert text.count('("squares_dim",') == 1
    table.write_text(text.replace('("squares_dim",', '("squares_dimension",'))
    proc = rawrun(ROOT, tmp_path, "--pairs", "1", "--", "verify-paper", "--m-range", "2..2")
    assert proc.returncode == 1
    assert "error: the reports differ" in proc.stderr


def test_rejects_a_directory_without_the_package(tmp_path):
    proc = rawrun(ROOT, tmp_path, "--pairs", "1", "--", "verify-paper", "--m-range", "2..2")
    assert proc.returncode == 2
    assert "holds no src/leibcohom" in proc.stderr


def test_times_a_per_file_command(tmp_path):
    # a relative path after -- names the same file for both sides
    (tmp_path / "plain.alg").write_text("algebra-file 1\ndim 1\nbasis a\n")
    proc = subprocess.run([sys.executable, str(RAWRUN), ROOT, ROOT, "--pairs", "1", "--",
                           "derivations", "--algebra", "plain.alg", "--format", "json"],
                          capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == (
        "derivations --algebra plain.alg --format json, 1 pair(s)")


def test_needs_a_command_after_the_separator():
    for args in ([], ["--"]):
        proc = rawrun(ROOT, ROOT, "--pairs", "1", *args)
        assert proc.returncode == 2
        assert "give the leibcohom arguments after --" in proc.stderr


def run_fake_side(tmp_path, cli_source, *command):
    """rawrun with a fake checkout, whose ``leibcohom/cli.py`` is
    ``cli_source``, on both sides, one pair, in ``tmp_path``; rawrun
    inherits bytecode writing on and a pycache prefix ``tmp_path/cache``."""
    package = tmp_path / "fake" / "src" / "leibcohom"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(cli_source)
    fake = tmp_path / "fake"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(tmp_path / "cache")
    proc = subprocess.run(
        [sys.executable, str(RAWRUN), fake, fake, "--pairs", "1", "--", *command],
        capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    return fake


def test_runs_start_as_the_benchmark_does(tmp_path):
    # the child imports cli as a module and calls its main on the
    # arguments after --, with the -c program as argv[0]
    run_fake_side(
        tmp_path,
        "import json, sys\n"
        "def main(argv):\n"
        "    with open('argv.txt', 'a') as out:\n"
        "        print(json.dumps([__name__, sys.argv, argv]), file=out)\n"
        "    return 0\n",
        "cohomology", "--n", "1")
    lines = (tmp_path / "argv.txt").read_text().splitlines()
    expected = ["leibcohom.cli", ["-c", "cohomology", "--n", "1"], ["cohomology", "--n", "1"]]
    assert [json.loads(line) for line in lines] == [expected, expected]


def test_runs_compile_from_source(tmp_path):
    # a fake side whose cli records, in the current directory, what the
    # child sees of the bytecode cache and where it was imported from
    fake = run_fake_side(
        tmp_path,
        "import sys\n"
        "with open('seen.txt', 'a') as out:\n"
        "    print(sys.pycache_prefix, bool(sys.flags.dont_write_bytecode), __file__,\n"
        "          file=out)\n"
        "def main(argv):\n"
        "    return 0\n",
        "x")
    lines = (tmp_path / "seen.txt").read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        prefix, flag, imported = line.split(" ")
        # no pycache prefix, the inherited one included, and no bytecode written
        assert (prefix, flag) == ("None", "True")
        # the package was imported from a copy outside the checkout
        assert not Path(imported).resolve().is_relative_to(fake.resolve())
        assert Path(imported).name == "cli.py"
    assert not list(fake.rglob("__pycache__"))
