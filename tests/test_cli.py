"""Command line interface: exit codes, JSON payloads, determinism."""

import csv
import io
import json

import pytest

from leibcohom.catalog import dumps_algebra, save_algebra, simple_leibniz_sl2, sl2
from leibcohom.cli import main


def run_err(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run(capsys, argv):
    code, out, _ = run_err(capsys, argv)
    return code, out


@pytest.fixture
def badly_graded(tmp_path):
    """sl2 with the grading 0 0 1, which [e, h] = 2e does not respect."""
    path = tmp_path / "badly_graded.alg"
    text = dumps_algebra(sl2()).replace("basis e f h\n", "basis e f h\ngrading 0 0 1\n")
    path.write_text(text)
    return path


class TestCheck:
    def test_builtin_ok(self, capsys):
        code, out = run(capsys, ["check", "--m", "2"])
        assert code == 0
        assert "holds" in out
        assert "grading respected" in out

    def test_algebra_file_ok(self, capsys, tmp_path):
        path = tmp_path / "family.alg"
        algebra, grading = simple_leibniz_sl2(3)
        save_algebra(algebra, grading, path)
        code, out = run(capsys, ["check", "--algebra", str(path)])
        assert code == 0

    def test_identity_violation_exits_1(self, capsys, tmp_path):
        path = tmp_path / "broken.alg"
        path.write_text(
            "algebra-file 1\ndim 2\nbasis a b\n"
            "product 0 1 0 1\nproduct 1 0 1 1\n"
        )
        code, out = run(capsys, ["check", "--algebra", str(path)])
        assert code == 1
        assert "FAILS" in out

    def test_parse_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.alg"
        path.write_text("algebra-file 1\ndim 2\nbasis a b\nproduct 0 0 9 1\n")
        code, _ = run(capsys, ["check", "--algebra", str(path)])
        assert code == 2

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _ = run(capsys, ["check", "--algebra", str(tmp_path / "nope.alg")])
        assert code == 2

    def test_invalid_m_exits_2(self, capsys):
        code, _ = run(capsys, ["check", "--m", "1"])
        assert code == 2

    def test_bad_grading_exits_1(self, capsys, badly_graded):
        code, out = run(capsys, ["check", "--algebra", str(badly_graded)])
        assert code == 1
        assert "NOT respected" in out


class TestCohomology:
    def test_json_payload(self, capsys):
        code, out = run(capsys, ["cohomology", "--m", "2", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["dim_z"] == 31
        assert payload["dim_b"] == 31
        assert payload["dim_h"] == 0

    def test_graded_json(self, capsys):
        code, out = run(
            capsys, ["cohomology", "--m", "3", "--graded", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["per_degree"]["0"] == {"dim_z": 21, "dim_b": 21, "dim_h": 0}

    def test_blocks_json(self, capsys):
        code, out = run(
            capsys, ["cohomology", "--m", "2", "--blocks", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        rows = {(r["degree"], tuple(r["blocks"])): r for r in payload["blocks"]}
        assert rows[(0, ("G*I",))]["projection_dim"] == 0
        assert rows[(0, ("G*G",))]["projection_dim"] == 6
        assert rows[(0, ("I*G",))]["supported_dim"] == 8
        assert rows[(-1, ("G*I",))]["projection_injective"] is True

    def test_n1_dimensions(self, capsys):
        code, out = run(
            capsys, ["cohomology", "--m", "2", "--n", "1", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        # ZL^1 = Der has dimension 5 at m = 2; BL^1 = L minus its left
        # annihilator
        assert payload["dim_z"] == 5
        assert payload["dim_h"] == payload["dim_z"] - payload["dim_b"]

    def test_blocks_require_n2(self, capsys):
        code, _ = run(capsys, ["cohomology", "--m", "2", "--blocks", "--n", "1"])
        assert code == 2

    def test_graded_requires_grading(self, capsys, tmp_path):
        path = tmp_path / "plain.alg"
        save_algebra(sl2(), None, path)
        code, _ = run(capsys, ["cohomology", "--algebra", str(path), "--graded"])
        assert code == 2

    def test_ungraded_totals_work(self, capsys, tmp_path):
        path = tmp_path / "plain.alg"
        save_algebra(sl2(), None, path)
        code, out = run(
            capsys, ["cohomology", "--algebra", str(path), "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["dim_h"] == 0

    @pytest.mark.parametrize("extra", [[], ["--graded"]])
    def test_bad_grading_exits_2(self, capsys, badly_graded, extra):
        code, out, err = run_err(capsys, ["cohomology", "--algebra", str(badly_graded), *extra])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "grading" in err

    def test_blocks_need_degrees_0_and_1(self, capsys, tmp_path):
        # a valid grading of sl2, but not one the G/I blocks are defined for
        path = tmp_path / "sl2_weights.alg"
        path.write_text(
            dumps_algebra(sl2()).replace("basis e f h\n", "basis e f h\ngrading 1 -1 0\n")
        )
        code, out, err = run_err(
            capsys, ["cohomology", "--algebra", str(path), "--blocks", "--format", "json"]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "{0, 1}" in err

    def test_csv_format(self, capsys):
        code, out = run(capsys, ["cohomology", "--m", "2", "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["key", "value"]
        table = {key: value for key, value in rows[1:]}
        assert table["dim_z"] == "31"


class TestDerivations:
    def test_m2_json(self, capsys):
        code, out = run(capsys, ["derivations", "--m", "2", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 5
        assert payload["delta_generator"] == {"0,0": "1", "1,2": "1", "2,1": "1/2"}
        assert len(payload["basis_decompositions"]) == 5
        assert all(row["exact"] for row in payload["basis_decompositions"])

    def test_m4_json(self, capsys):
        code, out = run(capsys, ["derivations", "--m", "4", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 4
        assert payload["delta_generator"] is None

    def test_ungraded_gives_dimension_only(self, capsys, tmp_path):
        path = tmp_path / "plain.alg"
        save_algebra(sl2(), None, path)
        code, out = run(
            capsys, ["derivations", "--algebra", str(path), "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 3
        assert "basis_decompositions" not in payload

    def test_bad_grading_exits_2(self, capsys, badly_graded):
        code, out, err = run_err(capsys, ["derivations", "--algebra", str(badly_graded)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "grading" in err

    def test_identity_violation_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.alg"
        path.write_text(
            "algebra-file 1\ndim 2\nbasis a b\n"
            "product 0 1 0 1\nproduct 1 0 1 1\n"
        )
        code, _, err = run_err(capsys, ["derivations", "--algebra", str(path)])
        assert code == 2
        assert "Leibniz identity" in err

    @pytest.mark.parametrize("text,message", [
        # no products: right multiplication by a is zero, so the family is dependent
        ("dim 2\nbasis a b\ngrading 0 1\n", "linearly dependent"),
        # no products: a -> b and a -> c are two independent derivations
        ("dim 3\nbasis a b c\ngrading 0 1 1\n", "several independent"),
    ])
    def test_unfit_canonical_family_exits_2(self, capsys, tmp_path, text, message):
        path = tmp_path / "abelian.alg"
        path.write_text("algebra-file 1\n" + text)
        code, out, err = run_err(capsys, ["derivations", "--algebra", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err


class TestVerifyPaper:
    def test_all_claims_pass(self, capsys):
        code, out = run(
            capsys, ["verify-paper", "--m-range", "2..3", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["fail"] == 0
        assert payload["summary"]["skipped"] == 0
        assert {r["m"] for r in payload["results"]} == {2, 3}
        ids = [c["id"] for c in payload["results"][0]["claims"]]
        assert "hl2_zero" in ids and "d3d2_zero" not in ids

    def test_deep_adds_d3_claim(self, capsys):
        code, out = run(
            capsys,
            ["verify-paper", "--m-range", "4..5", "--deep", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        status = {
            r["m"]: {c["id"]: c["status"] for c in r["claims"]}
            for r in payload["results"]
        }
        assert status[4]["d3d2_zero"] == "pass"
        assert status[5]["d3d2_zero"] == "skipped"

    def test_bad_range_exits_2(self, capsys):
        assert run(capsys, ["verify-paper", "--m-range", "5..2"])[0] == 2
        assert run(capsys, ["verify-paper", "--m-range", "x"])[0] == 2

    def test_pretty_mentions_timing(self, capsys):
        code, out = run(capsys, ["verify-paper", "--m-range", "2..2"])
        assert code == 0
        assert "[" in out and "s]" in out

    def test_out_file_byte_determinism(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for target in (a, b):
            code, _ = run(
                capsys,
                [
                    "verify-paper", "--m-range", "2..3",
                    "--format", "json", "--out", str(target),
                ],
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_out_into_missing_directory_fails_fast(self, capsys, tmp_path, monkeypatch):
        import leibcohom.cli as cli

        def never(task):
            raise AssertionError("computed a parameter value before failing")

        monkeypatch.setattr(cli, "_verify_worker", never)
        target = tmp_path / "missing" / "r.json"
        code, out, err = run_err(capsys, [
            "verify-paper", "--m-range", "2..3", "--format", "json", "--out", str(target),
        ])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(target) in err
        assert not target.parent.exists()

    def test_out_write_failure_exits_2(self, capsys, tmp_path):
        # the target exists but is a directory, so opening it fails
        code, out, err = run_err(capsys, [
            "verify-paper", "--m-range", "2..2", "--format", "json", "--out", str(tmp_path),
        ])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_workers_do_not_change_output(self, capsys, tmp_path, monkeypatch):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        run(capsys, [
            "verify-paper", "--m-range", "2..4", "--format", "json",
            "--out", str(serial),
        ])
        monkeypatch.setenv("LEIBCOHOM_WORKERS", "3")
        run(capsys, [
            "verify-paper", "--m-range", "2..4", "--format", "json",
            "--out", str(parallel),
        ])
        assert serial.read_bytes() == parallel.read_bytes()

    def test_bad_workers_value_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("LEIBCOHOM_WORKERS", "many")
        assert run(capsys, ["verify-paper", "--m-range", "2..2"])[0] == 2

    def test_csv_format(self, capsys):
        code, out = run(
            capsys, ["verify-paper", "--m-range", "2..2", "--format", "csv"]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["key", "value"]
        assert any("status" in key for key, _ in rows[1:])
