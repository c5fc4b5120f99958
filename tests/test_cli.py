"""Command line interface: exit codes, JSON payloads, determinism."""

import csv
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import leibcohom.cli as cli
import leibcohom.cochain as cochain
import leibcohom.cohomology as cohomology
from leibcohom.algebra import (
    AlgebraStructure,
    Bimodule,
    Grading,
    check_bimodule_axioms,
    symmetric_bimodule,
)
from leibcohom.catalog import (
    direct_sum,
    dumps_algebra,
    irreducible_sl2_module,
    save_algebra,
    simple_leibniz_sl2,
    sl2,
)
from leibcohom.cli import main
from leibcohom.derivations import derivation_space
from leibcohom.linalg import SparseRationalMatrix, Subspace


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

    @pytest.mark.parametrize("text", ["1_0", "+4", " 4", "٤", "4.0"])
    def test_non_integer_m_exits_2(self, capsys, text):
        code, out, err = run_err(capsys, ["check", "--m", text])
        assert (code, out) == (2, "")
        assert f"--m needs an integer, got {text!r}" in err

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

    def test_graded_totals_come_from_the_engine(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("full-matrix path for a graded algebra")

        monkeypatch.setattr(cohomology, "rank", never)
        monkeypatch.setattr(cohomology, "coboundary_matrix", never)
        code, out = run(capsys, ["cohomology", "--m", "3", "--format", "json"])
        assert code == 0
        assert json.loads(out)["dim_z"] == 45

    def test_graded_requires_grading(self, capsys, tmp_path):
        path = tmp_path / "plain.alg"
        save_algebra(sl2(), None, path)
        code, _ = run(capsys, ["cohomology", "--algebra", str(path), "--graded"])
        assert code == 2

    def test_ungraded_totals_work(self, capsys, tmp_path, monkeypatch):
        # an ungraded algebra ranks the full matrices d^2 and d^1
        ranked = []
        real = cohomology.rank

        def counted(matrix):
            ranked.append(matrix.cols)
            return real(matrix)

        monkeypatch.setattr(cohomology, "rank", counted)
        path = tmp_path / "plain.alg"
        save_algebra(sl2(), None, path)
        code, out = run(
            capsys, ["cohomology", "--algebra", str(path), "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["dim_h"] == 0
        assert sorted(ranked) == [9, 27]

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

    def test_blocks_skip_an_empty_part(self, capsys, tmp_path):
        # the m=3 family graded all 0 has an empty I: only G*G in degree 0
        # holds cochains, and no row is printed for the vacuous blocks
        algebra, _ = simple_leibniz_sl2(3)
        path = tmp_path / "flat.alg"
        save_algebra(algebra, Grading((0,) * algebra.dim), path)
        code, out = run(capsys, ["cohomology", "--algebra", str(path), "--graded", "--blocks",
                                 "--format", "json"])
        assert code == 0
        assert json.loads(out)["blocks"] == [{
            "degree": 0, "blocks": ["G*G"], "projection_dim": 45, "supported_dim": 45,
            "projection_injective": True,
        }]

    def test_blocks_keep_every_row_of_sl2_plus_line(self, capsys, tmp_path):
        # sl2 + C graded (0, 0, 0, 1): both parts nonempty, every standard
        # block has a target, so all nine rows stay
        path = tmp_path / "line.alg"
        save_algebra(direct_sum(sl2(), AlgebraStructure(1, ("c",), {})), Grading((0, 0, 0, 1)),
                     path)
        code, out = run(capsys, ["cohomology", "--algebra", str(path), "--blocks",
                                 "--format", "json"])
        assert code == 0
        rows = [(r["degree"], tuple(r["blocks"])) for r in json.loads(out)["blocks"]]
        assert rows == [
            (degree, tuple("*".join(p) for p in pairs)) for degree, pairs in cli.STANDARD_BLOCKS
        ]
        assert len(rows) == 9

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

    def test_non_derivation_in_the_basis_exits_1(self, capsys, monkeypatch):
        # a basis holding a non-derivation (x0 -> e at m = 2): its own row
        # keeps a residual, the derivations' rows stay exact
        def with_bogus(algebra):
            space = derivation_space(algebra)
            return Subspace.from_spanning([*space.basis, {3 * algebra.dim: 1}],
                                          space.ambient_dim)

        monkeypatch.setattr(cli, "derivation_space", with_bogus)
        code, out = run(capsys, ["derivations", "--m", "2", "--format", "json"])
        assert code == 1
        rows = json.loads(out)["basis_decompositions"]
        assert sorted(row["exact"] for row in rows) == [False] + [True] * 5
        code, out = run(capsys, ["derivations", "--m", "2"])
        assert code == 1
        assert sum("(RESIDUAL LEFT)" in line for line in out.splitlines()) == 1

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

    def test_grading_outside_0_1_gives_dimension_only(self, capsys, tmp_path):
        # a valid grading of sl2 whose degrees are not {0, 1}
        path = tmp_path / "sl2_weights.alg"
        path.write_text(
            dumps_algebra(sl2()).replace("basis e f h\n", "basis e f h\ngrading 1 -1 0\n")
        )
        code, out = run(capsys, ["derivations", "--algebra", str(path)])
        assert code == 0
        assert out.splitlines() == [
            f"{path}: derivation space has dimension 3",
            "  (grading degrees are not {0, 1}; no canonical decomposition)",
        ]
        code, out = run(capsys, ["derivations", "--algebra", str(path), "--format", "json"])
        assert code == 0
        assert json.loads(out) == {"algebra": str(path), "dim": 3}

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

    @pytest.mark.parametrize("text", ["2..x", "..3", "2..1_2"])
    def test_non_integer_range_message(self, capsys, text):
        code, _, err = run_err(capsys, ["verify-paper", "--m-range", text])
        assert code == 2
        assert "a..b needs integers a and b" in err
        assert "invalid literal" not in err

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

        def never(m, deep):
            raise AssertionError("computed a parameter value before failing")

        monkeypatch.setattr(cli, "_verify_one", never)
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

    def test_csv_format(self, capsys):
        code, out = run(
            capsys, ["verify-paper", "--m-range", "2..2", "--format", "csv"]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["key", "value"]
        assert any("status" in key for key, _ in rows[1:])


class TestClaimTable:
    """verify-paper runs the rows of cli.CLAIMS; a failing row shows its
    expected and computed values, and its stage in the pretty output."""

    def test_failing_claim_names_its_stage(self, capsys, monkeypatch):
        row = next(r for r in cli.CLAIMS if r[0] == "hl2_zero")
        cid, stage, anchor, _, computed = row
        patched = (cid, stage, anchor, lambda member: 1, computed)
        monkeypatch.setattr(
            cli, "CLAIMS", tuple(patched if r is row else r for r in cli.CLAIMS)
        )
        code, out = run(capsys, ["verify-paper", "--m-range", "2..2", "--format", "json"])
        assert code == 1
        payload = json.loads(out)
        assert payload["summary"]["fail"] == 1
        failed = [c for c in payload["results"][0]["claims"] if c["status"] == "fail"]
        assert failed == [{
            "id": "hl2_zero", "anchor": anchor, "expected": 1, "computed": 0, "status": "fail",
        }]
        code, out = run(capsys, ["verify-paper", "--m-range", "2..2"])
        assert code == 1
        assert (
            "  FAIL hl2_zero  (expected 1, computed 0; stage cohomology.engine)"
            in out.splitlines()
        )

    def test_report_ids_follow_the_table(self, capsys):
        table = [r[0] for r in cli.CLAIMS]
        assert len(table) == len(set(table)) == 34
        for extra, expected in (([], [c for c in table if c != "d3d2_zero"]), (["--deep"], table)):
            code, out = run(
                capsys, ["verify-paper", "--m-range", "2..2", "--format", "json", *extra]
            )
            assert code == 0
            assert [c["id"] for c in json.loads(out)["results"][0]["claims"]] == expected

    @pytest.mark.parametrize("m", [2, 3])
    def test_lie_inputs_checked_once_per_complex(self, monkeypatch, m):
        # the six cohomology.lie claims read three complexes: CE with
        # coefficients in V_m, and HL with V_m symmetric and zero-left
        calls = []
        check = cohomology._require_lie_module

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(cohomology, "_require_lie_module", counted)
        claims, _ = cli._verify_one(m, False)
        assert all(c["status"] == "pass" for c in claims)
        assert len(calls) == 3

    @pytest.mark.parametrize("m", [2, 3])
    def test_module_axioms_checked_once_per_m(self, monkeypatch, m):
        # (sl2, V_m) once, for the module_axioms claim and for the CE and
        # zero-left HL values; (sl2, symmetric V_m) once, for its HL
        calls = []
        check = check_bimodule_axioms

        def counted(lie, module):
            calls.append(module)
            return check(lie, module)

        for module in (cli, cohomology):
            monkeypatch.setattr(module, "check_bimodule_axioms", counted)
        claims, _ = cli._verify_one(m, False)
        assert all(c["status"] == "pass" for c in claims)
        module = irreducible_sl2_module(m)
        assert sorted(calls, key=repr) == sorted([module, symmetric_bimodule(module)], key=repr)

    def test_failing_module_refused_before_any_rank(self, monkeypatch):
        # a V_m with a changed right action: the module_axioms claim runs
        # the one check, and each Lie value on V_m raises the ValueError of
        # the public function before anything is ranked
        module = irreducible_sl2_module(2)
        right = [dict(act) for act in module.right_action]
        right[0][(0, 0)] = Fraction(1)
        broken = Bimodule(3, 3, module.left_action, tuple(right))
        monkeypatch.setattr(cli, "irreducible_sl2_module", lambda m: broken)
        member = cli._Member(2)
        assert member.module_defects == check_bimodule_axioms(sl2(), broken) != []

        def no_ranks(*args):
            raise AssertionError("a rank was computed")

        monkeypatch.setattr(cohomology, "_h1_h2", no_ranks)
        for value, public in (("ce", cohomology.lie_ce_h),
                              ("hl_zero_left", cohomology.leibniz_h_with_coefficients)):
            with pytest.raises(ValueError) as want:
                public(sl2(), broken)
            with pytest.raises(ValueError) as got:
                getattr(member, value)
            assert str(got.value) == str(want.value)
            assert str(got.value).endswith(f" ({len(member.module_defects)} axiom defects)")

    @staticmethod
    def der_equals_zl1(capsys, monkeypatch, change):
        """The der_equals_zl1 status at m = 2 and the pretty report's
        lines for it, with ``change(d1)`` in place of d^1; every other
        claim must pass."""
        build = cli.coboundary_matrix
        monkeypatch.setattr(cli, "coboundary_matrix",
                            lambda algebra, module, n: change(build(algebra, module, n)))
        claims, _ = cli._verify_one(2, False)
        [status] = [c["status"] for c in claims if c["id"] == "der_equals_zl1"]
        assert all(c["status"] == "pass" for c in claims if c["id"] != "der_equals_zl1")
        code, out = run(capsys, ["verify-paper", "--m-range", "2..2"])
        assert code == (status == "fail")
        return status, [line for line in out.splitlines() if "der_equals_zl1" in line]

    @staticmethod
    def derivation_support():
        algebra, _ = simple_leibniz_sl2(2)
        return set().union(*derivation_space(algebra).basis)

    def test_der_equals_zl1_holds_for_a_scaled_d1(self, capsys, monkeypatch):
        # 2 d^1 has the kernel of d^1, so the certificate must accept it
        def doubled(d1):
            return SparseRationalMatrix(d1.rows, d1.cols,
                                        {rc: 2 * v for rc, v in d1.entries.items()})

        assert self.der_equals_zl1(capsys, monkeypatch, doubled) == (
            "pass", ["  ok   der_equals_zl1"])

    def test_der_equals_zl1_fails_when_d1_moves_off_der(self, capsys, monkeypatch):
        # doubling a column in the support of Der keeps rank d^1 but moves
        # ker d^1 off Der: d^1 no longer kills a basis derivation
        col = min(self.derivation_support())

        def scaled(d1):
            assert any(c == col for _, c in d1.entries)
            return SparseRationalMatrix(d1.rows, d1.cols, {
                (r, c): 2 * v if c == col else v for (r, c), v in d1.entries.items()})

        assert self.der_equals_zl1(capsys, monkeypatch, scaled) == ("fail", [
            "  FAIL der_equals_zl1  (expected True, computed False; stage linalg.rank)"])

    def test_der_equals_zl1_fails_when_ker_d1_grows(self, capsys, monkeypatch):
        # zeroing a column outside the support of every derivation keeps
        # d^1 D = 0 on Der but drops rank d^1 by one: ker d^1 gains e_col
        algebra, _ = simple_leibniz_sl2(2)
        col = min(set(range(algebra.dim ** 2)) - self.derivation_support())

        def dropped(d1):
            assert any(c == col for _, c in d1.entries)
            return SparseRationalMatrix(d1.rows, d1.cols, {
                (r, c): v for (r, c), v in d1.entries.items() if c != col})

        assert self.der_equals_zl1(capsys, monkeypatch, dropped) == ("fail", [
            "  FAIL der_equals_zl1  (expected True, computed False; stage linalg.rank)"])

    @staticmethod
    def count_builders(monkeypatch):
        calls = []
        make = cochain._integer_builder

        def counted(*args):
            calls.append(args)
            return make(*args)

        for module in (cochain, cohomology):
            monkeypatch.setattr(module, "_integer_builder", counted)
        return calls

    def test_one_builder_per_lie_complex(self, monkeypatch):
        calls = self.count_builders(monkeypatch)
        module = irreducible_sl2_module(3)
        assert cohomology.lie_ce_h(sl2(), module) == (0, 0)
        assert len(calls) == 1
        for coefficients in (module, symmetric_bimodule(module)):
            calls.clear()
            cohomology.leibniz_h_with_coefficients(sl2(), coefficients)
            assert len(calls) == 1

    @pytest.mark.parametrize("m", [2, 3])
    def test_one_builder_per_complex(self, monkeypatch, m):
        # the graded engine, the G*G check and the three Lie complexes
        calls = self.count_builders(monkeypatch)
        claims, _ = cli._verify_one(m, False)
        assert all(c["status"] == "pass" for c in claims)
        assert len(calls) == 5


def test_import_skips_modules_no_command_needs():
    # -S keeps the host's site .pth imports out of the module list
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import leibcohom.cli; "
        "print(' '.join(sorted(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, check=True)
    loaded = set(proc.stdout.split())
    assert "leibcohom.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "csv", "concurrent.futures"})
