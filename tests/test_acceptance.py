"""Acceptance battery: one test per advertised guarantee of the package.

Every check is exact (integer equality, tolerance zero). Each test
prints a single ACCEPT line naming its criterion, visible in the live
pytest output. The expensive objects are computed once per session and
shared across criteria.
"""

import ast
import hashlib
import json
from pathlib import Path

import pytest

from leibcohom.algebra import (
    adjoint_bimodule,
    check_bimodule_axioms,
    check_grading,
    leibniz_defects,
    squares_ideal,
    symmetric_bimodule,
)
from leibcohom.catalog import irreducible_sl2_module, simple_leibniz_sl2, sl2
from leibcohom.cli import main
from leibcohom.cochain import coboundary_matrix
from leibcohom.cohomology import (
    AdjointCohomology,
    bl_dim,
    leibniz_h_with_coefficients,
    lie_ce_h,
    zl_dim,
)
from leibcohom.derivations import (
    cochain_to_matrix,
    decompose_derivation,
    delta_generator,
    derivation_space,
)
from leibcohom.linalg import Subspace, kernel_basis, subspace_equal

ROOT = Path(__file__).resolve().parent.parent
FULL_RANGE = tuple(range(2, 13))
DEEP_RANGE = (2, 3, 4)
MODULE_RANGE = tuple(range(0, 13))


@pytest.fixture(scope="module")
def family():
    """Algebra, grading and cached cohomology engine for each m."""
    out = {}
    for m in FULL_RANGE:
        algebra, grading = simple_leibniz_sl2(m)
        out[m] = (algebra, grading, AdjointCohomology(algebra, grading))
    return out


def announce(capsys, number, text, failures):
    status = "PASS" if not failures else f"FAIL ({'; '.join(failures[:4])})"
    with capsys.disabled():
        print(f"\nACCEPT C{number} {text}: {status}")
    assert not failures, f"criterion {number}: {failures}"


def test_c01_structural_integrity(family, capsys):
    failures = []
    for m in FULL_RANGE:
        algebra, grading, _ = family[m]
        if leibniz_defects(algebra):
            failures.append(f"m={m} identity")
        if not check_grading(algebra, grading):
            failures.append(f"m={m} grading")
        squares = squares_ideal(algebra)
        expected = Subspace.from_spanning(
            [{k: 1} for k in range(3, algebra.dim)], algebra.dim
        )
        if squares.dim != m + 1 or not subspace_equal(squares, expected):
            failures.append(f"m={m} squares")
        if check_bimodule_axioms(sl2(), irreducible_sl2_module(m)):
            failures.append(f"m={m} module axioms")
    announce(capsys, 1, "structural integrity for m=2..12", failures)


def test_c02_complex_property(family, capsys):
    """The full Fraction products are the reference for the engine's
    column-by-column check."""
    failures = []
    for m in FULL_RANGE:
        algebra, _, coh = family[m]
        module = adjoint_bimodule(algebra)
        d = [coboundary_matrix(algebra, module, n) for n in range(4 if m in DEEP_RANGE else 3)]
        for n in range(len(d) - 1):
            if not (d[n + 1] @ d[n]).is_zero():
                failures.append(f"m={m} d{n + 1}d{n}")
            if not coh.squares_to_zero(n):
                failures.append(f"m={m} d{n + 1}d{n} by integer columns")
    announce(
        capsys, 2, "d(n+1)dn = 0 for m=2..12 (and d3d2 = 0 for m=2..4)", failures
    )


def test_c03_second_cohomology_vanishes(family, capsys):
    failures = []
    for m in FULL_RANGE:
        _, _, coh = family[m]
        if coh.hl_dim(2) != 0:
            failures.append(f"m={m} HL2={coh.hl_dim(2)}")
    announce(capsys, 3, "HL^2(L, L) = 0 for m=2..12", failures)


def test_c04_cocycle_and_coboundary_totals(family, capsys):
    failures = []
    for m in FULL_RANGE:
        algebra, _, coh = family[m]
        expected = 31 if m == 2 else (m + 4) ** 2 - 4
        if coh.zl_dim(2) != expected:
            failures.append(f"m={m} ZL2={coh.zl_dim(2)} want {expected}")
        if coh.bl_dim(2) != expected:
            failures.append(f"m={m} BL2={coh.bl_dim(2)} want {expected}")
        # the engine sums its degree blocks; the reference ranks the full d^n
        module = adjoint_bimodule(algebra)
        for n in (1, 2):
            if coh.zl_dim(n) != zl_dim(algebra, module, n):
                failures.append(f"m={m} ZL{n} differs from the full-matrix rank")
            if coh.bl_dim(n) != bl_dim(algebra, module, n):
                failures.append(f"m={m} BL{n} differs from the full-matrix rank")
    announce(
        capsys, 4,
        "dim ZL^2 = dim BL^2 = (m+4)^2-4 (31 at m=2), equal to the full-matrix ranks",
        failures,
    )


def test_c05_derivation_structure(family, capsys):
    failures = []
    for m in FULL_RANGE:
        algebra, grading, coh = family[m]
        space = derivation_space(algebra)
        expected_dim = 5 if m == 2 else 4
        if space.dim != expected_dim:
            failures.append(f"m={m} dim Der={space.dim}")
        operators = [cochain_to_matrix(dict(vec), algebra.dim) for vec in space.basis]
        for dec in decompose_derivation(algebra, grading, operators):
            if not dec.is_exact:
                failures.append(f"m={m} decomposition residual")
                break
            if m != 2 and not dec.delta.is_zero():
                failures.append(f"m={m} unexpected degree-raising part")
                break
        if m != 2 and coh.bl_dim(2) != (m + 4) ** 2 - space.dim:
            failures.append(f"m={m} BL2 link")
        has_delta = delta_generator(algebra, grading, space) is not None
        if has_delta != (m == 2):
            failures.append(f"m={m} delta presence")
    announce(
        capsys, 5,
        "dim Der = 4 (5 at m=2), exact decompositions, BL^2 link", failures,
    )


def test_c06_graded_ladder(family, capsys):
    failures = []
    for m in FULL_RANGE:
        _, _, coh = family[m]
        ladder = {
            -2: 0,
            -1: 3 * (m + 1),
            0: m * m + 2 * m + 6,
            1: 8 if m == 2 else 3 * (m + 1),
        }
        for degree, expected in ladder.items():
            z = coh.graded_zl_dim(2, degree)
            b = coh.graded_bl_dim(2, degree)
            if z != expected:
                failures.append(f"m={m} deg {degree} ZL={z} want {expected}")
            if b != z:
                failures.append(f"m={m} deg {degree} BL={b} != ZL={z}")
        report = coh.report(2)  # also asserts graded sums match totals
        if report.dim_h != 0:
            failures.append(f"m={m} report")
    announce(
        capsys, 6,
        "graded cocycle ladder 0 / 3(m+1) / m^2+2m+6 / 3(m+1) with BL = ZL",
        failures,
    )


def test_c07_block_claims(family, capsys):
    failures = []
    for m in FULL_RANGE:
        algebra, grading, coh = family[m]
        if coh.block_analysis(0, ("G", "I")).projection_dim != 0:
            failures.append(f"m={m} G*I degree 0")
        gg = coh.block_analysis(0, ("G", "G"))
        if gg.projection_dim != 6:
            failures.append(f"m={m} G*G dim {gg.projection_dim}")
        if not coh.gg_block_is_lie_coboundary():
            failures.append(f"m={m} G*G not the Lie coboundary space")
        ig = coh.block_analysis(0, ("I", "G"))
        if ig.supported_dim != m * m + 2 * m:
            failures.append(f"m={m} I*G supported {ig.supported_dim}")
        outer = coh.block_analysis(-1, (("G", "I"), ("I", "G")))
        if not outer.projection_injective:
            failures.append(f"m={m} outer blocks not injective")
        gi = coh.block_analysis(-1, ("G", "I"))
        if not gi.projection_injective or gi.projection_dim != 3 * (m + 1):
            failures.append(f"m={m} G*I degree -1")
    announce(capsys, 7, "signature block claims in degrees 0 and -1", failures)


def test_c08_lie_comparison(capsys):
    failures = []
    lie = sl2()
    for m in MODULE_RANGE:
        module = irreducible_sl2_module(m)
        if lie_ce_h(lie, module) != (0, 0):
            failures.append(f"m={m} CE")
        if leibniz_h_with_coefficients(lie, symmetric_bimodule(module)) != (0, 0):
            failures.append(f"m={m} HL")
    adjoint = adjoint_bimodule(lie)
    if lie_ce_h(lie, adjoint) != (0, 0):
        failures.append("adjoint CE")
    if leibniz_h_with_coefficients(lie, adjoint) != (0, 0):
        failures.append("adjoint HL")
    announce(
        capsys, 8,
        "H^1 = H^2 = 0 and HL^1 = HL^2 = 0 over sl2 for m=0..12 and adjoint",
        failures,
    )


def test_c09_oracle_equivalence(family, capsys, zl_basis):
    failures = []
    for m in (2, 3):
        algebra, grading, coh = family[m]
        module = adjoint_bimodule(algebra)
        d2 = coboundary_matrix(algebra, module, 2)
        vectors = []
        for degree in coh.degrees(2):
            vectors.extend(zl_basis(coh, degree).basis)
        union = Subspace.from_spanning(vectors, d2.cols)
        if not subspace_equal(union, kernel_basis(d2)):
            failures.append(f"m={m} graded union != ungraded kernel")
        d1 = coboundary_matrix(algebra, module, 1)
        if not subspace_equal(derivation_space(algebra), kernel_basis(d1)):
            failures.append(f"m={m} Der != ker d1")
    announce(
        capsys, 9,
        "brute-force kernels equal graded unions and the derivation space",
        failures,
    )


def test_c10_report_determinism(tmp_path, capsys):
    failures = []
    outputs = []
    for name in ("first.json", "second.json"):
        target = tmp_path / name
        code = main([
            "verify-paper", "--m-range", "2..5", "--deep",
            "--format", "json", "--out", str(target),
        ])
        capsys.readouterr()
        if code != 0:
            failures.append(f"exit code {code}")
        outputs.append(target.read_bytes())
    if outputs[0] != outputs[1]:
        failures.append("bytes differ between runs")
    payload = json.loads(outputs[0])
    if payload["summary"]["fail"] != 0:
        failures.append("claims failed inside the report")
    announce(capsys, 10, "verify-paper output is byte-identical across runs", failures)


# sha256 of reports that an earlier release produced; a refactor of the
# exact elimination must leave every byte of them unchanged. The
# derivations report carries the solve coordinates and the canonical
# derivation basis; the cohomology reports carry the per-degree split and
# the block projections and restrictions, or only the totals, which the
# command reads off the engine's degree blocks whenever the algebra is
# graded. The 2..12 and 20..20 reports are the benchmark's paper_range
# and large_m20 workloads, 30..30 is the next rung of the ladder, and
# 60..60 is large enough that work growing as (dim L)^3, such as the
# derivation constraints, shows in it.
PINNED_REPORTS = {
    ("verify-paper", "--m-range", "2..12", "--format", "json"):
        "a306f5a50cdfa49f81c4e3dbe51db33d64b00651f7ca7114aaabf19c5f861de8",
    ("verify-paper", "--m-range", "2..5", "--deep", "--format", "json"):
        "f65c5e523104c019c66180045c70356e425dc850b75c09f7ea1c4073f351f42b",
    ("verify-paper", "--m-range", "20..20", "--format", "json"):
        "7c82cf931c5df5f362bfc93cd6d4d2100dbeaf59215d938a3f6a9b9999d51e13",
    ("verify-paper", "--m-range", "30..30", "--format", "json"):
        "739f605be0f1ea95461ee819f9a7761d250173151540d6f27b4dee72fdc1075a",
    ("verify-paper", "--m-range", "60..60", "--format", "json"):
        "28e97615eb60083d0eb59bfe0c9170c6b73fd95f3a6c78e4db3f41922f9ad7a2",
    ("derivations", "--m", "2", "--format", "json"):
        "41f70d9ad8f6efa09b2aa324ca6ed0d72bd30f7d033d7308ac8282033deda52b",
    ("cohomology", "--m", "3", "--graded", "--blocks", "--format", "json"):
        "be51946b87647788eeb8e373caa3fe2ff13595345c658bf0beb9bb5f3f82ee2c",
    ("cohomology", "--m", "4", "--n", "1", "--graded", "--format", "json"):
        "d0c060c8ea05fd362ad6e16d0f125ae401ef9677f30b3cabca489045984323cb",
    ("cohomology", "--m", "3", "--format", "json"):
        "f930a38dfda671b52cb1a872faa42aef4f234b156733631871da475f45bc4c21",
    ("cohomology", "--m", "5", "--n", "1", "--format", "json"):
        "68979cc96b6e22af64678aa8d7214f92c4cfc4cb0569ff5b4e61fa97ec191ae9",
    ("cohomology", "--m", "4", "--graded", "--format", "json"):
        "d6727d0703f1a59c7eddd331a5a2f9b0ee55cff7b2f0a7ed74e22e456ef34152",
}


def test_c11_pinned_report_digests(capsys):
    failures = []
    for argv, expected in PINNED_REPORTS.items():
        code = main(list(argv))
        out = capsys.readouterr().out.encode("utf-8")
        if code != 0:
            failures.append(f"{argv[0]} exit code {code}")
        got = hashlib.sha256(out).hexdigest()
        if got != expected:
            failures.append(f"{' '.join(argv)}: sha256 {got[:8]}, expected {expected[:8]}")
    announce(capsys, 11, "reports are byte-identical to the pinned digests", failures)


def test_benchmark_digests_are_c11_pins():
    """bench/workloads.py checks the paper_range and large_m20 reports
    against its own digests; they must be the C11 pins of the same
    commands, so the benchmark and tier-1 cannot drift apart."""
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    digests = {
        node.targets[0].id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id.endswith("_SHA256")
    }
    for name, m_range in (("PAPER_RANGE_SHA256", "2..12"), ("LARGE_M20_SHA256", "20..20")):
        argv = ("verify-paper", "--m-range", m_range, "--format", "json")
        assert digests[name] == PINNED_REPORTS[argv], name
