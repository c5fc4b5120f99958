"""Mutation kit: every mutant of the package must be killed by its tests.

    python3 tools/mutate.py

A mutant names a file under ``src/``, an exact old text that occurs
there once, its replacement, and the tests expected to kill it. For each
mutant in turn the runner copies ``src/``, ``tests/`` and
``pyproject.toml`` to a new temporary directory, applies the mutant
there, and runs its tests with pytest. A mutant is killed when a test fails and survives when they
all pass. The exit code is 1 if any mutant survives or cannot be run,
else 0. Only the standard library is used, plus pytest to run the tests.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "ce_sign_forced_positive",
        "src/leibcohom/cohomology.py",
        "sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))",
        "sign = 1",
        (
            "tests/test_cohomology.py::TestLieCohomology::test_rows_alternate",
            "tests/test_cohomology.py::TestLieCohomology::test_bracket_signs",
        ),
    ),
    Mutant(
        "ce_on_the_module_not_its_symmetric_bimodule",
        "src/leibcohom/cohomology.py",
        "coboundary_columns(algebra, symmetric_bimodule(module), n)",
        "coboundary_columns(algebra, module, n)",
        (
            "tests/test_cohomology.py::TestLieCohomology::test_increasing_rows_match_reference",
            "tests/test_cohomology.py::TestLieCohomology::test_matches_reference_ranks",
        ),
    ),
    Mutant(
        "scale_ignores_the_actions",
        "src/leibcohom/cochain.py",
        "(*algebra.tensor.values(), *module.left_action, *module.right_action)",
        "algebra.tensor.values()",
        ("tests/test_cochain.py::TestCoboundaryBlocks::test_fractional_actions_are_scaled",),
    ),
    Mutant(
        "h2_ignores_im_d1",
        "src/leibcohom/cohomology.py",
        "cochains[1] - r2 - r1",
        "cochains[1] - r2",
        (
            "tests/test_cohomology.py::TestLieCohomology::test_whitehead_for_irreducibles",
            "tests/test_cohomology.py::TestLeibnizWithCoefficients::test_matches_fraction_path",
        ),
    ),
    Mutant(
        "builder_bracket_term_sign_flipped",
        "src/leibcohom/cochain.py",
        "c if q % 2 == 0 else -c",
        "-c if q % 2 == 0 else c",
        (
            "tests/test_cochain.py::TestCoboundaryMatrices::test_matches_reference_evaluator_sl2",
            "tests/test_cochain.py::TestCoboundaryMatrices::test_frozen_entries",
        ),
    ),
    Mutant(
        "builder_right_action_sign_parity_flipped",
        "src/leibcohom/cochain.py",
        "(self.right, 1 if j % 2 else -1)",
        "(self.right, -1 if j % 2 else 1)",
        (
            "tests/test_cochain.py::TestCoboundaryMatrices"
            "::test_builder_matches_reference_sl2_plus_sl2",
            "tests/test_cochain.py::TestCoboundaryMatrices::test_frozen_entries",
        ),
    ),
    Mutant(
        "squares_to_zero_checks_one_column",
        "src/leibcohom/cohomology.py",
        "    for col in columns:",
        "    for col in list(columns)[:1]:",
        (
            "tests/test_cohomology.py::TestBlockwiseComplex"
            "::test_change_past_the_first_column_and_block_detected",
        ),
    ),
    Mutant(
        "squares_to_zero_checks_the_first_block_only",
        "src/leibcohom/cohomology.py",
        "if ok and not _annihilates(",
        "if ok and key == keys[0] and not _annihilates(",
        (
            "tests/test_cohomology.py::TestBlockwiseComplex::test_failed_identity_detected",
            "tests/test_cohomology.py::TestBlockwiseComplex"
            "::test_change_past_the_first_column_and_block_detected",
        ),
    ),
    Mutant(
        "weights_used_without_check_grading",
        "src/leibcohom/cohomology.py",
        "if new and check_grading(algebra, Grading(w)):",
        "if new:",
        (
            "tests/test_cohomology.py::TestWeightRefinement::test_diagonal_non_grading_refused",
        ),
    ),
    Mutant(
        "row_bases_shared_across_arities",
        "src/leibcohom/cochain.py",
        "self._bases.setdefault(n, {})",
        "self._bases.setdefault(0, {})",
        (
            "tests/test_cochain.py::TestCoboundaryMatrices"
            "::test_one_builder_across_arities_and_blocks",
        ),
    ),
    Mutant(
        "cocycle_dimension_counts_the_spanning_vectors",
        "src/leibcohom/cohomology.py",
        "dim = self._rank(1, degree)",
        "dim = len(span)",
        ("tests/test_cohomology.py::TestBlockAnalysisReference::test_family",),
    ),
    Mutant(
        "gg_check_drops_the_union_rank",
        "src/leibcohom/cohomology.py",
        "return r_zl == r_lie == r_both",
        "return r_zl == r_lie",
        (
            "tests/test_cohomology.py::TestGGBlockReference"
            "::test_equal_dimension_different_span",
        ),
    ),
    Mutant(
        "leibniz_defect_divided_by_the_scale",
        "src/leibcohom/algebra.py",
        "square = scale * scale",
        "square = scale",
        ("tests/test_algebra.py::TestLeibnizIdentity::test_fractional_defects_match_reference",),
    ),
    Mutant(
        "value_fields_assignable",
        "src/leibcohom/linalg.py",
        'raise AttributeError(f"cannot assign to field {name!r}")',
        "object.__setattr__(self, name, value)",
        ("tests/test_values.py::TestValueSemantics::test_immutable",),
    ),
    Mutant(
        "value_equality_reads_the_first_field_only",
        "src/leibcohom/linalg.py",
        "return self._values() == other._values()",
        "return self._values()[:1] == other._values()[:1]",
        ("tests/test_values.py::TestValueSemantics::test_equality",),
    ),
    Mutant(
        "axpy_sign_flipped",
        "src/leibcohom/linalg.py",
        "_add(acc, k, scale * v)",
        "_add(acc, k, -scale * v)",
        (
            "tests/test_algebra.py::TestAlgebraStructure::test_bracket_vectors_bilinear",
            "tests/test_algebra.py::TestBimodules::test_module_axioms_hold",
        ),
    ),
    Mutant(
        "add_keeps_a_cancelled_entry",
        "src/leibcohom/linalg.py",
        "        if cur:\n            acc[key] = cur\n        else:\n            del acc[key]",
        "        acc[key] = cur",
        (
            "tests/test_algebra.py::TestLeibnizIdentity::test_sl2_satisfies_identity",
            "tests/test_catalog.py::TestSl2::test_is_lie",
        ),
    ),
)


def _run(mutant: Mutant) -> str:
    """'killed', 'survived' or 'error: ...' for one mutant, run in a copy
    of the tree."""
    with tempfile.TemporaryDirectory(prefix="leibcohom-mutant-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        target = work / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return f"error: old text occurs {text.count(mutant.old)} times in {mutant.path}"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=work, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(work / "src")},
        )
    if proc.returncode == 0:
        return "survived"
    if proc.returncode == 1:
        return "killed"
    return f"error: pytest exited {proc.returncode}"


def main() -> int:
    survivors = 0
    for mutant in MUTANTS:
        outcome = _run(mutant)
        survivors += outcome != "killed"
        print(f"{outcome:<9} {mutant.name}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
