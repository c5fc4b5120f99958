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
        "_axpy(col, leibniz.get((j * dl + i) * dm + k, {}), -1)",
        "_axpy(col, leibniz.get((j * dl + i) * dm + k, {}), 1)",
        (
            "tests/test_cohomology.py::TestLieCohomology::test_rows_alternate",
            "tests/test_cohomology.py::TestLieCohomology::test_bracket_signs",
        ),
    ),
    Mutant(
        "ce_d2_drops_the_swapped_term",
        "src/leibcohom/cohomology.py",
        "            _axpy(col, leibniz.get((j * dl + i) * dm + k, {}), -1)\n",
        "",
        (
            "tests/test_cohomology.py::TestLieCohomology::test_rows_alternate",
            "tests/test_cohomology.py::TestLieCohomology::test_matches_reference_ranks",
        ),
    ),
    Mutant(
        "ce_on_the_module_not_its_symmetric_bimodule",
        "src/leibcohom/cohomology.py",
        "_integer_builder(algebra, symmetric_bimodule(module))",
        "_integer_builder(algebra, module)",
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
            "tests/test_cli.py::TestClaimTable::test_der_equals_zl1_checks_the_last_derivation",
        ),
    ),
    Mutant(
        "squares_to_zero_checks_the_first_block_only",
        "src/leibcohom/cohomology.py",
        "if n and ok and not _annihilates(",
        "if n and ok and key == keys[0] and not _annihilates(",
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
        "weight_flip_without_the_product_check",
        "src/leibcohom/cohomology.py",
        "if lhs != rhs:",
        "if False:",
        ("tests/test_cohomology.py::TestWeightFlip::test_pairing_without_automorphism",),
    ),
    Mutant(
        "flip_rank_recorded_outside_the_orbit",
        "src/leibcohom/cohomology.py",
        "self._ranks[(n, twin)]",
        "self._ranks[(n, (-twin[0], *twin[1:]))]",
        ("tests/test_cohomology.py::TestFlipEquivalence::test_family",),
    ),
    Mutant(
        "cartan_identity_accepted_unchecked",
        "src/leibcohom/cohomology.py",
        "if got != {c: sw}:",
        "if False:",
        (
            "tests/test_cohomology.py::TestCartanCertificate"
            "::test_changed_h_column_entry_forces_the_fallback",
            "tests/test_cohomology.py::TestCartanCertificate"
            "::test_zeroed_d1_column_caught_by_the_identity",
        ),
    ),
    Mutant(
        "cartan_weight_taken_with_the_wrong_sign",
        "src/leibcohom/cohomology.py",
        "sw = self._builder.scale * key[1 + j]",
        "sw = -self._builder.scale * key[1 + j]",
        (
            "tests/test_cohomology.py::TestCartanCertificate::test_family",
            "tests/test_cohomology.py::TestEngineTotals::test_ranks_do_not_reduce",
        ),
    ),
    Mutant(
        "cartan_weight_not_scaled",
        "src/leibcohom/cohomology.py",
        "sw = self._builder.scale * key[1 + j]",
        "sw = key[1 + j]",
        ("tests/test_cohomology.py::TestCartanCertificate::test_rescaled_basis",),
    ),
    Mutant(
        "cartan_skips_supp_d1_of_one_key",
        "src/leibcohom/cohomology.py",
        "support = {r for col in below.values() for r in col}",
        "support = {r for col in below.values() for r in col if key != (0, 2)}",
        (
            "tests/test_cohomology.py::TestCartanCertificate::test_family",
            "tests/test_cohomology.py::TestStreamedBlocks::test_union_of_blocks_is_d2",
        ),
    ),
    Mutant(
        "cartan_skips_the_d2d1_check_of_one_key",
        "src/leibcohom/cohomology.py",
        "if not _annihilates(part, set(cols), below.values()):",
        "if key != (0, 2) and not _annihilates(part, set(cols), below.values()):",
        (
            "tests/test_cohomology.py::TestCartanCertificate"
            "::test_changed_supp_d1_entry_fails_the_complex_check",
        ),
    ),
    Mutant(
        "flip_skips_the_d1_commutation_check",
        "src/leibcohom/cohomology.py",
        "if w is None or (w * num[a] * num[b] * den[t] * left\n"
        "                                 != v * num[t] * den[a] * den[b] * right):",
        "if w is None:",
        (
            "tests/test_cohomology.py::TestWeightFlip::test_d1_off_the_flip_turns_it_off",
            "tests/test_cohomology.py::TestCocycleBasisRead"
            "::test_changed_d1_entry_forces_the_fallback",
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
    # one fault, which the d^1 columns of a closing key show: they can
    # outnumber its rank, so counting them over-counts the cocycles
    Mutant(
        "cocycle_dimension_counts_the_spanning_vectors",
        "src/leibcohom/cohomology.py",
        "self._spans[degree] = span, dim",
        "self._spans[degree] = span, len(span)",
        (
            "tests/test_cohomology.py::TestBlockAnalysisReference::test_family",
            "tests/test_cohomology.py::TestCocycleBasisRead"
            "::test_sl2_plus_line_rebuilds_only_weight_zero_blocks",
        ),
    ),
    Mutant(
        "cocycle_read_skips_the_complex_check",
        "src/leibcohom/cohomology.py",
        "if exact and r1 + self._ranks[(2, key)] == len(cols):",
        "if r1 + self._ranks[(2, key)] == len(cols):",
        (
            "tests/test_cohomology.py::TestCocycleBasisRead"
            "::test_changed_d1_entry_forces_the_fallback",
        ),
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
        "derivation_term_written_for_one_free_index",
        "src/leibcohom/derivations.py",
        "            for i in range(n):\n                _add(columns[i * n + a],",
        "            for i in (a,):\n                _add(columns[i * n + a],",
        (
            "tests/test_derivations.py::TestDerivationSpace::test_constraints_are_minus_d1_family",
            "tests/test_derivations.py::TestDerivationSpace::test_family_dimension",
        ),
    ),
    Mutant(
        "matrix_keeps_an_emptied_column",
        "src/leibcohom/linalg.py",
        "            if out:\n                clean[c] = out\n            elif not inside:",
        "            clean[c] = out\n            if not (out or inside):",
        ("tests/test_linalg.py::TestColumnLayout::test_emptied_column_is_dropped",),
    ),
    Mutant(
        "nnz_counts_columns",
        "src/leibcohom/linalg.py",
        "return sum(map(len, self.columns.values()))",
        "return len(self.columns)",
        (
            "tests/test_linalg.py::TestColumnLayout::test_nnz_counts_entries",
            "tests/test_bench_contract.py::test_counted_results_keep_their_fields",
        ),
    ),
    Mutant(
        "der_is_ker_d1_skips_the_containment_check",
        "src/leibcohom/claims.py",
        "return (_annihilates(d1.columns, range(d1.cols), ints)\n                and d1.cols",
        "return (d1.cols",
        ("tests/test_cli.py::TestClaimTable::test_der_equals_zl1_fails_when_d1_moves_off_der",),
    ),
    Mutant(
        "der_is_ker_d1_skips_the_last_basis_vector",
        "src/leibcohom/claims.py",
        "ints = [_integer_row(vec) for vec in self.der.basis]",
        "ints = [_integer_row(vec) for vec in self.der.basis[:-1]]",
        ("tests/test_cli.py::TestClaimTable::test_der_equals_zl1_checks_the_last_derivation",),
    ),
    Mutant(
        "der_is_ker_d1_drops_the_rank_equality",
        "src/leibcohom/claims.py",
        "\n                and d1.cols - len(_echelon(columns)) == self.der.dim)",
        ")",
        ("tests/test_cli.py::TestClaimTable::test_der_equals_zl1_fails_when_ker_d1_grows",),
    ),
    Mutant(
        "squares_ideal_skips_the_left_closure_check",
        "src/leibcohom/algebra.py",
        "            if _eliminate(left.get(i, {}), pivots) is not None:\n"
        '                raise AssertionError("squares span not closed under left multiplication")\n',
        "",
        ("tests/test_algebra.py::TestSquaresIdeal::test_closure_checked_under_optimize",),
    ),
    Mutant(
        "cli_imports_the_claim_table_at_module_level",
        "src/leibcohom/cli.py",
        "from .catalog import AlgebraFileError, _ints, load_algebra, simple_leibniz_sl2\n",
        "from .catalog import AlgebraFileError, _ints, load_algebra, simple_leibniz_sl2\n"
        "from .claims import CLAIMS  # noqa: F401\n",
        (
            "tests/test_cli.py::test_each_command_imports_the_layers_it_runs",
            "tests/test_cli.py::test_import_skips_modules_no_command_needs",
        ),
    ),
    Mutant(
        "integral_as_int_takes_every_numerator",
        "src/leibcohom/algebra.py",
        "v.numerator if v.denominator == 1 else v",
        "v.numerator",
        (
            "tests/test_cochain.py::TestCoboundaryMatrices"
            "::test_matches_reference_evaluator_graded_conjugate",
        ),
    ),
    Mutant(
        "annihilates_drops_the_accumulated_sum",
        "src/leibcohom/cohomology.py",
        "acc[t] = acc.get(t, 0) + u * v",
        "acc[t] = u * v",
        ("tests/test_cohomology.py::TestBlockwiseComplex::test_family_complex",),
    ),
    Mutant(
        "leibniz_defect_divided_by_the_scale",
        "src/leibcohom/algebra.py",
        "square = scale * scale",
        "square = scale",
        ("tests/test_algebra.py::TestLeibnizIdentity::test_fractional_defects_match_reference",),
    ),
    Mutant(
        "leibniz_defects_drop_the_x_z_y_term",
        "src/leibcohom/algebra.py",
        "                if r_y:  # + [[x, z], y]\n"
        "                    for x, p_xz in r_z.items():\n"
        "                        for s, c in p_xz.items():\n"
        "                            prod = r_y.get(s)\n"
        "                            if prod:\n"
        "                                _axpy(columns.setdefault(x, {}), prod, c)\n",
        "",
        (
            "tests/test_algebra.py::TestLeibnizIdentity::test_defect_only_through_x_z_y",
            "tests/test_algebra.py::TestLeibnizIdentity::test_random_tensors_match_reference",
        ),
    ),
    Mutant(
        "grading_parts_accept_any_degree",
        "src/leibcohom/algebra.py",
        "if not set(classes) <= {0, 1}:",
        "if False:",
        ("tests/test_algebra.py::TestGrading::test_parts_reject_other_degrees",),
    ),
    Mutant(
        "bimodule_axiom_1_defect_not_negated",
        "src/leibcohom/algebra.py",
        "sign = -1 if pos == 0 else 1",
        "sign = 1",
        (
            "tests/test_algebra.py::TestBimoduleAxiomsReference::test_axiom_1_defect_sign",
            "tests/test_algebra.py::TestBimoduleAxiomsReference::test_broken_sl2_modules",
        ),
    ),
    Mutant(
        "bimodule_check_drops_the_i_m_j_groups",
        "src/leibcohom/algebra.py",
        "[(ms, xs, xs), (xs, ms, xs), (xs, xs, ms)]",
        "[(ms, xs, xs), (xs, xs, ms)]",
        (
            "tests/test_algebra.py::TestBimoduleAxiomsReference::test_axiom_2_alone_fails",
            "tests/test_algebra.py::TestBimoduleAxiomsReference::test_broken_sl2_modules",
        ),
    ),
    Mutant(
        "block_coords_accept_an_empty_argument_class",
        "src/leibcohom/cohomology.py",
        "if not (targets and by_tag[ta] and by_tag[tb]):",
        "if not targets:",
        (
            "tests/test_cohomology.py::TestBlockAnalyses::test_empty_argument_class_rejected",
            "tests/test_cli.py::TestCohomology::test_blocks_skip_an_empty_part",
        ),
    ),
    Mutant(
        "engine_skips_check_grading",
        "src/leibcohom/cohomology.py",
        "if not check_grading(algebra, grading):\n"
        '            raise ValueError("the grading does not respect the multiplication")',
        "if False:\n"
        '            raise ValueError("the grading does not respect the multiplication")',
        ("tests/test_cohomology.py::TestGradedReport::test_invalid_grading_rejected",),
    ),
    Mutant(
        "zero_column_gets_no_tag_line",
        "src/leibcohom/linalg.py",
        "**columns.get(c, {})}) for c in cols]",
        "**columns.get(c, {})}) for c in columns]",
        (
            "tests/test_linalg.py::TestKernelShapes::test_zero_columns",
            "tests/test_linalg.py::TestKernelShapes::test_zero_matrix_and_no_columns",
        ),
    ),
    Mutant(
        "kernel_vector_read_from_a_matrix_pivot",
        "src/leibcohom/linalg.py",
        "for p, row in _echelon(lines).items() if p >= tag]",
        "for p, row in _echelon(lines).items() if max(row) >= tag]",
        (
            "tests/test_linalg.py::TestKernelShapes::test_shapes",
            "tests/test_cohomology.py::TestFallbackKernel::test_span_equals_the_reference_kernel",
        ),
    ),
    Mutant(
        "solve_keeps_the_sentinel_pivot",
        "src/leibcohom/linalg.py",
        "    for lead in [p for p in pivots if p >= sentinel]:\n        del pivots[lead]\n",
        "",
        (
            "tests/test_linalg.py::TestSolve::test_inconsistent_system",
            "tests/test_linalg.py::TestAgainstReference::test_solve",
        ),
    ),
    Mutant(
        "solve_reads_the_first_right_hand_side_for_each",
        "src/leibcohom/linalg.py",
        "col = sentinel + j",
        "col = sentinel",
        (
            "tests/test_linalg.py::TestBatchedSolve::test_batch_equals_one_at_a_time",
            "tests/test_derivations.py::TestDecomposition::test_batch_equals_one_call_per_derivation",
        ),
    ),
    Mutant(
        "solve_residual_sign_flipped",
        "src/leibcohom/linalg.py",
        "_axpy(residual, b, Fraction(-1))",
        "_axpy(residual, b, Fraction(1))",
        (
            "tests/test_linalg.py::TestSolve::test_consistent_system",
            "tests/test_derivations.py::TestDecomposition::test_ideal_projection_decomposes",
        ),
    ),
    Mutant(
        "count_order_positions_are_counts",
        "src/leibcohom/linalg.py",
        "pos = {c: i for i, c in enumerate(sorted(count, key=lambda c: (count[c], c)))}",
        "pos = count",
        (
            "tests/test_linalg.py::TestAgainstReference::test_rank",
            "tests/test_linalg.py::TestRankAndKernel::test_rank_on_shared_counts",
        ),
    ),
    Mutant(
        "eliminate_skips_the_content_strip",
        "src/leibcohom/linalg.py",
        "            _strip_content(row)\n            if row[lead] < 0:",
        "            if row[lead] < 0:",
        ("tests/test_linalg.py::TestDeferredStrip::test_random_matrices",),
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
