"""Command line interface.

Subcommands:

* ``check``: validate the Leibniz identity (and grading, if any) for a
  built-in or file-based algebra.
* ``cohomology``: cocycle, coboundary and cohomology dimensions, with
  optional per-degree and per-block breakdowns for graded algebras.
* ``derivations``: dimension of the derivation space and canonical
  decompositions of a basis of it.
* ``verify-paper``: run the full battery of structural claims about the
  simple graded family over a range of the parameter m.

Exit codes: 0 on success, 1 when a mathematical check fails, 2 for
usage or input-file errors. JSON and CSV output is deterministic:
identical inputs produce identical bytes. Timing information is only
ever shown in the pretty format.

The environment variable LEIBCOHOM_WORKERS sets the number of worker
processes used by ``verify-paper`` (default 1); results are reported in
parameter order regardless.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from fractions import Fraction

from .algebra import (
    AlgebraStructure,
    Grading,
    adjoint_bimodule,
    check_bimodule_axioms,
    check_grading,
    leibniz_defects,
    squares_ideal,
    symmetric_bimodule,
)
from .catalog import (
    AlgebraFileError,
    irreducible_sl2_module,
    load_algebra,
    simple_leibniz_sl2,
    sl2,
)
from .cochain import coboundary_matrix
from .cohomology import (
    AdjointCohomology,
    bl_dim,
    leibniz_h_with_coefficients,
    lie_ce_h,
    zl_dim,
)
from .derivations import (
    cochain_to_matrix,
    decompose_derivation,
    delta_generator,
    derivation_space,
)
from .linalg import Subspace, kernel_basis, subspace_equal

WORKERS_ENV = "LEIBCOHOM_WORKERS"

STANDARD_BLOCKS: tuple[tuple[int, tuple[tuple[str, str], ...]], ...] = (
    (1, (("G", "G"),)),
    (0, (("G", "G"),)),
    (0, (("G", "I"),)),
    (0, (("I", "G"),)),
    (-1, (("G", "I"),)),
    (-1, (("I", "G"),)),
    (-1, (("I", "I"),)),
    (-1, (("G", "I"), ("I", "G"))),
    (-2, (("I", "I"),)),
)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _load(args: argparse.Namespace) -> tuple[AlgebraStructure, Grading | None, str]:
    if args.m is not None:
        algebra, grading = simple_leibniz_sl2(args.m)
        return algebra, grading, f"built-in simple graded algebra, m={args.m}"
    algebra, grading = load_algebra(args.algebra)
    return algebra, grading, args.algebra


def _load_leibniz(args: argparse.Namespace) -> tuple[AlgebraStructure, Grading | None, str]:
    """The algebra of a computing command; one that fails the Leibniz
    identity, or declares a grading its product does not respect, is an
    input error (ValueError)."""
    algebra, grading, label = _load(args)
    if leibniz_defects(algebra):
        raise ValueError("the algebra does not satisfy the Leibniz identity")
    if grading is not None and not check_grading(algebra, grading):
        raise ValueError("the declared grading is not respected by the multiplication")
    return algebra, grading, label


def _emit(args: argparse.Namespace, payload: dict, pretty_lines: list[str]) -> int:
    """Write the report; returns 0, or 2 when the output file cannot be
    written."""
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        text = _to_csv(payload)
    else:
        text = "\n".join(pretty_lines) + "\n"
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            return _fail(f"cannot write {out}: {exc}")
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
    return 0


def _to_csv(payload: dict) -> str:
    """Flatten a result dictionary to deterministic key-path CSV rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])

    def walk(prefix: str, node) -> None:
        if isinstance(node, dict):
            for key in sorted(node):
                walk(f"{prefix}.{key}" if prefix else str(key), node[key])
        elif isinstance(node, (list, tuple)):
            for idx, item in enumerate(node):
                walk(f"{prefix}[{idx}]", item)
        else:
            writer.writerow([prefix, "" if node is None else node])

    walk("", payload)
    return buf.getvalue()


# check


def cmd_check(args: argparse.Namespace) -> int:
    try:
        algebra, grading, label = _load(args)
    except (AlgebraFileError, OSError, ValueError) as exc:
        return _fail(str(exc))
    defects = leibniz_defects(algebra)
    if defects:
        print(f"{label}: the Leibniz identity FAILS at {len(defects)} basis triples")
        labels = algebra.basis_labels
        for violation in defects[:5]:
            i, j, k = violation.triple
            terms = " + ".join(
                f"({v})*{labels[t]}" for t, v in sorted(violation.defect.items())
            )
            print(f"  ({labels[i]}, {labels[j]}, {labels[k]}): defect {terms}")
        if len(defects) > 5:
            print(f"  ... and {len(defects) - 5} more")
        return 1
    print(f"{label}: the Leibniz identity holds (dim {algebra.dim})")
    if grading is not None:
        if not check_grading(algebra, grading):
            print("the declared grading is NOT respected by the multiplication")
            return 1
        print(f"grading respected, degrees {sorted(set(grading.degrees))}")
    return 0


# cohomology


def cmd_cohomology(args: argparse.Namespace) -> int:
    try:
        algebra, grading, label = _load_leibniz(args)
    except (AlgebraFileError, OSError, ValueError) as exc:
        return _fail(str(exc))
    if (args.graded or args.blocks) and grading is None:
        return _fail("per-degree and per-block output need a graded algebra")
    if args.blocks and args.n != 2:
        return _fail("block analysis is defined for n=2 cocycles only")
    if args.blocks and not set(grading.degrees) <= {0, 1}:
        return _fail("block analysis needs a grading with degrees in {0, 1}")

    payload: dict = {"algebra": label, "n": args.n}
    pretty = [f"{label}: cohomology of the algebra acting on itself, n={args.n}"]
    # the engine eliminates every degree block, which only the per-degree
    # and per-block output need; the totals alone come from the full matrix
    if args.graded or args.blocks:
        coh = AdjointCohomology(algebra, grading)
        z, b = coh.zl_dim(args.n), coh.bl_dim(args.n)
    else:
        module = adjoint_bimodule(algebra)
        z, b = zl_dim(algebra, module, args.n), bl_dim(algebra, module, args.n)
    h = z - b
    payload.update({"dim_z": z, "dim_b": b, "dim_h": h})
    pretty.append(f"  dim Z = {z}   dim B = {b}   dim H = {h}")

    if args.graded:
        report = coh.report(args.n)
        payload["per_degree"] = report.to_dict()["per_degree"]
        pretty.append("  by degree:")
        for degree, (dz, db, dh) in sorted(report.per_degree.items()):
            pretty.append(
                f"    degree {degree:>3}: dim Z = {dz:<4} dim B = {db:<4} dim H = {dh}"
            )
    if args.blocks:
        rows = []
        pretty.append("  blocks of the cocycle space, by degree and signature:")
        for degree, pairs in STANDARD_BLOCKS:
            try:
                analysis = coh.block_analysis(degree, pairs)
            except ValueError:  # the block has no target component in this degree
                continue
            rows.append(analysis.to_dict())
            tags = " + ".join("*".join(p) for p in pairs)
            pretty.append(
                f"    degree {degree:>3} {tags:<12} projection {analysis.projection_dim:<4}"
                f" supported {analysis.supported_dim:<4}"
                f" injective {analysis.projection_injective}"
            )
        payload["blocks"] = rows
    return _emit(args, payload, pretty)


# derivations


def cmd_derivations(args: argparse.Namespace) -> int:
    try:
        algebra, grading, label = _load_leibniz(args)
    except (AlgebraFileError, OSError, ValueError) as exc:
        return _fail(str(exc))
    space = derivation_space(algebra)
    payload: dict = {"algebra": label, "dim": space.dim}
    pretty = [f"{label}: derivation space has dimension {space.dim}"]

    classes = grading.classes() if grading is not None else {}
    decomposable = set(classes) == {0, 1}
    exit_code = 0
    if decomposable:
        try:
            delta = delta_generator(algebra, grading, space)
            decompositions = [
                decompose_derivation(algebra, grading, cochain_to_matrix(dict(vec), algebra.dim))
                for vec in space.basis
            ]
        except ValueError as exc:  # the canonical family does not fit this algebra
            return _fail(str(exc))
        if delta is None:
            payload["delta_generator"] = None
            pretty.append("  no derivation maps the degree-0 part into the ideal")
        else:
            payload["delta_generator"] = {
                f"{r},{c}": str(v) for (r, c), v in sorted(delta.entries.items())
            }
            pretty.append(
                "  degree-raising generator (ideal row, degree-0 column): "
                + ", ".join(
                    f"({r},{c})={v}" for (r, c), v in sorted(delta.entries.items())
                )
            )
        rows = []
        pretty.append("  canonical decomposition of a derivation basis:")
        for pos, dec in enumerate(decompositions):
            rows.append(
                {
                    "right_mult": [str(c) for c in dec.coefficients],
                    "ideal_projection": str(dec.lam),
                    "delta": {
                        f"{r},{c}": str(v)
                        for (r, c), v in sorted(dec.delta.entries.items())
                    },
                    "exact": dec.is_exact,
                }
            )
            status = "exact" if dec.is_exact else "RESIDUAL LEFT"
            if not dec.is_exact:
                exit_code = 1
            pretty.append(
                f"    basis vector {pos}: right-mult {[str(c) for c in dec.coefficients]}"
                f" ideal-projection {dec.lam}"
                f" delta terms {dec.delta.nnz} ({status})"
            )
        payload["basis_decompositions"] = rows
    elif grading is not None:
        pretty.append("  (grading degrees are not {0, 1}; no canonical decomposition)")
    return _emit(args, payload, pretty) or exit_code


# verify-paper


def _claim(
    cid: str, anchor: str, expected, computed, status: str | None = None
) -> dict:
    if status is None:
        status = "pass" if computed == expected else "fail"
    return {
        "id": cid,
        "anchor": anchor,
        "expected": expected,
        "computed": computed,
        "status": status,
    }


def _verify_one(m: int, deep: bool) -> tuple[list[dict], float]:
    """All structural claims for one parameter value."""
    start = time.perf_counter()
    algebra, grading = simple_leibniz_sl2(m)
    coh = AdjointCohomology(algebra, grading)
    lie = sl2()
    module = irreducible_sl2_module(m)
    dim = algebra.dim
    claims: list[dict] = []
    add = claims.append

    add(_claim(
        "leibniz_identity",
        "the right Leibniz identity holds for every basis triple",
        0,
        len(leibniz_defects(algebra)),
    ))
    add(_claim(
        "grading_respected",
        "deg [a, b] = deg a + deg b whenever [a, b] is nonzero",
        True,
        check_grading(algebra, grading),
    ))
    squares = squares_ideal(algebra)
    add(_claim(
        "squares_dim",
        "dim span{[u, u] : u in L} = m + 1",
        m + 1,
        squares.dim,
    ))
    ideal_span = Subspace.from_spanning(
        [{k: Fraction(1)} for k in range(3, dim)], dim
    )
    add(_claim(
        "squares_span",
        "span{[u, u]} equals the span of the degree-1 basis",
        True,
        subspace_equal(squares, ideal_span),
    ))
    add(_claim(
        "module_axioms",
        "the (m+1)-dimensional module satisfies the Leibniz bimodule axioms",
        0,
        len(check_bimodule_axioms(lie, module)),
    ))

    add(_claim("d1d0_zero", "d^1 after d^0 is the zero map", True, coh.squares_to_zero(0)))
    add(_claim("d2d1_zero", "d^2 after d^1 is the zero map", True, coh.squares_to_zero(1)))
    if deep:
        if m <= 4:
            add(_claim(
                "d3d2_zero", "d^3 after d^2 is the zero map", True, coh.squares_to_zero(2)
            ))
        else:
            add(_claim(
                "d3d2_zero", "d^3 after d^2 is the zero map", True, None, "skipped"
            ))

    total = 31 if m == 2 else (m + 4) ** 2 - 4
    add(_claim(
        "zl2_total",
        "dim ZL^2(L, L) = (m+4)^2 - 4 for m != 2, and 31 for m = 2",
        total,
        coh.zl_dim(2),
    ))
    add(_claim(
        "bl2_total",
        "dim BL^2(L, L) = dim ZL^2(L, L)",
        total,
        coh.bl_dim(2),
    ))
    add(_claim("hl2_zero", "dim HL^2(L, L) = 0", 0, coh.hl_dim(2)))

    der = derivation_space(algebra)
    add(_claim(
        "der_dim",
        "dim Der(L) = 4 for m != 2, and 5 for m = 2",
        5 if m == 2 else 4,
        der.dim,
    ))
    add(_claim(
        "der_equals_zl1",
        "the derivation space equals the kernel of d^1",
        True,
        # the full d^1, independent of the engine's blocks
        subspace_equal(der, kernel_basis(coboundary_matrix(algebra, coh.module, 1))),
    ))
    add(_claim(
        "bl2_der_link",
        "dim BL^2(L, L) = (dim L)^2 - dim Der(L)",
        dim * dim - der.dim,
        coh.bl_dim(2),
    ))
    decompositions_exact = all(
        decompose_derivation(
            algebra, grading, cochain_to_matrix(dict(vec), dim)
        ).is_exact
        for vec in der.basis
    )
    add(_claim(
        "der_decomposition",
        "every derivation is a combination of right multiplications by the"
        " degree-0 basis, the ideal projection, and a degree-raising map",
        True,
        decompositions_exact,
    ))
    add(_claim(
        "delta_presence",
        "a degree-raising derivation exists exactly when m = 2",
        m == 2,
        delta_generator(algebra, grading, der) is not None,
    ))

    add(_claim(
        "zl2_deg_minus2", "dim of the degree -2 cocycle component = 0",
        0, coh.graded_zl_dim(2, -2),
    ))
    add(_claim(
        "zl2_deg_minus1", "dim of the degree -1 cocycle component = 3(m+1)",
        3 * (m + 1), coh.graded_zl_dim(2, -1),
    ))
    add(_claim(
        "zl2_deg_zero", "dim of the degree 0 cocycle component = m^2 + 2m + 6",
        m * m + 2 * m + 6, coh.graded_zl_dim(2, 0),
    ))
    add(_claim(
        "zl2_deg_plus1",
        "dim of the degree 1 cocycle component = 3(m+1) for m != 2, 8 for m = 2",
        8 if m == 2 else 3 * (m + 1),
        coh.graded_zl_dim(2, 1),
    ))
    report = coh.report(2)
    add(_claim(
        "graded_hl2_zero",
        "cocycles equal coboundaries in every degree",
        True,
        all(h == 0 for _, _, h in report.per_degree.values()),
    ))

    add(_claim(
        "phi0_GI_projection",
        "degree-0 cocycles vanish identically on the G*I block",
        0,
        coh.block_analysis(0, ("G", "I")).projection_dim,
    ))
    gg = coh.block_analysis(0, ("G", "G"))
    add(_claim(
        "phi0_GG_projection",
        "the G*G projection of the degree-0 cocycles has dimension 6",
        6,
        gg.projection_dim,
    ))
    add(_claim(
        "phi0_GG_lie_coboundaries",
        "the G*G projection is skew and equals the Lie 2-coboundaries of"
        " the degree-0 subalgebra",
        True,
        coh.gg_block_is_lie_coboundary(),
    ))
    add(_claim(
        "phi0_IG_supported",
        "degree-0 cocycles supported on the I*G block form a space of"
        " dimension m^2 + 2m",
        m * m + 2 * m,
        coh.block_analysis(0, ("I", "G")).supported_dim,
    ))
    gi = coh.block_analysis(-1, ("G", "I"))
    add(_claim(
        "zl2_m1_GI_projection",
        "the G*I projection of the degree -1 cocycles has dimension 3(m+1)",
        3 * (m + 1),
        gi.projection_dim,
    ))
    add(_claim(
        "zl2_m1_GI_injective",
        "the degree -1 cocycles project injectively onto the G*I block",
        True,
        gi.projection_injective,
    ))
    add(_claim(
        "zl2_m1_outer_injective",
        "the degree -1 cocycles embed into the G*I and I*G blocks together",
        True,
        coh.block_analysis(-1, (("G", "I"), ("I", "G"))).projection_injective,
    ))

    add(_claim(
        "whitehead_h1",
        "dim H^1(sl2, V_m) = 0 in Chevalley-Eilenberg cohomology",
        0,
        lie_ce_h(lie, module, 1),
    ))
    add(_claim(
        "whitehead_h2",
        "dim H^2(sl2, V_m) = 0 in Chevalley-Eilenberg cohomology",
        0,
        lie_ce_h(lie, module, 2),
    ))
    symmetric = symmetric_bimodule(module)
    add(_claim(
        "pirashvili_hl1",
        "dim HL^1(sl2, V_m) = 0 with the symmetric bimodule structure",
        0,
        leibniz_h_with_coefficients(lie, symmetric, 1),
    ))
    add(_claim(
        "pirashvili_hl2",
        "dim HL^2(sl2, V_m) = 0 with the symmetric bimodule structure",
        0,
        leibniz_h_with_coefficients(lie, symmetric, 2),
    ))
    add(_claim(
        "leibniz_hl1_zero_left",
        "dim HL^1(sl2, V_m) with zero left action counts degree-raising"
        " derivations: 1 for m = 2, else 0",
        1 if m == 2 else 0,
        leibniz_h_with_coefficients(lie, module, 1),
    ))
    add(_claim(
        "leibniz_hl2_zero_left",
        "dim HL^2(sl2, V_m) = 0 with zero left action",
        0,
        leibniz_h_with_coefficients(lie, module, 2),
    ))
    return claims, time.perf_counter() - start


def _verify_worker(task: tuple[int, bool]) -> tuple[list[dict], float]:
    return _verify_one(*task)


def _parse_m_range(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise ValueError("expected a range of the form a..b")
    first, last = int(parts[0]), int(parts[1])
    if first < 2 or last < first:
        raise ValueError("need 2 <= first <= last")
    return first, last


def cmd_verify_paper(args: argparse.Namespace) -> int:
    try:
        first, last = _parse_m_range(args.m_range)
    except ValueError as exc:
        return _fail(str(exc))
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        return _fail(f"cannot write {args.out}: no such directory")
    ms = list(range(first, last + 1))
    workers = 1
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            workers = max(1, int(env))
        except ValueError:
            return _fail(f"{WORKERS_ENV} must be an integer")

    tasks = [(m, args.deep) for m in ms]
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # the pool takes the largest m first, so the slowest task never
        # starts last, and the outcomes are put back in m order; with two
        # workers on a 2-core host this took verify-paper 2..12 from 0.49 s
        # to 0.44 s (medians of 10 alternating runs, BENCH_6.json)
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            outcomes = list(pool.map(_verify_worker, tasks[::-1]))[::-1]
    else:
        outcomes = [_verify_worker(task) for task in tasks]

    results = []
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    timings: dict[int, float] = {}
    for m, (claims, seconds) in zip(ms, outcomes):
        for claim in claims:
            counts[claim["status"]] += 1
        results.append({"m": m, "claims": claims})
        timings[m] = seconds
    payload = {
        "m_first": first,
        "m_last": last,
        "deep": bool(args.deep),
        "results": results,
        "summary": {
            "claims": sum(counts.values()),
            "pass": counts["pass"],
            "fail": counts["fail"],
            "skipped": counts["skipped"],
        },
    }

    pretty = []
    for entry in results:
        m = entry["m"]
        statuses = [c["status"] for c in entry["claims"]]
        pretty.append(
            f"m={m}: {statuses.count('pass')} pass,"
            f" {statuses.count('fail')} fail, {statuses.count('skipped')} skipped"
            f"  [{timings[m]:.2f}s]"
        )
        for claim in entry["claims"]:
            marker = {"pass": "ok  ", "fail": "FAIL", "skipped": "skip"}[claim["status"]]
            detail = ""
            if claim["status"] == "fail":
                detail = f"  (expected {claim['expected']}, computed {claim['computed']})"
            pretty.append(f"  {marker} {claim['id']}{detail}")
    summary = payload["summary"]
    pretty.append(
        f"total: {summary['claims']} claims, {summary['pass']} pass,"
        f" {summary['fail']} fail, {summary['skipped']} skipped"
    )
    return _emit(args, payload, pretty) or (0 if counts["fail"] == 0 else 1)


def _add_algebra_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=int, help="built-in simple graded algebra parameter (m >= 2)")
    group.add_argument("--algebra", help="path to an algebra file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leibcohom",
        description="exact cohomology calculations for finite-dimensional Leibniz algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate the Leibniz identity and grading")
    _add_algebra_source(p_check)
    p_check.set_defaults(func=cmd_check)

    p_coh = sub.add_parser("cohomology", help="cocycle/coboundary/cohomology dimensions")
    _add_algebra_source(p_coh)
    p_coh.add_argument("--n", type=int, choices=(1, 2), default=2)
    p_coh.add_argument("--graded", action="store_true", help="split dimensions by degree")
    p_coh.add_argument("--blocks", action="store_true", help="analyse signature blocks (n=2)")
    p_coh.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")
    p_coh.set_defaults(func=cmd_cohomology)

    p_der = sub.add_parser("derivations", help="derivation space and decompositions")
    _add_algebra_source(p_der)
    p_der.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")
    p_der.set_defaults(func=cmd_derivations)

    p_ver = sub.add_parser(
        "verify-paper", help="verify the structural claims over a parameter range"
    )
    p_ver.add_argument("--m-range", default="2..8", help="inclusive range a..b (default 2..8)")
    p_ver.add_argument("--deep", action="store_true", help="also check d^3 after d^2 (m <= 4)")
    p_ver.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")
    p_ver.add_argument("--out", help="write the report to a file instead of stdout")
    p_ver.set_defaults(func=cmd_verify_paper)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
