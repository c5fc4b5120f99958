"""Command line interface.

Subcommands:

* ``check``: validate the Leibniz identity (and grading, if any) for a
  built-in or file-based algebra.
* ``cohomology``: cocycle, coboundary and cohomology dimensions, with
  optional per-degree and per-block breakdowns for graded algebras.
* ``derivations``: dimension of the derivation space and canonical
  decompositions of a basis of it.
* ``verify-paper``: check the paper's claims about the simple graded
  family over a range of the parameter m. Each claim is one row of the
  table :data:`leibcohom.claims.CLAIMS`, which names the stage (a
  per-layer metric of the benchmark) that computes its value; the pretty
  line of a failing claim shows its expected value, its computed value
  and that stage.

Importing this module loads only the ``algebra``, ``catalog`` and
``linalg`` layers. Each subcommand imports the other layers it runs where
it runs them: every command is a process of its own that compiles its
modules on start. ``derivations`` adds ``derivations``; an ungraded
``cohomology`` adds ``cochain``, whose full-matrix totals it ranks, and
a graded one also ``cohomology``, for the graded engine; only
verify-paper imports :mod:`leibcohom.claims`, the claim table, which
loads every layer.

Exit codes: 0 on success, 1 when a mathematical check fails, 2 for
usage or input-file errors. JSON and CSV output is deterministic:
identical inputs produce identical bytes. Timing information is only
ever shown in the pretty format.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time

from .algebra import (
    AlgebraStructure,
    Grading,
    adjoint_bimodule,
    check_grading,
    leibniz_defects,
)
from .catalog import AlgebraFileError, _ints, load_algebra, simple_leibniz_sl2

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
        [m] = _ints([args.m], f"--m needs an integer, got {args.m!r}")
        algebra, grading = simple_leibniz_sl2(m)
        return algebra, grading, f"built-in simple graded algebra, m={m}"
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
    import csv  # only --format csv needs it; every other command skips the import

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
    if args.blocks:
        try:
            grading.parts()
        except ValueError:
            return _fail("block analysis needs a grading with degrees in {0, 1}")

    payload: dict = {"algebra": label, "n": args.n}
    pretty = [f"{label}: cohomology of the algebra acting on itself, n={args.n}"]
    # a graded algebra takes its totals from the engine's degree blocks,
    # which are cheaper to eliminate than the full matrix; an ungraded one
    # ranks the full Fraction matrix
    if grading is not None:
        from .cohomology import AdjointCohomology

        coh = AdjointCohomology(algebra, grading)
        z, b = coh.zl_dim(args.n), coh.bl_dim(args.n)
    else:
        from .cochain import bl_dim, zl_dim

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
            except ValueError:  # the block holds no cochain in this degree
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
    from .derivations import (
        _classes_01,
        cochain_to_matrix,
        decompose_derivation,
        delta_generator,
        derivation_space,
    )

    space = derivation_space(algebra)
    payload: dict = {"algebra": label, "dim": space.dim}
    pretty = [f"{label}: derivation space has dimension {space.dim}"]

    decomposable = grading is not None
    if decomposable:
        try:
            _classes_01(grading)
        except ValueError:  # degrees other than exactly {0, 1}
            decomposable = False
    exit_code = 0
    if decomposable:
        try:
            delta = delta_generator(algebra, grading, space)
            decompositions = decompose_derivation(
                algebra, grading,
                [cochain_to_matrix(dict(vec), algebra.dim) for vec in space.basis])
        except ValueError as exc:  # the canonical family does not fit this algebra
            return _fail(str(exc))
        if delta is None:
            payload["delta_generator"] = None
            pretty.append("  no derivation maps the degree-0 part into the ideal")
        else:
            cells = sorted((r, c, v) for c, col in delta.columns.items() for r, v in col.items())
            payload["delta_generator"] = {f"{r},{c}": str(v) for r, c, v in cells}
            pretty.append(
                "  degree-raising generator (ideal row, degree-0 column): "
                + ", ".join(f"({r},{c})={v}" for r, c, v in cells)
            )
        rows = []
        pretty.append("  canonical decomposition of a derivation basis:")
        for pos, dec in enumerate(decompositions):
            rows.append(
                {
                    "right_mult": [str(c) for c in dec.coefficients],
                    "ideal_projection": str(dec.lam),
                    "delta": {
                        f"{r},{c}": str(v) for r, c, v in sorted(
                            (r, c, v) for c, col in dec.delta.columns.items()
                            for r, v in col.items())
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


def _verify_one(m: int, deep: bool) -> tuple[list[dict], float]:
    """Every claim of the table for one parameter value, in table order."""
    from .claims import _DEEP_ONLY, _SKIPPED, CLAIMS, _Member

    start = time.perf_counter()
    member = _Member(m)
    claims: list[dict] = []
    for cid, _, anchor, expected, computed in CLAIMS:
        if cid == _DEEP_ONLY and not deep:
            continue
        want, got = expected(member), computed(member)
        if got is _SKIPPED:
            got, status = None, "skipped"
        else:
            status = "pass" if got == want else "fail"
        claims.append(
            {"id": cid, "anchor": anchor, "expected": want, "computed": got, "status": status}
        )
    return claims, time.perf_counter() - start


def _parse_m_range(text: str) -> tuple[int, int]:
    message = f"a..b needs integers a and b, got {text!r}"
    try:
        first, last = _ints(text.split(".."), message)
    except ValueError:  # a token is no integer, or there are not two
        raise ValueError(message) from None
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
    if args.out and os.path.isdir(args.out):
        return _fail(f"cannot write {args.out}: is a directory")
    from .claims import CLAIMS

    results = []
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    stages = {cid: stage for cid, stage, *_ in CLAIMS}
    pretty = []
    for m in range(first, last + 1):
        claims, seconds = _verify_one(m, args.deep)
        results.append({"m": m, "claims": claims})
        statuses = [c["status"] for c in claims]
        pretty.append(
            f"m={m}: {statuses.count('pass')} pass,"
            f" {statuses.count('fail')} fail, {statuses.count('skipped')} skipped"
            f"  [{seconds:.2f}s]"
        )
        for claim in claims:
            counts[claim["status"]] += 1
            marker = {"pass": "ok  ", "fail": "FAIL", "skipped": "skip"}[claim["status"]]
            detail = ""
            if claim["status"] == "fail":
                detail = (
                    f"  (expected {claim['expected']}, computed {claim['computed']};"
                    f" stage {stages[claim['id']]})"
                )
            pretty.append(f"  {marker} {claim['id']}{detail}")
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
    summary = payload["summary"]
    pretty.append(
        f"total: {summary['claims']} claims, {summary['pass']} pass,"
        f" {summary['fail']} fail, {summary['skipped']} skipped"
    )
    return _emit(args, payload, pretty) or (0 if counts["fail"] == 0 else 1)


def _add_algebra_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", help="built-in simple graded algebra parameter (m >= 2)")
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
