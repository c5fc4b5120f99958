"""Run one ``leibcohom`` command in-process with a span around every call
into a layer's public functions.

    python3 bench/tracer.py --spans FILE -- verify-paper --m-range 2..4

The command's report goes to standard output unchanged; the spans are
appended to FILE as JSON lines when the command ends. The wrappers are
installed from here, on the function objects and wherever another module
of the package imported them by name; the package itself is not edited.

A span is ``{"id", "parent", "layer", "fn", "start", "end"}`` plus the
counts its layer records (matrix nonzeros, kernel dimension, the value of
m). LAYERS maps each layer name to the functions it covers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS: dict[str, tuple[str, ...]] = {
    "catalog.build": (
        "catalog.simple_leibniz_sl2", "catalog.sl2", "catalog.irreducible_sl2_module",
    ),
    "catalog.load": ("catalog.load_algebra",),
    "algebra.check": (
        "algebra.leibniz_defects", "algebra.check_grading", "algebra.squares_ideal",
        "algebra.check_bimodule_axioms", "algebra.adjoint_bimodule",
        "algebra.symmetric_bimodule",
    ),
    "cochain.assemble": ("cochain.coboundary_matrix",),
    "cochain.extract": (
        "cochain.graded_submatrix", "cochain.graded_columns", "cochain.cochain_degrees",
    ),
    "linalg.kernel": ("linalg.kernel_basis",),
    "linalg.rank": ("linalg.rank", "linalg.rank_modular"),
    "linalg.matmul": ("linalg.SparseRationalMatrix.__matmul__",),
    "linalg.subspace": (
        "linalg.Subspace.from_spanning", "linalg.Subspace.contains", "linalg.project",
        "linalg.restrict_to_coords", "linalg.subspace_equal", "linalg.column_space",
        "linalg.subspace_sum_dim", "linalg.embed",
    ),
    "linalg.solve": ("linalg.solve",),
    # every method of AdjointCohomology, plus the ungraded totals that the
    # cohomology command calls for an algebra without a grading
    "cohomology.engine": (
        "cohomology.AdjointCohomology.*", "cohomology.zl_dim", "cohomology.bl_dim",
        "cohomology.hl_dim",
    ),
    "cohomology.lie": ("cohomology.lie_ce_h", "cohomology.leibniz_h_with_coefficients"),
    "derivations.space": ("derivations.derivation_space",),
    "derivations.decompose": (
        "derivations.decompose_derivation", "derivations.right_mult_operator",
        "derivations.ideal_projection", "derivations.cochain_to_matrix",
        "derivations.matrix_to_cochain",
    ),
    "derivations.delta": ("derivations.delta_generator",),
    "cli.main": ("cli.main",),
    "cli.verify_one": ("cli._verify_one",),
}


# counts recorded on a span, from the call's positional arguments and result
COUNTS = {
    "cochain.coboundary_matrix": lambda args, result: {"nnz": result.nnz},
    "linalg.rank": lambda args, result: {"in_nnz": args[0].nnz},
    "linalg.kernel_basis": lambda args, result: {"in_nnz": args[0].nnz, "dim": result.dim},
    "cli._verify_one": lambda args, result: {"m": args[0]},
}


class Tracer:
    """Spans kept in memory while the command runs."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, fn, layer: str, qualname: str):
        count = COUNTS.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
            span = {"id": span_id, "parent": parent, "layer": layer, "fn": qualname,
                    "start": start, "end": end}
            if count is not None:
                span.update(count(args, result))
            self.spans.append(span)
            return result

        return traced

    def install(self) -> None:
        modules = {
            name: importlib.import_module(f"leibcohom.{name}")
            for name in ("algebra", "catalog", "cli", "cochain", "cohomology",
                         "derivations", "linalg")
        }
        importers = [m for n, m in sys.modules.items()
                     if n == "leibcohom" or n.startswith("leibcohom.")]
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, _, attr = target.partition(".")
                module = modules[module_name]
                if "." not in attr:
                    original = getattr(module, attr)
                    wrapped = self.wrap(original, layer, target)
                    for importer in importers:
                        for key, value in vars(importer).items():
                            if value is original:
                                setattr(importer, key, wrapped)
                    continue
                cls_name, _, method = attr.partition(".")
                cls = getattr(module, cls_name)
                methods = (
                    [k for k, v in vars(cls).items() if inspect.isfunction(v)]
                    if method == "*" else [method]
                )
                for name in methods:
                    raw = vars(cls)[name]
                    qual = f"{module_name}.{cls_name}.{name}"
                    if isinstance(raw, staticmethod):
                        setattr(cls, name, staticmethod(self.wrap(raw.__func__, layer, qual)))
                    else:
                        setattr(cls, name, self.wrap(raw, layer, qual))


def main() -> int:
    argv = sys.argv[1:]
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans FILE -- <leibcohom arguments>", file=sys.stderr)
        return 2
    spans_path, command = argv[1], argv[3:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("leibcohom.cli")
    try:
        code = cli.main(command)
    finally:
        sys.stdout.flush()
        with open(spans_path, "a", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
