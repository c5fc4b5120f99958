"""Exact cohomology calculations for finite-dimensional Leibniz algebras.

Everything is computed over the rationals with fraction-free sparse
elimination; no floating point is used anywhere, so every reported
dimension is exact. The package ships a catalog of built-in algebras
(sl2, its irreducible modules, and a graded family of simple non-Lie
Leibniz algebras built from them), the coboundary complex of an algebra
acting on a bimodule, graded and blockwise cocycle analysis, and the
derivation machinery needed to identify coboundary spaces.

Importing the package loads none of its modules: each name of
``__all__`` imports the module that defines it on first access (PEP 562),
so a command line run compiles only the layers its subcommand uses.
"""

__version__ = "0.1.0"

# the public names of each module
_EXPORTS = {
    "algebra": (
        "AlgebraStructure", "Bimodule", "Grading", "IdentityViolation", "adjoint_bimodule",
        "check_bimodule_axioms", "check_grading", "leibniz_defects", "squares_ideal",
        "symmetric_bimodule",
    ),
    "catalog": (
        "AlgebraFileError", "direct_sum", "dumps_algebra", "irreducible_sl2_module",
        "lie_as_leibniz", "load_algebra", "loads_algebra", "save_algebra",
        "simple_leibniz_sl2", "sl2",
    ),
    "cochain": (
        "bl_dim", "coboundary_matrix", "cochain_degrees", "graded_columns", "graded_submatrix",
        "hl_dim", "zl_dim",
    ),
    "cohomology": (
        "AdjointCohomology", "BlockAnalysis", "CohomologyReport", "leibniz_h_with_coefficients",
        "lie_ce_h",
    ),
    "derivations": (
        "DerivationDecomposition", "cochain_to_matrix", "decompose_derivation",
        "delta_generator", "derivation_space", "ideal_projection", "matrix_to_cochain",
        "right_mult_operator",
    ),
    "linalg": (
        "SparseRationalMatrix", "Subspace", "column_space", "kernel_basis", "project", "rank",
        "restrict_to_coords", "solve", "subspace_equal",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
