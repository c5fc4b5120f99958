"""Exact cohomology calculations for finite-dimensional Leibniz algebras.

Everything is computed over the rationals with fraction-free sparse
elimination; no floating point is used anywhere, so every reported
dimension is exact. The package ships a catalog of built-in algebras
(sl2, its irreducible modules, and a graded family of simple non-Lie
Leibniz algebras built from them), the coboundary complex of an algebra
acting on a bimodule, graded and blockwise cocycle analysis, and the
derivation machinery needed to identify coboundary spaces.
"""

from .algebra import (
    AlgebraStructure,
    Bimodule,
    Grading,
    IdentityViolation,
    adjoint_bimodule,
    check_bimodule_axioms,
    check_grading,
    leibniz_defects,
    squares_ideal,
    symmetric_bimodule,
)
from .catalog import (
    AlgebraFileError,
    direct_sum,
    dumps_algebra,
    irreducible_sl2_module,
    lie_as_leibniz,
    load_algebra,
    loads_algebra,
    save_algebra,
    simple_leibniz_sl2,
    sl2,
)
from .cochain import (
    coboundary_matrix,
    cochain_degrees,
    graded_columns,
    graded_submatrix,
)
from .cohomology import (
    AdjointCohomology,
    BlockAnalysis,
    CohomologyReport,
    bl_dim,
    hl_dim,
    leibniz_h_with_coefficients,
    lie_ce_h,
    zl_dim,
)
from .derivations import (
    DerivationDecomposition,
    cochain_to_matrix,
    decompose_derivation,
    delta_generator,
    derivation_space,
    ideal_projection,
    matrix_to_cochain,
    right_mult_operator,
)
from .linalg import (
    SparseRationalMatrix,
    Subspace,
    column_space,
    kernel_basis,
    project,
    rank,
    restrict_to_coords,
    solve,
    subspace_equal,
)

__version__ = "0.1.0"

__all__ = [
    "AdjointCohomology",
    "AlgebraFileError",
    "AlgebraStructure",
    "Bimodule",
    "BlockAnalysis",
    "CohomologyReport",
    "DerivationDecomposition",
    "Grading",
    "IdentityViolation",
    "SparseRationalMatrix",
    "Subspace",
    "adjoint_bimodule",
    "bl_dim",
    "check_bimodule_axioms",
    "check_grading",
    "coboundary_matrix",
    "cochain_degrees",
    "cochain_to_matrix",
    "column_space",
    "decompose_derivation",
    "delta_generator",
    "derivation_space",
    "direct_sum",
    "dumps_algebra",
    "graded_columns",
    "graded_submatrix",
    "hl_dim",
    "ideal_projection",
    "irreducible_sl2_module",
    "kernel_basis",
    "leibniz_defects",
    "leibniz_h_with_coefficients",
    "lie_as_leibniz",
    "lie_ce_h",
    "load_algebra",
    "loads_algebra",
    "matrix_to_cochain",
    "project",
    "rank",
    "restrict_to_coords",
    "right_mult_operator",
    "save_algebra",
    "simple_leibniz_sl2",
    "sl2",
    "solve",
    "squares_ideal",
    "subspace_equal",
    "symmetric_bimodule",
    "zl_dim",
]
