from .poly import (
    JetPoly,
    NotATotalDivergence,
    InsufficientJet,
    total_derivative,
    euler,
    script_D,
    primitive,
    U,
    U1,
)
from .hierarchy import lenard_p, kdv_rhs, hamiltonian_density, lien_coefficients
from .matrices import (
    frenet_K,
    lien_matrix_polys,
    lax_pair_2x2,
    lax_zero_curvature_2x2,
    zero_curvature_check,
    g_membership_defect,
    mat_is_zero,
    FRAME_GRAM,
)

__all__ = [
    "JetPoly", "NotATotalDivergence", "InsufficientJet",
    "total_derivative", "euler", "script_D", "primitive", "U", "U1",
    "lenard_p", "kdv_rhs", "hamiltonian_density", "lien_coefficients",
    "frenet_K", "lien_matrix_polys", "lax_pair_2x2", "lax_zero_curvature_2x2",
    "zero_curvature_check", "g_membership_defect", "mat_is_zero", "FRAME_GRAM",
]
