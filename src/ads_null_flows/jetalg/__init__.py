from .poly import JetPoly, U, U1, terms_text
from .hierarchy import lenard_p, kdv_rhs, hamiltonian_density, lien_coefficients
from .matrices import (
    frenet_K,
    lien_matrix_polys,
    zero_curvature_check,
    mat_is_zero,
    FRAME_GRAM,
)

__all__ = [
    "JetPoly", "U", "U1", "terms_text",
    "lenard_p", "kdv_rhs", "hamiltonian_density", "lien_coefficients",
    "frenet_K", "lien_matrix_polys", "zero_curvature_check", "mat_is_zero",
    "FRAME_GRAM",
]
