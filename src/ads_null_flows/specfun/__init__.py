from .elliptic import (
    EllipticDomainError,
    JacobiScalar,
    complete_elliptic,
    jacobi_sncndn,
    sn_jet,
)
from .heun import (
    HeunConvergenceError,
    HeunDomainError,
    HeunEvaluator,
    HeunParams,
    lame_heun_params,
)

__all__ = [
    "EllipticDomainError", "JacobiScalar", "complete_elliptic",
    "jacobi_sncndn", "sn_jet",
    "HeunConvergenceError", "HeunDomainError", "HeunEvaluator", "HeunParams",
    "lame_heun_params",
]
