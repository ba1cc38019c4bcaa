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
    heun_local,
    heun_pair,
    lame_heun_params,
)

__all__ = [
    "EllipticDomainError", "JacobiScalar", "complete_elliptic",
    "jacobi_sncndn", "sn_jet",
    "HeunConvergenceError", "HeunDomainError", "HeunEvaluator", "HeunParams",
    "heun_local", "heun_pair", "lame_heun_params",
]
