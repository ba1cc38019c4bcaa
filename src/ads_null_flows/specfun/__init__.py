from .elliptic import (
    JacobiScalar,
    complete_elliptic,
    jacobi_sncndn,
    sn_jet,
)
from .heun import (
    HeunEvaluator,
    HeunParams,
    lame_heun_params,
)

__all__ = [
    "JacobiScalar", "complete_elliptic", "jacobi_sncndn", "sn_jet",
    "HeunEvaluator", "HeunParams", "lame_heun_params",
]
