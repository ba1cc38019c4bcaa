from .metric import (
    CARTAN_GRAM,
    DegenerateBivector,
    J,
    P1,
    P2,
    P3,
    P4,
    ads_inner,
    future_directed,
    q_form,
)
from .frames import (
    CartanFramePath,
    GridTooCoarse,
    InvalidPair,
    SpinorFramePath,
    bending_oracle,
    cartan_frame,
    closed_constant,
    constant_bending_frames,
    constant_bending_path,
    constant_case_tag,
    constant_curve_period,
    integrate_spinor_frames,
    proper_time_checks,
)
from .classify import (
    NotPeriodicBending,
    OrbitClassification,
    classify_monodromies,
    classify_orbit,
    rationalize,
)
from .stationary import (
    evolve_stationary_path,
    expm_offdiag,
    stationary_curve,
    stationary_evolution,
    stationary_momenta,
)
from .evolve import (
    KdVResidualTooLarge,
    LienEvolution,
    NoSignChange,
    kdv_gate,
    kksh_frames_t0,
    kksh_mu_star,
    lien_evolve,
    monodromy_trace_drift,
)
from .torical import inside_solid_torus, split_coordinates, torical_embed, winding_numbers

__all__ = [
    "CARTAN_GRAM", "DegenerateBivector", "J", "P1", "P2", "P3", "P4",
    "ads_inner", "future_directed", "q_form",
    "CartanFramePath", "GridTooCoarse", "InvalidPair", "SpinorFramePath",
    "bending_oracle", "cartan_frame", "closed_constant",
    "constant_bending_frames", "constant_bending_path", "constant_case_tag",
    "constant_curve_period", "integrate_spinor_frames",
    "proper_time_checks",
    "NotPeriodicBending", "OrbitClassification", "classify_monodromies",
    "classify_orbit", "rationalize",
    "evolve_stationary_path", "expm_offdiag", "stationary_curve",
    "stationary_evolution", "stationary_momenta",
    "KdVResidualTooLarge", "LienEvolution", "NoSignChange", "kdv_gate",
    "kksh_frames_t0", "kksh_mu_star", "lien_evolve", "monodromy_trace_drift",
    "inside_solid_torus", "split_coordinates", "torical_embed", "winding_numbers",
]
