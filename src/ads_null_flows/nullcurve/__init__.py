from .frames import (
    SpinorFramePath,
    ads_inner,
    bending_oracle,
    closed_constant,
    constant_bending_frames,
    constant_bending_path,
    constant_case_tag,
    constant_curve_period,
    expm_offdiag,
    integrate_spinor_frames,
    proper_time_checks,
)
from .classify import (
    OrbitClassification,
    classify_monodromies,
    classify_orbit,
    rationalize,
)
from .stationary import (
    evolve_stationary_path,
    stationary_curve,
    stationary_momenta,
    stationary_paths,
)
from .evolve import (
    LienEvolution,
    kdv_gate,
    kksh_frames_t0,
    kksh_mu_star,
    lien_evolve,
    monodromy_trace_drift,
)
from .torical import split_coordinates, torical_embed, winding_numbers

__all__ = [
    "SpinorFramePath", "ads_inner", "bending_oracle", "closed_constant",
    "constant_bending_frames", "constant_bending_path", "constant_case_tag",
    "constant_curve_period", "integrate_spinor_frames", "proper_time_checks",
    "OrbitClassification", "classify_monodromies", "classify_orbit", "rationalize",
    "evolve_stationary_path", "expm_offdiag", "stationary_curve",
    "stationary_momenta", "stationary_paths",
    "LienEvolution", "kdv_gate", "kksh_frames_t0", "kksh_mu_star", "lien_evolve",
    "monodromy_trace_drift",
    "split_coordinates", "torical_embed", "winding_numbers",
]
