"""Stationary curves of the lowest flow and their explicit time evolution.

With sigma = sqrt(2/(h- - h+)) and delta_{h,mu}(x) the fundamental matrix of
the first-order Lame equation, the frames

    F+-(s) = delta_{h+-,mu}(sigma s) . diag(1/sqrt(sigma), sqrt(sigma))

satisfy the spinorial Frenet systems for the stationary bending (the
diagonal factor converts central-affine to proper-time normalization, and
cancels in gamma = F+ F-^{-1}).  Both delta paths come from one transport,
h+ and h- on the kernel's factor axis (lame.fundamental_ode), or from the
Heun closed form one h at a time.  The evolution is rigid:

    gamma(s, t) = Exp(t m+) gamma(s + 2 ell t) Exp(-t m-),

where the momenta

    m+- = [[0, 8 sqrt2 (h+- - 1)(mu - h+-) / D^{3/2}],
           [8 sqrt2 (h+- - 1 - mu) / D^{3/2}, 0]],      D = h- - h+,

are the conserved values of F (P_lam - 2 ell K_lam) F^{-1} at lam = +-1.
"""

from __future__ import annotations

import math
from typing import Literal, Tuple

import numpy as np

from ..config import DEFAULT, RunConfig
from ..kdvsol import StationaryBending
from ..lame import HeunLameEvaluator, fundamental_ode
from .frames import SpinorFramePath


def stationary_momenta(spec: StationaryBending) -> Tuple[np.ndarray, np.ndarray, float]:
    """(m+, m-, ell) in the frame normalization F+-(0) = diag(1/sqrt sigma,
    sqrt sigma)."""
    d32 = spec.delta ** 1.5
    r8 = 8.0 * math.sqrt(2.0)

    def mk(h):
        return np.array([
            [0.0, r8 * (h - 1.0) * (spec.mu - h) / d32],
            [r8 * (h - 1.0 - spec.mu) / d32, 0.0],
        ])

    return mk(spec.h_plus), mk(spec.h_minus), spec.ell


def expm_offdiag(X: np.ndarray) -> np.ndarray:
    """exp of [[0, b], [c, 0]]: X^2 = bc Id, so the exponential closes in
    cosh/cos of sqrt(|bc|)."""
    b, c = float(X[0, 1]), float(X[1, 0])
    p = b * c
    if p > 0.0:
        w = math.sqrt(p)
        return math.cosh(w) * np.eye(2) + (math.sinh(w) / w) * X
    if p < 0.0:
        w = math.sqrt(-p)
        return math.cos(w) * np.eye(2) + (math.sin(w) / w) * X
    return np.eye(2) + X


def stationary_curve(mu: float, h_plus: float, h_minus: float, s_grid,
                     method: Literal["ode", "heun"] = "ode",
                     config: RunConfig = DEFAULT) -> SpinorFramePath:
    """Frame path of the stationary curve over the grid."""
    spec = StationaryBending(mu, h_plus, h_minus)
    s_grid = np.asarray(s_grid, dtype=float)
    sigma = spec.sigma
    S = np.diag([1.0 / math.sqrt(sigma), math.sqrt(sigma)])
    x_grid = sigma * s_grid
    if method == "heun":
        delta_p, delta_m = (HeunLameEvaluator(mu, h)(x_grid) for h in (h_plus, h_minus))
    else:
        delta_p, delta_m = fundamental_ode(mu, [h_plus, h_minus], x_grid, config)
    return SpinorFramePath(s_grid, delta_p @ S, delta_m @ S, spec.kappa(s_grid))


def evolve_stationary_path(spec: StationaryBending, s_grid, t: float,
                           config: RunConfig = DEFAULT) -> SpinorFramePath:
    """Closed-form evolved frames at time t: Exp(t m+-) F+-(s + 2 ell t), with
    F+-(0) = diag(1/sqrt sigma, sqrt sigma) at t = 0."""
    s_grid = np.asarray(s_grid, dtype=float)
    base = stationary_curve(spec.mu, spec.h_plus, spec.h_minus,
                            s_grid + 2.0 * spec.ell * t, config=config)
    m_plus, m_minus, _ = stationary_momenta(spec)
    Fp = expm_offdiag(t * m_plus)[None] @ base.Fplus
    Fm = expm_offdiag(t * m_minus)[None] @ base.Fminus
    return SpinorFramePath(s_grid, Fp, Fm, spec.kappa(s_grid, t))
