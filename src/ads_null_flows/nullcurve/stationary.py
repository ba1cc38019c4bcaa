"""Stationary curves of the lowest flow and their explicit time evolution.

With sigma = sqrt(2/(h- - h+)) and delta_{h,mu}(x) the fundamental matrix of
the first-order Lame equation, the frames

    F+-(s) = delta_{h+-,mu}(sigma s) . diag(1/sqrt(sigma), sqrt(sigma))

satisfy the spinorial Frenet systems for the stationary bending (the
diagonal factor converts central-affine to proper-time normalization, and
cancels in gamma = F+ F-^{-1}).  Both delta paths come from one transport,
h+ and h- on the kernel's factor axis (lame.fundamental_ode), or from one
Heun closed-form evaluator of the pair, whose four local Heun functions
share one pass over their panels (lame.HeunLameEvaluator).  The evolution
is rigid:

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

from ..config import DEFAULT, RunConfig, UsageError
from ..kdvsol import StationaryBending
from ..lame import HeunLameEvaluator, fundamental_ode
from .frames import SpinorFramePath, expm_offdiag


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


def stationary_curve(mu: float, h_plus: float, h_minus: float, s_grid,
                     method: Literal["ode", "heun"] = "ode",
                     config: RunConfig = DEFAULT) -> SpinorFramePath:
    """Frame path of the stationary curve over the grid, by the Taylor-panel
    transport (method "ode") or the Heun closed form ("heun")."""
    if method not in ("ode", "heun"):
        raise UsageError(f"method must be 'ode' or 'heun', got {method!r}")
    spec = StationaryBending(mu, h_plus, h_minus)
    s_grid = np.asarray(s_grid, dtype=float)
    sigma = spec.sigma
    S = np.diag([1.0 / math.sqrt(sigma), math.sqrt(sigma)])
    x_grid = sigma * s_grid
    if method == "heun":
        delta = HeunLameEvaluator(mu, [h_plus, h_minus])(x_grid)
    else:
        delta = fundamental_ode(mu, [h_plus, h_minus], x_grid, config)
    return SpinorFramePath(s_grid, delta @ S, spec.kappa(s_grid))


def evolve_stationary_path(spec: StationaryBending, s_grid, t: float,
                           config: RunConfig = DEFAULT) -> SpinorFramePath:
    """Closed-form evolved frames at time t: Exp(t m+-) F+-(s + 2 ell t), with
    F+-(0) = diag(1/sqrt sigma, sqrt sigma) at t = 0."""
    s_grid = np.asarray(s_grid, dtype=float)
    base = stationary_curve(spec.mu, spec.h_plus, spec.h_minus,
                            s_grid + 2.0 * spec.ell * t, config=config)
    motion = np.stack([expm_offdiag(t * m) for m in stationary_momenta(spec)[:2]])
    return SpinorFramePath(s_grid, motion[:, None] @ base.F, spec.kappa(s_grid, t))
