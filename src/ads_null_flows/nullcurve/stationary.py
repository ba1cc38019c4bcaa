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

A stationary command takes every frame it exports from one transport:
stationary_paths carries the base grid, and every snapshot and windings
point within it, through one fundamental_ode call of the pair, and reduces
any other point to r + k rho, whose frames are M^k F(r) by Floquet's rule
(transport.floquet_extend), M the monodromy read off the same transport at
rho.  evolve_stationary_path is the direct route, one transport of the
shifted grid per time, kept as the reference.
"""

from __future__ import annotations

import math
from typing import Literal, Tuple

import numpy as np

from ..config import DEFAULT, NumericFailure, RunConfig, UsageError
from ..kdvsol import StationaryBending
from ..lame import HeunLameEvaluator, fundamental_ode
from ..transport import floquet_extend
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


def _rigid_motion(spec: StationaryBending, t: float) -> np.ndarray:
    """The stack (2, 2, 2) of Exp(t m+-)."""
    return np.stack([expm_offdiag(t * m) for m in stationary_momenta(spec)[:2]])


def evolve_stationary_path(spec: StationaryBending, s_grid, t: float,
                           config: RunConfig = DEFAULT) -> SpinorFramePath:
    """Closed-form evolved frames at time t: Exp(t m+-) F+-(s + 2 ell t), with
    F+-(0) = diag(1/sqrt sigma, sqrt sigma) at t = 0, by one transport of the
    shifted grid (the direct route; stationary_paths reduces it by Floquet's
    rule)."""
    s_grid = np.asarray(s_grid, dtype=float)
    base = stationary_curve(spec.mu, spec.h_plus, spec.h_minus,
                            s_grid + 2.0 * spec.ell * t, config=config)
    return SpinorFramePath(s_grid, _rigid_motion(spec, t)[:, None] @ base.F,
                           spec.kappa(s_grid, t))


def stationary_paths(spec: StationaryBending, grid, requests, chunk: int,
                     config: RunConfig = DEFAULT) -> Tuple[SpinorFramePath, list]:
    """The frame path over grid, and for each (s_grid, t) of requests the
    path of evolve_stationary_path at time t over s_grid, from one transport
    of the pair when grid reaches the period rho.

    grid runs from 0 to its far end grid[-1], and its samples ride the
    transport as they are; so does every point s + 2 ell t of a request
    within [0, grid[-1]].  Any other point is r + k rho with r in [0, rho]
    (np.fmod, exact), and its frames are M^k F(r) by floquet_extend, with M
    = F(rho) S^{-1} read off the same transport, where rho is a sample.  No
    point lies past the far end, so the transport's panels are those of grid
    alone, and the frames at grid are stationary_curve's over grid, bit for
    bit, unless the extra points alone make the first level miss its
    tolerance (its tail estimate peaks at the panel ends); the base then
    moves within that tolerance.  At most chunk points ride one transport
    beside grid; each further transport carries grid[-1] too, so it has the
    same far end and panels.  When grid stops short of rho, the remainders
    past grid[-1] ride transports of far end rho, the first of which gives
    M: only snapshot and windings frames change with the route, never those
    over grid.

    Accuracy: within a period the frames are the transport's, at its
    rounding floor.  Past it, k rho and M^k each carry a few eps a period
    (lattice_power's angle error grows as k eps), so the error grows
    linearly in t.  For the (0, 1) pair at mu = 0.9, q = 2/5 (2 ell = -2.9),
    the snapshot at t = 50 (k = 35) is within 8e-13 relative of
    evolve_stationary_path, and at t = 1e7 (k = 7e6) within 1e-7 of the Heun
    route, whose monodromy and reduction are its own; 1.4e-6 for the (8, 9)
    pair.  A time whose shift merges samples of s_grid (t = 1e14 there) is a
    NumericFailure."""
    grid = np.asarray(grid, dtype=float)
    span, rho = float(grid[-1]), spec.s_period
    s_grids, shifted = [], []
    for s, t in requests:
        s = np.asarray(s, dtype=float)
        p = s + 2.0 * spec.ell * t
        if np.any((np.diff(p) == 0.0) & (np.diff(s) != 0.0)):
            raise NumericFailure(f"s + 2 ell t repeats samples in float64 at t = {t:.6g}")
        s_grids.append(s)
        shifted.append(p)
    p = np.concatenate(shifted) if shifted else np.zeros(0)
    r = np.where((p < 0.0) | (p > span), np.fmod(p, rho), p)
    r[r < 0.0] += rho
    k = np.rint((p - r) / rho)
    F = np.empty((2, len(p), 2, 2))

    def ride(head, end, idx):
        """The path over head, and the frames at the remainders r[idx] into
        F: chunk of them ride with head, and each further chunk with end."""
        for lo in range(0, max(len(idx), 1), chunk):
            part = idx[lo:lo + chunk]
            points = end if lo else head
            path = stationary_curve(spec.mu, spec.h_plus, spec.h_minus,
                                    np.concatenate([points, r[part]]), config=config)
            F[:, part] = path.F[:, len(points):]
            if not lo:
                first = path
        return first

    n = len(grid)
    reach = rho <= span
    first = ride(np.append(grid, rho) if reach else grid, grid[-1:],
                 np.flatnonzero(r <= span))
    if reach:
        M = first.F[:, n]
    elif k.any() or (r > span).any():
        M = ride([rho], [rho], np.flatnonzero(r > span)).F[:, 0]
    moved = np.flatnonzero(k)
    if len(moved):
        sigma = spec.sigma
        S_inv = np.diag([math.sqrt(sigma), 1.0 / math.sqrt(sigma)])
        F[:, moved] = floquet_extend(M @ S_inv, F[:, moved], k[moved])
    base = SpinorFramePath(grid, first.F[:, :n], first.kappa[:n])
    paths, lo = [], 0
    for s, (_, t) in zip(s_grids, requests):
        hi = lo + len(s)
        paths.append(SpinorFramePath(s, _rigid_motion(spec, t)[:, None] @ F[:, lo:hi],
                                     spec.kappa(s, t)))
        lo = hi
    return base, paths
