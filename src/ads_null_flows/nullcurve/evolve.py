"""Evolution of null curves from a KdV-solving bending.

Given kappa(s, t) solving kappa_t - 6 kappa kappa_s + kappa_sss = 0, the
extended frames at spectral parameters +-1 satisfy

    d_t F+- = F+- P_{+-1},   P_lam = [[-kappa_s, -kappa_ss + 2 kappa^2
                                       - 2 lam kappa - 4 lam^2],
                                      [2 kappa - 4 lam, kappa_s]]
    d_s F+- = F+- K_{+-1},   K_lam = [[0, kappa + lam], [1, 0]],

and gamma = F+ F-^{-1} evolves by the lowest flow with bending kappa.  The
construction integrates the t-systems along s = 0 first (A+-(t), from Id),
then the s-systems from A+-(t) for each requested t.  Because the bending is
s-periodic the monodromies F+-(s0 + rho, t) F+-(s0, t)^{-1} are conserved in
t; the drift over the returned family is the standard integration diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Protocol, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from ..config import DEFAULT, RunConfig
from .frames import SpinorFramePath


class KdVResidualTooLarge(ValueError):
    pass


class BendingSampler(Protocol):
    """Bending with analytic s-jets and a t-derivative (for the input gate).
    kappa_jet takes a scalar s or, elementwise, an array of them."""

    def kappa_jet(self, s, t: float = 0.0, order: int = 3) -> list: ...

    def kappa_t(self, s: float, t: float = 0.0) -> float: ...


def kdv_gate(sampler: BendingSampler, s_probes, t_probes,
             tol: float) -> float:
    """Max |kappa_t - 6 kappa kappa_s + kappa_sss| over the probe grid."""
    worst = 0.0
    for t in t_probes:
        for s in s_probes:
            k0, k1, _, k3 = sampler.kappa_jet(float(s), float(t), order=3)
            r = sampler.kappa_t(float(s), float(t)) - 6.0 * k0 * k1 + k3
            worst = max(worst, abs(r))
    if worst > tol:
        raise KdVResidualTooLarge(
            f"bending violates the KdV residual gate: {worst:.3e} > {tol:.1e}")
    return worst


@dataclass
class LienEvolution:
    t_grid: np.ndarray
    paths: List[SpinorFramePath]
    A_plus: np.ndarray      # (nt, 2, 2) initial frames along s = 0
    A_minus: np.ndarray
    gate_residual: float

    def monodromy_drift(self, rho: float) -> float:
        """max_t ||M(t) - M(0)||_max over both factors, with
        M(t) = F(s0 + rho, t) F(s0, t)^{-1}."""
        drift = 0.0
        base = None
        for path in self.paths:
            s = path.s_grid
            i1 = int(np.argmin(np.abs(s - (s[0] + rho))))
            if abs(s[i1] - (s[0] + rho)) > 1e-9 * max(1.0, rho):
                raise ValueError("paths do not sample s0 + rho")
            Mp = path.Fplus[i1] @ np.linalg.inv(path.Fplus[0])
            Mm = path.Fminus[i1] @ np.linalg.inv(path.Fminus[0])
            if base is None:
                base = (Mp, Mm)
            else:
                drift = max(drift,
                            float(np.abs(Mp - base[0]).max()),
                            float(np.abs(Mm - base[1]).max()))
        return drift


def lien_evolve(sampler: BendingSampler, s_grid: Sequence[float],
                t_grid: Sequence[float], config: RunConfig = DEFAULT,
                gate_probes: int = 12) -> LienEvolution:
    """Two-step integration of the extended frames over the (s, t) grid.

    t_grid must start at 0 (the normalization point F+-(0, 0) = Id) and be
    increasing; s_grid is any strictly increasing grid containing 0's span.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[0] != 0.0 or (len(t_grid) > 1 and np.any(np.diff(t_grid) <= 0)):
        raise ValueError("t_grid must start at 0 and increase")

    s_probe = np.linspace(s_grid[0], s_grid[-1], gate_probes)
    t_probe = np.linspace(t_grid[0], t_grid[-1], min(gate_probes, 6))
    gate = kdv_gate(sampler, s_probe, t_probe, config.kdv_residual_gate)

    # step 1: A+-(t) along s = 0; row (a, b) of F times P_{+-1}, where
    # P_lam = [[-k1, q - 2 lam k0 - 4], [2 k0 - 4 lam, k1]], q = 2 k0^2 - k2
    def rhs_t(t, y):
        k0, k1, k2 = sampler.kappa_jet(0.0, t, order=2)
        q = -k2 + 2.0 * k0 * k0
        p01, m01 = q - 2.0 * k0 - 4.0, q + 2.0 * k0 - 4.0
        p10, m10 = 2.0 * k0 - 4.0, 2.0 * k0 + 4.0
        ap, bp, cp, dp, am, bm, cm, dm = y.tolist()
        return (bp * p10 - ap * k1, ap * p01 + bp * k1,
                dp * p10 - cp * k1, cp * p01 + dp * k1,
                bm * m10 - am * k1, am * m01 + bm * k1,
                dm * m10 - cm * k1, cm * m01 + dm * k1)

    nt = len(t_grid)
    A_plus = np.empty((nt, 2, 2))
    A_minus = np.empty((nt, 2, 2))
    if nt == 1:
        A_plus[0] = np.eye(2)
        A_minus[0] = np.eye(2)
    else:
        sol = solve_ivp(rhs_t, (0.0, float(t_grid[-1])),
                        [1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0],
                        method="DOP853", rtol=config.integrator_rel_tol,
                        atol=config.integrator_abs_tol, t_eval=t_grid)
        if not sol.success:
            raise RuntimeError(f"t-system integration failed: {sol.message}")
        A_plus[:, 0, 0], A_plus[:, 0, 1] = sol.y[0], sol.y[1]
        A_plus[:, 1, 0], A_plus[:, 1, 1] = sol.y[2], sol.y[3]
        A_minus[:, 0, 0], A_minus[:, 0, 1] = sol.y[4], sol.y[5]
        A_minus[:, 1, 0], A_minus[:, 1, 1] = sol.y[6], sol.y[7]
        # unimodular renormalization of the initial frames
        A_plus /= np.sqrt(np.abs(np.linalg.det(A_plus)))[:, None, None]
        A_minus /= np.sqrt(np.abs(np.linalg.det(A_minus)))[:, None, None]

    # step 2: s-systems for each t
    paths = []
    for j, t in enumerate(t_grid):
        paths.append(_s_integration(sampler, s_grid, float(t),
                                    A_plus[j], A_minus[j], config))
    return LienEvolution(t_grid, paths, A_plus, A_minus, gate)


class NoSignChange(RuntimeError):
    pass


def kksh_frames_t0(spec, rho: float | None = None, t: float = 0.0,
                   config: RunConfig = DEFAULT):
    """(F+(rho, t), F-(rho, t)) integrated from the identity at s = 0.

    With identity initial frames these are the s-monodromies up to
    conjugation, so their traces are the conjugation-invariant monodromy
    data at any t; unlike the two-step route this stays well-conditioned
    however large the t-system solution grows.
    """
    rho = spec.s_period() if rho is None else rho
    path = _s_integration(spec, np.array([0.0, rho]), t,
                          np.eye(2), np.eye(2), config)
    return path.Fplus[-1], path.Fminus[-1]


def monodromy_trace_drift(spec, t_list, rho: float | None = None,
                          config: RunConfig = DEFAULT):
    """(max |tr M+(t) - tr M+(0)|, same for the minus factor) over t_list,
    from identity-normalized s-monodromies."""
    rho = spec.s_period() if rho is None else rho
    traces = [tuple(float(np.trace(F)) for F in kksh_frames_t0(spec, rho, float(t), config))
              for t in t_list]
    base_p, base_m = traces[0]
    return (max(abs(tp - base_p) for tp, _ in traces),
            max(abs(tm - base_m) for _, tm in traces))


def kksh_mu_star(m: int, n: int, h: float, target_num: int = 2,
                 target_den: int = 3, bracket=(0.3, 0.85), scan: int = 12,
                 config: RunConfig = DEFAULT, xtol: float = 1e-8) -> float:
    """The elliptic parameter at which the minus-factor monodromy becomes the
    rotation by 2 pi target_num/target_den.

    Root of p(mu) = Re(tr F-(rho) + sqrt((tr F-)^2 - 4))/2 - cos(2 pi q):
    for an elliptic factor the square root is imaginary and p reduces to
    half the trace minus the target cosine.  Bisection to xtol after a scan
    over the bracket; raises NoSignChange when the bracket misses the root.
    """
    from scipy.optimize import brentq

    from ..kdvsol import KkshSpec

    target = math.cos(2.0 * math.pi * target_num / target_den)

    def p(mu: float) -> float:
        spec = KkshSpec.with_quantum_numbers(mu, m, n, h)
        _, Fm = kksh_frames_t0(spec, config=config)
        tr = float(np.trace(Fm))
        disc = tr * tr - 4.0
        root_real = math.sqrt(disc) if disc > 0.0 else 0.0
        return 0.5 * (tr + root_real) - target

    grid = np.linspace(bracket[0], bracket[1], scan)
    vals = [p(float(g)) for g in grid]
    for i in range(scan - 1):
        if vals[i] == 0.0:
            return float(grid[i])
        if vals[i] * vals[i + 1] < 0:
            return float(brentq(p, grid[i], grid[i + 1], xtol=xtol))
    raise NoSignChange(f"no sign change of the rotation condition on {bracket}")


def _s_integration(sampler: BendingSampler, s_grid: np.ndarray, t: float,
                   Ap: np.ndarray, Am: np.ndarray,
                   config: RunConfig) -> SpinorFramePath:
    def rhs(s, y):
        k = sampler.kappa_jet(s, t, order=0)[0]
        ap, bp, cp, dp, am, bm, cm, dm = y
        kp, km = k + 1.0, k - 1.0
        return (bp, kp * ap, dp, kp * cp, bm, km * am, dm, km * cm)

    def run(grid):
        if len(grid) == 0:
            return np.empty((0, 2, 2)), np.empty((0, 2, 2))
        y0 = [Ap[0, 0], Ap[0, 1], Ap[1, 0], Ap[1, 1],
              Am[0, 0], Am[0, 1], Am[1, 0], Am[1, 1]]
        sol = solve_ivp(rhs, (0.0, float(grid[-1])), y0, method="DOP853",
                        rtol=config.integrator_rel_tol,
                        atol=config.integrator_abs_tol,
                        t_eval=np.concatenate([[0.0], grid]))
        if not sol.success:
            raise RuntimeError(f"s-system integration failed: {sol.message}")
        Fp = np.empty((len(grid) + 1, 2, 2))
        Fm = np.empty((len(grid) + 1, 2, 2))
        Fp[:, 0, 0], Fp[:, 0, 1], Fp[:, 1, 0], Fp[:, 1, 1] = sol.y[0:4]
        Fm[:, 0, 0], Fm[:, 0, 1], Fm[:, 1, 0], Fm[:, 1, 1] = sol.y[4:8]
        return Fp[1:], Fm[1:]

    neg = s_grid[s_grid < 0.0]
    pos = s_grid[s_grid > 0.0]
    nz = int(np.sum(s_grid == 0.0))
    Fp_parts, Fm_parts = [], []
    if len(neg):
        p, m = run(neg[::-1])
        Fp_parts.append(p[::-1])
        Fm_parts.append(m[::-1])
    if nz:
        Fp_parts.append(np.tile(Ap, (nz, 1, 1)))
        Fm_parts.append(np.tile(Am, (nz, 1, 1)))
    if len(pos):
        p, m = run(pos)
        Fp_parts.append(p)
        Fm_parts.append(m)
    Fp = np.concatenate(Fp_parts, axis=0)
    Fm = np.concatenate(Fm_parts, axis=0)
    detp = np.linalg.det(Fp)
    detm = np.linalg.det(Fm)
    drift = float(max(np.abs(detp - 1.0).max(), np.abs(detm - 1.0).max()))
    Fp /= np.sqrt(np.abs(detp))[:, None, None]
    Fm /= np.sqrt(np.abs(detm))[:, None, None]
    kap = np.asarray(sampler.kappa_jet(s_grid, t, order=0)[0], dtype=float)
    return SpinorFramePath(s_grid, Fp, Fm, kap, t_value=t, det_drift=drift)
