"""Evolution of null curves from a KdV-solving bending.

Given kappa(s, t) solving kappa_t - 6 kappa kappa_s + kappa_sss = 0, the
extended frames at spectral parameters +-1 satisfy

    d_t F+- = F+- P_{+-1},   P_lam = [[-kappa_s, -kappa_ss + 2 kappa^2
                                       - 2 lam kappa - 4 lam^2],
                                      [2 kappa - 4 lam, kappa_s]]
    d_s F+- = F+- K_{+-1},   K_lam = [[0, kappa + lam], [1, 0]],

and gamma = F+ F-^{-1} evolves by the lowest flow with bending kappa.  The
bending is a BendingSampler, whose kappa_jet and kappa_t take scalar or
array (s, t); lien_evolve first gates it on the KdV residual over a grid of
probes, one array call of each.  The construction transports the t-systems
along s = 0 first (A+-(t), from Id), then the s-systems for each requested
t, F+-(s, t) = A+-(t) Phi+-(s, t) with Phi+-(0, t) = Id.  The kernels are
those of ads_null_flows.transport, and one array call of kappa_jet per
block feeds both factors.  The t-system takes Taylor panels: kappa_jet of
order 2 runs at s = 0 on a Series in dt and yields the Taylor coefficients
of P_lam about the panel centres.  The s-systems take the Magnus kernel
(order 0 in s).  Every step or panel factor has det 1, so the frames are
unimodular to rounding and are never renormalized (det_drift is a
diagnostic only), and the step and panel counts follow
integrator_rel_tol.  The s-kernel is confirmed once per lien_evolve by
DOP853: the t = 0 s-system from Id at s = 0 to the far end of the s-grid
must match it within tol_metric, or within CONFIRM_SLACK times
integrator_rel_tol when that is looser (DOP853's own global error), else
IntegrationFailure.  Because the
bending is s-periodic the monodromies F+-(s0 + rho, t) F+-(s0, t)^{-1} are
conserved in t; the drift over the returned family is the standard
integration diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Protocol, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from ..config import DEFAULT, RunConfig, UsageError
from ..transport import EPS, IntegrationFailure, taylor_transport, transport
from .frames import SpinorFramePath, _sl2_inverse

LAMBDA = np.array([[1.0], [-1.0]])   # the spectral parameters, as a factor axis
# DOP853's global error over the s-span runs to several times its rtol
CONFIRM_SLACK = 100.0
KDV_GATE = 1e-3      # lien_evolve's input gate on the KdV residual
GATE_PROBES = 12     # s-probes of the gate (and up to 6 t-probes)
# specs per transport in kksh_frames_t0: two (four factors of BLOCK steps)
# keep a block's arrays near the size of the t-system's; more would share
# one step count, the hardest spec's, and grow the block memory
BATCH = 2
# kksh_mu_star: the target cos(2 pi 2/3) of half the minus trace, the mu
# bracket scanned at MU_STAR_SCAN points, and brentq's tolerance
MU_STAR_TARGET = math.cos(2.0 * math.pi * 2 / 3)
MU_STAR_BRACKET = (0.3, 0.85)
MU_STAR_SCAN = 12
MU_STAR_XTOL = 1e-8


class KdVResidualTooLarge(ValueError):
    pass


class BendingSampler(Protocol):
    """Bending with analytic s-jets and a t-derivative (for the input gate).
    Both take scalar s and t or, elementwise, arrays of them."""

    def kappa_jet(self, s, t=0.0, order: int = 3) -> list: ...

    def kappa_t(self, s, t=0.0): ...


def kdv_gate(sampler: BendingSampler, s_probes, t_probes,
             tol: float) -> float:
    """Max |kappa_t - 6 kappa kappa_s + kappa_sss| over the probe grid, from
    one array call of each; a NaN residual fails the gate."""
    s, t = np.meshgrid(np.asarray(s_probes, dtype=float),
                       np.asarray(t_probes, dtype=float))
    k0, k1, _, k3 = sampler.kappa_jet(s, t, order=3)
    worst = float(np.abs(sampler.kappa_t(s, t) - 6.0 * k0 * k1 + k3).max())
    if not worst <= tol:
        raise KdVResidualTooLarge(
            f"bending violates the KdV residual gate: {worst:.3e} > {tol:.1e}")
    return worst


@dataclass
class LienEvolution:
    t_grid: np.ndarray
    paths: List[SpinorFramePath]
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
            Mp = path.Fplus[i1] @ _sl2_inverse(path.Fplus[0])
            Mm = path.Fminus[i1] @ _sl2_inverse(path.Fminus[0])
            if base is None:
                base = (Mp, Mm)
            else:
                drift = max(drift,
                            float(np.abs(Mp - base[0]).max()),
                            float(np.abs(Mm - base[1]).max()))
        return drift


def lien_evolve(sampler: BendingSampler, s_grid: Sequence[float],
                t_grid: Sequence[float], config: RunConfig = DEFAULT) -> LienEvolution:
    """Two-step integration of the extended frames over the (s, t) grid.

    t_grid must start at 0 (the normalization point F+-(0, 0) = Id) and be
    increasing; s_grid is any grid, reached from s = 0 along
    0 -> s_grid[0] -> s_grid[1] -> ...
    """
    s_grid = np.asarray(s_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[0] != 0.0 or not np.all(np.isfinite(t_grid)) or \
            (len(t_grid) > 1 and np.any(np.diff(t_grid) <= 0)):
        raise UsageError("t_grid must be finite, start at 0 and increase")

    s_probe = np.linspace(s_grid[0], s_grid[-1], GATE_PROBES)
    t_probe = np.linspace(t_grid[0], t_grid[-1], min(GATE_PROBES, 6))
    gate = kdv_gate(sampler, s_probe, t_probe, KDV_GATE)

    # step 1: A+-(t) along s = 0
    A_plus, A_minus = taylor_transport(_t_generator(sampler), 0.0, t_grid,
                                       config.integrator_rel_tol)

    # step 2: s-systems for each t
    paths = [_s_integration(sampler, s_grid, float(t), A_plus[j], A_minus[j], config)
             for j, t in enumerate(t_grid)]
    _confirm(sampler, paths[0], config)
    return LienEvolution(t_grid, paths, gate)


def _t_generator(sampler: BendingSampler):
    """P_lam = [[-k1, q - 2 lam k0 - 4], [2 k0 - 4 lam, k1]], q = 2 k0^2 - k2,
    of the t-system along s = 0 for lam = +-1, from one kappa jet; t is an
    array or a Series (the Taylor panels)."""
    def generator(t):
        k0, k1, k2 = sampler.kappa_jet(0.0, t, order=2)
        return -k1, 2.0 * k0 * k0 - k2 - 4.0 - 2.0 * LAMBDA * k0, 2.0 * k0 - 4.0 * LAMBDA
    return generator


def _s_generator(sampler: BendingSampler, t: float):
    """K_lam = [[0, kappa + lam], [1, 0]] of the s-system at time t."""
    def generator(s):
        return 0.0, sampler.kappa_jet(s, t, order=0)[0] + LAMBDA, 1.0
    return generator


def _confirm(sampler: BendingSampler, path: SpinorFramePath,
             config: RunConfig) -> None:
    """One DOP853 integration of the t = 0 s-system from Id at s = 0 to the
    far end of the s-grid; its frames there must match the kernel's within
    max(tol_metric, CONFIRM_SLACK integrator_rel_tol) (relative, max-norm)."""
    s_grid = path.s_grid
    end = 0 if abs(s_grid[0]) > abs(s_grid[-1]) else -1
    if s_grid[end] == 0.0:
        return

    def rhs(s, y):
        k = sampler.kappa_jet(float(s), 0.0, order=0)[0]
        ap, bp, cp, dp, am, bm, cm, dm = y.tolist()
        kp, km = k + 1.0, k - 1.0
        return (bp, kp * ap, dp, kp * cp, bm, km * am, dm, km * cm)

    sol = solve_ivp(rhs, (0.0, float(s_grid[end])), [1.0, 0.0, 0.0, 1.0] * 2,
                    method="DOP853", rtol=max(config.integrator_rel_tol, 100.0 * EPS),
                    atol=config.integrator_abs_tol)
    if not sol.success:
        raise IntegrationFailure(f"s-system confirmation failed: {sol.message}")
    bound = max(config.tol_metric, CONFIRM_SLACK * config.integrator_rel_tol)
    for F, y in ((path.Fplus[end], sol.y[:4, -1]), (path.Fminus[end], sol.y[4:, -1])):
        miss = float(np.abs(F.ravel() - y).max() / np.abs(y).max())
        if miss > bound:
            raise IntegrationFailure(
                f"Magnus and DOP853 s-frames differ by {miss:.1e} > {bound:.0e} "
                f"at s = {s_grid[end]!r}")


class NoSignChange(RuntimeError):
    pass


def kksh_frames_t0(specs, rho=None, t=0.0, config: RunConfig = DEFAULT):
    """(F+(rho, t), F-(rho, t)) integrated from the identity at s = 0.

    With identity initial frames these are the s-monodromies up to
    conjugation, so their traces are the conjugation-invariant monodromy
    data at any t; unlike the two-step route this stays well-conditioned
    however large the t-system solution grows.

    specs is one spec, or a list of them for arrays (len(specs), 2, 2);
    rho (default: each spec's s-period) and t are one value or one per
    spec.  A list runs BATCH specs per transport: system i, rescaled by
    s = rho_i sigma onto sigma in [0, 1], is a pair of factors of the
    kernel call.
    """
    batch = isinstance(specs, (list, tuple))
    specs = list(specs) if batch else [specs]
    n = len(specs)
    if rho is None:
        rho = [spec.s_period() for spec in specs]
    rho = np.broadcast_to(np.asarray(rho, dtype=float), (n,))
    t = np.broadcast_to(np.asarray(t, dtype=float), (n,))
    Fp, Fm = np.empty((n, 2, 2)), np.empty((n, 2, 2))
    for j in range(0, n, BATCH):
        part = slice(j, j + BATCH)
        Fp[part], Fm[part] = _rescaled_monodromies(specs[part], rho[part], t[part],
                                                   config)
    return (Fp, Fm) if batch else (Fp[0], Fm[0])


def _rescaled_monodromies(specs, rho, t, config: RunConfig):
    """kksh_frames_t0 for a few specs in one transport over sigma in [0, 1],
    the plus factors first."""
    n = len(specs)
    scale = np.concatenate([rho, rho])[:, None]

    def generator(sigma):
        b = np.empty((2 * n, sigma.size))
        for i, (spec, r, tt) in enumerate(zip(specs, rho, t)):
            k = spec.kappa_jet(r * sigma, tt, order=0)[0]
            b[i] = r * (k + 1.0)
            b[n + i] = r * (k - 1.0)
        return 0.0, b, scale

    F = transport(generator, 0.0, [1.0], config.integrator_rel_tol)[:, 0]
    return F[:n], F[n:]


def monodromy_trace_drift(spec, t_list, rho: float | None = None,
                          config: RunConfig = DEFAULT):
    """(max |tr M+(t) - tr M+(0)|, same for the minus factor) over t_list,
    from identity-normalized s-monodromies, the t-list as one batch."""
    Fp, Fm = kksh_frames_t0([spec] * len(t_list), rho, t_list, config)
    tr_p, tr_m = (np.trace(F, axis1=-2, axis2=-1) for F in (Fp, Fm))
    return (float(np.abs(tr_p - tr_p[0]).max()), float(np.abs(tr_m - tr_m[0]).max()))


def kksh_mu_star(m: int, n: int, h: float, config: RunConfig = DEFAULT) -> float:
    """The elliptic parameter at which the minus-factor monodromy becomes the
    rotation by 2 pi 2/3.

    Root of p(mu) = Re(tr F-(rho) + sqrt((tr F-)^2 - 4))/2 - cos(4 pi/3):
    for an elliptic factor the square root is imaginary and p reduces to
    half the trace minus the target cosine.  The MU_STAR_SCAN points of
    MU_STAR_BRACKET are one batch of kksh_frames_t0; brentq refines the
    first sign change to MU_STAR_XTOL, one transport per evaluation.  Raises
    NoSignChange when the bracket misses the root.
    """
    from scipy.optimize import brentq

    from ..kdvsol import KkshSpec

    def rotation(Fm) -> float:
        tr = float(np.trace(Fm))
        disc = tr * tr - 4.0
        root_real = math.sqrt(disc) if disc > 0.0 else 0.0
        return 0.5 * (tr + root_real) - MU_STAR_TARGET

    def p(mu: float) -> float:
        return rotation(kksh_frames_t0(KkshSpec.with_quantum_numbers(mu, m, n, h),
                                       config=config)[1])

    grid = np.linspace(*MU_STAR_BRACKET, MU_STAR_SCAN)
    _, Fm = kksh_frames_t0([KkshSpec.with_quantum_numbers(float(g), m, n, h)
                            for g in grid], config=config)
    vals = [rotation(F) for F in Fm]
    for i in range(MU_STAR_SCAN - 1):
        if vals[i] == 0.0:
            return float(grid[i])
        if vals[i] * vals[i + 1] < 0:
            return float(brentq(p, grid[i], grid[i + 1], xtol=MU_STAR_XTOL))
    raise NoSignChange(f"no sign change of the rotation condition on {MU_STAR_BRACKET}")


def _s_integration(sampler: BendingSampler, s_grid: np.ndarray, t: float,
                   Ap: np.ndarray, Am: np.ndarray,
                   config: RunConfig) -> SpinorFramePath:
    """Frames F+-(s, t) = A+- Phi+-(s) with Phi+-(0) = Id, for s on the grid."""
    Phi_p, Phi_m = transport(_s_generator(sampler, t), 0.0, s_grid,
                             config.integrator_rel_tol)
    Fp, Fm = Ap @ Phi_p, Am @ Phi_m
    drift = float(max(np.abs(np.linalg.det(Fp) - 1.0).max(),
                      np.abs(np.linalg.det(Fm) - 1.0).max()))
    kap = np.asarray(sampler.kappa_jet(s_grid, t, order=0)[0], dtype=float)
    return SpinorFramePath(s_grid, Fp, Fm, kap, t_value=t, det_drift=drift)
