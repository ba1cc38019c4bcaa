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
t, F+-(s, t) = A+-(t) Phi+-(s, t) with Phi+-(0, t) = Id, all by the
Taylor panels of ads_null_flows.transport.  The s-systems of all the
t-slices go through _s_frames, the one s-transport of the module (the t = 0
KKSH monodromies use it too): BATCH systems per transport, each a pair of
factors.  kappa_jet runs on a Series (of order 2 in dt at s = 0 for the
t-system, of order 0 in ds for the s-systems) and yields the Taylor
coefficients of P_lam or K_lam about the panel centres, one call per block
and system for both factors; kappa of the paths is one array call.  The
two factors never part: A, Phi, every path's F (frames.SpinorFramePath)
and the KKSH monodromies are stacks with the factor axis first, F+ (lam =
+1) then F- (lam = -1), the order of frames.LAMBDA.  Every
panel factor has det 1, so the frames are unimodular to rounding and are
never renormalized, and the panel counts follow integrator_rel_tol.

A bending with an s_period rho (every KKSH family and stationary bending)
makes the s-frames obey Floquet's rule Phi(r + k rho) = M^k Phi(r), M =
Phi(rho), since Phi(0) = Id.  When the s-grid spans more than one period
and the bending is rho-periodic on the gate's probes (period_gap; a
quantized family meets its constraint only to a gap) within
integrator_rel_tol or, when larger, the rounding of kappa (_periodic),
_s_frames transports one period, to the grid's remainders r in [0, rho) and
to rho, and every other sample is M^k Phi(r) (floquet_extend).  Otherwise
the whole grid is transported.  The s-frames are confirmed once per
lien_evolve by DOP853: the t = 0 s-system from Id at s = 0 to rho (M) on
the one-period path, else to the far end of the s-grid, must match them
within tol_metric, or within CONFIRM_SLACK times integrator_rel_tol when
that is looser (DOP853's own global error).  A bending that fails the KdV
gate, a transport past its panel cap and a missed confirmation each raise
NumericFailure.  The bending is s-periodic, so the monodromies
(SpinorFramePath.monodromy) of F+- are conserved in t, and those of the
s-frames Phi+-, which LienEvolution keeps too, are conjugate to them: the
trace drift reads them off Phi+- with no second transport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Protocol, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from ..config import DEFAULT, NumericFailure, RunConfig, UsageError
from ..specfun.series import Series
from ..transport import EPS, floquet_extend, transport
from .frames import LAMBDA, SpinorFramePath, _frames_rhs

# DOP853's global error over the s-span runs to several times its rtol
CONFIRM_SLACK = 100.0
KDV_GATE = 1e-3      # lien_evolve's input gate on the KdV residual
GATE_PROBES = 12     # s-probes of the gate (and up to 6 t-probes)
# s-systems per transport in _s_frames: two (four factors of PANEL_BLOCK
# panels) keep a block's arrays within twice the t-system's (two factors);
# more would share one panel count, the hardest system's, and grow the
# block memory
BATCH = 2
# kksh_mu_star: the target cos(2 pi 2/3) of half the minus trace, the mu
# bracket scanned at MU_STAR_SCAN points, and brentq's tolerance
MU_STAR_TARGET = math.cos(2.0 * math.pi * 2 / 3)
MU_STAR_BRACKET = (0.3, 0.85)
MU_STAR_SCAN = 12
MU_STAR_XTOL = 1e-8


class BendingSampler(Protocol):
    """Bending with analytic s-jets and a t-derivative (for the input gate).
    Both take scalar s and t or, elementwise, arrays of them; kappa_jet also
    takes a Series s or t (the transport's panels).  A sampler with an
    s_period may have its s-frames extended from one period."""

    def kappa_jet(self, s, t=0.0, order: int = 3) -> list: ...

    def kappa_t(self, s, t=0.0): ...


def kdv_gate(sampler: BendingSampler, s_probes, t_probes,
             tol: float) -> float:
    """Max |kappa_t - 6 kappa kappa_s + kappa_sss| over the probe grid, from
    one array call of each; a NaN residual fails the gate, so a bending
    whose jets overflow float64 fails it without warnings."""
    s, t = np.meshgrid(np.asarray(s_probes, dtype=float),
                       np.asarray(t_probes, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        k0, k1, _, k3 = sampler.kappa_jet(s, t, order=3)
        worst = float(np.abs(sampler.kappa_t(s, t) - 6.0 * k0 * k1 + k3).max())
    if not worst <= tol:
        raise NumericFailure(
            f"bending violates the KdV residual gate: {worst:.3e} > {tol:.1e}")
    return worst


def period_gap(sampler: BendingSampler, s_probes, t_probes, rho: float) -> float:
    """max |kappa(s + rho, t) - kappa(s, t)| / max |kappa| over the probe
    grid, from one array call of kappa_jet: how far the bending is from
    rho-periodic in s (the quantization of a KKSH family meets its
    constraint only to a gap)."""
    s, t = np.meshgrid(np.asarray(s_probes, dtype=float),
                       np.asarray(t_probes, dtype=float))
    k = np.asarray(sampler.kappa_jet(np.stack([s, s + rho]), t, order=0)[0], dtype=float)
    return float(np.abs(k[1] - k[0]).max() / np.abs(k).max())


def _periodic(sampler: BendingSampler, s_probes, t_probes, rho: float, rel_tol: float):
    """Whether period_gap is within rel_tol or, when larger, within the
    rounding of kappa at s and at s + rho: twice EPS (max |t kappa_t| +
    max |(|s| + rho) kappa_s|) / max |kappa| over the probe grid."""
    gap = period_gap(sampler, s_probes, t_probes, rho)
    if gap <= rel_tol:
        return True
    s, t = np.meshgrid(s_probes, t_probes)
    k0, k1 = sampler.kappa_jet(s, t, order=1)
    reach = np.abs(t * sampler.kappa_t(s, t)).max() + np.abs((np.abs(s) + rho) * k1).max()
    return gap <= 2.0 * EPS * float(reach / np.abs(k0).max())


@dataclass
class LienEvolution:
    t_grid: np.ndarray
    paths: List[SpinorFramePath]      # F+-(s, t_j)
    s_paths: List[SpinorFramePath]    # Phi+-(s, t_j), from Id at s = 0
    gate_residual: float

    def monodromy_drift(self, rho: float) -> float:
        """max_t ||M(t) - M(0)||_max over both factors, with
        M(t) = F(s0 + rho, t) F(s0, t)^{-1}."""
        M = np.stack([path.monodromy(rho) for path in self.paths])
        return float(np.abs(M - M[0]).max())


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
    A = transport(_t_generator(sampler), 0.0, t_grid, config.integrator_rel_tol)

    # step 2: the s-systems of all t-slices, F+-(s, t) = A+-(t) Phi+-(s, t)
    samplers = [sampler] * len(t_grid)
    rho = getattr(sampler, "s_period", None)
    if rho is not None and s_grid.max() - s_grid.min() > rho and \
            _periodic(sampler, s_probe, t_probe, rho, config.integrator_rel_tol):
        # one period, then Phi(r + k rho) = M^k Phi(r) with M = Phi(rho)
        k, r = np.divmod(s_grid, rho)
        x, at = np.unique(r, return_inverse=True)
        Phi = _s_frames(samplers, 1.0, t_grid, np.append(x, rho), config)
        M = Phi[:, :, -1]
        Phi = floquet_extend(M, Phi[:, :, at], k)
        s_end, Phi_end = rho, M[:, 0]
    else:
        Phi = _s_frames(samplers, 1.0, t_grid, s_grid, config)
        end = 0 if abs(s_grid[0]) > abs(s_grid[-1]) else -1
        s_end, Phi_end = s_grid[end], Phi[:, 0, end]
    kappa = np.asarray(sampler.kappa_jet(s_grid, t_grid[:, None], order=0)[0], dtype=float)
    s_paths = [SpinorFramePath(s_grid, Phi[:, j], kappa[j]) for j in range(len(t_grid))]
    _confirm(sampler, s_end, Phi_end, config)
    paths = [SpinorFramePath(s_grid, A[:, j, None] @ p.F, p.kappa)
             for j, p in enumerate(s_paths)]
    return LienEvolution(t_grid, paths, s_paths, gate)


def _t_generator(sampler: BendingSampler):
    """P_lam = [[-k1, q - 2 lam k0 - 4], [2 k0 - 4 lam, k1]], q = 2 k0^2 - k2,
    of the t-system along s = 0 for lam = +-1, from one kappa jet; t is a
    Series (the transport's panels)."""
    def generator(t):
        k0, k1, k2 = sampler.kappa_jet(0.0, t, order=2)
        return -k1, 2.0 * k0 * k0 - k2 - 4.0 - 2.0 * LAMBDA * k0, 2.0 * k0 - 4.0 * LAMBDA
    return generator


def _s_frames(samplers, scale, t, grid, config: RunConfig) -> np.ndarray:
    """Frames (2, len(samplers), len(grid), 2, 2), the plus factor first:
    system i is the s-system K_lam = [[0, kappa + lam], [1, 0]] of
    samplers[i] at time t[i], rescaled by s = scale[i] x (generator
    scale[i] K_lam(scale[i] x)) and transported from Id at x = 0 through
    the grid.  scale and t are one value or one per system.  BATCH systems
    share a transport, each a pair of factors, and kappa_jet runs once per
    block and system."""
    n = len(samplers)
    scale = np.broadcast_to(np.asarray(scale, dtype=float), (n,))
    t = np.broadcast_to(np.asarray(t, dtype=float), (n,))
    F = np.empty((2, n, len(grid), 2, 2))
    for j in range(0, n, BATCH):
        part = slice(j, j + BATCH)
        systems = list(zip(samplers[part], scale[part], t[part]))
        r = np.concatenate([scale[part], scale[part]])[:, None]
        lam_r = np.repeat(LAMBDA, len(systems), axis=0) * r

        def generator(x, systems=systems, r=r, lam_r=lam_r):
            rk = np.stack([(ri * sampler.kappa_jet(ri * x, ti, order=0)[0]).c
                           for sampler, ri, ti in systems], axis=1)
            return 0.0, Series(np.concatenate([rk, rk], axis=1)) + lam_r, r

        Fj = transport(generator, 0.0, grid, config.integrator_rel_tol)
        F[0, part], F[1, part] = Fj[:len(systems)], Fj[len(systems):]
    return F


def _confirm(sampler: BendingSampler, s_end: float, Phi: np.ndarray,
             config: RunConfig) -> None:
    """One DOP853 integration of the t = 0 s-system from Id at s = 0 to
    s_end: rho when lien_evolve extends one period by its monodromy, so
    every other sample is exact algebra from confirmed frames, else the far
    end of the s-grid.  Its frames there must match Phi, the stack (2, 2, 2)
    of Phi+-(s_end), within max(tol_metric, CONFIRM_SLACK integrator_rel_tol)
    (relative, max-norm)."""
    if s_end == 0.0:
        return

    def rhs(s, y):
        return _frames_rhs(sampler.kappa_jet(float(s), 0.0, order=0)[0], y.tolist())

    sol = solve_ivp(rhs, (0.0, float(s_end)), [1.0, 0.0, 0.0, 1.0] * 2,
                    method="DOP853", rtol=max(config.integrator_rel_tol, 100.0 * EPS),
                    atol=config.integrator_abs_tol)
    if not sol.success:
        raise NumericFailure(f"s-system confirmation failed: {sol.message}")
    bound = max(config.tol_metric, CONFIRM_SLACK * config.integrator_rel_tol)
    for F, y in zip(Phi, sol.y[:, -1].reshape(2, 4)):
        miss = float(np.abs(F.ravel() - y).max() / np.abs(y).max())
        if miss > bound:
            raise NumericFailure(
                f"Taylor and DOP853 s-frames differ by {miss:.1e} > {bound:.0e} "
                f"at s = {s_end!r}")


def kksh_frames_t0(specs, config: RunConfig = DEFAULT):
    """The t = 0 s-monodromies: the stack (2, len(specs), 2, 2) of F+-(rho)
    from Id at s = 0, rho each spec's s-period, system i rescaled by
    s = rho_i sigma onto sigma in [0, 1] (_s_frames), BATCH per transport."""
    return _s_frames(specs, [spec.s_period for spec in specs], 0.0, [1.0], config)[:, :, 0]


def monodromy_trace_drift(ev: LienEvolution, rho: float):
    """(max |tr M+(t) - tr M+(0)|, same for the minus factor) over ev's
    t-grid, with no transport: M from ev's s-frames Phi+-, whose traces are
    those of F+- and stay well-conditioned however large A+-(t) grows."""
    M = np.stack([path.monodromy(rho) for path in ev.s_paths], axis=1)
    tr = np.trace(M, axis1=-2, axis2=-1)
    drift_p, drift_m = np.abs(tr - tr[:, :1]).max(axis=1)
    return float(drift_p), float(drift_m)


def kksh_mu_star(m: int, n: int, h: float, config: RunConfig = DEFAULT) -> float:
    """The elliptic parameter at which the minus-factor monodromy becomes the
    rotation by 2 pi 2/3.

    Root of p(mu) = Re(tr F-(rho) + sqrt((tr F-)^2 - 4))/2 - cos(4 pi/3):
    for an elliptic factor the square root is imaginary and p reduces to
    half the trace minus the target cosine.  The MU_STAR_SCAN points of
    MU_STAR_BRACKET are one batch of kksh_frames_t0; brentq refines the
    first sign change to MU_STAR_XTOL, one transport per evaluation.  Raises
    NumericFailure when the bracket misses the root.
    """
    from scipy.optimize import brentq

    from ..kdvsol import KkshSpec

    def rotation(Fm) -> float:
        tr = float(np.trace(Fm))
        disc = tr * tr - 4.0
        root_real = math.sqrt(disc) if disc > 0.0 else 0.0
        return 0.5 * (tr + root_real) - MU_STAR_TARGET

    def p(mu: float) -> float:
        return rotation(kksh_frames_t0([KkshSpec.with_quantum_numbers(mu, m, n, h)],
                                       config=config)[1][0])

    grid = np.linspace(*MU_STAR_BRACKET, MU_STAR_SCAN)
    _, Fm = kksh_frames_t0([KkshSpec.with_quantum_numbers(float(g), m, n, h)
                            for g in grid], config=config)
    vals = [rotation(F) for F in Fm]
    for i in range(MU_STAR_SCAN - 1):
        if vals[i] == 0.0:
            return float(grid[i])
        if vals[i] * vals[i + 1] < 0:
            return float(brentq(p, grid[i], grid[i + 1], xtol=MU_STAR_XTOL))
    raise NumericFailure(f"no sign change of the rotation condition on {MU_STAR_BRACKET}")

