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
probes, one array call of each.  The construction finds the t-frames
A+-(t) = F+-(0, t) first (from Id), then transports the s-systems for each
requested t, F+-(s, t) = A+-(t) Phi+-(s, t) with Phi+-(0, t) = Id, all by
the Taylor panels of ads_null_flows.transport.  The s-systems of all the
t-slices go through _s_frames, the one s-transport of the module (the t = 0
KKSH monodromies use it too): BATCH systems per transport, each a pair of
factors.  kappa_jet runs on a Series (of order 2 in dt at s = 0 for the
t-system) and yields the Taylor coefficients of P_lam about the panel
centres, one call per block for both factors; the s-systems of a batch of
KKSH specs take kappa in ds from one kdvsol.kksh_kappa_series call per
block, any other bending one order-0 kappa_jet call per block and system;
kappa of the paths is one array call.  The two factors never part: A,
Phi, every path's F (frames.SpinorFramePath) and the KKSH monodromies are
stacks with the factor axis first, F+ (lam = +1) then F- (lam = -1), the
order of frames.LAMBDA.  Every panel factor has det 1, so the frames are
unimodular to rounding and are never renormalized, and the panel counts
follow integrator_rel_tol.

The t-frames come from the period lattice when the sampler has one (a
KkshSpec with (m, n): kappa depends on (s, t) only through two phases, so
it is periodic on a lattice L of (s, t), KkshSpec.lattice).  The
connection is flat and L-periodic, so F(x + l) = F(l) F(x) for l in L and
the holonomies C_l = F(l) commute: Floquet's rule in two variables, as for
the commuting monodromies of finite-gap KdV (S. P. Novikov, Funct. Anal.
Appl. 8 (1974) 236; Belokolos, Bobenko, Enol'skii, Its & Matveev,
Algebro-Geometric Approach to Nonlinear Integrable Equations, 1994).  Each
(0, t_j) reduces to n1 l1 + n2 l2 + x_r with x_r in one cell, and A(t_j) =
C1^n1 C2^n2 F(x_r) (_t_frames): one t-transport over one cell and one
_s_frames call give F at the remainders and at l1, l2, and
transport.lattice_power writes the product as sigma (alpha I + beta P) from
the shared traceless part P, with cosh/sinh (cos/sin, or the parabolic
limit) of x = n1 a1 + n2 a2, so no power is formed and nothing overflows
before the frames do.  A t_j with n = 0, a sampler without a lattice (the
stationary bendings), and a t_j whose lattice frames would amplify the
transport's error past LATTICE_SLACK take the direct t-transport along
s = 0.  The commutator of C1 and C2 is a gate (agreement_bound).  For the
README recipe (t up to 1.61, 842 cells of height 0.0019) the t-system
shrinks from 2,040 panels over [0, 1.61] to 64 over one cell.

The bending has an s-period rho (every KKSH family and stationary
bending), and Phi from Id at s = 0 is unique, so every s-frame is computed
at its point, and Floquet's rule Phi(r + k rho) = M^k Phi(r) holds with M =
Phi(rho).  lien_evolve's s-route is (k, r, s_end) of _s_route: one
_s_frames call transports the s-systems to r, rho and s_end, and one
floquet_extend call gives every sample; s_end is rho on the periodic
route, and on the k = 0 route the grid's far end, or rho when that is
nearer.  DOP853 confirms the t = 0 s-system from Id at s = 0 to s_end
within tol_metric, or within CONFIRM_SLACK times integrator_rel_tol when
that is looser (DOP853's own global error); at s_end = rho the confirmed
frame is M itself.  At t = 0 both KKSH families and the stationary
bendings are even in s, which gives Phi(-s) = S Phi(s) S (S = diag(1, -1))
and M = Q S Q^{-1} S from Q = Phi(rho/2) (Hill's equation with an even
potential; transport.parity_monodromy).  _s_route measures that evenness
on the gate's probes, and on the periodic route an even bending is
confirmed over half the period.  A bending that fails the KdV gate, a
transport past its panel cap, a confirmation past its right-hand-side
budget (lame.budgeted_dop853(), built on first use, as it needs
scipy.integrate) and a missed confirmation each raise
NumericFailure.  The monodromies of F+- (SpinorFramePath.monodromy) are
conserved in t, and LienEvolution keeps the s-monodromies Phi+-(rho, t),
which are conjugate to them: the trace drift and the `kksh`
classification read them with no second transport.  It keeps the period
gap that _s_route measured too, whether the one-period route was taken,
the lattice cells of each t and the holonomy commutator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence

import numpy as np

from ..config import DEFAULT, NumericFailure, RunConfig, UsageError
from ..kdvsol import KkshSpec, kksh_kappa_series
from ..lame import budgeted_dop853
from ..scipy_deferred import solve_ivp
from ..specfun.series import Series
from ..transport import EPS, floquet_extend, lattice_power, parity_monodromy, transport
from .frames import LAMBDA, SpinorFramePath, _frames_rhs

# DOP853's global error over the s-span runs to several times its rtol
CONFIRM_SLACK = 100.0
KDV_GATE = 1e-3      # lien_evolve's input gate on the KdV residual
# the most the lattice route may amplify the transport's error at a t_j
# (_t_frames); past it the t_j is transported directly.  The README recipe
# reads at most 21 and (3, 2) at mu = 0.5, t <= 10, 11; (4, 3) at
# mu = 0.5, h = 1 reads 1e14 on both of its remainders
LATTICE_SLACK = 100.0
GATE_PROBES = 12     # s-probes of the gate (and up to 6 t-probes)
# s-systems per transport in _s_frames, which share one panel count (the
# hardest system's) and one kappa series per block: four leave the peak
# resident set of the `kksh` recipe level, all twelve scan points in one
# transport grew it by 1.6 MB
BATCH = 4
# kksh_mu_star: the target cos(2 pi 2/3) of half the minus trace, the mu
# bracket scanned at MU_STAR_SCAN points (BATCH per transport), the bracket
# width that certifies the root, and the most refinement rounds (a round
# that does not halve the bracket is followed by one that divides it by
# BATCH + 1, so 20 rounds close any scan step of the bracket to 1e-8)
MU_STAR_TARGET = math.cos(2.0 * math.pi * 2 / 3)
MU_STAR_BRACKET = (0.3, 0.85)
MU_STAR_SCAN = 12
MU_STAR_XTOL = 1e-8
MU_STAR_ROUNDS = 30


class BendingSampler(Protocol):
    """Bending with analytic s-jets and a t-derivative (for the input gate),
    periodic in s with period s_period.  Both take scalar s and t or,
    elementwise, arrays of them; kappa_jet also takes a Series s or t (the
    transport's panels).  Evenness in s at t = 0 is not declared: _s_route
    measures it, and the half-period confirmation is used when it holds."""

    s_period: float

    def kappa_jet(self, s, t=0.0, order: int = 3) -> list: ...

    def kappa_t(self, s, t=0.0): ...


def kdv_gate(sampler: BendingSampler, s_probes, t_probes, tol: float):
    """Max |kappa_t - 6 kappa kappa_s + kappa_sss| over the probe grid, from
    one array call of each; a NaN residual fails the gate, so a bending
    whose jets overflow float64 fails it without warnings.  Returns the
    residual and the probe mesh (s, t) with kappa, kappa_s and kappa_t on
    it, which the period test of _s_route reuses."""
    s, t = np.meshgrid(np.asarray(s_probes, dtype=float),
                       np.asarray(t_probes, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        k0, k1, _, k3 = sampler.kappa_jet(s, t, order=3)
        kt = sampler.kappa_t(s, t)
        worst = float(np.abs(kt - 6.0 * k0 * k1 + k3).max())
    if not worst <= tol:
        raise NumericFailure(
            f"bending violates the KdV residual gate: {worst:.3e} > {tol:.1e}")
    return worst, (s, t, k0, k1, kt)


def _s_route(sampler: BendingSampler, s_grid: np.ndarray, mesh, rel_tol: float):
    """lien_evolve's s-route (k, r, s_end, gap, even), s_grid = k rho + r.
    If the grid spans more than a period rho, one order-0 call on the gate's
    mesh measures the period gap max |kappa(s + rho, t) - kappa(s, t)| /
    max |kappa| (a quantized family meets its constraint only to a gap) and
    the parity gap of kappa(-s, 0) against kappa(s, 0), relative alike.  If
    the period gap is within rel_tol or within kappa's rounding at s and s +
    rho, 2 EPS (max |t kappa_t| + max |(|s| + rho) kappa_s|) / max |kappa|,
    then k, r = divmod(s_grid, rho), s_end = rho, and even says whether the
    parity gap is within that bound too.  Otherwise k = 0, r = s_grid, even
    is False and s_end is the grid's far end, or rho when that is nearer (so
    the confirmed frame is M).  gap is None when the grid spans at most
    rho."""
    rho = sampler.s_period
    far = float(s_grid[0 if abs(s_grid[0]) > abs(s_grid[-1]) else -1])
    full = (0, s_grid, far if abs(far) >= rho else rho)
    if s_grid.max() - s_grid.min() <= rho:
        return full + (None, False)
    s, t, k0, k1, kt = mesh
    k = np.asarray(sampler.kappa_jet(np.stack([s, s + rho, -s]), t, order=0)[0], dtype=float)
    scale = np.abs(k[:2]).max()
    gap = float(np.abs(k[1] - k[0]).max() / scale)
    reach = np.abs(t * kt).max() + np.abs((np.abs(s) + rho) * k1).max()
    bound = max(rel_tol, 2.0 * EPS * reach / np.abs(k0).max())
    if not gap <= bound:
        return full + (gap, False)
    # the mesh's first row is t = 0
    even = np.abs(k[2, 0] - k[0, 0]).max() / scale <= bound
    k, r = np.divmod(s_grid, rho)
    return k, r, rho, gap, bool(even)


@dataclass
class LienEvolution:
    t_grid: np.ndarray
    paths: List[SpinorFramePath]      # F+-(s, t_j)
    monodromies: np.ndarray           # (2, nt, 2, 2): Phi+-(rho, t_j), from Id at s = 0
    gate_residual: float
    period_gap: Optional[float]       # _s_route's, None when the grid spans at most rho
    one_period: bool                  # the s-frames extend one transported period
    cells: Optional[np.ndarray]       # (nt, 2): (n1, n2) of each t_j, None without a lattice
    commutator: Optional[float]       # of the holonomies, None unless a t took the lattice route

    def monodromy_drift(self, rho: float) -> float:
        """max_t ||M(t) - M(0)||_max over both factors, with
        M(t) = F(s0 + rho, t) F(s0, t)^{-1}."""
        M = np.stack([path.monodromy(rho) for path in self.paths])
        return float(np.abs(M - M[0]).max())


def lien_evolve(sampler: BendingSampler, s_grid: Sequence[float],
                t_grid: Sequence[float], config: RunConfig = DEFAULT) -> LienEvolution:
    """Two-step integration of the extended frames over the (s, t) grid.

    t_grid must start at 0 (the normalization point F+-(0, 0) = Id) and be
    increasing; s_grid is any grid, each of its points reached from s = 0.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[0] != 0.0 or not np.all(np.isfinite(t_grid)) or \
            (len(t_grid) > 1 and np.any(np.diff(t_grid) <= 0)):
        raise UsageError("t_grid must be finite, start at 0 and increase")

    s_probe = np.linspace(s_grid[0], s_grid[-1], GATE_PROBES)
    t_probe = np.linspace(t_grid[0], t_grid[-1], min(GATE_PROBES, 6))
    gate, mesh = kdv_gate(sampler, s_probe, t_probe, KDV_GATE)

    # step 1: A+-(t) = F+-(0, t), from one lattice cell when kappa has a
    # period lattice
    A, cells, commutator = _t_frames(sampler, t_grid, config)

    # step 2: the s-systems of all t-slices at r, rho and s_end, then
    # F+-(s, t) = A+-(t) M+-(t)^k Phi+-(r, t)
    rho = sampler.s_period
    k, r, s_end, gap, even = _s_route(sampler, s_grid, mesh, config.integrator_rel_tol)
    Phi = _s_frames([sampler] * len(t_grid), 1.0, t_grid, np.append(r, [rho, s_end]), config)
    # whenever s_end is rho, the confirmed entry is the one that serves as M
    M = Phi[:, :, -1 if s_end == rho else -2]
    _confirm(sampler, s_end, Phi[:, 0, -1], config, even)
    F = A[:, :, None] @ floquet_extend(M, Phi[:, :, :len(r)], k)
    kappa = np.asarray(sampler.kappa_jet(s_grid, t_grid[:, None], order=0)[0], dtype=float)
    paths = [SpinorFramePath(s_grid, F[:, j], kappa[j]) for j in range(len(t_grid))]
    return LienEvolution(t_grid, paths, M, gate, gap, isinstance(k, np.ndarray),
                         cells, commutator)


def agreement_bound(config: RunConfig) -> float:
    """The relative bound on two computations of one frame: max(tol_metric,
    CONFIRM_SLACK integrator_rel_tol), the looser when DOP853's own error
    is (see _confirm); the holonomy commutator is held to it too."""
    return max(config.tol_metric, CONFIRM_SLACK * config.integrator_rel_tol)


def _t_frames(sampler: BendingSampler, t_grid: np.ndarray, config: RunConfig):
    """(A, cells, commutator): A+-(t_j) = F+-(0, t_j), the stack (2, nt, 2,
    2); the lattice cells (n1, n2) of each t_j (sampler.cells; None for a
    sampler without a lattice); and the holonomy commutator, None unless a
    t_j took the lattice route.

    Without a lattice, or with every t_j in the first cell (n = 0), A is one
    transport of the t-system over t_grid.  Otherwise (0, t_j) = n1 l1 + n2
    l2 + x_r, and F(0, t_j) = C1^n1 C2^n2 F(x_r) with the holonomies C_i =
    F(l_i) (transport.lattice_power), every frame F(s, t) = A(t) Phi(s, t)
    inside one cell: one t-transport to the t of each x_r and l_i (the t_j
    themselves where n = 0), then one _s_frames call for the s of each,
    system i rescaled by s onto [0, 1].  Each t_j has two remainders, x_r
    and x_r - l1, whose s-legs run to either side of s = 0; each factor
    takes the one whose error is amplified least, |C^n| |A(t_r)|
    |Phi(s_r, t_r)| / |A(t_j)| (max-norms): the other can cancel by the
    size of the s-monodromy or its square (measured: 1.8 relative, against
    5e-12, for (3, 2) at mu = 0.5 and t = 5).  A t_j whose amplification
    exceeds LATTICE_SLACK in either factor is transported directly, and its
    cells read 0; so is every far t_j when a holonomy's own path amplifies
    past it.  The holonomies commute in each factor; max |C1 C2 - C2 C1| /
    (|C1| |C2|) (max-norm) past agreement_bound, and lattice frames past the
    float range (before any direct transport, which would only meet its
    panel cap), raise NumericFailure."""
    generator, rel_tol = _t_generator(sampler), config.integrator_rel_tol
    lattice = getattr(sampler, "lattice", None)
    n, x = sampler.cells(t_grid) if lattice is not None else (None, None)
    if n is None or not n.any():
        return transport(generator, t_grid, rel_tol), n, None
    far = n.any(axis=1)
    ends = np.concatenate([x[far], x[far] - lattice[0], lattice])
    A = transport(generator, np.append(x[:, 1], ends[:, 1]), rel_tol)
    Phi = _s_frames([sampler] * len(ends), ends[:, 0], ends[:, 1], [1.0], config)[:, :, 0]
    Ar = A[:, len(t_grid):]
    F = Ar @ Phi
    C1, C2 = F[:, -2], F[:, -1]
    bound = agreement_bound(config)
    # a zero holonomy gives NaN, which fails the gate
    with np.errstate(divide="ignore", invalid="ignore"):
        commutator = float((_size(C1 @ C2 - C2 @ C1) / (_size(C1) * _size(C2))).max())
    if not commutator <= bound:
        raise NumericFailure(f"lattice holonomies commute only to {commutator:.1e} > "
                             f"{bound:.0e}")
    Pi = lattice_power(F[:, -2:], np.concatenate([n[far], n[far] + [1, 0]]))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = Pi @ F[:, :-2]
        amp = np.nan_to_num(_size(Pi) * _size(Ar[:, :-2]) * _size(Phi[:, :-2]) / _size(out),
                            nan=np.inf)
        # holonomies reached through cancellation spoil every cell
        held = (_size(Ar[:, -2:]) * _size(Phi[:, -2:]) / _size(F[:, -2:])).max(axis=1)
    k = int(far.sum())
    second = amp[:, k:] < amp[:, :k]
    A = A[:, :len(t_grid)]
    A[:, far] = np.where(second[..., None, None], out[:, k:], out[:, :k])
    if not np.isfinite(A).all():
        raise NumericFailure(f"t-frames overflow over {int(np.abs(n).max())} lattice cells")
    worst = np.maximum(np.where(second, amp[:, k:], amp[:, :k]), held[:, None])
    direct = np.zeros(len(t_grid), dtype=bool)
    direct[far] = ~(worst <= LATTICE_SLACK).all(axis=0)
    if direct.any():
        A[:, direct] = transport(generator, t_grid[direct], rel_tol)
        n[direct] = 0
    return A, n, commutator if n.any() else None


def _size(F: np.ndarray) -> np.ndarray:
    """max |F| of each frame (..., 2, 2)."""
    return np.abs(F).max(axis=(-2, -1))


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
    scale[i] K_lam(scale[i] x)) and transported from Id at x = 0 to each
    grid point.  scale and t are one value or one per system.  BATCH systems
    share a transport, each a pair of factors.  Per block, the kappa of a
    batch of KKSH specs is one kksh_kappa_series call; any other bending
    takes one kappa_jet call per system."""
    n = len(samplers)
    scale = np.broadcast_to(np.asarray(scale, dtype=float), (n,))
    t = np.broadcast_to(np.asarray(t, dtype=float), (n,))
    F = np.empty((2, n, len(grid), 2, 2))
    for j in range(0, n, BATCH):
        part = slice(j, j + BATCH)
        specs, c, tj = samplers[part], scale[part, None], t[part]
        r = np.concatenate([c, c])
        lam_r = np.repeat(LAMBDA, len(specs), axis=0) * r

        def generator(x, specs=specs, c=c, tj=tj, r=r, lam_r=lam_r,
                      batched=all(isinstance(sampler, KkshSpec) for sampler in specs)):
            if batched:
                rk = (c * kksh_kappa_series(specs, c * x, tj)).c
            else:
                rk = np.stack([(ci * sampler.kappa_jet(ci * x, ti, order=0)[0]).c
                               for sampler, ci, ti in zip(specs, c[:, 0], tj)], axis=1)
            return 0.0, Series(np.concatenate([rk, rk], axis=1)) + lam_r, r

        Fj = transport(generator, grid, config.integrator_rel_tol)
        F[0, part], F[1, part] = Fj[:len(specs)], Fj[len(specs):]
    return F


def _confirm(sampler: BendingSampler, s_end: float, Phi: np.ndarray,
             config: RunConfig, even: bool) -> None:
    """One DOP853 integration of the t = 0 s-system from Id at s = 0 to
    s_end (see _s_route), or, when even (kappa(., 0) even and s_end = rho,
    its period), to rho/2 only: then the frame at rho is M = Q S Q^{-1} S
    from Q = Phi(rho/2) (transport.parity_monodromy).  Its frames at s_end
    must match Phi, the stack (2, 2, 2) of Phi+-(s_end), within
    agreement_bound(config) (relative, max-norm).  Its right-hand sides are
    budgeted (lame.budgeted_dop853)."""
    def rhs(s, y):
        return _frames_rhs(sampler.kappa_jet(float(s), 0.0, order=0)[0], y.tolist())

    sol = solve_ivp(rhs, (0.0, float(0.5 * s_end if even else s_end)),
                    [1.0, 0.0, 0.0, 1.0] * 2, method=budgeted_dop853(),
                    rtol=max(config.integrator_rel_tol, 100.0 * EPS),
                    atol=config.integrator_abs_tol)
    if not sol.success:
        raise NumericFailure(f"s-system confirmation failed: {sol.message}")
    ref = sol.y[:, -1].reshape(2, 2, 2)
    if even:
        ref = parity_monodromy(ref)
    bound = agreement_bound(config)
    for F, y in zip(Phi, ref):
        miss = float(np.abs(F - y).max() / np.abs(y).max())
        if miss > bound:
            raise NumericFailure(
                f"Taylor and DOP853 s-frames differ by {miss:.1e} > {bound:.0e} "
                f"at s = {s_end!r}")


def kksh_frames_t0(specs, config: RunConfig = DEFAULT):
    """The t = 0 s-monodromies: the stack (2, len(specs), 2, 2) of F+-(rho)
    from Id at s = 0, rho each spec's s-period, system i rescaled by
    s = rho_i sigma onto sigma in [0, 1] (_s_frames), BATCH per transport."""
    return _s_frames(specs, [spec.s_period for spec in specs], 0.0, [1.0], config)[:, :, 0]


def monodromy_trace_drift(ev: LienEvolution):
    """(max |tr M+(t) - tr M+(0)|, same for the minus factor) over ev's
    t-grid, with no transport: the traces of ev's s-monodromies Phi+-(rho,
    t), which are those of the monodromies of F+- and stay well-conditioned
    however large A+-(t) grows."""
    tr = np.trace(ev.monodromies, axis1=-2, axis2=-1)
    drift_p, drift_m = np.abs(tr - tr[:, :1]).max(axis=1)
    return float(drift_p), float(drift_m)


def _inverse_root(points) -> float:
    """Where the polynomial mu(p) through the (mu, p) points reads p = 0:
    inverse interpolation in Lagrange form, nan when two p agree."""
    root = 0.0
    for k, (mu_k, p_k) in enumerate(points):
        w = mu_k
        for j, (_, p_j) in enumerate(points):
            if j != k:
                if p_j == p_k:
                    return math.nan
                w *= p_j / (p_j - p_k)
        root += w
    return root


def kksh_mu_star(m: int, n: int, h: float, config: RunConfig = DEFAULT) -> float:
    """The lowest mu of MU_STAR_BRACKET at which the minus-factor monodromy
    F-(rho) is the rotation by 2 pi 2/3.

    Root of the trace condition g(mu) = tr F-(rho)/2 - cos(4 pi/3), which is
    analytic in mu; its roots are exactly the rotations, since |tr F-| = 1 < 2
    makes the factor elliptic.  Every evaluation of g is one kksh_frames_t0
    call of at most BATCH points, one transport.

    The scan takes the MU_STAR_SCAN points of MU_STAR_BRACKET BATCH at a
    time from the low end and stops at the first batch that shows the first
    sign change (or an exact zero, which is returned), the one the full scan
    would find.  Each refinement round then evaluates BATCH points strictly
    inside the bracket, about the inverse-cubic root c of the four evaluated
    points nearest the bracket (Alefeld, Potra & Shi, ACM TOMS 21 (1995)
    327), spread evenly over c +- d: d is the gap between c and the
    inverse-quadratic root of the nearest three, at least MU_STAR_XTOL/4
    and at most a quarter of the bracket, and c is moved inward until the
    points fit.  The bracket shrinks to the first adjacent pair of evaluated
    points whose g change sign; a round that does not halve it makes the
    next round's points evenly spaced.  Once the bracket is at most
    MU_STAR_XTOL wide it certifies the root: the inverse-cubic root is
    returned when it lies inside, else the secant root of the pair.  Raises
    NumericFailure naming the bracket when the scan finds no sign change
    ((1, 2, 1) has no rotation in it), or when MU_STAR_ROUNDS rounds leave
    the bracket wider than MU_STAR_XTOL.

    The scan step (0.05) cannot see a step that holds an even number of
    roots, since g has the same sign at its ends: (3, 7, 2) has two in
    (0.8, 0.85) and raises.  A step with three or more roots gives one of
    them; (3, 10, 1) has one in (0.7, 0.75), 0.72547, and three in
    (0.75, 0.8).
    """
    def rotation(mus) -> np.ndarray:
        _, Fm = kksh_frames_t0([KkshSpec.with_quantum_numbers(float(mu), m, n, h)
                                for mu in mus], config=config)
        tr = np.trace(Fm, axis1=-2, axis2=-1)
        return 0.5 * tr - MU_STAR_TARGET

    grid = np.linspace(*MU_STAR_BRACKET, MU_STAR_SCAN)
    vals = np.empty(0)
    for i in range(MU_STAR_SCAN - 1):
        if len(vals) < i + 2:
            vals = np.append(vals, rotation(grid[len(vals):len(vals) + BATCH]))
        if vals[i] == 0.0:
            return float(grid[i])
        if vals[i] * vals[i + 1] < 0:
            break
    else:
        raise NumericFailure(f"no sign change of the rotation condition on {MU_STAR_BRACKET}")

    points = list(zip(grid[:len(vals)].tolist(), vals.tolist()))
    (a, fa), (b, fb) = points[i], points[i + 1]

    def estimates():
        """The inverse-cubic and inverse-quadratic roots of the evaluated
        points nearest [a, b] (a and b first)."""
        near = sorted(points, key=lambda q: max(a - q[0], q[0] - b, 0.0))[:4]
        return _inverse_root(near), _inverse_root(near[:3])

    even = False
    for _ in range(MU_STAR_ROUNDS):
        width = b - a
        c, q = estimates()
        if even or not math.isfinite(c - q):
            batch = a + width * np.arange(1, BATCH + 1) / (BATCH + 1)
        else:
            d = min(max(abs(c - q), MU_STAR_XTOL / 4), width / 4)
            batch = min(max(c, a + 2 * d), b - 2 * d) + d * np.linspace(-1.0, 1.0, BATCH)
        vals = rotation(batch)
        points += zip(batch.tolist(), vals.tolist())
        x, f = [a, *batch.tolist(), b], [fa, *vals.tolist(), fb]
        for j in range(BATCH + 1):
            if f[j + 1] == 0.0:
                return x[j + 1]
            if f[j] * f[j + 1] < 0:
                (a, fa), (b, fb) = (x[j], f[j]), (x[j + 1], f[j + 1])
                break
        if b - a <= MU_STAR_XTOL:
            c, _ = estimates()
            return c if a <= c <= b else a - fa * (b - a) / (fb - fa)
        even = b - a > width / 2
    raise NumericFailure(f"mu* not bracketed to {MU_STAR_XTOL:.0e} in {MU_STAR_ROUNDS} rounds "
                         f"(last bracket [{a!r}, {b!r}])")
