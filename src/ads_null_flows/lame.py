"""Floquet theory for the first-order Lame equation

    f'' + (h - 2 mu sn^2(s, mu)) f = 0.

The fundamental matrix, arranged as

    delta(s) = [[cl, cl'], [sl, sl']],   delta(0) = Id,
    delta'   = delta [[0, 2 mu sn^2 - h], [1, 0]],

transports by left multiplication over the potential period:
delta(s + 2K) = M delta(s) with monodromy M = delta(2K).  The potential is
even, so delta(-s) = S delta(s) S with S = diag(1, -1), and the half period
fixes M = Q S Q^{-1} S with Q = delta(K) (parity_monodromy; the parity of
Hill's equation with an even potential; Eastham, The Spectral Theory of
Periodic Differential Equations, 1973).  An eigenvalue h is in the Floquet
spectrum when M has finite order; its characteristic exponent q in [0,1]
is the eigenvalue phase over pi, i.e. tau(h) := tr M / 2 = cos(q pi).  For
a reduced q = p/d the order follows from q alone: M has eigenvalues
exp(+-i pi q), so M^n = Id first at n = d for even p and n = 2d for odd p
(1 and 2 at the coexistence points q = 0, 1, where M = +-Id).

Eigenvalue search: the potential is one-gap, so Hermite's solution
y = H(u + alpha)/Theta(u) exp(-u Z(alpha)) (Whittaker & Watson, ch. XXIII)
gives the discriminant in closed form, tau = -cos(theta), on the two bands.
With primes for Jacobi functions of Hermite's spectral parameter beta at
parameter 1 - mu, beta in (0, K'):
  * lower band [mu, 1]:   h = 1 + mu - mu / dn'^2(beta), theta from -pi to 0;
  * upper band [1+mu, inf): h = 1 + mu + mu sc'^2(beta), theta from 0 to inf;
and am(beta) is elementary in h, so theta(h) costs one incomplete F and E.
theta increases strictly with h on each band, so the eigenvalues with
exponent q are the roots of theta(h) = 2 pi j -+ (1 - q) pi, taken in
increasing order below the search ceiling (q in {0, 1}: the upper-band
coexistence points theta = (2j + 1 + q) pi, where M = +-Id).  Each root is
bracketed by its band and found by brentq; only once all are found are the
half-period frames Q integrated over [0, K], by one DOP853 run that carries
the frame of every eigenvalue beside one Jacobi triple, and each M follows
from its Q by parity; this ODE route stays the oracle for tau, and so for
the order (at q in {0, 1} the gate also checks that M is diagonal).
lame_monodromy is the module's only DOP853 integration.  Its method,
budgeted_dop853() (a DOP853 with a right-hand-side budget), is built on
first use, since scipy is imported only when a function first needs it
(scipy_deferred).  A root find that does not converge, a monodromy that
misses the gate or drifts from det 1, and fewer than the requested
eigenvalues below the search ceiling are each a NumericFailure; mu, h or q
outside its domain is a UsageError.

The fundamental matrix on a grid, an (n, 2, 2) stack of delta(s), is
produced two independent ways: the Taylor-panel kernel of
ads_null_flows.transport on the sl2 generator (0, 2 mu sn^2 - h, 1), one
transport from delta(0) = Id through the whole grid, each grid point read
off its panel's series (several h, such as the pair of a stationary curve,
ride on the kernel's factor axis of one transport), and the closed form
through the two local Heun functions

    cl~(s) = Hl1(mu,h; sn^2) sqrt(1 - mu sn^2)
    sl~(s) = Hl2(mu,h; sn^2) sqrt(1 - mu sn^2) sn

which equal (cl, sl) on the closed base cell [-K, K] and extend to the line
by Floquet's rule delta(s) = M^p delta~(s - 2pK) (transport.floquet_extend,
M^p in transport.lattice_power's closed form), with M from Q+ = delta~(K)
by the same parity rule as the ODE route (parity_monodromy).  Q+ is exact: near z = sn^2 = 1 each Hl is the
Frobenius pair at z = 1, Hl = A u0(cn^2) + B cn u1(cn^2) (specfun.heun), so
Hl = A and d Hl/ds = -B dn at s = K, where dn = sqrt(1 - mu):

    cl~(K) = A1 sqrt(1 - mu),  cl~'(K) = -B1 (1 - mu),
    sl~(K) = A2 sqrt(1 - mu),  sl~'(K) = -B2 (1 - mu).

A path is one array evaluation: the Taylor panels for sn^2 <= z_match, the
pair at z = 1 with cn itself beyond (so no derivative divides by cn), then
M^p per period in closed form.  Every Hl has a = 1/mu, so all share one
panel chain, and HeunLameEvaluator, given a sequence of h (such as the pair
of a stationary curve), evaluates the 2 len(h) of them in one Horner pass
(specfun.HeunStack) at one reduction and one Jacobi triple per point.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .config import DEFAULT, NumericFailure, RunConfig, UsageError
from .scipy_deferred import ellipeinc, ellipkinc, solve_ivp
from .specfun import (HeunEvaluator, HeunStack, JacobiScalar, complete_elliptic,
                      jacobi_sncndn, lame_heun_params)
from .specfun.elliptic import _check_mu, period_remainder
from .transport import EPS, floquet_extend, parity_monodromy, transport


# right-hand sides per run of a DOP853 oracle (lame_monodromy, the
# confirmation of nullcurve.evolve): a Lame monodromy at h = 1e6 takes
# 123,000 (at 1e7, 390,000, and its det check fails), the kksh recipe's
# confirmation 1,946
MAX_RHS_CALLS = 1 << 20


@functools.cache
def budgeted_dop853():
    """BudgetedDOP853, the method of both DOP853 oracles, built on first use
    (its base class needs scipy.integrate)."""
    from scipy.integrate import DOP853

    class BudgetedDOP853(DOP853):
        """DOP853 with a work budget: a step begun past MAX_RHS_CALLS
        right-hand sides raises NumericFailure, so no setting can make an
        oracle run unbounded.  It checks nfev once per step, so the steps,
        nfev and result are DOP853's."""

        def step(self):
            if self.nfev > MAX_RHS_CALLS:
                raise NumericFailure(f"DOP853 needs more than {MAX_RHS_CALLS} right-hand sides")
            return super().step()

    return BudgetedDOP853


@dataclass
class FloquetRecord:
    mu: float
    q_num: int
    q_den: int
    index: int
    h: float
    monodromy: np.ndarray

    @property
    def q(self) -> float:
        return self.q_num / self.q_den

    @property
    def order(self) -> int:
        """The least n with M^n = Id, from q = p/d: d for even p, 2d for odd p."""
        return self.q_den if self.q_num % 2 == 0 else 2 * self.q_den

    @property
    def tau(self) -> float:
        return 0.5 * float(np.trace(self.monodromy))


def _lame_rhs_factory(mu: float, hs):
    """Frames for each h in hs + one shared Jacobi triple as one
    autonomous-in-arithmetic system: the states (a, b, c, d) of each frame
    in turn, then (sn, cn, dn).

    Carrying (sn, cn, dn) as extra states removes all special-function calls
    from the right-hand side; their own ODEs (sn' = cn dn, cn' = -sn dn,
    dn' = -mu sn cn) are integrated at the same tolerance.
    """
    def rhs(_, y):
        *frames, sn, cn, dn = y.tolist()
        w0 = 2.0 * mu * sn * sn
        out = []
        for i, h in enumerate(hs):
            a, b, c, d = frames[4 * i:4 * i + 4]
            w = w0 - h
            out += (b, w * a, d, w * c)
        out += (cn * dn, -sn * dn, -mu * sn * cn)
        return out
    return rhs


def _lame_generator(mu: float, h):
    """The entries (0, 2 mu sn^2 - h, 1) of the sl2 generator of delta, at a
    Series s (the transport's panels); an array h (factors, 1) puts one
    system per h on the factor axis."""
    def generator(s):
        sn, _, _ = jacobi_sncndn(s, mu)
        return 0.0, 2.0 * mu * sn * sn - h, 1.0
    return generator


def _check_h(h: float) -> float:
    h = float(h)
    if not math.isfinite(h):
        raise UsageError(f"h must be finite, got {h}")
    return h


def _check_hs(h) -> List[float]:
    """The h of a number or of a non-empty sequence, each finite."""
    hs = [_check_h(x) for x in np.atleast_1d(h)]
    if not hs:
        raise UsageError("h must be a number or a non-empty sequence")
    return hs


def lame_monodromy(mu: float, h, config: RunConfig = DEFAULT) -> np.ndarray:
    """delta(2K(mu)), the ODE oracle of floquet_search's gate, by parity
    from Q = delta(K), integrated by DOP853 on [0, K]; for a sequence of h,
    the (len(h), 2, 2) stack of one integration that carries a frame per h
    beside one Jacobi triple.  det M = (det Q)^2 keeps the integration's
    drift for the check below, one per h.

    DOP853 bounds the root mean square of the scaled step error over its
    n = 4 len(h) + 3 states, so the tolerances shrink by sqrt(7 / n): the
    error of any one frame with the triple is then held as tightly as in a
    run of its own, and a single h is integrated exactly as alone.  Its
    right-hand sides are budgeted (budgeted_dop853)."""
    mu = _check_mu(mu)
    hs = _check_hs(h)
    K, _ = complete_elliptic(mu)
    y0 = [1.0, 0.0, 0.0, 1.0] * len(hs) + [0.0, 1.0, 1.0]   # Id per h, (sn, cn, dn)(0)
    scale = math.sqrt(7.0 / len(y0))
    sol = solve_ivp(_lame_rhs_factory(mu, hs), (0.0, K), y0, method=budgeted_dop853(),
                    rtol=scale * max(config.integrator_rel_tol, 100.0 * EPS),
                    atol=scale * config.integrator_abs_tol)
    if not sol.success:
        raise NumericFailure(f"Lame integration failed: {sol.message}")
    M = parity_monodromy(sol.y[:-3, -1].reshape(-1, 2, 2))
    for x, det in zip(hs, np.linalg.det(M)):
        if abs(det - 1.0) > 1e-10:
            raise NumericFailure(f"monodromy determinant drift {det - 1.0:.2e} at h = {x!r}")
    return M if np.ndim(h) else M[0]


def hermite_phase(mu: float, h: float) -> float:
    """Hermite's Floquet phase theta(h), with tau(h) = -cos(theta), on the
    closed bands [mu, 1] (theta from -pi to 0) and [1 + mu, inf) (theta from
    0 to inf); strictly increasing on each.  phi = am(beta | 1 - mu), the
    amplitude of Hermite's spectral parameter beta, is elementary in h."""
    mu = _check_mu(mu)
    K, E = complete_elliptic(mu)
    m1 = 1.0 - mu
    if mu <= h <= 1.0:           # h = 1 + mu - mu / dn'^2(beta)
        phi = math.asin(min(1.0, math.sqrt((1.0 - h) / (m1 * (1.0 + mu - h)))))
        s, c = math.sin(phi), math.cos(phi)
        lead = m1 * s * c / math.sqrt(1.0 - m1 * s * s)
    elif h >= 1.0 + mu:          # h = 1 + mu + mu sc'^2(beta)
        phi = math.atan(math.sqrt(max(0.0, h - 1.0 - mu) / mu))
        s = math.sin(phi)
        lead = math.tan(phi) * math.sqrt(1.0 - m1 * s * s)
    else:
        raise UsageError(f"h = {h} lies outside the bands [mu, 1] and [1 + mu, inf)")
    # 2K (lead - Z'(beta) - pi beta / (2 K K')), by Legendre's relation
    return 2.0 * (K * lead - K * ellipeinc(phi, m1) + (K - E) * ellipkinc(phi, m1))


def _phase_targets(q: float):
    """Solutions of cos(theta) = -cos(q pi) in increasing order: for q in
    (0, 1) the lower-band root -(1 - q) pi, then (2j +- (1 - q)) pi; for
    q in {0, 1} the coexistence points (2j + 1 + q) pi of the upper band."""
    a = (1.0 - q) * math.pi
    for j in itertools.count():
        if 0.0 < q < 1.0:
            yield 2.0 * math.pi * j - a
            yield 2.0 * math.pi * j + a
        else:
            yield (2 * j + 1 + q) * math.pi


def floquet_search(mu: float, q_num: int, q_den: int, count: int,
                   config: RunConfig = DEFAULT) -> List[FloquetRecord]:
    """First `count` Floquet eigenvalues with characteristic exponent
    q = q_num/q_den below config.scan_h_ceiling, in increasing order."""
    from scipy.optimize import brentq
    mu = _check_mu(mu)
    if q_den <= 0 or q_num < 0 or q_num > q_den or math.gcd(q_num, q_den) != 1:
        raise UsageError("q must be a reduced fraction in [0, 1]")
    if count < 1:
        raise UsageError("count must be >= 1")
    if 1.0 + mu == 1.0:
        raise UsageError(f"mu = {mu!r} closes the gap (1, 1 + mu) in float64")
    q = q_num / q_den
    top = config.scan_h_ceiling
    if 1.0 < top < 1.0 + mu:
        top = 1.0
    theta_max = hermite_phase(mu, top) if top >= mu else -math.inf
    hs: List[float] = []
    for target in _phase_targets(q):
        if target > theta_max or len(hs) >= count:
            break
        lo, hi = (mu, 1.0) if target < 0.0 else (1.0 + mu, top)
        # xtol at its floor: the root to the rounding of h (brentq's least
        # rtol), in four times the bisections that take the bracket there,
        # since theta plateaus at its rounding level high up the upper band
        budget = 4 * math.ceil(math.log2((hi - lo) / (8.9e-16 * lo)))
        h, root = brentq(lambda x: hermite_phase(mu, x) - target, lo, hi, xtol=math.ulp(0.0),
                         rtol=8.9e-16, maxiter=budget, full_output=True, disp=False)
        if not root.converged:
            raise NumericFailure(f"the root of theta(h) = {target!r} on [{lo!r}, {hi!r}] "
                                 f"did not converge: {root.flag}")
        hs.append(float(h))
    if len(hs) < count:
        raise NumericFailure(
            f"found {len(hs)} < {count} eigenvalues below h = {config.scan_h_ceiling}")
    # the ODE monodromies, of one integration, must confirm the closed-form
    # roots, and so the records' order; at q in {0, 1} each must be the
    # double point M = +-Id
    records: List[FloquetRecord] = []
    for h, M in zip(hs, lame_monodromy(mu, hs, config)):
        miss = abs(0.5 * float(np.trace(M)) - math.cos(q * math.pi))
        if miss > config.tol_floquet or (
                q_num in (0, q_den)
                and max(abs(M[0, 1]), abs(M[1, 0])) > math.sqrt(config.tol_floquet)):
            raise NumericFailure(f"monodromy at h = {h!r} fails the Floquet gate: "
                                 f"|tau - cos(q pi)| = {miss:.1e}, M = {M.tolist()}")
        records.append(FloquetRecord(mu, q_num, q_den, len(records), h, M))
    return records


# ----------------------------------------------------------------- solutions

def fundamental_ode(mu: float, h, s_grid, config: RunConfig = DEFAULT) -> np.ndarray:
    """The (n, 2, 2) stack of delta(s) on the grid, by Taylor-panel transport
    from delta(0) = Id to each grid point (any order, either side of 0); for
    a sequence of h, the stacks (len(h), n, 2, 2) of one transport with the
    h on its factor axis."""
    mu = _check_mu(mu)
    hs = np.array(_check_hs(h))[:, None]
    F = transport(_lame_generator(mu, hs), s_grid, config.integrator_rel_tol)
    return F if np.ndim(h) else F[0]


class HeunLameEvaluator:
    """delta(s) from the Heun closed form with monodromy extension; for a
    sequence of h, the stack over h, from one pass over the shared panels."""

    def __init__(self, mu: float, h):
        self.mu = _check_mu(mu)
        hs = _check_hs(h)
        self.h = hs if np.ndim(h) else hs[0]
        self.K, _ = complete_elliptic(mu)
        self._jacobi = JacobiScalar(mu)
        # (Hl1, Hl2) per h: every one has a = 1/mu, so they share the panels
        hl = [HeunEvaluator(p) for x in hs for p in lame_heun_params(mu, x)]
        self._heun = HeunStack(hl)
        # at s = K: Hl = A, d Hl/ds = -B dn, and dn = sqrt(1 - mu), dn' = 0
        m1 = 1.0 - mu
        Q = np.array([[ev.A * math.sqrt(m1), -ev.B * m1] for ev in hl]).reshape(-1, 2, 2)
        M = parity_monodromy(Q)
        self.Q_plus, self.monodromy = (Q, M) if np.ndim(h) else (Q[0], M[0])

    def __call__(self, s):
        """delta(s): a 2x2 matrix at a scalar s, a stack of them at an array;
        for a sequence of h, those of each h stacked on a leading axis."""
        shape = np.shape(s)
        s = np.atleast_1d(np.asarray(s, dtype=float)).ravel()
        mu = self.mu
        x, p = period_remainder(s, self._jacobi, half=True)   # x in [-K, K]
        sn, cn, dn = jacobi_sncndn(x, mu)
        # (Hl(sn^2), d Hl/ds) of every Hl on the closed base cell.  Past
        # z_match the pair at z = 1 takes sqrt(1 - sn^2) = cn, with
        # d cn/ds = -sn dn
        z = sn * sn
        near = z > self._heun.z_match
        far = ~near
        (f_far, fz), (f_near, fr) = self._heun(z[far], cn[near])
        f, fs = np.empty((2, len(f_far), len(s)))
        f[:, far], f[:, near] = f_far, f_near
        fs[:, far] = fz * 2.0 * (sn * cn * dn)[far]
        fs[:, near] = -fr * (sn * dn)[near]
        f1, f2, f1s, f2s = f[0::2], f[1::2], fs[0::2], fs[1::2]
        dnp = -mu * sn * cn
        out = np.empty(f1.shape + (2, 2))
        out[..., 0, 0] = f1 * dn
        out[..., 0, 1] = f1s * dn + f1 * dnp
        out[..., 1, 0] = f2 * dn * sn
        out[..., 1, 1] = (f2s * sn + f2 * cn * dn) * dn + f2 * dnp * sn
        out = floquet_extend(self.monodromy.reshape(-1, 2, 2), out, p)
        return out.reshape(np.shape(self.h) + shape + (2, 2))
