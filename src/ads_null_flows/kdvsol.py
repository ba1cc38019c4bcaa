"""Closed-form KdV solution families feeding the flows.

Stationary (traveling-wave) bendings: for mu in (0,1) and h_minus > h_plus,

    kappa(s) = (4 mu sn^2(sigma s, mu) - h_minus - h_plus) / (h_minus - h_plus),
    sigma    = sqrt(2 / (h_minus - h_plus)),

solves kappa''' + 2 ell kappa' - 6 kappa kappa' = 0 with the constraint
ell (h- - h+) + 3 (h- + h+) = 4 (1 + mu); kappa(s + 2 ell t) is then a
traveling-wave solution of the KdV equation
kappa_t - 6 kappa kappa_s + kappa_sss = 0.

The three-parameter family (mu, tau, h): with phases linear in (s, t),

    f+ = sn(h s + h^3 (1 + mu + 3 sqrt(mu/tau) (1 + tau)) t, mu)
    f- = sn(b s + b h^2 (sqrt(mu/tau)(1+tau) + 3(1+mu)) t, tau),
    b  = (mu/tau)^{1/4} h,
    phi = (mu tau)^{1/4} f+ f-,

u = -2 d_s arctanh(phi) solves the defocusing mKdV
u_t - 6 u^2 u_s + u_sss = 0, and kappa = u_s + u^2 solves the KdV.
|phi| <= (mu tau)^{1/4} < 1, so arctanh stays finite everywhere.

Derivatives are exact, by two independent routes.  The s-jets are closed
form: from one (sn, cn, dn) triple per wave, the ODE
sn'' = -(1+mu) sn + 2 mu sn^3 gives each factor's Taylor series in ds, and
plain series arithmetic gives phi, r = 1/(1 - phi^2), u = -2 phi_s r and
kappa = u_s + u^2, for a scalar s or elementwise over an array.  Where a
t-derivative is wanted (kappa_t, u_t and the residuals) the solution is
instead a truncated Taylor series in ds whose coefficients are dual numbers
c0 + c1 dt, built from sn_jet, so one pass of series arithmetic yields the
s-derivatives and their first t-derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Optional, Tuple

import numpy as np
from scipy.optimize import brentq

from .config import UsageError
from .specfun import JacobiScalar, complete_elliptic, jacobi_sncndn, sn_jet
from .specfun.elliptic import _check_mu


class OutOfRange(UsageError):
    """A parameter of the family outside its domain (CLI exit code 2)."""


# ----------------------------------------- dual (in dt) Taylor (in ds) ring

def _ts_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.convolve(a, b)[: len(a)]


def _ts_recip(a: np.ndarray) -> np.ndarray:
    n = len(a)
    out = np.zeros(n)
    out[0] = 1.0 / a[0]
    for k in range(1, n):
        out[k] = -np.dot(a[1: k + 1], out[k - 1:: -1]) / a[0]
    return out


def _dual_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    out[:, 0] = _ts_mul(a[:, 0], b[:, 0])
    out[:, 1] = _ts_mul(a[:, 0], b[:, 1]) + _ts_mul(a[:, 1], b[:, 0])
    return out


def _dual_recip(a: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    r0 = _ts_recip(a[:, 0])
    out[:, 0] = r0
    out[:, 1] = -_ts_mul(_ts_mul(r0, r0), a[:, 1])
    return out


def _dual_ds(a: np.ndarray) -> np.ndarray:
    out = np.zeros_like(a)
    k = np.arange(1, len(a))[:, None]
    out[:-1, :] = a[1:, :] * k
    return out


# ------------------------------------- plain Taylor (in ds) series, closed form
#
# Coefficient lists whose entries are floats or equal-shape arrays, so one
# routine serves a scalar s and, elementwise, an array of them.

def _cauchy(a: list, b: list, k: int):
    """k-th coefficient of the product of the series a and b."""
    acc = a[0] * b[k]
    for i in range(1, k + 1):
        acc = acc + a[i] * b[k - i]
    return acc


def _sn_series(sn, cn, dn, mu: float, w: float, n: int) -> list:
    """First n Taylor coefficients in ds of f = sn(theta + w ds | mu), from
    (sn, cn, dn) at theta and f'' = w^2 (2 mu f^3 - (1 + mu) f)."""
    f = [sn, w * cn * dn]
    sq, cube = [], []
    w2 = w * w
    for k in range(n - 2):
        sq.append(_cauchy(f, f, k))
        cube.append(_cauchy(f, sq, k))
        f.append(w2 * (2.0 * mu * cube[k] - (1.0 + mu) * f[k]) / ((k + 1) * (k + 2)))
    return f[:n]


def _derivatives(series: list) -> list:
    """Taylor coefficients -> derivative values [c_0, 1! c_1, 2! c_2, ...]."""
    return [c * math.factorial(k) for k, c in enumerate(series)]


# ----------------------------------------------------------- stationary

@dataclass(frozen=True)
class StationaryBending:
    mu: float
    h_plus: float
    h_minus: float

    def __post_init__(self):
        _check_mu(self.mu)
        if not self.h_minus > self.h_plus:
            raise OutOfRange("h_minus must exceed h_plus")

    @property
    def delta(self) -> float:
        return self.h_minus - self.h_plus

    @property
    def ell(self) -> float:
        """From the constraint ell (h- - h+) + 3 (h- + h+) = 4 (1 + mu)."""
        return (4.0 * (1.0 + self.mu) - 3.0 * (self.h_minus + self.h_plus)) / self.delta

    @property
    def sigma(self) -> float:
        """kappa(s) samples sn^2 at sigma s."""
        return math.sqrt(2.0 / self.delta)

    @cached_property
    def s_period(self) -> float:
        """Least period of the bending (sn^2 has least period 2K)."""
        K, _ = complete_elliptic(self.mu)
        return 2.0 * K / self.sigma

    def kappa_jet(self, s, t: float = 0.0, order: int = 3):
        """[kappa, kappa', ..., kappa^(order)] at s + 2 ell t."""
        x = np.asarray(s, dtype=float) + 2.0 * self.ell * t
        jet = sn_jet(self.sigma * x, self.mu, order=max(order, 1))
        mu, d, sg = self.mu, self.delta, self.sigma
        sn = jet[0]
        out = [(4.0 * mu * sn * sn - self.h_minus - self.h_plus) / d]
        if order >= 1:
            out.append(8.0 * mu * sg * sn * jet[1] / d)
        if order >= 2:
            out.append(8.0 * mu * sg ** 2 * (jet[1] ** 2 + sn * jet[2]) / d)
        if order >= 3:
            out.append(8.0 * mu * sg ** 3 * (3.0 * jet[1] * jet[2] + sn * jet[3]) / d)
        if order >= 4:
            out.append(8.0 * mu * sg ** 4
                       * (3.0 * jet[2] ** 2 + 4.0 * jet[1] * jet[3] + sn * jet[4]) / d)
        if order >= 5:
            raise ValueError("stationary kappa_jet implemented up to order 4")
        return out

    def kappa(self, s, t: float = 0.0):
        return self.kappa_jet(s, t, order=0)[0]

    def kappa_t(self, s, t: float = 0.0):
        """Traveling wave: d kappa/dt = 2 ell kappa'."""
        return 2.0 * self.ell * self.kappa_jet(s, t, order=1)[1]

    def stationary_ode_residual(self, s, t: float = 0.0):
        k0, k1, _, k3 = self.kappa_jet(s, t, order=3)
        return k3 + 2.0 * self.ell * k1 - 6.0 * k0 * k1

    def kappa_bounds(self) -> Tuple[float, float]:
        lo = -(self.h_minus + self.h_plus) / self.delta
        return lo, lo + 4.0 * self.mu / self.delta


def stationary_bending(spec: StationaryBending, s, t: float = 0.0):
    return spec.kappa(s, t)


# ------------------------------------------------------------------ KKSH

def g_of(tau: float) -> float:
    """g(tau) = tau^{1/4} K(tau): increasing diffeomorphism (0,1) -> (0,inf)."""
    K, _ = complete_elliptic(tau)
    return tau ** 0.25 * K


def g_inverse(y: float) -> float:
    """The unique tau in (0,1) with tau^{1/4} K(tau) = y, by bracketed root
    finding (chosen over initial-value integration of 1/g': no drift)."""
    if not y > 0.0:
        raise OutOfRange(f"g_inverse needs y > 0, got {y}")
    lo, hi = 1e-12, 1.0 - 1e-12
    if y >= g_of(hi):
        raise OutOfRange(f"y = {y} exceeds the range limit g(1 - 1e-12) = {g_of(hi):.6g}")
    if y <= g_of(lo):
        raise OutOfRange(f"y = {y} below the resolvable range g(1e-12)")
    return float(brentq(lambda t: g_of(t) - y, lo, hi, xtol=1e-15, rtol=8.9e-16))


def tau_mn(mu: float, m: int, n: int) -> float:
    """Second elliptic parameter enforcing s-periodicity:
    m mu^{1/4} K(mu) = n tau^{1/4} K(tau)."""
    _check_mu(mu)
    if m < 1 or n < 1 or math.gcd(m, n) != 1:
        raise OutOfRange("m, n must be coprime positive integers")
    K, _ = complete_elliptic(mu)
    return g_inverse((m / n) * mu ** 0.25 * K)


@dataclass(frozen=True)
class KkshSpec:
    mu: float
    tau: float
    h: float
    m: Optional[int] = None
    n: Optional[int] = None

    def __post_init__(self):
        _check_mu(self.mu)
        _check_mu(self.tau)
        if self.mu == self.tau:
            raise OutOfRange("mu = tau degenerates to a traveling wave")
        if not self.h > 0:
            raise OutOfRange("homothetic parameter h must be positive")
        if (self.m is None) != (self.n is None):
            raise ValueError("quantum numbers come as a pair")
        if self.m is not None:
            if math.gcd(self.m, self.n) != 1:
                raise OutOfRange("quantum numbers must be coprime")
            Kmu, _ = complete_elliptic(self.mu)
            Ktau, _ = complete_elliptic(self.tau)
            gap = abs(self.mu ** 0.25 * self.m * Kmu - self.tau ** 0.25 * self.n * Ktau)
            if gap > 1e-8:
                raise OutOfRange(f"(m, n) periodicity constraint violated by {gap:.2e}")

    @staticmethod
    def with_quantum_numbers(mu: float, m: int, n: int, h: float) -> "KkshSpec":
        return KkshSpec(mu, tau_mn(mu, m, n), h, m, n)

    # phase data: theta+- = w+- s + v+- t
    @property
    def w_plus(self) -> float:
        return self.h

    @property
    def w_minus(self) -> float:
        return (self.mu / self.tau) ** 0.25 * self.h

    @property
    def v_plus(self) -> float:
        sq = math.sqrt(self.mu / self.tau)
        return self.h ** 3 * (1.0 + self.mu + 3.0 * sq * (1.0 + self.tau))

    @property
    def v_minus(self) -> float:
        sq = math.sqrt(self.mu / self.tau)
        return self.w_minus * self.h ** 2 * (sq * (1.0 + self.tau) + 3.0 * (1.0 + self.mu))

    @property
    def amp(self) -> float:
        return (self.mu * self.tau) ** 0.25

    def s_period(self) -> float:
        """Least s-period of kappa: 4 m K(mu) / h."""
        m = self.m if self.m is not None else 1
        K, _ = complete_elliptic(self.mu)
        return 4.0 * m * K / self.h

    # -- dual-series evaluation ----------------------------------------------

    def _phi_dual(self, s: float, t: float, n: int) -> np.ndarray:
        """(n, 2) array: column 0 the ds-Taylor coefficients of phi, column 1
        their first t-derivatives.  Product rule over the two sn factors with
        phase chain factors w^a (s) and one v (t)."""
        fp = sn_jet(self.w_plus * s + self.v_plus * t, self.mu, order=n)
        fm = sn_jet(self.w_minus * s + self.v_minus * t, self.tau, order=n)
        wp, wm, vp, vm = self.w_plus, self.w_minus, self.v_plus, self.v_minus
        out = np.zeros((n, 2))
        fact = 1.0
        for a in range(n):
            if a > 1:
                fact *= a
            s0 = 0.0
            s1 = 0.0
            for al in range(a + 1):
                cab = comb(a, al) * wp ** al * wm ** (a - al)
                s0 += cab * fp[al] * fm[a - al]
                s1 += cab * (vp * fp[al + 1] * fm[a - al]
                             + vm * fp[al] * fm[a - al + 1])
            out[a, 0] = self.amp * s0 / (fact if a > 1 else 1.0)
            out[a, 1] = self.amp * s1 / (fact if a > 1 else 1.0)
        return out

    def _u_dual(self, s: float, t: float, n: int) -> np.ndarray:
        """Dual series of u = -2 phi_s / (1 - phi^2), length n."""
        phi = self._phi_dual(s, t, n + 1)
        one = np.zeros((n + 1, 2))
        one[0, 0] = 1.0
        den = one - _dual_mul(phi, phi)
        u = -2.0 * _dual_mul(_dual_ds(phi), _dual_recip(den))
        return u[:n, :]

    # -- closed-form s-jets ---------------------------------------------------

    @cached_property
    def _jet_data(self):
        """Phase rates, amplitude and one JacobiScalar per wave, so K and
        the Landen chains are looked up once per spec."""
        return (self.w_plus, self.w_minus, self.v_plus, self.v_minus, self.amp,
                JacobiScalar(self.mu), JacobiScalar(self.tau))

    def _u_series(self, s, t: float, n: int) -> list:
        """First n Taylor coefficients in ds of u = -2 phi_s r at (s, t),
        r = 1/(1 - phi^2); s a scalar or an array (elementwise)."""
        wp, wm, vp, vm, amp, sn_plus, sn_minus = self._jet_data
        if isinstance(s, (int, float)):
            trip_p = sn_plus(wp * s + vp * t)
            trip_m = sn_minus(wm * s + vm * t)
        else:
            s = np.asarray(s, dtype=float)
            trip_p = jacobi_sncndn(wp * s + vp * t, self.mu)
            trip_m = jacobi_sncndn(wm * s + vm * t, self.tau)
        fp = _sn_series(*trip_p, self.mu, wp, n + 1)
        fm = _sn_series(*trip_m, self.tau, wm, n + 1)
        phi = [amp * _cauchy(fp, fm, k) for k in range(n + 1)]
        # r (1 - phi^2) = 1, with sq1[j] the (j+1)-th coefficient of phi^2
        sq1 = [_cauchy(phi, phi, k) for k in range(1, n)]
        r = [1.0 / (1.0 - phi[0] * phi[0])]
        for k in range(n - 1):
            r.append(r[0] * _cauchy(sq1, r, k))
        dphi = [(k + 1) * phi[k + 1] for k in range(n)]
        return [-2.0 * _cauchy(dphi, r, k) for k in range(n)]

    def u_jet(self, s, t: float = 0.0, order: int = 3):
        """[u, u_s, ..., u^(order)] (derivative values), closed form."""
        return _derivatives(self._u_series(s, t, order + 1))

    def u(self, s, t: float = 0.0):
        return self.u_jet(s, t, order=0)[0]

    def u_t(self, s, t: float = 0.0) -> float:
        return float(self._u_dual(float(s), t, 1)[0, 1])

    def kappa_jet(self, s, t: float = 0.0, order: int = 3):
        """[kappa, kappa_s, ..., kappa^(order)] with kappa = u_s + u^2, closed
        form; s a scalar (floats returned) or an array (arrays returned)."""
        u = self._u_series(s, t, order + 2)
        return _derivatives([(k + 1) * u[k + 1] + _cauchy(u, u, k)
                             for k in range(order + 1)])

    def kappa(self, s, t: float = 0.0):
        return self.kappa_jet(s, t, order=0)[0]

    def kappa_t(self, s, t: float = 0.0) -> float:
        u = self._u_dual(float(s), t, 2)
        kap = _dual_ds(u) + _dual_mul(u, u)
        return float(kap[0, 1])

    # -- residuals ------------------------------------------------------------

    def mkdv_residual(self, s, t: float = 0.0) -> float:
        """u_t - 6 u^2 u_s + u_sss, everything analytic."""
        u = self._u_dual(float(s), t, 4)
        return float(u[0, 1] - 6.0 * u[0, 0] ** 2 * u[1, 0] + 6.0 * u[3, 0])

    def kdv_residual(self, s, t: float = 0.0) -> float:
        """kappa_t - 6 kappa kappa_s + kappa_sss, everything analytic."""
        u = self._u_dual(float(s), t, 5)
        kap = _dual_ds(u) + _dual_mul(u, u)
        return float(kap[0, 1] - 6.0 * kap[0, 0] * kap[1, 0] + 6.0 * kap[3, 0])

    def kdv_residual_fd(self, s, t: float = 0.0, dt: float = 1e-6) -> float:
        """Same residual with the t-derivative by central differences of the
        closed form (cross-check of the analytic route)."""
        k0, k1, _, k3 = self.kappa_jet(s, t, order=3)
        km2, km1 = self.kappa(s, t - 2 * dt), self.kappa(s, t - dt)
        kp1, kp2 = self.kappa(s, t + dt), self.kappa(s, t + 2 * dt)
        kt = (km2 - 8 * km1 + 8 * kp1 - kp2) / (12.0 * dt)
        return kt + k3 - 6.0 * k0 * k1


# ------------------------------------------------------- double periodicity

def time_period_residual(mu: float, tau: float, p: int, r: int) -> float:
    """LHS - RHS of the t-periodicity condition

        (mu/tau)^{1/4} ((1+tau) sqrt(mu/tau) + 3 (1+mu)) p K(mu)
            = (1 + mu + 3 (1+tau) sqrt(mu/tau)) r K(tau).
    """
    _check_mu(mu)
    _check_mu(tau)
    if p < 1 or r < 1 or math.gcd(p, r) != 1:
        raise OutOfRange("p, r must be coprime positive integers")
    Kmu, _ = complete_elliptic(mu)
    Ktau, _ = complete_elliptic(tau)
    sq = math.sqrt(mu / tau)
    lhs = (mu / tau) ** 0.25 * ((1.0 + tau) * sq + 3.0 * (1.0 + mu)) * p * Kmu
    rhs = (1.0 + mu + 3.0 * (1.0 + tau) * sq) * r * Ktau
    return lhs - rhs


def find_doubly_periodic(m: int, n: int, p: int, r: int,
                         mu_bracket: Tuple[float, float],
                         samples: int = 64) -> Optional[Tuple[float, float]]:
    """Intersection of the s-periodicity curve (fixed m, n) with the
    t-periodicity curve (fixed p, r), as a root along mu; None when the
    residual does not change sign over the bracket."""
    lo, hi = mu_bracket
    grid = np.linspace(lo, hi, samples)

    def f(mu):
        return time_period_residual(mu, tau_mn(mu, m, n), p, r)

    vals = [f(g) for g in grid]
    for i in range(samples - 1):
        if vals[i] == 0.0:
            mu0 = float(grid[i])
            return mu0, tau_mn(mu0, m, n)
        if vals[i] * vals[i + 1] < 0:
            mu0 = float(brentq(f, grid[i], grid[i + 1], xtol=1e-12))
            return mu0, tau_mn(mu0, m, n)
    return None
