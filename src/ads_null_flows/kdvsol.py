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

Derivatives are exact and closed form, from one (sn, cn, dn) triple per
wave and the ODE sn'' = -(1+mu) sn + 2 mu sn^3, at scalar (s, t) or
elementwise over arrays of them.  Up to order 2 (the callbacks of the
transport and of an ODE solver), kappa_jet differentiates: the Leibniz
rule gives phi, ..., phi'''' from each factor's derivatives, the quotient
rule gives psi = artanh(phi) from psi' (1 - phi^2) = phi', and
kappa = -2 psi'' + 4 psi'^2.  From order 3 on, and for kappa_t, each
factor's Taylor series in ds (the series engine of specfun.elliptic, which
also serves sn_jet) and plain series arithmetic give phi,
r = 1/(1 - phi^2), u = -2 phi_s r and kappa = u_s + u^2.  The phases are
linear in (s, t), so the same series carries the t-derivatives: d/dt of
the k-th coefficient of sn(w s + v t + w ds) is (v/w) (k+1) times the
(k+1)-th.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from .config import UsageError
from .specfun import JacobiScalar, complete_elliptic, jacobi_sncndn, sn_jet
from .specfun.elliptic import _cauchy, _check_mu, _derivatives, _sn_series


class OutOfRange(UsageError):
    """A parameter of the family outside its domain (CLI exit code 2)."""


# ------------------------------------------------------------- jet helpers
#
# The low orders of kappa_jet stay closed form: the series engine costs
# about twice as much on arrays and ten times as much on a scalar.

def _sn_derivatives(trip, mu: float, w: float, n: int) -> tuple:
    """(f, f', ..., f^(n)) for n in (2, 3, 4), of f = sn(theta + w ds | mu)
    in ds at ds = 0, from trip = (sn, cn, dn) at theta and f'' = g f with
    g = w^2 (2 mu f^2 - 1 - mu)."""
    sn, cn, dn = trip
    w2 = w * w
    f1 = w * cn * dn
    g = w2 * (2.0 * mu * sn * sn - (1.0 + mu))
    if n == 2:
        return sn, f1, g * sn
    g3 = g + 4.0 * w2 * mu * sn * sn           # f''' = g' f + g f' = g3 f'
    if n == 3:
        return sn, f1, g * sn, g3 * f1
    f2 = g * sn
    return sn, f1, f2, g3 * f1, 12.0 * w2 * mu * sn * f1 * f1 + g3 * f2


def _kappa_series(u: list, n: int) -> list:
    """First n Taylor coefficients of kappa = u_s + u^2, from n + 1 of u."""
    return [(k + 1) * u[k + 1] + _cauchy(u, u, k) for k in range(n)]


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
        x = s + 2.0 * self.ell * t
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

    # -- closed-form jets -----------------------------------------------------

    @cached_property
    def _jet_data(self):
        """Phase rates, amplitude and one JacobiScalar per wave, so K and
        the Landen chains are looked up once per spec."""
        return (self.w_plus, self.w_minus, self.v_plus, self.v_minus, self.amp,
                JacobiScalar(self.mu), JacobiScalar(self.tau))

    def _triples(self, s, t):
        """(sn, cn, dn) of each wave at (s, t): pure floats at a scalar s and
        t, arrays (elementwise) at arrays, Series at a Series s or t."""
        wp, wm, vp, vm, _, sn_plus, sn_minus = self._jet_data
        if isinstance(s, (int, float)) and isinstance(t, (int, float)):
            return sn_plus(wp * s + vp * t), sn_minus(wm * s + vm * t)
        return (jacobi_sncndn(wp * s + vp * t, self.mu),
                jacobi_sncndn(wm * s + vm * t, self.tau))

    def _u_series(self, s, t, n: int) -> tuple:
        """First n Taylor coefficients in ds of u and of u_t at (s, t); s and
        t scalars or arrays (elementwise).

        With psi = artanh(phi) and r = 1/(1 - phi^2), u = -2 psi_s and
        u_t = -2 (psi_t)_s, where psi_s = phi_s r and psi_t = phi_t r.  The
        phases are linear in (s, t), so the t-derivative of the k-th
        coefficient of a wave with phase rates (w, v) is (v/w) (k+1) times
        its (k+1)-th."""
        wp, wm, vp, vm, amp, _, _ = self._jet_data
        trip_p, trip_m = self._triples(s, t)
        fp = _sn_series(*trip_p, self.mu, wp, n + 2)
        fm = _sn_series(*trip_m, self.tau, wm, n + 2)
        fp_t = [vp / wp * (k + 1) * fp[k + 1] for k in range(n + 1)]
        fm_t = [vm / wm * (k + 1) * fm[k + 1] for k in range(n + 1)]
        phi = [amp * _cauchy(fp, fm, k) for k in range(n + 1)]
        phi_t = [amp * (_cauchy(fp_t, fm, k) + _cauchy(fp, fm_t, k)) for k in range(n + 1)]
        # r (1 - phi^2) = 1, with sq1[j] the (j+1)-th coefficient of phi^2
        sq1 = [_cauchy(phi, phi, k) for k in range(1, n + 1)]
        r = [1.0 / (1.0 - phi[0] * phi[0])]
        for k in range(n):
            r.append(r[0] * _cauchy(sq1, r, k))
        dphi = [(k + 1) * phi[k + 1] for k in range(n)]
        psi_t = [_cauchy(phi_t, r, k) for k in range(n + 1)]
        return ([-2.0 * _cauchy(dphi, r, k) for k in range(n)],
                [-2.0 * (k + 1) * psi_t[k + 1] for k in range(n)])

    def kappa_jet(self, s, t=0.0, order: int = 3):
        """[kappa, kappa_s, ..., kappa^(order)] with kappa = u_s + u^2, closed
        form; s and t scalars (floats returned) or arrays (arrays returned,
        elementwise).

        Up to order 2 the jet is differentiated directly: the Leibniz rule
        gives phi, ..., phi^(order+2) of phi = a P M from the two sn jets;
        psi = artanh(phi) has psi' D = phi' with D = 1 - phi^2, so by the
        quotient rule psi^(n+1) = (phi^(n+1) - sum_{j>=1} C(n, j)
        psi^(n+1-j) D^(j)) / D; then kappa = -2 psi'' + 4 psi'^2.  Higher
        orders take the Taylor series of u."""
        if order > 2:
            u, _ = self._u_series(s, t, order + 2)
            return _derivatives(_kappa_series(u, order + 1))
        wp, wm, _, _, amp, _, _ = self._jet_data
        trip_p, trip_m = self._triples(s, t)
        P = _sn_derivatives(trip_p, self.mu, wp, order + 2)
        M = _sn_derivatives(trip_m, self.tau, wm, order + 2)
        p0 = amp * P[0] * M[0]
        p1 = amp * (P[1] * M[0] + P[0] * M[1])
        p2 = amp * (P[2] * M[0] + 2.0 * P[1] * M[1] + P[0] * M[2])
        r = 1.0 / (1.0 - p0 * p0)
        d1 = -2.0 * p0 * p1                                 # D'
        s1 = p1 * r                                         # psi'
        s2 = (p2 - s1 * d1) * r
        out = [4.0 * s1 * s1 - 2.0 * s2]
        if order >= 1:
            p3 = amp * (P[3] * M[0] + 3.0 * (P[2] * M[1] + P[1] * M[2]) + P[0] * M[3])
            d2 = -2.0 * (p1 * p1 + p0 * p2)
            s3 = (p3 - 2.0 * s2 * d1 - s1 * d2) * r
            out.append(8.0 * s1 * s2 - 2.0 * s3)
        if order >= 2:
            p4 = amp * (P[4] * M[0] + 4.0 * (P[3] * M[1] + P[1] * M[3])
                        + 6.0 * P[2] * M[2] + P[0] * M[4])
            d3 = -2.0 * (3.0 * p1 * p2 + p0 * p3)
            s4 = (p4 - 3.0 * (s3 * d1 + s2 * d2) - s1 * d3) * r
            out.append(8.0 * (s2 * s2 + s1 * s3) - 2.0 * s4)
        return out

    def kappa(self, s, t=0.0):
        return self.kappa_jet(s, t, order=0)[0]

    def kappa_t(self, s, t=0.0):
        """kappa_t = (u_t)_s + 2 u u_t."""
        u, u_t = self._u_series(s, t, 2)
        return u_t[1] + 2.0 * u[0] * u_t[0]
