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
wave, at scalar (s, t), elementwise over arrays of them, or as Taylor
series about the panel centres of the frame transport.  kappa itself at
points (kappa_jet at order 0: the callback of an ODE solver, the paths
sampled on a grid) is differentiated: each wave's derivatives follow
from sn'' = -(1+mu) sn + 2 mu sn^3, the Leibniz rule gives phi, phi',
phi'' of their product, the quotient rule gives psi = artanh(phi) from
psi' (1 - phi^2) = phi', and kappa = -2 psi'' + 4 psi'^2.  Every other jet
starts from the Taylor series of both waves, from one call of the fused
sn/cn/dn recurrence of specfun.elliptic (the engine of sn_jet and of
jacobi_sncndn on a Series too):

* at points from order 1 on, and for kappa_t, series arithmetic in ds
  gives phi = amp P M, r = 1/(1 - phi^2), u = -2 phi_s r and
  kappa = u_s + u^2;
* for a batch of specs on a Series s = s0 + rate dx (the s-systems,
  kksh_kappa_series), the same series of u about s0 gives kappa's
  coefficients in ds, and coefficient k is scaled by rate^k: four
  products and one reciprocal for the batch, each spec at its own s0,
  rate and t;
* up to order 2 on a Series s or t (kappa_jet; the t-system along s = 0),
  the s-jets of a wave are index shifts of its series in dx, scaled by
  (w/rate)^j, and the Leibniz and quotient rules run on Series.

The phases are linear in (s, t), so the same series carries the
t-derivatives: d/dt of a wave with phase rates (w, v) is v/w times d/ds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .config import NumericFailure, UsageError
from .scipy_deferred import brentq
from .specfun import JacobiScalar, complete_elliptic, jacobi_sncndn, sn_jet
from .specfun.elliptic import _check_mu, _linear, _sncndn_series
from .specfun.series import Series, derivative_shift


# ------------------------------------------------------------- jet helpers
#
# At points kappa itself stays closed form: the series of u costs 1.5 to
# 2.5 times as much on an array of 257 points, and 20 to 30 times as much
# on a scalar.

def _sn_derivatives(trip, mu: float, w: float) -> tuple:
    """(f, f', f'') of f = sn(theta + w ds | mu) in ds at ds = 0, from trip
    = (sn, cn, dn) at theta and f'' = g f with g = w^2 (2 mu f^2 - 1 - mu)."""
    sn, cn, dn = trip
    g = w * w * (2.0 * mu * sn * sn - (1.0 + mu))
    return sn, w * cn * dn, g * sn


def _kappa_of_u(u: np.ndarray) -> Series:
    """kappa = u_s + u^2 from the Taylor coefficients u in ds, one term
    shorter."""
    head = Series(u[:-1])
    return Series(u).derivative() + head * head


def _u_and_r(fp: Series, fm: Series, amp, n: int, m: int):
    """u = -2 phi_s r to n terms and r = 1/(1 - phi^2) to m terms, from the
    series in ds of the two waves (m + 1 terms), phi = amp fp fm."""
    phi = amp * fp * fm
    head = Series(phi.c[:m])
    r = (1.0 - head * head).reciprocal()
    return -2.0 * Series(phi.derivative().c[:n]) * Series(r.c[:n]), r


def _point(x):
    """(x0, rate) of a series argument x0 + rate dx, or (x, 0) of a point."""
    return _linear(x) if isinstance(x, Series) else (x, 0.0)


# ----------------------------------------------------------- stationary

@dataclass(frozen=True)
class StationaryBending:
    mu: float
    h_plus: float
    h_minus: float

    def __post_init__(self):
        _check_mu(self.mu)
        if not self.h_minus > self.h_plus:
            raise UsageError("h_minus must exceed h_plus")

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
        """[kappa, kappa', ..., kappa^(order)] at s + 2 ell t, any order:
        kappa^(k) = 4 mu sigma^k / delta sum_j C(k, j) sn^(j) sn^(k-j), the
        sn-jets taken at sigma (s + 2 ell t)."""
        x = s + 2.0 * self.ell * t
        jet = sn_jet(self.sigma * x, self.mu, order=order)
        mu, d, sg = self.mu, self.delta, self.sigma
        sn = jet[0]
        return [(4.0 * mu * sn * sn - self.h_minus - self.h_plus) / d] + [
            4.0 * mu * sg ** k / d * sum(math.comb(k, j) * jet[j] * jet[k - j]
                                         for j in range(k + 1))
            for k in range(1, order + 1)]

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
        raise UsageError(f"g_inverse needs y > 0, got {y}")
    lo, hi = 1e-12, 1.0 - 1e-12
    if y >= g_of(hi):
        raise UsageError(f"y = {y} exceeds the range limit g(1 - 1e-12) = {g_of(hi):.6g}")
    if y <= g_of(lo):
        raise UsageError(f"y = {y} below the resolvable range g(1e-12)")
    return float(brentq(lambda t: g_of(t) - y, lo, hi, xtol=1e-15, rtol=8.9e-16))


def tau_mn(mu: float, m: int, n: int) -> float:
    """Second elliptic parameter enforcing s-periodicity:
    m mu^{1/4} K(mu) = n tau^{1/4} K(tau)."""
    _check_mu(mu)
    if m < 1 or n < 1 or math.gcd(m, n) != 1:
        raise UsageError("m, n must be coprime positive integers")
    K, _ = complete_elliptic(mu)
    return g_inverse((m / n) * mu ** 0.25 * K)


@dataclass(frozen=True)
class KkshSpec:
    """The three-parameter family (mu, tau, h), with the quantum numbers
    (m, n) when tau = tau_mn(mu, m, n) makes kappa s-periodic.  kappa
    depends on (s, t) only through the phases theta+- = w+- s + v+- t, so a
    quantized spec also has a period lattice in (s, t) (lattice, cells):
    l1 = (rho, ~0) up to sign and l2 with the least t > 0, the pull-back of
    the phase shifts (2K(mu) a, 2K(tau) b) with a = b (mod 2)."""

    mu: float
    tau: float
    h: float
    m: Optional[int] = None
    n: Optional[int] = None

    def __post_init__(self):
        _check_mu(self.mu)
        _check_mu(self.tau)
        # m = n forces tau = mu, which tau_mn meets only to rounding
        if self.mu == self.tau or (self.m is not None and self.m == self.n):
            raise UsageError("mu = tau degenerates to a traveling wave")
        if not self.h > 0:
            raise UsageError("homothetic parameter h must be positive")
        try:
            rates = (self.w_plus, self.w_minus, self.v_plus, self.v_minus)
        except OverflowError:                 # h ** 3 past the float range
            rates = (math.inf,)
        if not all(map(math.isfinite, rates)):
            raise UsageError(f"homothetic parameter h = {self.h!r} gives non-finite "
                             "phase rates")
        if (self.m is None) != (self.n is None):
            raise ValueError("quantum numbers come as a pair")
        if self.m is not None:
            if math.gcd(self.m, self.n) != 1:
                raise UsageError("quantum numbers must be coprime")
            g_tau = g_of(self.tau)
            gap = abs(self.m * g_of(self.mu) - self.n * g_tau)
            # tau is known to its rounding: near tau = 1 one ulp of tau moves
            # n g(tau) by more than 1e-8 (by 9e-7 at 1 - tau = 6e-11)
            ulp_step = self.n * abs(g_of(math.nextafter(self.tau, 0.0)) - g_tau)
            if gap > max(1e-8, 4.0 * ulp_step):
                raise UsageError(f"(m, n) periodicity constraint violated by {gap:.2e}")

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

    @cached_property
    def s_period(self) -> float:
        """Least s-period 4 m K(mu) / h of kappa; without (m, n), the plus
        wave's 4 K(mu) / h, not kappa's (KkshSpec(0.6, 0.01, 2.0): gap 1.99)."""
        m = self.m if self.m is not None else 1
        K, _ = complete_elliptic(self.mu)
        return 4.0 * m * K / self.h

    @cached_property
    def _phase_lattice(self):
        """(shifts, K, W, basis): the half-period counts (a_i, b_i) of the
        lattice basis as rows, the quarter periods (K(mu), K(tau)), the phase
        matrix W = [[w+, v+], [w-, v-]] (theta = W (s, t)) and the basis
        W^{-1} (2K(mu) a_i, 2K(tau) b_i) as rows; None without (m, n).  l1
        is (a, b) = +-(2m, 2n), the s-period rho, signed so that
        its t is not negative (a negative t would add a side to the
        t-transport); l2 solves b m - a n = d > 0 least with a = b (mod 2),
        so d = 1, or 2 when m and n are odd; its sign makes t > 0 and a
        multiple of (2m, 2n) puts its s in [0, rho)."""
        if self.m is None:
            return None
        m, n = self.m, self.n
        b = pow(m, -1, n)                   # b m - a n = 1
        a = (b * m - 1) // n
        if (a - b) % 2:
            a, b = (a + m, b + n) if (m + n) % 2 else (2 * a, 2 * b)
        K = np.array([complete_elliptic(self.mu)[0], complete_elliptic(self.tau)[0]])
        W = np.array([[self.w_plus, self.v_plus], [self.w_minus, self.v_minus]])
        shifts = np.array([[2 * m, 2 * n], [a, b]])

        def basis():
            return np.linalg.solve(W, 2.0 * K[:, None] * shifts.T).T

        l1, l2 = basis()
        shifts[1] *= 1 if l2[1] > 0 else -1
        shifts[1] -= math.floor(math.copysign(1.0, l2[1]) * l2[0] / l1[0]) * shifts[0]
        shifts[0] *= 1 if l1[1] >= 0 else -1
        return shifts, K, W, basis()

    @property
    def lattice(self) -> Optional[np.ndarray]:
        """The period lattice of kappa in (s, t), as the rows l1 and l2 of a
        reduced basis, or None without (m, n).

        kappa depends on (s, t) only through the phases theta+- = w+- s +
        v+- t, and a shift of 2K flips the sign of sn, so kappa is invariant
        under the phase shifts (2K(mu) a, 2K(tau) b) with a = b (mod 2),
        which keep phi (kappa = u_s + u^2 is not even in phi).  The lattice
        is their pull-back W^{-1} (2K(mu) a, 2K(tau) b), each vector computed
        from its integers (not from rho): l1 = +-(rho, ~0), the s-period
        (its t is the rounding of the (m, n) constraint, and l1's sign makes
        it >= 0), and l2 = (s2, t2) with the least t2 > 0 and s2 in
        [0, rho).  t2 is 0.0019138 for the README recipe, 1.415 for (3, 2)
        at mu = 0.5 and 402 for (5, 1) at mu = 0.92."""
        lat = self._phase_lattice
        return None if lat is None else lat[3]

    def cells(self, t):
        """(n, x): the reduction (0, t) = n1 l1 + n2 l2 + x of each t, with n
        (len(t), 2) the integer cell counts (n2 = floor(t / t2), then n1
        puts x's s between 0 and l1's) and x (len(t), 2) the remainder in
        one cell.  x is W^{-1} of the phases at (0, t) less n's integer phase
        shifts, so it carries only the rounding of those phases; a t with
        n = 0 keeps x = (0, t) exactly.  NumericFailure when a count is past
        float64's integers."""
        shifts, K, W, ((s1, _), (s2, t2)) = self._phase_lattice
        t = np.asarray(t, dtype=float)
        n2 = np.floor(t / t2)
        n = np.stack([np.floor(-n2 * s2 / s1), n2], axis=-1)
        if not np.abs(n).max(initial=0.0) < 2.0 ** 52:
            raise NumericFailure(f"t = {float(t.max())!r} lies past the float range "
                                 "of lattice cell counts")
        phases = np.stack([self.v_plus * t, self.v_minus * t]) - 2.0 * K[:, None] * (n @ shifts).T
        x = np.linalg.solve(W, phases).T
        near = ~n.any(axis=-1)
        x[near] = np.stack([np.zeros(near.sum()), t[near]], axis=-1)
        return n.astype(np.int64), x

    # -- closed-form jets -----------------------------------------------------

    @cached_property
    def _jet_data(self):
        """Phase rates, amplitude and one JacobiScalar per wave (so K and
        the Landen chains are looked up once per spec), and the s-rates and
        parameters of the two waves as arrays along a wave axis."""
        return (self.w_plus, self.w_minus, self.v_plus, self.v_minus, self.amp,
                JacobiScalar(self.mu), JacobiScalar(self.tau),
                np.array([self.w_plus, self.w_minus]), np.array([self.mu, self.tau]))

    def _triples(self, s, t):
        """(sn, cn, dn) of each wave at (s, t): pure floats at a scalar s and
        t, arrays (elementwise) at arrays."""
        wp, wm, vp, vm, _, sn_plus, sn_minus, _, _ = self._jet_data
        if isinstance(s, (int, float)) and isinstance(t, (int, float)):
            return sn_plus(wp * s + vp * t), sn_minus(wm * s + vm * t)
        return (jacobi_sncndn(wp * s + vp * t, self.mu),
                jacobi_sncndn(wm * s + vm * t, self.tau))

    def _sn_series(self, s, t, rates: np.ndarray, terms: int) -> np.ndarray:
        """Taylor coefficients (terms, 2, ...) in dx of sn(theta + rate dx)
        of both waves, theta the phases at the point (s, t) (scalars or
        arrays) and rates (2, ...) the two rates: one call of the fused
        recurrence, the waves on the second axis."""
        trip = np.moveaxis(np.array(self._triples(s, t), dtype=float), 0, 1)
        lift = (1,) * (trip.ndim - 1 - rates.ndim)
        mus = self._jet_data[8].reshape((2,) + (1,) * (trip.ndim - 2))
        S, _, _ = _sncndn_series(trip, rates.reshape(rates.shape + lift), mus, terms)
        return S

    def _u_series(self, s, t, n: int, time: bool = True):
        """First n Taylor coefficients in ds, as arrays (n, ...), of u and
        (with time) of u_t at (s, t), scalars or arrays (elementwise); u_t
        is None without time.

        phi = amp P M from the two waves' series, r = 1/(1 - phi^2),
        u = -2 phi_s r and u_t = -2 (phi_t r)_s.  The phases are linear in
        (s, t), so the t-derivative of a wave with phase rates (w, v) is
        v/w times its s-derivative."""
        wp, wm, vp, vm, amp, _, _, w, _ = self._jet_data
        m = n + 1 if time else n                     # terms of phi_t and r
        F = self._sn_series(s, t, w, m + 1)
        fp, fm = Series(F[:, 0]), Series(F[:, 1])
        u, r = _u_and_r(fp, fm, amp, n, m)
        if not time:
            return u.c, None
        phi_t = amp * ((vp / wp) * fp.derivative() * Series(fm.c[:m])
                       + (vm / wm) * Series(fp.c[:m]) * fm.derivative())
        return u.c, -2.0 * (phi_t * r).derivative().c

    def _shifted_jets(self, s, t, n: int):
        """The s-jets (f, f', ..., f^(n)) of both waves as Series at a Series
        s or t: f^(j) = w^j sn^(j)(theta + R dx), with R the phase's rate
        in dx, is the index shift by j of the series of sn taken with n
        extra terms, scaled by (w/R)^j."""
        wp, wm, vp, vm, _, _, _, w, _ = self._jet_data
        (s0, rs), (t0, rt) = _point(s), _point(t)
        terms = len((s if isinstance(s, Series) else t).c)
        rates = np.array([wp * rs + vp * rt, wm * rs + vm * rt])
        F = self._sn_series(s0, t0, rates, terms + n)
        scale = w.reshape((2,) + (1,) * (rates.ndim - 1)) / rates
        jets = [derivative_shift(F, j, terms, scale) for j in range(n + 1)]
        return [Series(c[:, 0]) for c in jets], [Series(c[:, 1]) for c in jets]

    def kappa_jet(self, s, t=0.0, order: int = 3):
        """[kappa, kappa_s, ..., kappa^(order)] with kappa = u_s + u^2, closed
        form; s and t scalars (floats returned) or arrays (arrays returned,
        elementwise), or up to order 2 one of them a Series (Series of the
        Taylor coefficients returned).

        One route per kind of argument.  On a Series, and at points for
        order 0, the jet is differentiated directly: the Leibniz rule gives
        phi, ..., phi^(order+2) of phi = a P M from the two sn jets;
        psi = artanh(phi) has psi' D = phi' with D = 1 - phi^2, so by the
        quotient rule psi^(n+1) = (phi^(n+1) - sum_{j>=1} C(n, j)
        psi^(n+1-j) D^(j)) / D; then kappa = -2 psi'' + 4 psi'^2.  The sn
        jets are index shifts of each wave's series on a Series
        (_shifted_jets) and closed form at points (_sn_derivatives).  From
        order 1 on, points take the series of u instead (_kappa_of_u)."""
        wp, wm, _, _, amp, _, _, _, _ = self._jet_data
        if isinstance(s, Series) or isinstance(t, Series):
            if order > 2:
                raise ValueError(f"kappa_jet on a Series takes order <= 2, got {order}")
            P, M = self._shifted_jets(s, t, order + 2)
        elif order:
            kappa = _kappa_of_u(self._u_series(s, t, order + 2, time=False)[0])
            return [c * math.factorial(k) for k, c in enumerate(kappa.c)]
        else:
            trip_p, trip_m = self._triples(s, t)
            P = _sn_derivatives(trip_p, self.mu, wp)
            M = _sn_derivatives(trip_m, self.tau, wm)
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


def kksh_kappa_series(specs, s: Series, t) -> Series:
    """kappa of a batch of KKSH specs at a series argument: specs[i] at s[i]
    = s0 + rate dx (the first point axis of s's coefficients) and time t[i],
    as one Series in dx (coefficients (terms, len(specs), ...)).

    One jacobi_sncndn call per spec and wave gives the phases' (sn, cn, dn);
    one call of the fused recurrence takes every spec's two waves on its
    leading axes; then one pass of phi = amp P M, r = 1/(1 - phi^2), u = -2
    phi_s r (_u_and_r) and kappa = u_s + u^2 (_kappa_of_u) in ds, coefficient
    k scaled by rate^k: four products and one reciprocal for the batch."""
    s0, rate = _linear(s)
    n = len(s.c)
    t = np.broadcast_to(np.asarray(t, dtype=float), (len(specs),))
    # (3, wave, spec, ...) from (spec, wave, 3, ...)
    trip = np.array([spec._triples(s0[i], t[i]) for i, spec in enumerate(specs)], dtype=float)
    trip = np.moveaxis(trip, (0, 2), (2, 0))
    lift = (1,) * (s0.ndim - 1)
    w = np.array([[spec.w_plus for spec in specs], [spec.w_minus for spec in specs]])
    w = w.reshape(w.shape + lift)
    mus = np.array([[spec.mu for spec in specs], [spec.tau for spec in specs]]).reshape(w.shape)
    amp = np.array([spec.amp for spec in specs]).reshape((len(specs),) + lift)
    S, _, _ = _sncndn_series(trip, w, mus, n + 2)
    u, _ = _u_and_r(Series(S[:, 0]), Series(S[:, 1]), amp, n + 1, n + 1)
    kappa = _kappa_of_u(u.c)
    k = np.arange(n).reshape((n,) + (1,) * (kappa.c.ndim - 1))
    return Series(kappa.c * rate ** k)
