"""Complete elliptic integrals and Jacobi elliptic functions.

Self-contained: K and E come from the arithmetic-geometric mean, sn/cn/dn
from a Bulirsch-style descending Landen transformation.  The parameter
convention is used throughout: mu in (0,1) is the square of the modulus,
so sn(K(mu), mu) = 1 and dn^2 = 1 - mu sn^2.

Accuracy is close to machine precision.  An argument s is first reduced
exactly by the period 4K(mu); oddness of sn and the half-period
reflections then fold it into [0, K], where the backward Landen recursion
starts from one cotangent.  Exactness matters downstream: monodromy
integrations run over exact multiples of 2K(mu), and the frame transport
resolves frames to about 1e-15, so the bending it samples should carry no
rounding beyond that of its argument.

Taylor series come from one engine, _sncndn_series: from the triple at
the expansion points, the ODEs sn' = cn dn, cn' = -sn dn, dn' = -mu sn cn
give one coefficient of all three per order, as one einsum, for any
number of waves at once.  jacobi_sncndn on a Series and sn_jet use it, and
so do the KKSH jets of kdvsol.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Tuple

import numpy as np

from ..config import UsageError
from .series import Series, derivative_shift

_EPS = 2.2e-16
_TINY = 1e-100    # below this, sn(x) = x and cn = dn = 1 in float64


class EllipticDomainError(UsageError):
    """Parameter outside the open interval (0,1)."""


def _check_mu(mu: float) -> float:
    mu = float(mu)
    if not 0.0 < mu < 1.0:
        raise EllipticDomainError(f"elliptic parameter must be in (0,1), got {mu}")
    return mu


@lru_cache(maxsize=4096)
def complete_elliptic(mu: float) -> Tuple[float, float]:
    """(K(mu), E(mu)) by the AGM; relative accuracy ~1e-15."""
    mu = _check_mu(mu)
    a, b = 1.0, math.sqrt(1.0 - mu)
    c = math.sqrt(mu)
    csum = 0.5 * c * c
    power = 1.0
    for _ in range(60):
        if abs(c) <= 2.0 * _EPS * a:
            break
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        power *= 2.0
        csum += 0.5 * power * c * c
    K = math.pi / (2.0 * a)
    return K, K * (1.0 - csum)


@lru_cache(maxsize=512)
def _landen_chain(mu: float):
    """Precomputed descending-Landen data (em, en, c) for the sncndn core."""
    mc = 1.0 - mu
    a = 1.0
    em, en = [], []
    c = a
    for _ in range(16):
        em.append(a)
        mc = math.sqrt(mc)
        en.append(mc)
        c = 0.5 * (a + mc)
        if abs(a - mc) <= 1e-16 * a:
            break
        mc = a * mc
        a = c
    return tuple(em), tuple(en), c


class JacobiScalar:
    """(sn, cn, dn) at one fixed parameter.  K(mu), the reversed Landen
    chain, its final mean cfac and the split period of the array reduction
    are looked up once, at construction.  Calling the object evaluates at a
    float s in pure Python: |s| % 4K (Python's float %, exact), the sign of
    sn from oddness, and the same folds and backward pass as the array
    path of jacobi_sncndn."""

    __slots__ = ("_K", "_chain", "_cfac", "_split")

    def __init__(self, mu: float):
        mu = _check_mu(mu)
        self._K, _ = complete_elliptic(mu)
        em, en, self._cfac = _landen_chain(mu)
        self._chain = tuple(zip(reversed(em), reversed(en)))
        # 4K = p1 + p2 exactly, p1 with 26 significant bits and p2 with at
        # most 27, so m p1 and m p2 are exact for integers |m| < 2**26
        period = 4.0 * self._K
        frac, exp = math.frexp(period)
        p1 = math.ldexp(math.floor(math.ldexp(frac, 26)), exp - 26)
        self._split = (1.0 / period, p1, period - p1)

    def __call__(self, s: float) -> Tuple[float, float, float]:
        K = self._K
        sign_sn = 1.0
        if s < 0.0:
            s = -s
            sign_sn = -1.0
        x = s % (4.0 * K)
        if x > 2.0 * K:
            x = 4.0 * K - x
            sign_sn = -sign_sn
        sign_cn = 1.0
        if x > K:
            x = 2.0 * K - x
            sign_cn = -1.0
        if x < _TINY:
            return sign_sn * x, sign_cn, 1.0
        u = self._cfac * x
        a = math.cos(u) / math.sin(u)
        c = a * self._cfac
        dn = 1.0
        for b, e in self._chain:
            a = c * a
            c = dn * c
            dn = (e + a) / (b + a)
            a = c / b
        amp = 1.0 / math.sqrt(c * c + 1.0)
        return sign_sn * amp, sign_cn * c * amp, dn


_jacobi_at = lru_cache(maxsize=512)(JacobiScalar)


def period_remainder(s: np.ndarray, J: JacobiScalar, half: bool = False):
    """(x, m) with x = s - m P elementwise, P = 4K (2K if half) and m the
    integer nearest s/P: math.remainder(s, P) bit for bit for |s| < 2**26 P,
    from the exact split P = p1 + p2 (2K = p1/2 + p2/2; a rounded m only
    moves x a few ulps past +-P/2).  The one argument reduction of the
    Jacobi kernel and of the Heun paths of lame."""
    inv, p1, p2 = J._split
    if half:
        inv, p1, p2 = 2.0 * inv, 0.5 * p1, 0.5 * p2
    m = np.multiply(s, inv)
    np.rint(m, out=m)
    x = s - m * p1
    x -= m * p2
    return x, m


def jacobi_sncndn(s, mu: float):
    """(sn, cn, dn) at real s (scalar or array) for parameter mu in (0,1);
    at a Series s = x0 + w dx, the three Taylor series in dx.

    s is reduced exactly: a float as |s| % 4K, with sn odd and cn, dn
    even; an array by period_remainder to x4 = s - 4K m in [-2K, 2K] (m the
    integer nearest s/4K), exact for |s| < 2**26 4K and within an ulp of s
    beyond.  Then
        sn(4K - x) = -sn(x),  sn(2K - x) = sn(x),  cn(2K - x) = -cn(x),
    with cn(4K - x) = cn(x) and dn unchanged, fold x into [0, K]; for an
    array, x = min(|x4|, |2K - |x4||), and sn and cn take the signs of
    x4 (2K - |x4|) and K - |x4|, which also covers an x4 a few ulps past
    +-2K from a rounded m.  On [0, K], u = cfac x lies in [0, pi/2],
    sn >= 0, and the Bulirsch backward recursion starts from the cotangent
    cos(u)/sin(u).  (np.tan is several times cheaper on long arrays, but no
    other path of the program runs numpy's tan, and its code adds 128 kB to
    the resident set.)  Points with x < _TINY, where the cotangent would
    overflow in the recursion, are (x, +-1, 1) to every digit and are set
    after it.

    The reduction must stay exact (a floor-based s - 4K floor(s/4K) is off
    by up to an ulp of s): then the error does not grow with |s| beyond the
    rounding of s itself, sn(-s) = -sn(s) holds bit for bit, and the array
    and float paths reduce every s to the same x.
    """
    if isinstance(s, Series):
        x0, w = _linear(s)
        return tuple(Series(c) for c in
                     _sncndn_series(jacobi_sncndn(x0, mu), w, float(mu), len(s.c)))
    J = _jacobi_at(float(mu))
    if isinstance(s, (int, float)):
        return J(float(s))
    s = np.asarray(s, dtype=float)
    if s.ndim == 0:
        return J(float(s))
    return _sncndn_array(s, J)


def _sncndn_array(s: np.ndarray, J: JacobiScalar):
    """The array path of jacobi_sncndn."""
    K, cfac = J._K, J._cfac
    x4, _ = period_remainder(s, J)
    x = np.abs(x4)
    y = 2.0 * K - x
    sign_cn = K - x
    # the sign of x4 (2K - |x4|), which cannot overflow for a huge x4
    sign_sn = np.multiply(x4, np.sign(y), out=x4)
    np.minimum(x, np.abs(y, out=y), out=x)
    tiny = x < _TINY
    any_tiny = tiny.any()
    if any_tiny:
        x_tiny = x[tiny]
        x[tiny] = K
    u = np.multiply(x, cfac, out=x)
    a = np.cos(u)
    a /= np.sin(u, out=u)
    c = a * cfac
    dn = 1.0
    for b, e in J._chain:
        a *= c
        c *= dn
        dn = (e + a) / (b + a)
        np.divide(c, b, out=a)
    amp = np.multiply(c, c, out=a)
    amp += 1.0
    np.sqrt(amp, out=amp)
    np.divide(1.0, amp, out=amp)
    cn = np.multiply(c, amp, out=c)
    if any_tiny:
        amp[tiny] = x_tiny
        cn[tiny] = 1.0
        dn[tiny] = 1.0
    return np.copysign(amp, sign_sn, out=amp), np.copysign(cn, sign_cn, out=cn), dn


def _sncndn_series(trip, w, mu, terms: int):
    """Taylor coefficients (S, C, D), each (terms, ...), in dx of
    (sn, cn, dn)(x0 + w dx | mu), from trip = (sn, cn, dn) at x0 stacked on
    its first axis; w and mu broadcast against trip[0], so a leading axis
    of the points may stack waves with their own rates and parameters.

    sn' = w cn dn, cn' = -w sn dn and dn' = -mu w sn cn give one
    coefficient of each per order: the three Cauchy sums of an order are
    one einsum over the stacked pairs (cn, sn, sn) (dn, dn, cn)."""
    trip = np.asarray(trip, dtype=float)
    shape = np.broadcast_shapes(trip.shape[1:], np.shape(w), np.shape(mu))
    A = np.empty((terms, 3) + shape)          # (cn, sn, sn) per order
    B = np.empty((terms, 3) + shape)          # (dn, dn, cn)
    A[0] = trip[1], trip[0], trip[0]
    B[0] = trip[2], trip[2], trip[1]
    # the factors (1, -1, -mu) of the three sums, lifted against shape
    one = np.ones(np.broadcast_shapes(np.shape(w), np.shape(mu)))
    signs = np.stack([one, -one, -mu * one])
    signs = signs.reshape((3,) + (1,) * (len(shape) - one.ndim) + one.shape)
    for k in range(terms - 1):
        acc = np.einsum("i...,i...->...", A[:k + 1], B[k::-1])
        acc *= signs * (w / (k + 1))
        A[k + 1, 0] = B[k + 1, 2] = acc[1]
        A[k + 1, 1] = A[k + 1, 2] = acc[0]
        B[k + 1, 0] = B[k + 1, 1] = acc[2]
    return A[:, 1], A[:, 0], B[:, 0]


def _linear(x: Series):
    """(x0, w) of a series argument x0 + w dx."""
    c = x.c
    if np.any(c[2:]):
        raise ValueError("jacobi_sncndn takes a series argument x0 + w dx only")
    return c[0], c[1]


def sn_jet(s, mu: float, order: int = 5):
    """[sn, sn', ..., sn^(order)] at s, from the Taylor series of sn about
    s (_sncndn_series): scalars or arrays like s, as derivative values;
    at a Series s = x0 + w dx, Series in dx, index shifts of the series
    of sn(x0 + w dx) taken with order extra terms.  Order 0 is sn alone,
    with no series at a point (a scalar series costs some 40 us)."""
    if order == 0:
        return [jacobi_sncndn(s, mu)[0]]
    if isinstance(s, Series):
        x0, w = _linear(s)
        n = len(s.c)
        S, _, _ = _sncndn_series(jacobi_sncndn(x0, mu), w, mu, n + order)
        return [Series(derivative_shift(S, j, n, 1.0 / w)) for j in range(order + 1)]
    S, _, _ = _sncndn_series(jacobi_sncndn(s, mu), 1.0, mu, order + 1)
    return [S[k] * math.factorial(k) for k in range(order + 1)]
