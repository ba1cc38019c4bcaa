"""Complete elliptic integrals and Jacobi elliptic functions.

Self-contained: K and E come from the arithmetic-geometric mean, sn/cn/dn
from a Bulirsch-style descending Landen transformation.  The parameter
convention is used throughout: mu in (0,1) is the square of the modulus,
so sn(K(mu), mu) = 1 and dn^2 = 1 - mu sn^2.

Accuracy is close to machine precision; large arguments are reduced modulo
the period 4K(mu) before the Landen chain, so the periodicity identities
hold to ~1e-14 even after many periods.  This matters downstream: monodromy
integrations run over exact multiples of 2K(mu).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Tuple

import numpy as np

from ..config import UsageError

_EPS = 2.2e-16


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
    """Scalar (sn, cn, dn) at one fixed parameter, pure float: K(mu) and
    the Landen chain are looked up once, at construction, instead of on
    every call.  Same reduction and backward pass as the array path of
    jacobi_sncndn."""

    __slots__ = ("_K", "_chain", "_cfac")

    def __init__(self, mu: float):
        mu = _check_mu(mu)
        self._K, _ = complete_elliptic(mu)
        em, en, self._cfac = _landen_chain(mu)
        self._chain = tuple(zip(reversed(em), reversed(en)))

    def __call__(self, s: float) -> Tuple[float, float, float]:
        K = self._K
        x = s % (4.0 * K)
        sign_sn = 1.0
        sign_cn = 1.0
        if x > 2.0 * K:
            x = 4.0 * K - x
            sign_sn = -1.0
        if x > K:
            x = 2.0 * K - x
            sign_cn = -1.0
        u = self._cfac * x
        sn = math.sin(u)
        if sn == 0.0:
            return 0.0, sign_cn, 1.0
        a = math.cos(u) / sn
        c = a * self._cfac
        dn = 1.0
        for b, e in self._chain:
            a = c * a
            c = dn * c
            dn = (e + a) / (b + a)
            a = c / b
        amp = math.copysign(1.0, sn) / math.sqrt(c * c + 1.0)
        return sign_sn * amp, sign_cn * c * amp, dn


_jacobi_at = lru_cache(maxsize=512)(JacobiScalar)


def jacobi_sncndn(s, mu: float):
    """(sn, cn, dn) at real s (scalar or array) for parameter mu in (0,1).

    Argument reduction into [0, K] uses
        sn(4K - x) = -sn(x),  cn(4K - x) = cn(x),
        sn(2K - x) =  sn(x),  cn(2K - x) = -cn(x),  dn unchanged,
    then the Bulirsch backward recursion evaluates on the reduced cell.
    """
    mu = _check_mu(mu)
    if isinstance(s, (int, float)):
        return _jacobi_at(mu)(float(s))
    K, _ = complete_elliptic(mu)
    em, en, cfac = _landen_chain(mu)
    em = np.array(em)
    en = np.array(en)

    s_arr = np.asarray(s, dtype=float)
    x = np.mod(s_arr, 4.0 * K)
    sign_sn = np.ones_like(x)
    sign_cn = np.ones_like(x)

    hi = x > 2.0 * K
    x = np.where(hi, 4.0 * K - x, x)
    sign_sn = np.where(hi, -sign_sn, sign_sn)
    mid = x > K
    x = np.where(mid, 2.0 * K - x, x)
    sign_cn = np.where(mid, -sign_cn, sign_cn)

    u = cfac * x
    sn = np.sin(u)
    cn = np.cos(u)
    dn = np.ones_like(x)

    nz = sn != 0.0
    a = np.where(nz, np.divide(cn, sn, out=np.zeros_like(sn), where=nz), 0.0)
    c = a * cfac
    for i in range(len(em) - 1, -1, -1):
        b = em[i]
        a = c * a
        c = dn * c
        dn = np.where(nz, (en[i] + a) / (b + a), dn)
        a = c / b
    amp = 1.0 / np.sqrt(c * c + 1.0)
    sn_out = np.where(nz, np.sign(sn) * amp, 0.0)
    cn_out = np.where(nz, c * sn_out, 1.0)
    dn_out = np.where(nz, dn, 1.0)

    sn_out *= sign_sn
    cn_out *= sign_cn
    if np.isscalar(s) or s_arr.ndim == 0:
        return float(sn_out), float(cn_out), float(dn_out)
    return sn_out, cn_out, dn_out


def sn_jet(s, mu: float, order: int = 5):
    """Derivatives of sn at s up to the given order, from the closed ODE
    sn'' = -(1+mu) sn + 2 mu sn^3.  Returns [sn, sn', ..., sn^(order)],
    entries scalars or arrays matching s."""
    sn, cn, dn = jacobi_sncndn(s, mu)
    f = [sn, cn * dn]
    w = -(1.0 + mu) + 6.0 * mu * sn * sn
    if order >= 2:
        f.append(-(1.0 + mu) * sn + 2.0 * mu * sn ** 3)
    if order >= 3:
        f.append(f[1] * w)
    if order >= 4:
        f.append(f[2] * w + 12.0 * mu * sn * f[1] ** 2)
    if order >= 5:
        f.append(f[3] * w + 36.0 * mu * sn * f[1] * f[2] + 12.0 * mu * f[1] ** 3)
    if order >= 6:
        f.append(f[4] * w + 48.0 * mu * sn * f[1] * f[3]
                 + 72.0 * mu * f[1] ** 2 * f[2] + 36.0 * mu * sn * f[2] ** 2)
    if order >= 7:
        f.append(f[5] * w + 60.0 * mu * sn * f[1] * f[4]
                 + 120.0 * mu * f[1] ** 2 * f[3] + 120.0 * mu * sn * f[2] * f[3]
                 + 180.0 * mu * f[1] * f[2] ** 2)
    if order >= 8:
        raise ValueError("sn_jet implemented up to order 7")
    return f[: order + 1]
