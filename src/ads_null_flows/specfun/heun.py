"""Local Heun function on the real interval [0, 1].

The equation, with e = alpha + beta - gamma - delta + 1,

    f'' + (gamma/z + delta/(z-1) + e/(z-a)) f'
        + (alpha beta z - q) / (z (z-1) (z-a)) f = 0,

has regular singular points 0, 1, a, inf.  HeunEvaluator evaluates the
solution normalized by f(0) = 1, f analytic at 0, by the Frobenius series

    a (n+1)(n+gamma) c_{n+1}
        = ( n [ (n-1+gamma)(1+a) + a delta + e ] + q ) c_n
          - (n-1+alpha)(n-1+beta) c_{n-1},        c_{-1} = 0, c_0 = 1,

followed by Taylor re-centering along [0, z_m], z_m = 1 - RAD_FACTOR
min(1, a - 1): each hop is capped at RAD_FACTOR times the distance to the
nearest singularity, which keeps every series geometrically convergent.
On [z_m, 1] the solution is the exact combination of the two Frobenius
solutions at z = 1 (exponents {0, 1 - delta}; DLMF 31.3), in w = 1 - z,

    f = A u0(w) + B w^(1-delta) u1(w),
    u0 = Hl(1-a, alpha beta - q; alpha, beta, delta, gamma; w),
    u1 = Hl(1-a, ((1-a) gamma + e)(1-delta) + alpha beta - q;
            alpha+1-delta, beta+1-delta, 2-delta, gamma; w),

both by the same recurrence, with (A, B) matched to the panel chain's value
and slope at z_m.  So f(1) = A, with no limit to take.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import NumericFailure


@dataclass(frozen=True)
class HeunParams:
    a: float
    q: float
    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self):
        if self.a <= 1.0:
            raise ValueError(f"singularity parameter a must exceed 1, got {self.a}")
        g = self.gamma
        if g <= 0.0 and abs(g - round(g)) < 1e-12:
            raise ValueError(f"gamma = {g} is a non-positive integer")

    @property
    def epsilon(self) -> float:
        return self.alpha + self.beta - self.gamma - self.delta + 1.0


def lame_heun_params(mu: float, h: float):
    """The two parameter sets whose local solutions build the periodic
    solutions of the first-order Lame equation:

        Hl1: a = 1/mu, q = (mu - h)/(4 mu),     alpha = 0,   beta = 3/2,
             gamma = 1/2, delta = 1/2
        Hl2: a = 1/mu, q = (1 - h + 4 mu)/(4 mu), alpha = 1/2, beta = 2,
             gamma = 3/2, delta = 1/2
    """
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must be in (0,1), got {mu}")
    a = 1.0 / mu
    p1 = HeunParams(a, (mu - h) / (4.0 * mu), 0.0, 1.5, 0.5, 0.5)
    p2 = HeunParams(a, (1.0 - h + 4.0 * mu) / (4.0 * mu), 0.5, 2.0, 1.5, 0.5)
    return p1, p2


# every series is used within RAD_FACTOR of its convergence radius, so the
# scaled tail decays like RAD_FACTOR^k: 80 terms reach ~1e-32
_MAX_TERMS = 80
_RAD_FACTOR = 0.4


def _frobenius_coeffs(a, q, al, be, ga, de, scale: float) -> np.ndarray:
    """c_n scale^n for the Frobenius series of Hl(a, q; al, be, ga, de; x) at
    x = 0.  Raw parameters, not HeunParams: the expansions at z = 1 have
    their singular point at 1 - a < 0."""
    ep = al + be - ga - de + 1.0
    c = np.zeros(_MAX_TERMS)
    c[0] = 1.0
    c[1] = q * scale / (a * ga)
    for n in range(1, _MAX_TERMS - 1):
        Q = n * ((n - 1 + ga) * (1 + a) + a * de + ep) + q
        P = (n - 1 + al) * (n - 1 + be)
        c[n + 1] = (Q * c[n] - P * scale * c[n - 1]) * scale / (a * (n + 1) * (n + ga))
    return c


def _taylor_step(p: HeunParams, z0: float, scale: float, f0: float,
                 f1: float) -> np.ndarray:
    """Scaled Taylor coefficients of the solution about the ordinary point z0.

    Returns c~_k with f(z0 + scale*x) = sum c~_k x^k, from initial data
    (f(z0), df/dz(z0)).  Scaling by the local radius keeps the coefficients
    bounded however close z0 is to a singularity.

    The equation in polynomial form is A f'' + B f' + C f = 0 with
        A = z (z-1) (z-a)              (cubic)
        B = gamma (z-1)(z-a) + delta z (z-a) + eps z (z-1)   (quadratic)
        C = alpha beta z - q           (linear)
    shifted to w = z - z0; the recurrence below carries A_j scale^j,
    B_j scale^{j+1}, C_j scale^{j+2}.
    """
    a = p.a
    ga, de, ep = p.gamma, p.delta, p.epsilon
    albe = p.alpha * p.beta

    A = [z0 ** 3 - (1 + a) * z0 ** 2 + a * z0,
         3 * z0 ** 2 - 2 * (1 + a) * z0 + a,
         3 * z0 - (1 + a),
         1.0]
    b2 = ga + de + ep
    b1 = -(ga * (1 + a) + de * a + ep)
    B = [b2 * z0 ** 2 + b1 * z0 + ga * a,
         2 * b2 * z0 + b1,
         b2]
    C = [albe * z0 - p.q, albe]
    As = [A[j] * scale ** j for j in range(4)]
    Bs = [B[j] * scale ** (j + 1) for j in range(3)]
    Cs = [C[j] * scale ** (j + 2) for j in range(2)]

    d = np.zeros(_MAX_TERMS)
    d[0], d[1] = f0, f1 * scale
    for n in range(_MAX_TERMS - 2):
        s = 0.0
        for j in (1, 2, 3):
            k = n + 2 - j
            if k >= 2:
                s += As[j] * k * (k - 1) * d[k]
        for j in (0, 1, 2):
            k = n + 1 - j
            if k >= 1:
                s += Bs[j] * k * d[k]
        for j in (0, 1):
            k = n - j
            if k >= 0:
                s += Cs[j] * d[k]
        d[n + 2] = -s / (As[0] * (n + 2) * (n + 1))
    return d


def _eval_series(coeffs: np.ndarray, x):
    """(value, derivative) of sum c_k x^k by Horner, the terms on the last
    axis of coeffs, elementwise over x."""
    v = dv = np.zeros(np.shape(x))
    for k in range(coeffs.shape[-1] - 1, 0, -1):
        v = v * x + coeffs[..., k]
        dv = dv * x + k * coeffs[..., k]
    return v * x + coeffs[..., 0], dv


def _nearest_singularity(p: HeunParams, z: float) -> float:
    return min(abs(z), abs(z - 1.0), abs(z - p.a))


class HeunEvaluator:
    """The normalized local solution and its derivative on [0, 1].

    At construction: the chain of (center, radius scale, scaled Taylor
    coefficients) panels from 0 to z_match, each used inside RAD_FACTOR
    times its convergence radius, and the connection coefficients (A, B)
    to the Frobenius pair at z = 1, which serves z > z_match.
    """

    def __init__(self, params: HeunParams):
        p = self.params = params
        if p.delta == round(p.delta):
            raise ValueError(f"delta = {p.delta} is an integer: the exponents "
                             "at z = 1 differ by an integer")
        al, be, ga, de, ep = p.alpha, p.beta, p.gamma, p.delta, p.epsilon
        self._rho = min(1.0, p.a - 1.0)      # convergence radius of the z = 1 pair
        self.z_match = 1.0 - _RAD_FACTOR * self._rho
        z0, scale = 0.0, min(1.0, p.a)
        panels = [(z0, scale, _frobenius_coeffs(p.a, p.q, al, be, ga, de, scale))]
        while z0 + _RAD_FACTOR * scale < self.z_match:
            f0, f1 = _eval_series(panels[-1][2], _RAD_FACTOR)
            if not (math.isfinite(f0) and math.isfinite(f1)):
                raise NumericFailure(f"series blow-up recentering at "
                                     f"z={z0 + _RAD_FACTOR * scale}")
            z0, f1 = z0 + _RAD_FACTOR * scale, f1 / scale
            scale = _nearest_singularity(p, z0)
            panels.append((z0, scale, _taylor_step(p, z0, scale, f0, f1)))
        self._centers, self._scales, self._coeffs = map(np.array, zip(*panels))

        a1, pq = 1.0 - p.a, al * be - p.q
        self._u0 = _frobenius_coeffs(a1, pq, al, be, de, ga, self._rho)
        self._u1 = _frobenius_coeffs(a1, (a1 * ga + ep) * (1.0 - de) + pq,
                                     al + 1.0 - de, be + 1.0 - de, 2.0 - de, ga, self._rho)
        # match f and df/dr = -2 r df/dz at r = sqrt(1 - z_match)
        r = math.sqrt(1.0 - self.z_match)
        f, fz = self._panel_values(self.z_match)
        (u, du), (v, dv) = self._pair(r)
        self.A, self.B = np.linalg.solve([[u, v], [du, dv]], [f, -2.0 * r * fz])

    def _panel_values(self, z):
        i = np.searchsorted(self._centers, z, side="right") - 1
        v, dv = _eval_series(self._coeffs[i], (z - self._centers[i]) / self._scales[i])
        return v, dv / self._scales[i]

    def _pair(self, r):
        """The Frobenius pair u0(w), w^(1-delta) u1(w) at w = r^2, each with
        its r-derivative."""
        e2 = 2.0 * (1.0 - self.params.delta)
        u0, du0 = _eval_series(self._u0, r * r / self._rho)
        u1, du1 = _eval_series(self._u1, r * r / self._rho)
        dw = 2.0 * r / self._rho
        return (u0, dw * du0), (r ** e2 * u1, r ** e2 * dw * du1 + e2 * r ** (e2 - 1.0) * u1)

    def near_one(self, r):
        """(f, df/dr) at z = 1 - r^2 >= z_match, elementwise over r.  Taking
        r itself (cn, for z = sn^2) avoids the cancellation in 1 - z; for
        delta = 1/2, df/dr is analytic at r = 0 and has no division by r."""
        (u, du), (v, dv) = self._pair(np.asarray(r, dtype=float))
        return self.A * u + self.B * v, self.A * du + self.B * dv

    def value_and_derivative(self, z):
        """(f, df/dz) at z in [0, 1], scalar or array; df/dz is infinite at
        z = 1 unless B = 0."""
        shape = np.shape(z)
        z = np.atleast_1d(np.asarray(z, dtype=float)).ravel()
        if not np.all((z >= 0.0) & (z <= 1.0)):
            raise ValueError(f"evaluation restricted to 0 <= z <= 1, got {z.min()}"
                             f" .. {z.max()}")
        near = z > self.z_match
        v, dv = np.empty_like(z), np.empty_like(z)
        v[~near], dv[~near] = self._panel_values(z[~near])
        r = np.sqrt(1.0 - z[near])
        v[near], dr = self.near_one(r)
        with np.errstate(divide="ignore", invalid="ignore"):
            dv[near] = -dr / (2.0 * r)
        return v.reshape(shape)[()], dv.reshape(shape)[()]

    def __call__(self, z):
        return self.value_and_derivative(z)[0]
