"""Independent references for the benchmark's checks.

Nothing here imports the program.  Jacobi functions and complete elliptic
integrals come from scipy.special, frames from scipy.integrate.solve_ivp or
scipy.linalg.expm, and the jet algebra is plain ``fractions`` arithmetic on
the exported JSON.  The parameter convention matches the paper: mu is the
square of the modulus, so sn(K(mu), mu) = 1.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.optimize import brentq
from scipy.special import ellipj, ellipk

RTOL = 1e-12
ATOL = 1e-14


def _sn_derivs(x: float, m: float):
    """(sn, sn', sn'') at x: sn' = cn dn and sn'' = -sn dn^2 - m sn cn^2."""
    sn, cn, dn, _ = ellipj(x, m)
    return sn, cn * dn, -sn * dn * dn - m * sn * cn * cn


def _frame_transport(coef, s_end: float, n_frames: int) -> np.ndarray:
    """Monodromies of F' = F [[0, c_k(s)], [1, 0]] from F(0) = Id over
    [0, s_end], one per coefficient returned by coef(s) (a tuple)."""
    def rhs(s, y):
        c = coef(s)
        out = []
        for k in range(n_frames):
            a, b, cc, d = y[4 * k: 4 * k + 4]
            out += [b, c[k] * a, d, c[k] * cc]
        return out

    y0 = [1.0, 0.0, 0.0, 1.0] * n_frames
    sol = solve_ivp(rhs, (0.0, s_end), y0, method="DOP853", rtol=RTOL, atol=ATOL)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    y = sol.y[:, -1]
    return np.array([y[4 * k: 4 * k + 4].reshape(2, 2) for k in range(n_frames)])


# ------------------------------------------------------------------ Lame

def lame_monodromy(mu: float, h: float) -> np.ndarray:
    """Frame [[c, c'], [s, s']] of f'' + (h - 2 mu sn^2) f = 0 at 2K(mu)."""
    def coef(x):
        sn = ellipj(x, mu)[0]
        return (2.0 * mu * sn * sn - h,)
    return _frame_transport(coef, 2.0 * float(ellipk(mu)), 1)[0]


def floquet_order(q: Fraction) -> int:
    """Least n with M^n = Id when M has eigenvalues exp(+-i pi q)."""
    if q == 0:
        return 1
    return q.denominator if q.numerator % 2 == 0 else 2 * q.denominator


# ------------------------------------------------------------ stationary

def stationary_kappa(mu: float, h_plus: float, h_minus: float, s, t: float = 0.0):
    """kappa(s, t) = (4 mu sn^2(sigma (s + 2 ell t)) - h- - h+) / (h- - h+)."""
    d = h_minus - h_plus
    sigma = math.sqrt(2.0 / d)
    ell = (4.0 * (1.0 + mu) - 3.0 * (h_minus + h_plus)) / d
    sn = ellipj(sigma * (np.asarray(s, float) + 2.0 * ell * t), mu)[0]
    return (4.0 * mu * sn * sn - h_minus - h_plus) / d


# ------------------------------------------------------------------- KKSH

def g_of(m: float) -> float:
    return m ** 0.25 * float(ellipk(m))


def tau_mn(mu: float, m: int, n: int) -> float:
    """The tau in (0, 1) with m mu^{1/4} K(mu) = n tau^{1/4} K(tau)."""
    y = m * g_of(mu) / n
    return float(brentq(lambda x: g_of(x) - y, 1e-12, 1.0 - 1e-12,
                        xtol=1e-15, rtol=4 * np.finfo(float).eps))


def kksh_kappa(mu: float, tau: float, h: float, s: float) -> float:
    """kappa = u_s + u^2 at t = 0, u = -2 phi_s / (1 - phi^2),
    phi = (mu tau)^{1/4} sn(h s, mu) sn(b s, tau), b = (mu/tau)^{1/4} h."""
    b = (mu / tau) ** 0.25 * h
    amp = (mu * tau) ** 0.25
    p0, p1, p2 = _sn_derivs(h * s, mu)
    m0, m1, m2 = _sn_derivs(b * s, tau)
    phi = amp * p0 * m0
    phi_s = amp * (h * p1 * m0 + b * p0 * m1)
    phi_ss = amp * (h * h * p2 * m0 + 2.0 * h * b * p1 * m1 + b * b * p0 * m2)
    den = 1.0 - phi * phi
    u = -2.0 * phi_s / den
    u_s = -2.0 * (phi_ss / den + 2.0 * phi * phi_s * phi_s / (den * den))
    return u_s + u * u


def kksh_monodromies(mu: float, tau: float, h: float, m: int = 1):
    """(F+(rho), F-(rho)) from the identity, rho = 4 m K(mu) / h, with
    F+-' = F+- [[0, kappa +- 1], [1, 0]]."""
    rho = 4.0 * m * float(ellipk(mu)) / h

    def coef(s):
        k = kksh_kappa(mu, tau, h, s)
        return k + 1.0, k - 1.0

    Fp, Fm = _frame_transport(coef, rho, 2)
    return Fp, Fm


# --------------------------------------------------------- constant case

def constant_gamma(kappa0: float, s_values) -> np.ndarray:
    """gamma(s) = exp(s C+) exp(s C-)^{-1}, C+- = [[0, kappa0 +- 1], [1, 0]]."""
    cp = np.array([[0.0, kappa0 + 1.0], [1.0, 0.0]])
    cm = np.array([[0.0, kappa0 - 1.0], [1.0, 0.0]])
    return np.array([expm(s * cp) @ expm(-s * cm) for s in s_values])


def closed_constant(m: int, n: int):
    """(kappa_{m,n}, least period, torus knot) of the closed constant curves."""
    kappa = Fraction(-(m * m + n * n), m * m - n * n)
    s_star = math.pi * math.sqrt((m * m - n * n) / 2.0)
    if (m + n) % 2 == 0:
        return kappa, s_star, ((n - m) // 2, (n + m) // 2)
    return kappa, 2.0 * s_star, (n - m, n + m)


# ------------------------------------------------------- curve geometry

def inner(X, Y):
    """<X, Y> = (x12 y21 + x21 y12 - x11 y22 - x22 y11) / 2, stack-aware."""
    return 0.5 * (X[..., 0, 1] * Y[..., 1, 0] + X[..., 1, 0] * Y[..., 0, 1]
                  - X[..., 0, 0] * Y[..., 1, 1] - X[..., 1, 1] * Y[..., 0, 0])


_D3 = np.array([1.0, -8.0, 13.0, 0.0, -13.0, 8.0, -1.0]) / 8.0


def fd_bending(gamma: np.ndarray, ds: float) -> np.ndarray:
    """kappa = -<gamma''', gamma'''> / 16 on the interior samples (the
    first and last three are dropped), by the 7-point central stencil."""
    n = len(gamma)
    g3 = sum(_D3[k] * gamma[k: n - 6 + k] for k in range(7)) / ds ** 3
    return -inner(g3, g3) / 16.0


def torus_chart(gamma: np.ndarray) -> np.ndarray:
    """The fixed solid-torus chart of a unimodular matrix stack."""
    a, b, c, d = gamma[:, 0, 0], gamma[:, 0, 1], gamma[:, 1, 0], gamma[:, 1, 1]
    x1, x2, x3, x4 = (a + d) / 2, (b - c) / 2, (b + c) / 2, (a - d) / 2
    r = np.hypot(x3, x4)
    rho = r / np.hypot(1.0, r)
    theta, phi = np.arctan2(x2, x1), np.arctan2(x4, x3)
    ring = 2.0 + rho * np.cos(phi)
    return np.stack([ring * np.cos(theta), ring * np.sin(theta), rho * np.sin(phi)], -1)


def axial_turns(xyz: np.ndarray) -> float:
    """Turns of the chart image about the torus axis along the polyline."""
    theta = np.unwrap(np.arctan2(xyz[:, 1], xyz[:, 0]))
    return (theta[-1] - theta[0]) / (2.0 * math.pi)


# ------------------------------------------------------ Lenard recursion

class Series:
    """Power series in x with Fraction coefficients, modulo x^n."""

    def __init__(self, coeffs, n: int):
        self.n = n
        self.c = ([Fraction(v) for v in coeffs] + [Fraction(0)] * n)[:n]

    def __add__(self, other):
        n = min(self.n, other.n)
        return Series([a + b for a, b in zip(self.c[:n], other.c[:n])], n)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        n = min(self.n, other.n)
        out = [Fraction(0)] * n
        for i, a in enumerate(self.c[:n]):
            if a:
                for j, b in enumerate(other.c[: n - i]):
                    out[i + j] += a * b
        return Series(out, n)

    def scale(self, k):
        return Series([k * v for v in self.c], self.n)

    def d(self):
        """d/dx, known modulo x^(n-1)."""
        return Series([i * v for i, v in enumerate(self.c)][1:], self.n - 1)


# u(x), a polynomial of degree 18 with generic rational coefficients: every
# u_k with k <= 17, enough for p_8 (order 14) and D^3 of it, is non-zero
U_OF_X = [Fraction((-1) ** k * (3 * k + 2), 2 * k + 5) for k in range(19)]


def jet_poly(doc: dict) -> dict:
    """{((i, e), ...): Fraction} from the exported {"terms": [...]} form;
    only rational coefficients are accepted."""
    out = {}
    for term in doc["terms"]:
        mono = tuple(sorted((int(i), int(e)) for i, e in term["monomial"].items()))
        out[mono] = out.get(mono, Fraction(0)) + Fraction(term["coeff"])
    return {k: v for k, v in out.items() if v != 0}


def along_u(poly: dict, n: int) -> Series:
    """The jet polynomial evaluated on u(x) and its x-derivatives, mod x^n."""
    top = max((i for mono in poly for i, _ in mono), default=0)
    jets, coeffs = [], U_OF_X
    for _ in range(top + 1):
        jets.append(Series(coeffs, n))
        coeffs = [i * v for i, v in enumerate(coeffs)][1:]
    total = Series([0], n)
    for mono, coeff in poly.items():
        term = Series([coeff], n)
        for i, e in mono:
            for _ in range(e):
                term = term * jets[i]
        total = total + term
    return total


def lenard_step_holds(p_prev: dict, p_next: dict, terms: int = 4) -> bool:
    """D p_n = (D^3 - 4 u D - 2 u_1) p_{n-1} along u(x), exactly, on the
    first `terms` Taylor coefficients at x = 0."""
    q = along_u(p_prev, terms + 3)
    u = along_u({((0, 1),): Fraction(1)}, terms + 3)
    rhs = q.d().d().d() - u * q.d().scale(4) - u.d() * q.scale(2)
    return along_u(p_next, terms + 1).d().c == rhs.c
