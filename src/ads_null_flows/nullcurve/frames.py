"""Spinor frames, the curve construction, and the finite-difference bending
oracle.

A real 2x2 matrix X doubles as a vector of the split-signature space with
quadratic form q(X) = -det X; the unimodular quadric q = -1 is the curved
ambient space of all curves here.  The inner product is the polarization

    <X, Y> = (x12 y21 + x21 y12 - x11 y22 - x22 y11) / 2,

invariant under X -> A X B^{-1} for unimodular A, B (the 2:1 spin action).

A bending function kappa determines two central-affine frames through

    F+' = F+ [[0, kappa + 1], [1, 0]],    F-' = F- [[0, kappa - 1], [1, 0]],

and the curve gamma = F+ F-^{-1} on the unimodular quadric, parameterized by
its proper time (<gamma'', gamma''> = 4).  The first columns eta+- of F+- are
the associated pair of star-shaped cousins, with central affine curvatures
kappa +- 1 (difference exactly 2).  The bending is recovered by
kappa = -<gamma''', gamma'''>/16 (the oracle below, used for validation).

Every frame path holds both factors as one stack F of shape (2, n, 2, 2):
F[0] = F+ and F[1] = F-, the factors at the spectral parameters LAMBDA =
(+1, -1) in that order, the order of the transport kernel's factor axis.
F-^{-1} is the adjugate (transport.sl2_inverse).  A constant generator
[[0, b], [c, 0]] integrates in closed form, expm_offdiag: the frames of
constant bending, and the rigid motions of the stationary curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from ..config import DEFAULT, NumericFailure, RunConfig, UsageError
from ..transport import EPS, sl2_inverse

LAMBDA = np.array([[1.0], [-1.0]])   # the spectral parameters, as the factor axis


def ads_inner(X: np.ndarray, Y: np.ndarray):
    """<X, Y>: polarization of q, stack-aware."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    return 0.5 * (X[..., 0, 1] * Y[..., 1, 0] + X[..., 1, 0] * Y[..., 0, 1]
                  - X[..., 0, 0] * Y[..., 1, 1] - X[..., 1, 1] * Y[..., 0, 0])


@dataclass
class SpinorFramePath:
    s_grid: np.ndarray
    F: np.ndarray          # (2, n, 2, 2): F+ then F-
    kappa: np.ndarray      # (n,)

    def gamma(self) -> np.ndarray:
        """F+ F-^{-1} at every sample.  Entries beyond the float range come
        out inf or nan, without a warning; a caller that exports checks."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.F[0] @ sl2_inverse(self.F[1])

    def period_index(self, rho: float) -> int:
        """The index of the sample at s0 + rho, s0 = s_grid[0]; ValueError
        when no sample lies within 1e-9 max(1, |rho|) of it."""
        s = self.s_grid
        i = int(np.argmin(np.abs(s - (s[0] + rho))))
        if abs(s[i] - (s[0] + rho)) > 1e-9 * max(1.0, abs(rho)):
            raise ValueError(f"s_grid does not sample s0 + rho = {s[0] + rho!r}")
        return i

    def monodromy(self, rho: float) -> np.ndarray:
        """The stack (2, 2, 2) of M+- = F+-(s0 + rho) F+-(s0)^{-1}, F+- at s0
        inverted by its adjugate."""
        return self.F[:, self.period_index(rho)] @ sl2_inverse(self.F[:, 0])


def _frames_rhs(k, y):
    """d/ds of both frames, each flattened row-major and F+ first, at the
    bending k: F' = F [[0, k + lam], [1, 0]]."""
    ap, bp, cp, dp, am, bm, cm, dm = y
    kp, km = k + 1.0, k - 1.0
    return (bp, kp * ap, dp, kp * cp, bm, km * am, dm, km * cm)


def integrate_spinor_frames(kappa: Callable[[float], float], s_grid,
                            config: RunConfig = DEFAULT) -> SpinorFramePath:
    """Adaptive integration of both frame systems from Id at s_grid[0] over
    the grid."""
    s_grid = np.asarray(s_grid, dtype=float)
    if len(s_grid) > 1 and np.any(np.diff(s_grid) <= 0):
        raise ValueError("s_grid must be strictly increasing")
    kap = np.array([kappa(float(s)) for s in s_grid])
    if len(s_grid) == 1:
        return SpinorFramePath(s_grid, np.stack([np.eye(2)[None]] * 2), kap)
    sol = solve_ivp(lambda s, y: _frames_rhs(kappa(s), y),
                    (float(s_grid[0]), float(s_grid[-1])), [1.0, 0.0, 0.0, 1.0] * 2,
                    method="DOP853", rtol=max(config.integrator_rel_tol, 100.0 * EPS),
                    atol=config.integrator_abs_tol, t_eval=s_grid)
    if not sol.success:
        raise NumericFailure(f"frame integration failed: {sol.message}")
    return SpinorFramePath(s_grid, np.moveaxis(sol.y.reshape(2, 2, 2, -1), -1, 1), kap)


_D3 = np.array([1.0, -8.0, 13.0, 0.0, -13.0, 8.0, -1.0]) / 8.0


def bending_oracle(gamma: np.ndarray, s_grid: np.ndarray) -> np.ndarray:
    """kappa = -<gamma''', gamma'''>/16 by 7-point central differences on a
    uniform grid; validation only, never feeds a construction.  gamma''' at
    every interior sample is one stencil contraction of the seven shifted
    slices of gamma, and kappa one ads_inner call over all of them.  The
    first and last 3 samples come out NaN."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim != 3 or gamma.shape[0] < 7:
        raise ValueError("need at least 7 samples of gamma")
    steps = np.diff(s_grid)
    if np.abs(steps - steps[0]).max() > 1e-9 * abs(steps[0]):
        raise ValueError("bending oracle needs a uniform grid")
    ds = float(steps[0])
    n = gamma.shape[0]
    shifted = np.stack([gamma[k: n - 6 + k] for k in range(7)])
    g3 = np.tensordot(_D3, shifted, axes=1) / ds ** 3
    out = np.full(n, np.nan)
    out[3:-3] = -ads_inner(g3, g3) / 16.0
    return out


def proper_time_checks(gamma: np.ndarray, ds: float):
    """(max |<gamma,gamma>+1|, max |<gamma',gamma'>|, max |<gamma'',gamma''>-4|)
    with 4th-order central differences on the interior samples."""
    g = np.asarray(gamma, dtype=float)
    q0 = np.abs(ads_inner(g, g) + 1.0).max()
    d1 = (g[:-4] - 8.0 * g[1:-3] + 8.0 * g[3:-1] - g[4:]) / (12.0 * ds)
    q1 = np.abs(ads_inner(d1, d1)).max()
    d2 = (-g[:-4] + 16.0 * g[1:-3] - 30.0 * g[2:-2]
          + 16.0 * g[3:-1] - g[4:]) / (12.0 * ds ** 2)
    q2 = np.abs(ads_inner(d2, d2) - 4.0).max()
    return float(q0), float(q1), float(q2)


# ----------------------------------------------------------- constant case

def expm_offdiag(X: np.ndarray, t=1.0) -> np.ndarray:
    """exp(t X) of X = [[0, b], [c, 0]], elementwise over an array t (shape
    t.shape + (2, 2)): X^2 = bc Id, so exp(t X) = C Id + S X with (C, S) =
    (cos w t, sin(w t) / w) for bc = -w^2 < 0, (1, t) for bc = 0 and
    (cosh w t, sinh(w t) / w) for bc = w^2 > 0.  Beyond w t ~ 710 the last
    is inf; a curve's export rejects it."""
    b, c = float(X[0, 1]), float(X[1, 0])
    p = b * c
    t = np.asarray(t, dtype=float)
    if p < 0.0:
        w = math.sqrt(-p)
        C, S = np.cos(w * t), np.sin(w * t) / w
    elif p == 0.0:
        C, S = np.ones_like(t), t
    else:
        w = math.sqrt(p)
        with np.errstate(over="ignore"):
            C, S = np.cosh(w * t), np.sinh(w * t) / w
    out = np.empty(t.shape + (2, 2))
    out[..., 0, 0] = out[..., 1, 1] = C
    out[..., 0, 1] = S * b
    out[..., 1, 0] = S * c
    return out


def constant_bending_frames(kappa0: float, s):
    """The stack (F+, F-) of closed forms exp(s [[0, kappa0 +- 1], [1, 0]])
    for constant bending; case boundaries at kappa0 = -1 (F+ unipotent) and
    kappa0 = +1 (F- unipotent)."""
    return np.stack([expm_offdiag(np.array([[0.0, kappa0 + lam], [1.0, 0.0]]), s)
                     for lam in LAMBDA[:, 0]])


def constant_bending_path(kappa0: float, s_grid) -> SpinorFramePath:
    s_grid = np.asarray(s_grid, dtype=float)
    return SpinorFramePath(s_grid, constant_bending_frames(kappa0, s_grid),
                           np.full(len(s_grid), kappa0))


def constant_case_tag(kappa0: float) -> str:
    """The five-fold trichotomy of the two factors for constant bending."""
    def tag(k):
        return "E" if k < 0 else ("P" if k == 0 else "H")
    return f"({tag(kappa0 + 1.0)},{tag(kappa0 - 1.0)})"


def closed_constant(m: int, n: int):
    """Exact data of the closed constant-bending curves:

        kappa_{m,n} = -(m^2 + n^2)/(m^2 - n^2),  m > n >= 1 coprime;
        m + n even: spin 1/2, torus knot ((n-m)/2, (n+m)/2)
        m + n odd:  spin 1,   torus knot (n-m, n+m)

    Returns (kappa as Fraction, spin as Fraction, knot pair).
    """
    if m <= n or n < 1 or math.gcd(m, n) != 1:
        raise UsageError("need coprime integers m > n >= 1")
    kappa = Fraction(-(m * m + n * n), m * m - n * n)
    if (m + n) % 2 == 0:
        return kappa, Fraction(1, 2), ((n - m) // 2, (n + m) // 2)
    return kappa, Fraction(1), (n - m, n + m)


def constant_curve_period(m: int, n: int) -> float:
    """Least period of the closed constant-bending curve: the common time
    pi sqrt((m^2 - n^2)/2) at which both factors reach +-Id, doubled when
    the two signs disagree (m + n odd)."""
    if m <= n or n < 1 or math.gcd(m, n) != 1:
        raise UsageError("need coprime integers m > n >= 1")
    s_star = math.pi * math.sqrt((m * m - n * n) / 2.0)
    return s_star if (m + n) % 2 == 0 else 2.0 * s_star
