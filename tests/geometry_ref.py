"""Reference geometry of the 2x2 matrix model, for the tests.

The distinguished frame at the identity,

    P1 = Id, P2 = [[0, r2],[0, 0]], P3 = diag(-1, 1), P4 = [[0, 0],[r2, 0]],

has Gram matrix CARTAN_GRAM under ads_inner; frames with this Gram matrix
are the Cartan frames.  Along a curve gamma = F+ F-^{-1} the Cartan frame is

    gamma = F+ P1 F-^{-1}, T = F+ P2 F-^{-1}, N = F+ P3 F-^{-1},
    B = F+ P4 F-^{-1},

with T = gamma'/sqrt2 and N = gamma''/2.  Time orientation: a null tangent
V at X points to the future when the bivector pairing

    << Id ^ J , X ^ V >> = det [[<Id,X>, <Id,V>], [<J,X>, <J,V>]] > 0,

with J = [[0,1],[-1,0]].
"""

import math

import numpy as np

from ads_null_flows.nullcurve import (
    ads_inner,
    classify_monodromies,
    closed_constant,
    constant_bending_frames,
    constant_curve_period,
)

SQRT2 = math.sqrt(2.0)

P1 = np.eye(2)
P2 = np.array([[0.0, SQRT2], [0.0, 0.0]])
P3 = np.array([[-1.0, 0.0], [0.0, 1.0]])
P4 = np.array([[0.0, 0.0], [SQRT2, 0.0]])
J = np.array([[0.0, 1.0], [-1.0, 0.0]])

CARTAN_GRAM = np.array([
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
])


class DegenerateBivector(ValueError):
    pass


def future_directed(X: np.ndarray, V: np.ndarray) -> bool:
    """Positivity of the type-(-,0) bivector X ^ V (null tangent case)."""
    X = np.asarray(X, dtype=float)
    V = np.asarray(V, dtype=float)
    # X ^ V = 0 iff X, V linearly dependent as 4-vectors
    M = np.stack([X.reshape(4), V.reshape(4)])
    if np.linalg.matrix_rank(M, tol=1e-12 * max(1.0, np.abs(M).max())) < 2:
        raise DegenerateBivector("X and V are proportional")
    pairing = np.array([
        [ads_inner(P1, X), ads_inner(P1, V)],
        [ads_inner(J, X), ads_inner(J, V)],
    ])
    return float(np.linalg.det(pairing)) > 0.0


def cartan_frame(path):
    """(gamma, T, N, B) along a SpinorFramePath, each an (n, 2, 2) stack."""
    Fp, Fm = path.F
    Fm_inv = np.linalg.inv(Fm)
    return Fp @ Fm_inv, Fp @ P2 @ Fm_inv, Fp @ P3 @ Fm_inv, Fp @ P4 @ Fm_inv


def classify_constant_closed(m: int, n: int):
    """(classification, rho) for the closed constant-bending curve indexed by
    coprime m > n, from the rational-phase algebra of the monodromies: a
    check of that algebra against the closed form of closed_constant.

    Constant bending has no least period, so the reference window rho is a
    free choice; taking rho = P/w with P the closed-form curve period and w
    the smallest integer >= 3 coprime to 2 m n makes both monodromies
    elliptic and non-central, and the rational-phase algebra reproduces the
    closed-form period and spin.
    """
    kappa, _, _ = closed_constant(m, n)
    P = constant_curve_period(m, n)
    w = 3
    while math.gcd(w, 2 * m * n) != 1:
        w += 1
    rho = P / w
    Fp, Fm = constant_bending_frames(float(kappa), rho)
    return classify_monodromies(Fp, Fm, rho), rho
