"""The flat metric machinery of the 2x2 matrix space.

A real 2x2 matrix X doubles as a vector of the split-signature space with
quadratic form q(X) = -det X = x12 x21 - x11 x22; the unimodular quadric
q = -1 is the curved ambient space of all curves here (constant sectional
curvature -1).  The inner product is the polarization

    <X, Y> = (x12 y21 + x21 y12 - x11 y22 - x22 y11) / 2,

invariant under X -> A X B^{-1} for unimodular A, B (the 2:1 spin action).

The distinguished frame at the identity,

    P1 = Id, P2 = [[0, r2],[0, 0]], P3 = diag(-1, 1), P4 = [[0, 0],[r2, 0]],

has Gram matrix g = [[-1,0,0,0],[0,0,0,1],[0,0,1,0],[0,1,0,0]]; frames with
this Gram matrix are the Cartan frames.  Time orientation: a null tangent V
at X points to the future when the bivector pairing

    << Id ^ J , X ^ V >> = det [[<Id,X>, <Id,V>], [<J,X>, <J,V>]] > 0,

with J = [[0,1],[-1,0]].
"""

from __future__ import annotations

import math

import numpy as np

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


def q_form(X: np.ndarray):
    """q(X) = -det X, elementwise over a trailing (2,2) stack."""
    X = np.asarray(X, dtype=float)
    return X[..., 0, 1] * X[..., 1, 0] - X[..., 0, 0] * X[..., 1, 1]


def ads_inner(X: np.ndarray, Y: np.ndarray):
    """<X, Y>: polarization of q, stack-aware."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    return 0.5 * (X[..., 0, 1] * Y[..., 1, 0] + X[..., 1, 0] * Y[..., 0, 1]
                  - X[..., 0, 0] * Y[..., 1, 1] - X[..., 1, 1] * Y[..., 0, 0])


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

