"""Matrix differential polynomials: the 4x4 Lax data of the LIEN hierarchy.

In the paper's frame (gamma, T, N, B), with T = gamma'/sqrt(2), sqrt(2)
occurs in 6 entries of K and 8 of P_n.  Here both are written in the
constant rescaling of that frame by D = diag(1, sqrt(2), 1, sqrt(2)), the
frame (gamma, gamma', N, sqrt(2) B):

        K^ = D^-1 K D,   P^_n = D^-1 P_n D,   i.e.  X^_ij = X_ij d_j / d_i,

and every entry is rational.  The matrices take values in the Lie algebra
{X : X^t g^ + g^ X = 0} of the frame's Gram matrix

        g^ = D g D = [[-1,0,0,0],[0,0,0,2],[0,0,1,0],[0,2,0,0]],

where g = [[-1,0,0,0],[0,0,0,1],[0,0,1,0],[0,1,0,0]] is the Cartan Gram
matrix of the paper's frame (the tests check that membership).

zero_curvature_check(n) verifies  d_t K^ - D_s P^_n - [K^, P^_n] = 0
exactly, with d_t u substituted by the induced bending flow; it must vanish
identically.  Both checks decide what they decide in the paper's frame: D is
constant, so the zero-curvature defect of (K^, P^_n) is D^-1 (defect of
(K, P_n)) D, and X^ = D^-1 X D has X^^t g^ + g^ X^ = D (X^t g + g X) D.
Each vanishes exactly when its paper-frame counterpart does.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from .hierarchy import kdv_rhs, lien_coefficients
from .poly import JetPoly, U, U1

Matrix = List[List[JetPoly]]

ZERO_CURVATURE_N_MAX = 3    # the flows the commands and tests check


def _zeros(r: int, c: int) -> Matrix:
    return [[JetPoly.zero() for _ in range(c)] for _ in range(r)]


def mat_sub(A: Matrix, B: Matrix) -> Matrix:
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    n, k, m = len(A), len(B), len(B[0])
    out = _zeros(n, m)
    for i in range(n):
        for j in range(m):
            s = JetPoly.zero()
            for t in range(k):
                if A[i][t] and B[t][j]:
                    s = s + A[i][t] * B[t][j]
            out[i][j] = s
    return out


def mat_commutator(A: Matrix, B: Matrix) -> Matrix:
    return mat_sub(mat_mul(A, B), mat_mul(B, A))


def mat_total_derivative(A: Matrix) -> Matrix:
    return [[p.total_derivative() for p in row] for row in A]


def mat_is_zero(A: Matrix) -> bool:
    return all(p.is_zero() for row in A for p in row)


# g^ = D g D, the Gram matrix of the frame (gamma, gamma', N, sqrt(2) B)
FRAME_GRAM: Tuple[Tuple[int, ...], ...] = (
    (-1, 0, 0, 0),
    (0, 0, 0, 2),
    (0, 0, 1, 0),
    (0, 2, 0, 0),
)


def frenet_K() -> Matrix:
    """K^, the s-part of the 4x4 Lax connection in the frame (gamma, gamma',
    N, sqrt(2) B), with the bending as the jet variable u."""
    K = _zeros(4, 4)
    K[0][3] = JetPoly.const(2)
    K[1][0] = JetPoly.const(1)
    K[1][2] = U
    K[2][1] = JetPoly.const(2)
    K[2][3] = -2 * U
    K[3][2] = JetPoly.const(-1)
    return K


def lien_matrix_polys(n: int) -> Tuple[Matrix, Matrix]:
    """(K^, P^_n): the 4x4 zero-curvature pair of the n-th LIEN flow in the
    frame (gamma, gamma', N, sqrt(2) B).

    The entries are built from a_n, b_n.  x21, x41, x32 and x23 below are
    sqrt(2) times the paper's x^j_i, so by P^_ij = P_ij d_j / d_i they enter
    whole where d_j / d_i = sqrt(2) and halved where it is 1/sqrt(2).  The
    signs of x^3_2 and x^2_3 and the (4,4) entry are fixed by g-membership
    together with the n=1 compatibility values P^_22 = -2 u1, P^_32 = 4 u,
    P^_23 = -u2 + 2 u^2 - 4 (paper's frame: -2 u1, (4/sqrt2) u,
    (1/sqrt2)(-2 u2 + 4 u^2 - 8)).
    """
    _, _, a, b = lien_coefficients(n)
    half = Fraction(1, 2)
    d2b = b.total_derivative().total_derivative()
    d2a = a.total_derivative().total_derivative()
    x21 = a + U * b - half * d2b
    x31 = half * b.total_derivative()
    x41 = b
    x22 = -(half * a.total_derivative())
    x32 = a
    x23 = b + U * a - half * d2a

    P = _zeros(4, 4)
    P[0][1], P[0][2], P[0][3] = x41, x31, x21
    P[1][0], P[1][1], P[1][2] = half * x21, x22, half * x23
    P[2][0], P[2][1], P[2][3] = x31, x32, -x23
    P[3][0], P[3][2], P[3][3] = half * x41, -(half * x32), -x22
    return frenet_K(), P


def induced_bending_flow(n: int) -> JetPoly:
    """d_t u induced on the bending by the n-th flow.

    For n >= 1 this is -kdv_rhs(n).  The 0th flow d_t gamma = 2 sqrt2 T is the
    reparametrization gamma(s,t) = gamma(s + 2t), whose induced equation is
    u_t = 2 u1 (not the wave equation u_t = -u1: the seed constants a_0 = 4,
    b_0 = 0 fix the T-coefficient at +2 sqrt2).
    """
    if n == 0:
        return 2 * U1
    return -kdv_rhs(n)


def zero_curvature_check(n: int) -> Matrix:
    """d_t K^ - D_s P^_n - [K^, P^_n] with d_t u -> induced_bending_flow(n),
    for n <= ZERO_CURVATURE_N_MAX; expected identically zero."""
    if n > ZERO_CURVATURE_N_MAX:
        raise ValueError(f"n={n} exceeds the cap {ZERO_CURVATURE_N_MAX}")
    K, P = lien_matrix_polys(n)
    ut = induced_bending_flow(n)
    # d_t K^: only the two u-entries of K^ move
    dtK = _zeros(4, 4)
    dtK[1][2] = ut
    dtK[2][3] = -2 * ut
    return mat_sub(mat_sub(dtK, mat_total_derivative(P)), mat_commutator(K, P))
