"""Reference jet algebra for the tests: exact identities of the paper over
Q that no command checks, and a float evaluation of jet polynomials.

g_membership_defect(A) is X^t g^ + g^ X for the Gram matrix g^ =
jetalg.FRAME_GRAM of the frame (gamma, gamma', N, sqrt(2) B): zero iff A
is g-valued.  lax_pair_2x2(lam) is the 2x2 spectral-parameter Lax pair of
the KdV equation, whose lam = +-1 s-parts are the spinor frame equations,
and lax_zero_curvature_2x2(lam) its zero-curvature defect.  evaluate(p,
jet) is p at the jet values (u, u1, u2, ...).
"""

from fractions import Fraction
from typing import Iterable

from ads_null_flows.jetalg import FRAME_GRAM, JetPoly
from ads_null_flows.jetalg.matrices import mat_commutator, mat_total_derivative
from ads_null_flows.jetalg.poly import U, U1


def g_membership_defect(A):
    """X^t g^ + g^ X as a JetPoly matrix (zero iff A is g-valued)."""
    n, g = len(A), FRAME_GRAM
    return [[sum((g[i][k] * A[k][j] + A[k][i] * g[k][j] for k in range(n)),
                 JetPoly.zero())
             for j in range(n)] for i in range(n)]


def lax_pair_2x2(lam):
    """K_lam = [[0, u+lam],[1,0]], P_lam = [[-u1, -u2+2u^2-2 lam u-4 lam^2],
    [2u-4 lam, u1]] with an exact spectral parameter."""
    lam = Fraction(lam)
    u2 = JetPoly.var(2)
    K = [[JetPoly.zero(), U + JetPoly.const(lam)],
         [JetPoly.const(1), JetPoly.zero()]]
    P = [[-U1, -u2 + 2 * U * U - 2 * lam * U - JetPoly.const(4 * lam * lam)],
         [2 * U - JetPoly.const(4 * lam), U1]]
    return K, P


def lax_zero_curvature_2x2(lam):
    """The 2x2 zero-curvature defect D_s P + [K, P] - d_t K, split as
    (coefficient of u_t, remainder); the defect is their u_t-weighted sum."""
    K, P = lax_pair_2x2(lam)
    ut_coeff = [[JetPoly.zero(), JetPoly.const(-1)],
                [JetPoly.zero(), JetPoly.zero()]]
    rest = [[a + b for a, b in zip(ra, rb)]
            for ra, rb in zip(mat_total_derivative(P), mat_commutator(K, P))]
    return ut_coeff, rest


def evaluate(p: JetPoly, jet: Iterable[float]) -> float:
    """p at the jet values (u, u1, u2, ...), in floats."""
    jet = list(jet)
    if p.order() >= len(jet):
        raise ValueError(f"need jet values up to index {p.order()}, got {len(jet)}")
    total = 0.0
    for m, c in p.terms.items():
        v = float(c)
        for i, e in enumerate(m):
            v *= jet[i] ** e
        total += v
    return total
