"""Matrix differential polynomials: g-membership, LIEN Lax data, and the
exact zero-curvature identities.

The 4x4 matrices are in the frame (gamma, gamma', N, sqrt(2) B), the paper's
frame rescaled by D = diag(1, sqrt(2), 1, sqrt(2)), so an entry X_ij of the
paper reads X_ij d_j / d_i here; the comments give the paper's value."""

import itertools
from fractions import Fraction

from jetalg_ref import g_membership_defect, lax_pair_2x2, lax_zero_curvature_2x2

from ads_null_flows.jetalg import (
    JetPoly,
    frenet_K,
    lien_matrix_polys,
    mat_is_zero,
    zero_curvature_check,
)
from ads_null_flows.jetalg import matrices
from ads_null_flows.jetalg.poly import U, U1


def V(i, e=1):
    return JetPoly.var(i, e)


def test_lien_matrices_are_g_valued():
    for n in range(4):
        K, P = lien_matrix_polys(n)
        assert mat_is_zero(g_membership_defect(K))
        assert mat_is_zero(g_membership_defect(P))


def test_lien_P1_compatibility_entries():
    _, P = lien_matrix_polys(1)
    # paper: p22 = -2 u1, p32 = (4/sqrt2) u, p23 = (1/sqrt2)(-2u2 + 4u^2 - 8)
    assert P[1][1] == -2 * U1
    assert P[2][1] == 4 * U                      # paper: 2 sqrt2 u
    assert P[1][2] == -V(2) + 2 * U * U - 4      # paper: (-2u2 + 4u^2 - 8)/sqrt2


def test_lien_P1_first_row_is_the_flow():
    # paper: T-coefficient -2 sqrt2 u, N-coefficient 0, B-coefficient -4 sqrt2
    _, P = lien_matrix_polys(1)
    assert P[0][3] == -4 * U                     # paper: -2 sqrt2 u
    assert P[0][2].is_zero()
    assert P[0][1] == JetPoly.const(-8)          # paper: -4 sqrt2


def test_lien_P2_first_row_is_the_second_flow():
    # paper: -2 sqrt2 (u2 - u^2 + 8) on T, 8 u1 on N, 8 sqrt2 u on B
    _, P = lien_matrix_polys(2)
    assert P[0][3] == -4 * (V(2) - U * U + 8)    # paper: -2 sqrt2 (u2 - u^2 + 8)
    assert P[0][2] == 8 * U1                     # d_0 = d_2: unchanged
    assert P[0][1] == 16 * U                     # paper: 8 sqrt2 u


def test_zero_curvature_exact():
    for n in range(4):
        assert mat_is_zero(zero_curvature_check(n))


def test_lax_pair_entries():
    K, P = lax_pair_2x2(Fraction(1))
    assert K[0][1] == U + 1
    assert K[1][0] == JetPoly.const(1)
    assert P[0][0] == -U1
    assert P[0][1] == -V(2) + 2 * U * U - 2 * U - 4
    assert P[1][0] == 2 * U - 4
    assert P[1][1] == U1


def test_lax_zero_curvature_is_kdv():
    # D_s P + [K, P] - d_t K  ==  [[0, -(u_t + u3 - 6 u u1)], [0, 0]]
    for lam in (0, 1, -1, Fraction(1, 2)):
        ut_coeff, rest = lax_zero_curvature_2x2(lam)
        assert ut_coeff[0][1] == JetPoly.const(-1)
        assert rest[0][1] == -(V(3) - 6 * U * U1)
        for i in range(2):
            for j in range(2):
                if (i, j) != (0, 1):
                    assert ut_coeff[i][j].is_zero()
                    assert rest[i][j].is_zero()


def test_lax_lambda_pm1_match_spinor_frenet_s_parts():
    for lam, shift in ((1, 1), (-1, -1)):
        K, _ = lax_pair_2x2(lam)
        assert K[0][1] == U + shift
        assert K[1][0] == JetPoly.const(1)


def test_frenet_K_matches_lax_at_lambda_zero_block():
    K4 = frenet_K()
    assert K4[1][2] == U                         # paper: sqrt2 u
    assert K4[2][3] == -2 * U                    # paper: -sqrt2 u


def test_checks_catch_every_single_entry_error(monkeypatch):
    """Doubling or negating any one non-zero entry of K^ or P^_n (n <= 3)
    breaks zero curvature and, on its own, g-membership: each check still
    sees every such error in the rescaled frame (128 mutations)."""
    for n in range(4):
        K, P = lien_matrix_polys(n)
        for k, M in enumerate((K, P)):
            for i, j in itertools.product(range(4), range(4)):
                if M[i][j].is_zero():
                    continue
                for factor in (2, -1):
                    bad = [row[:] for row in M]
                    bad[i][j] = factor * M[i][j]
                    pair = (bad, P) if k == 0 else (K, bad)
                    monkeypatch.setattr(matrices, "lien_matrix_polys",
                                        lambda _n, pair=pair: pair)
                    where = (n, "KP"[k], i, j, factor)
                    assert not mat_is_zero(zero_curvature_check(n)), where
                    assert not mat_is_zero(g_membership_defect(bad)), where
