"""Elliptic integrals and Jacobi functions against independent oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.special import ellipj

from ads_null_flows.specfun import (
    EllipticDomainError,
    JacobiScalar,
    complete_elliptic,
    jacobi_sncndn,
    sn_jet,
)
from ads_null_flows.specfun.elliptic import _jacobi_at, period_remainder

MUS = (0.05, 0.4, 0.615, 0.97)


def quad_K_oracle(mu, n=4000):
    """Midpoint quadrature of the defining integral (independent of AGM)."""
    theta = (np.arange(n) + 0.5) * (np.pi / 2) / n
    return float(np.sum(1.0 / np.sqrt(1.0 - mu * np.sin(theta) ** 2)) * (np.pi / 2) / n)


def test_degenerate_limit():
    K, E = complete_elliptic(1e-12)
    assert K == pytest.approx(math.pi / 2, abs=1e-9)
    assert E == pytest.approx(math.pi / 2, abs=1e-9)


def test_K_half_against_quadrature():
    K, _ = complete_elliptic(0.5)
    assert K == pytest.approx(1.8540746773, abs=1e-9)
    assert K == pytest.approx(quad_K_oracle(0.5), rel=1e-8)


def test_K_monotone():
    assert complete_elliptic(0.9)[0] > complete_elliptic(0.4)[0]


def test_domain_errors():
    for bad in (-0.1, 0.0, 1.0, 1.5):
        with pytest.raises(EllipticDomainError):
            complete_elliptic(bad)
        with pytest.raises(EllipticDomainError):
            jacobi_sncndn(0.3, bad)
        with pytest.raises(EllipticDomainError):
            JacobiScalar(bad)


def test_legendre_relation():
    for mu in (0.1, 0.25, 0.5, 0.615, 0.9):
        K, E = complete_elliptic(mu)
        Kc, Ec = complete_elliptic(1.0 - mu)
        assert E * Kc + Ec * K - K * Kc == pytest.approx(math.pi / 2, abs=1e-10)


def test_special_values():
    for mu in (0.2, 0.5, 0.9):
        K, _ = complete_elliptic(mu)
        sn, cn, dn = jacobi_sncndn(0.0, mu)
        assert (sn, cn, dn) == (0.0, 1.0, 1.0)
        sn, cn, dn = jacobi_sncndn(K, mu)
        assert sn == pytest.approx(1.0, abs=1e-14)
        assert cn == pytest.approx(0.0, abs=1e-14)
        assert dn == pytest.approx(math.sqrt(1.0 - mu), abs=1e-14)


def test_scalar_path_matches_array_path():
    """The pure-float evaluator (JacobiScalar, behind jacobi_sncndn for a
    scalar s) agrees with the numpy path in every cell of the reduction."""
    rng = np.random.default_rng(8)
    for mu in (0.05, 0.4, 0.615, 0.97):
        K, _ = complete_elliptic(mu)
        sn_at = JacobiScalar(mu)
        s = np.array([0.0, K, 2 * K, 3 * K, -K, *rng.uniform(-60.0, 60.0, 200)])
        ref = np.array(jacobi_sncndn(s, mu)).T
        for si, row in zip(s, ref):
            got = sn_at(float(si))
            assert got == jacobi_sncndn(float(si), mu)
            assert np.allclose(got, row, rtol=0.0, atol=1e-15)


def test_zero_branch_is_exact():
    """Every reduced argument 0 (s = 0 or a multiple of 2K that is a
    double) gives exactly (0, +-1, 1), on the array and the scalar path."""
    six_k_seen = False
    for mu in MUS:
        K, _ = complete_elliptic(mu)
        s = [0.0, 2 * K, -2 * K, 4 * K, -4 * K, 8 * K]
        if 6.0 * K - 4.0 * K == 2.0 * K:      # 6K is a double only for some mu
            s.append(6.0 * K)
            six_k_seen = True
        s = np.array(s)
        sn, cn, dn = jacobi_sncndn(s, mu)
        assert (sn == 0.0).all() and (dn == 1.0).all()
        assert (cn == np.where(np.round(s / (2 * K)) % 2 == 0, 1.0, -1.0)).all()
        for si, row in zip(s, zip(sn, cn, dn)):
            assert jacobi_sncndn(float(si), mu) == row
    assert six_k_seen


def test_parity_bit_for_bit():
    """sn is odd, cn and dn even, exactly, on arrays and on scalars."""
    rng = np.random.default_rng(17)
    for mu in MUS:
        K, _ = complete_elliptic(mu)
        s = np.concatenate([rng.uniform(-300.0, 300.0, 2000),
                            np.arange(-9, 10) * K, [1e-200, 5e-324, 1e7 + 0.1]])
        plus = jacobi_sncndn(s, mu)
        minus = jacobi_sncndn(-s, mu)
        assert (minus[0] == -plus[0]).all()
        assert (minus[1] == plus[1]).all() and (minus[2] == plus[2]).all()
        for si in s[::50]:
            sn, cn, dn = jacobi_sncndn(float(si), mu)
            assert jacobi_sncndn(-float(si), mu) == (-sn, cn, dn)


def test_against_scipy_ellipj():
    rng = np.random.default_rng(23)
    s = rng.uniform(-300.0, 300.0, 20_000)
    for mu in MUS:
        ours = np.array(jacobi_sncndn(s, mu))
        ref = np.array(ellipj(s, mu)[:3])
        assert np.abs(ours - ref).max() <= 1e-12


def test_array_reduction_is_exact():
    """The array reduction is s - 4K m exactly: math.remainder(s, 4K) bit
    for bit, or, next to a half period where s/4K rounds to the other
    integer, that remainder -+ 4K, a few ulps past +-2K.  The kernel reads
    both the same way: the array path agrees with the float one, which
    reduces |s| % 4K."""
    rng = np.random.default_rng(29)
    for mu in MUS:
        K, _ = complete_elliptic(mu)
        half = (2 * rng.integers(-2000, 2000, 200) + 1) * (2.0 * K)
        s = np.concatenate([rng.uniform(-1e6, 1e6, 2000), half,
                            np.nextafter(half, -np.inf), np.nextafter(half, np.inf)])
        got, _ = period_remainder(s, _jacobi_at(mu))
        rem = np.array([math.remainder(si, 4.0 * K) for si in s])
        shift = rem - got
        assert set(np.unique(shift)) <= {-4.0 * K, 0.0, 4.0 * K}
        assert (shift[:2000] == 0.0).all()
        assert np.abs(got).max() <= 2.0 * K * (1.0 + 1e-12)
        ours = np.array(jacobi_sncndn(s, mu))
        scalar = np.array([jacobi_sncndn(float(si), mu) for si in s]).T
        assert np.abs(ours - scalar).max() <= 1e-15


def test_tiny_arguments():
    """Below 1e-100 sn(s) = s and cn = dn = 1 to every digit; the backward
    recursion would overflow there."""
    s = np.array([1e-120, -1e-200, 1e-310, -5e-324])
    for mu in MUS:
        sn, cn, dn = jacobi_sncndn(s, mu)
        assert (sn == s).all() and (cn == 1.0).all() and (dn == 1.0).all()
        assert [jacobi_sncndn(float(si), mu) for si in s] == [(si, 1.0, 1.0) for si in s]


def test_pythagorean_identities_bulk():
    rng = np.random.default_rng(42)
    mu = rng.uniform(0.01, 0.99, size=10_000)
    s = rng.uniform(-50.0, 50.0, size=10_000)
    worst = 0.0
    for m in np.unique(np.round(mu, 2)):
        sel = np.round(mu, 2) == m
        sn, cn, dn = jacobi_sncndn(s[sel], float(m))
        worst = max(worst,
                    np.abs(sn * sn + cn * cn - 1.0).max(),
                    np.abs(dn * dn + m * sn * sn - 1.0).max())
    assert worst <= 1e-12


def test_oddness_and_periods():
    mu = 0.4
    K, _ = complete_elliptic(mu)
    s = np.linspace(-7.3, 9.1, 57)
    sn, _, _ = jacobi_sncndn(s, mu)
    sn_neg, _, _ = jacobi_sncndn(-s, mu)
    assert np.abs(sn + sn_neg).max() <= 1e-13
    sn4, _, _ = jacobi_sncndn(s + 4 * K, mu)
    assert np.abs(sn4 - sn).max() <= 1e-12
    sn2, _, _ = jacobi_sncndn(s + 2 * K, mu)
    assert np.abs(sn2 + sn).max() <= 1e-12          # antiperiod 2K
    assert np.abs(sn2 ** 2 - sn ** 2).max() <= 1e-10  # sn^2 has period 2K
    # 4K and 2K are least periods: a shift by 2K does not reproduce sn,
    # and a shift by K does not reproduce sn^2
    assert np.abs(sn2 - sn).max() > 0.5
    snK, _, _ = jacobi_sncndn(s + K, mu)
    assert np.abs(snK ** 2 - sn ** 2).max() > 0.5


def test_against_defining_ode():
    """Integrate sn' = cn dn, cn' = -sn dn, dn' = -mu sn cn and compare."""
    mu = 0.7

    def rhs(_, y):
        sn, cn, dn = y
        return [cn * dn, -sn * dn, -mu * sn * cn]

    for s_end in (0.8, 3.3, 7.9):
        sol = solve_ivp(rhs, (0.0, s_end), [0.0, 1.0, 1.0], rtol=1e-12, atol=1e-14,
                        method="DOP853")
        sn, cn, dn = jacobi_sncndn(s_end, mu)
        assert sn == pytest.approx(sol.y[0, -1], abs=1e-10)
        assert cn == pytest.approx(sol.y[1, -1], abs=1e-10)
        assert dn == pytest.approx(sol.y[2, -1], abs=1e-10)


def test_sn_jet_matches_finite_differences():
    mu = 0.33
    e = 1e-3
    for s0 in (0.17, 1.4, 2.9):
        jet = sn_jet(s0, mu, order=5)
        pts = np.array([jacobi_sncndn(s0 + k * e, mu)[0] for k in range(-3, 4)])
        d1 = (pts[1] - 8 * pts[2] + 8 * pts[4] - pts[5]) / (12 * e)
        d2 = (-pts[1] + 16 * pts[2] - 30 * pts[3] + 16 * pts[4] - pts[5]) / (12 * e ** 2)
        d3 = (pts[0] - 8 * pts[1] + 13 * pts[2] - 13 * pts[4] + 8 * pts[5] - pts[6]) / (8 * e ** 3)
        assert jet[1] == pytest.approx(d1, abs=1e-9)
        assert jet[2] == pytest.approx(d2, abs=1e-7)
        assert jet[3] == pytest.approx(d3, abs=1e-5)
