"""Stationary and three-parameter KdV solution families."""

import math

import numpy as np
import pytest
from jetalg_ref import evaluate
from scipy.integrate import solve_ivp

from ads_null_flows.config import UsageError
from ads_null_flows.kdvsol import (
    KkshSpec, StationaryBending, g_inverse, g_of, tau_mn)
from ads_null_flows.specfun import complete_elliptic, jacobi_sncndn, sn_jet
from ads_null_flows.specfun.series import Series

MU_STAR = 0.6150396634356605   # converged zero of the rotation condition


# ------------------------------------------------- dual-number reference
#
# The reference route for the KKSH jets: a truncated Taylor series in ds
# whose coefficients are dual numbers c0 + c1 dt, as (n, 2) arrays.  phi
# comes from sn_jet by the Leibniz rule over the two sn factors, with chain
# factors w^a for s and one v for t, so one pass of series arithmetic gives
# the s-derivatives and their first t-derivatives.

def _ts_mul(a, b):
    return np.convolve(a, b)[: len(a)]


def _ts_recip(a):
    out = np.zeros(len(a))
    out[0] = 1.0 / a[0]
    for k in range(1, len(a)):
        out[k] = -np.dot(a[1: k + 1], out[k - 1:: -1]) / a[0]
    return out


def _dual_mul(a, b):
    out = np.empty_like(a)
    out[:, 0] = _ts_mul(a[:, 0], b[:, 0])
    out[:, 1] = _ts_mul(a[:, 0], b[:, 1]) + _ts_mul(a[:, 1], b[:, 0])
    return out


def _dual_recip(a):
    out = np.empty_like(a)
    r0 = _ts_recip(a[:, 0])
    out[:, 0] = r0
    out[:, 1] = -_ts_mul(_ts_mul(r0, r0), a[:, 1])
    return out


def _dual_ds(a):
    out = np.zeros_like(a)
    out[:-1, :] = a[1:, :] * np.arange(1, len(a))[:, None]
    return out


def _phi_dual(spec, s, t, n):
    """Dual series of phi at (s, t), length n."""
    wp, wm, vp, vm = spec.w_plus, spec.w_minus, spec.v_plus, spec.v_minus
    fp = sn_jet(wp * s + vp * t, spec.mu, order=n)
    fm = sn_jet(wm * s + vm * t, spec.tau, order=n)
    out = np.zeros((n, 2))
    for a in range(n):
        for al in range(a + 1):
            cab = math.comb(a, al) * wp ** al * wm ** (a - al)
            out[a, 0] += cab * fp[al] * fm[a - al]
            out[a, 1] += cab * (vp * fp[al + 1] * fm[a - al]
                                + vm * fp[al] * fm[a - al + 1])
    return spec.amp * out / np.array([math.factorial(a) for a in range(n)])[:, None]


def _u_dual(spec, s, t, n):
    """Dual series of u = -2 phi_s / (1 - phi^2), length n."""
    phi = _phi_dual(spec, s, t, n + 1)
    one = np.zeros((n + 1, 2))
    one[0, 0] = 1.0
    u = -2.0 * _dual_mul(_dual_ds(phi), _dual_recip(one - _dual_mul(phi, phi)))
    return u[:n]


def _dual_kappa_t(spec, s, t):
    u = _u_dual(spec, s, t, 2)
    return (_dual_ds(u) + _dual_mul(u, u))[0, 1]


# ------------------------------------------------------------- stationary

def make_spec():
    return StationaryBending(0.9, 0.9300299176777007, 2.225980871712621)


def test_stationary_value_at_zero():
    spec = make_spec()
    assert spec.kappa(0.0) == pytest.approx(
        -(spec.h_minus + spec.h_plus) / spec.delta, rel=1e-14)


def test_stationary_constraint_and_bounds():
    spec = make_spec()
    assert spec.ell * spec.delta + 3 * (spec.h_minus + spec.h_plus) \
        == pytest.approx(4 * (1 + spec.mu), rel=1e-14)
    s = np.linspace(0.0, spec.s_period, 400)
    k = spec.kappa(s)
    lo = -(spec.h_minus + spec.h_plus) / spec.delta      # sn^2 = 0
    hi = lo + 4.0 * spec.mu / spec.delta                 # sn^2 = 1
    assert k.min() == pytest.approx(lo, abs=1e-10)       # sn = 0 at s = 0
    assert spec.kappa(spec.s_period / 2) == pytest.approx(hi, abs=1e-12)
    assert k.max() <= hi + 1e-12
    # periodicity at the stated least period, and not at half of it
    assert np.abs(spec.kappa(s + spec.s_period) - k).max() <= 1e-11
    assert np.abs(spec.kappa(s + spec.s_period / 2) - k).max() > 0.1


def test_stationary_ode_residual():
    spec = make_spec()
    s = np.linspace(0.0, spec.s_period, 97)
    k0, k1, _, k3 = spec.kappa_jet(s, order=3)
    res = k3 + 2.0 * spec.ell * k1 - 6.0 * k0 * k1
    assert np.abs(res).max() <= 1e-8


@pytest.mark.parametrize("on_series", [False, True])
def test_stationary_high_orders_solve_the_differentiated_ode(on_series):
    """Orders 4 to 6, at points and as Series coefficients, against
    kappa''' = 6 kappa kappa' - 2 ell kappa' differentiated once, twice and
    three times."""
    spec = make_spec()
    s = np.linspace(0.0, spec.s_period, 97)
    k = spec.kappa_jet(Series.variable(s, 6) if on_series else s, order=6)
    ell = spec.ell
    residuals = [
        k[4] - 6.0 * (k[1] * k[1] + k[0] * k[2]) + 2.0 * ell * k[2],
        k[5] - 6.0 * (3.0 * k[1] * k[2] + k[0] * k[3]) + 2.0 * ell * k[3],
        k[6] - 6.0 * (3.0 * k[2] * k[2] + 4.0 * k[1] * k[3] + k[0] * k[4])
        + 2.0 * ell * k[4],
    ]
    for order, res in zip((4, 5, 6), residuals):
        scale = np.abs(k[order].c if on_series else k[order]).max()
        assert np.abs(res.c if on_series else res).max() <= 1e-12 * scale, order


def test_stationary_traveling_kdv_residual():
    spec = make_spec()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(40):
        s, t = rng.uniform(0, spec.s_period), rng.uniform(-1, 1)
        k0, k1, _, k3 = spec.kappa_jet(s, t, order=3)
        worst = max(worst, abs(spec.kappa_t(s, t) + k3 - 6 * k0 * k1))
    assert worst <= 1e-6


# ------------------------------------------------------------------ g map

def test_g_inverse_round_trip():
    for y in (0.3, 0.8, 1.5, 2.4):
        assert g_of(g_inverse(y)) == pytest.approx(y, abs=1e-10)


def test_g_inverse_reference_point():
    K_half, _ = complete_elliptic(0.5)
    assert g_inverse(K_half / 2 ** 0.25) == pytest.approx(0.5, abs=1e-10)


def test_g_inverse_monotone_and_domain():
    assert g_inverse(0.5) < g_inverse(1.0) < g_inverse(1.8)
    with pytest.raises(UsageError, match="g_inverse needs y > 0"):
        g_inverse(0.0)
    with pytest.raises(UsageError, match="g_inverse needs y > 0"):
        g_inverse(-1.0)
    with pytest.raises(UsageError, match="exceeds the range limit"):
        g_inverse(1e9)


@pytest.mark.parametrize("h", [0.0, -1.0, math.nan])
def test_kksh_spec_rejects_a_non_positive_h(h):
    with pytest.raises(UsageError, match="h must be positive"):
        KkshSpec(0.6, 0.3, h)


@pytest.mark.parametrize("h", [1e103, 1e300])
def test_kksh_spec_rejects_an_h_with_overflowing_phase_rates(h):
    """h^3 past the float range raised OverflowError from v_plus."""
    with pytest.raises(UsageError, match="gives non-finite phase rates"):
        KkshSpec.with_quantum_numbers(0.6, 1, 6, h)


def test_kksh_periodicity_check_allows_for_the_rounding_of_tau():
    """At mu = 0.92 the (5, 1) partner has 1 - tau = 6.2e-11: the root is
    accepted within four ulps' worth of n g(tau), 3.6e-6 there, while tau
    moved off the constraint, even by 1e-7 relative, is still rejected."""
    spec = KkshSpec.with_quantum_numbers(0.92, 5, 1, 2.0)
    assert 1.0 - spec.tau < 1e-10
    for mu, m, n, factor in ((0.6, 5, 1, 1.0 - 1e-7), (0.6, 1, 6, 1.0 + 1e-6)):
        with pytest.raises(UsageError, match="periodicity constraint violated"):
            KkshSpec(mu, tau_mn(mu, m, n) * factor, 2.0, m, n)


def test_g_inverse_matches_initial_value_route():
    """Cross-check against integrating dy/dx = 1/g'(y) from the reference
    point y(K(1/2)/2^{1/4}) = 1/2."""
    K_half, _ = complete_elliptic(0.5)
    x0 = K_half / 2 ** 0.25

    def rhs(_, y):
        yv = y[0]
        K, E = complete_elliptic(yv)
        return [4 * (yv - 1) * yv ** 0.75 / ((1 - yv) * K - 2 * E)]

    for x1 in (0.6, 1.0, 1.4):
        sol = solve_ivp(rhs, (x0, x1), [0.5], rtol=1e-12, atol=1e-14,
                        method="DOP853")
        assert g_inverse(x1) == pytest.approx(sol.y[0, -1], abs=1e-9)


def test_tau_mn_identity_and_example():
    mu = 0.37
    # n = m collapses to tau = mu (g injective); the coprime representative
    assert tau_mn(mu, 1, 1) == pytest.approx(mu, abs=1e-12)
    t = tau_mn(MU_STAR, 1, 6)
    assert 0.0 < t < 1.0
    Kmu, _ = complete_elliptic(MU_STAR)
    Kt, _ = complete_elliptic(t)
    assert MU_STAR ** 0.25 * 1 * Kmu == pytest.approx(t ** 0.25 * 6 * Kt, abs=1e-10)


# ------------------------------------------------------------------- KKSH

def make_kksh():
    return KkshSpec.with_quantum_numbers(MU_STAR, 1, 6, 2.0)


def test_kksh_guard_rejects_equal_parameters():
    with pytest.raises(ValueError):
        KkshSpec(0.5, 0.5, 1.0)


def test_kksh_phi_bound():
    spec = make_kksh()
    rng = np.random.default_rng(11)
    bound = spec.amp
    assert bound < 1.0
    for _ in range(300):
        s, t = rng.uniform(-5, 5), rng.uniform(-1, 1)
        phi = _phi_dual(spec, s, t, 1)[0, 0]
        assert abs(phi) <= bound + 1e-12


def _dual_kappa_jet(spec, s, t, order):
    """[kappa, ..., kappa^(order)] from the dual series of u."""
    u = _u_dual(spec, s, t, order + 2)[:, 0]
    coef = [(k + 1) * u[k + 1] + sum(u[i] * u[k - i] for i in range(k + 1))
            for k in range(order + 1)]
    return np.array([c * math.factorial(k) for k, c in enumerate(coef)])


@pytest.mark.parametrize("spec", [
    KkshSpec.with_quantum_numbers(MU_STAR, 1, 6, 2.0),   # near mu*
    KkshSpec(0.3, 0.7, 1.3),
    KkshSpec(0.85, 0.2, 0.6),
], ids=["mn16_h2", "mu03_tau07", "mu085_tau02"])
def test_kksh_closed_form_jet_matches_dual_series(spec):
    """Closed-form s-jets (orders 0-4) agree with the dual series to 1e-12
    relative (per derivative order, against its largest value); array and
    scalar s agree elementwise."""
    rng = np.random.default_rng(17)
    s = rng.uniform(-2 * spec.s_period, 2 * spec.s_period, 60)
    t = rng.uniform(-1.0, 1.0, 60)
    ref = np.array([_dual_kappa_jet(spec, a, b, 4) for a, b in zip(s, t)])
    got = np.array([spec.kappa_jet(float(a), float(b), order=4)
                    for a, b in zip(s, t)])
    scale = np.abs(ref).max(axis=0)
    assert np.all(np.abs(got - ref).max(axis=0) <= 1e-12 * scale)
    for order in range(5):
        for t0 in t[:3]:
            arr = spec.kappa_jet(s, float(t0), order=order)
            assert len(arr) == order + 1
            scalar = np.array([spec.kappa_jet(float(a), float(t0), order=order)
                               for a in s])
            for k in range(order + 1):
                assert arr[k].shape == s.shape
                np.testing.assert_allclose(arr[k], scalar[:, k], rtol=1e-13,
                                           atol=1e-13 * scale[k])


@pytest.mark.parametrize("spec", [
    KkshSpec.with_quantum_numbers(MU_STAR, 1, 6, 2.0),
    KkshSpec(0.3, 0.7, 1.3),
    KkshSpec(0.85, 0.2, 0.6),
], ids=["mn16_h2", "mu03_tau07", "mu085_tau02"])
def test_kksh_t_derivatives_match_dual_series(spec):
    """kappa_t and u_t from the s-series (each coefficient's t-rate read off
    the next one) agree with the dual series within 1e-13 of their largest
    value, at scalar (s, t), at arrays of both, and at an array s with a
    scalar t."""
    rng = np.random.default_rng(23)
    s = rng.uniform(-2 * spec.s_period, 2 * spec.s_period, 200)
    t = rng.uniform(-1.0, 1.0, 200)
    ref_k = np.array([_dual_kappa_t(spec, a, b) for a, b in zip(s, t)])
    ref_u = np.array([_u_dual(spec, a, b, 1)[0, 1] for a, b in zip(s, t)])
    for got_of, ref in ((spec.kappa_t, ref_k), (lambda a, b: _u_t(spec, a, b), ref_u)):
        bound = 1e-13 * np.abs(ref).max()
        scalar = [got_of(float(a), float(b)) for a, b in zip(s, t)]
        assert all(isinstance(x, float) for x in scalar)
        assert np.abs(np.array(scalar) - ref).max() <= bound
        assert np.abs(got_of(s, t) - ref).max() <= bound
        grid = got_of(s.reshape(10, 20), t.reshape(10, 20))
        assert grid.shape == (10, 20)
        assert np.abs(grid.ravel() - ref).max() <= bound
        t0 = float(t[0])
        ref0 = np.array([got_of(float(a), t0) for a in s])
        assert np.abs(got_of(s, t0) - ref0).max() <= bound


@pytest.mark.parametrize("spec", [
    KkshSpec.with_quantum_numbers(MU_STAR, 1, 6, 2.0),
    KkshSpec(0.85, 0.2, 0.6),
], ids=["mn16_h2", "mu085_tau02"])
def test_kksh_scalar_kappa_matches_array_path(spec):
    """The scalar and the array branch of the closed-form kappa (order 0)
    agree within 1e-13 at random (s, t)."""
    rng = np.random.default_rng(29)
    s = rng.uniform(-2 * spec.s_period, 2 * spec.s_period, 400)
    t = rng.uniform(-1.0, 1.0, 400)
    for a, b in zip(s, t):
        (scalar,) = spec.kappa_jet(float(a), float(b), order=0)
        (arr,) = spec.kappa_jet(np.array([a]), float(b), order=0)
        assert isinstance(scalar, float)
        assert abs(scalar - arr[0]) <= 1e-13


CLOSED_FORM_SPECS = [KkshSpec.with_quantum_numbers(MU_STAR, 1, 6, 2.0)] + [
    KkshSpec.with_quantum_numbers(mu, 1, 6, h) for mu in (0.3, 0.85) for h in (0.5, 2.0)]


def _phi_derivatives(spec, s, t):
    """phi, phi_s, phi_ss at (s, t), from sn' = w cn dn and
    sn'' = w^2 (2 mu sn^2 - 1 - mu) sn of each factor."""
    out = []
    for w, v, m in ((spec.w_plus, spec.v_plus, spec.mu),
                    (spec.w_minus, spec.v_minus, spec.tau)):
        sn, cn, dn = jacobi_sncndn(w * s + v * t, m)
        out.append((sn, w * cn * dn, w * w * (2.0 * m * sn * sn - 1.0 - m) * sn))
    (P, Ps, Pss), (M, Ms, Mss) = out
    return (spec.amp * P * M, spec.amp * (Ps * M + P * Ms),
            spec.amp * (Pss * M + 2.0 * Ps * Ms + P * Mss))


@pytest.mark.parametrize("spec", CLOSED_FORM_SPECS,
                         ids=["mustar", "mu03_h05", "mu03_h2", "mu085_h05", "mu085_h2"])
def test_kksh_closed_form_matches_the_series(spec):
    """kappa_jet up to order 2 (the quotient rule of psi = artanh phi)
    agrees with the first entries of the order-3 jet (the series of u)
    within 1e-13 relative to each order's largest value, for array and
    scalar s; at order 0 it also matches kappa = 4 phi_s^2 r^2 (1 - phi)
    - 2 phi_ss r, r = 1/(1 - phi^2)."""
    rng = np.random.default_rng(41)
    s = rng.uniform(-2 * spec.s_period, 2 * spec.s_period, 300)
    t = rng.uniform(-1.0, 1.0, 300)
    series = spec.kappa_jet(s, t, order=3)
    scale = [np.abs(k).max() for k in series]
    for order in range(3):
        closed = spec.kappa_jet(s, t, order=order)
        scalar = np.array([spec.kappa_jet(float(a), float(b), order=order)
                           for a, b in zip(s[:100], t[:100])])
        assert len(closed) == order + 1
        for k in range(order + 1):
            assert np.abs(closed[k] - series[k]).max() <= 1e-13 * scale[k]
            assert np.abs(scalar[:, k] - series[k][:100]).max() <= 1e-13 * scale[k]
    phi, phi_s, phi_ss = _phi_derivatives(spec, s, t)
    r = 1.0 / (1.0 - phi * phi)
    direct = 4.0 * phi_s * phi_s * r * r * (1.0 - phi) - 2.0 * phi_ss * r
    assert np.abs(spec.kappa_jet(s, t, order=0)[0] - direct).max() <= 1e-14 * scale[0]


def test_kksh_s_periodicity():
    spec = make_kksh()
    rho = spec.s_period
    K, _ = complete_elliptic(spec.mu)
    assert rho == pytest.approx(2 * K, rel=1e-14)
    s = np.linspace(0.0, rho, 60)
    for t in (0.0, 0.31):
        k0 = np.array([spec.kappa(x, t) for x in s])
        k1 = np.array([spec.kappa(x + rho, t) for x in s])
        assert np.abs(k1 - k0).max() <= 1e-9


def _u(spec, s, t, n=1):
    """[u, u_s, ..., u^(n-1)] at (s, t) from the series of u."""
    return [c * math.factorial(k) for k, c in enumerate(spec._u_series(s, t, n)[0])]


def _u_t(spec, s, t):
    return spec._u_series(s, t, 1)[1][0]


def _mkdv_residual(spec, s, t):
    """u_t - 6 u^2 u_s + u_sss from the series of u and of u_t."""
    u, u_t = spec._u_series(s, t, 4)
    return u_t[0] - 6.0 * u[0] ** 2 * u[1] + 6.0 * u[3]


def _kdv_residual(spec, s, t):
    """kappa_t - 6 kappa kappa_s + kappa_sss from the KdV gate's two calls."""
    k0, k1, _, k3 = spec.kappa_jet(s, t, order=3)
    return spec.kappa_t(s, t) - 6.0 * k0 * k1 + k3


def test_kksh_mkdv_residual():
    spec = make_kksh()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(120):
        s, t = rng.uniform(0, 4), rng.uniform(-0.5, 0.5)
        worst = max(worst, abs(_mkdv_residual(spec, s, t)))
    assert worst <= 1e-5


def _kdv_residual_fd(spec, s, t, dt=1e-6):
    """kappa_t - 6 kappa kappa_s + kappa_sss with the t-derivative by
    central differences of the closed form (cross-check of the analytic
    route)."""
    k0, k1, _, k3 = spec.kappa_jet(s, t, order=3)
    km2, km1 = spec.kappa(s, t - 2 * dt), spec.kappa(s, t - dt)
    kp1, kp2 = spec.kappa(s, t + dt), spec.kappa(s, t + 2 * dt)
    kt = (km2 - 8 * km1 + 8 * kp1 - kp2) / (12.0 * dt)
    return kt + k3 - 6.0 * k0 * k1


def test_kksh_kdv_residual():
    spec = make_kksh()
    rng = np.random.default_rng(3)
    worst_analytic = 0.0
    worst_fd = 0.0
    for _ in range(60):
        s, t = rng.uniform(0, 4), rng.uniform(-0.5, 0.5)
        worst_analytic = max(worst_analytic, abs(_kdv_residual(spec, s, t)))
        worst_fd = max(worst_fd, abs(_kdv_residual_fd(spec, s, t)))
    assert worst_analytic <= 1e-4
    assert worst_fd <= 1e-3


def test_kksh_derivative_consistency():
    """Closed-form derivatives match high-order central differences."""
    spec = make_kksh()
    e = 1e-4
    for s, t in ((0.37, 0.0), (1.9, 0.21), (3.3, -0.4)):
        u = [_u(spec, s + k * e, t)[0] for k in range(-2, 3)]
        fd_us = (u[0] - 8 * u[1] + 8 * u[3] - u[4]) / (12 * e)
        assert _u(spec, s, t, 2)[1] == pytest.approx(fd_us, abs=1e-6)
        k = [spec.kappa(s + j * e, t) for j in range(-2, 3)]
        fd_ks = (k[0] - 8 * k[1] + 8 * k[3] - k[4]) / (12 * e)
        assert spec.kappa_jet(s, t, 1)[1] == pytest.approx(fd_ks, abs=5e-5)
        et = 1e-6
        u = [_u(spec, s, t + k * et)[0] for k in range(-2, 3)]
        fd_ut = (u[0] - 8 * u[1] + 8 * u[3] - u[4]) / (12 * et)
        assert _u_t(spec, s, t) == pytest.approx(fd_ut, rel=1e-6, abs=1e-6)


def test_kksh_traveling_limit_when_parameters_merge():
    """With the mu != tau guard bypassed, the solution is a pure traveling
    wave kappa(s, t) = kappa(s + c t, 0) with c = 4 h^2 (1 + mu)."""
    spec = object.__new__(KkshSpec)
    object.__setattr__(spec, "mu", 0.55)
    object.__setattr__(spec, "tau", 0.55)
    object.__setattr__(spec, "h", 1.3)
    object.__setattr__(spec, "m", None)
    object.__setattr__(spec, "n", None)
    c = 4.0 * spec.h ** 2 * (1.0 + spec.mu)
    for s, t in ((0.3, 0.2), (1.1, -0.35), (2.6, 0.07)):
        assert spec.kappa(s, t) == pytest.approx(spec.kappa(s + c * t, 0.0), abs=1e-8)


def test_kdv_rhs_on_stationary_jet():
    """The first flow evaluated on the stationary jet is the traveling-wave
    term: kappa''' - 6 kappa kappa' = -2 ell kappa'."""
    from ads_null_flows.jetalg import kdv_rhs
    spec = make_spec()
    rhs = kdv_rhs(1)
    for s in (0.2, 0.9, 1.7):
        jet = spec.kappa_jet(s, order=3)
        val = evaluate(rhs, jet)
        assert val == pytest.approx(-2.0 * spec.ell * jet[1], rel=1e-9, abs=1e-9)
