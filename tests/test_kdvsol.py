"""Stationary and three-parameter KdV solution families."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ads_null_flows.kdvsol import (
    KkshSpec,
    OutOfRange,
    StationaryBending,
    find_doubly_periodic,
    g_inverse,
    g_of,
    tau_mn,
    time_period_residual,
)
from ads_null_flows.specfun import complete_elliptic, jacobi_sncndn

MU_STAR = 0.6150396634356605   # converged zero of the rotation condition


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
    lo, hi = spec.kappa_bounds()
    assert k.min() == pytest.approx(lo, abs=1e-10)       # sn = 0 at s = 0
    assert spec.kappa(spec.s_period / 2) == pytest.approx(hi, abs=1e-12)
    assert k.max() <= hi + 1e-12
    # periodicity at the stated least period, and not at half of it
    assert np.abs(spec.kappa(s + spec.s_period) - k).max() <= 1e-11
    assert np.abs(spec.kappa(s + spec.s_period / 2) - k).max() > 0.1


def test_stationary_ode_residual():
    spec = make_spec()
    s = np.linspace(0.0, spec.s_period, 97)
    res = spec.stationary_ode_residual(s)
    assert np.abs(res).max() <= 1e-8


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
    with pytest.raises(OutOfRange):
        g_inverse(0.0)
    with pytest.raises(OutOfRange):
        g_inverse(-1.0)
    with pytest.raises(OutOfRange):
        g_inverse(1e9)


@pytest.mark.parametrize("h", [0.0, -1.0, math.nan])
def test_kksh_spec_rejects_a_non_positive_h(h):
    with pytest.raises(OutOfRange):
        KkshSpec(0.6, 0.3, h)


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
        phi = spec._phi_dual(s, t, 1)[0, 0]
        assert abs(phi) <= bound + 1e-12


def _dual_kappa_jet(spec, s, t, order):
    """[kappa, ..., kappa^(order)] from the dual series of u (the reference
    route the t-derivatives still take)."""
    u = spec._u_dual(s, t, order + 2)[:, 0]
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
    s = rng.uniform(-2 * spec.s_period(), 2 * spec.s_period(), 60)
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
    KkshSpec(0.85, 0.2, 0.6),
], ids=["mn16_h2", "mu085_tau02"])
def test_kksh_scalar_kappa_matches_array_path(spec):
    """The scalar and the array branch of the closed-form kappa (order 0)
    agree within 1e-13 at random (s, t)."""
    rng = np.random.default_rng(29)
    s = rng.uniform(-2 * spec.s_period(), 2 * spec.s_period(), 400)
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
    s = rng.uniform(-2 * spec.s_period(), 2 * spec.s_period(), 300)
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
    rho = spec.s_period()
    K, _ = complete_elliptic(spec.mu)
    assert rho == pytest.approx(2 * K, rel=1e-14)
    s = np.linspace(0.0, rho, 60)
    for t in (0.0, 0.31):
        k0 = np.array([spec.kappa(x, t) for x in s])
        k1 = np.array([spec.kappa(x + rho, t) for x in s])
        assert np.abs(k1 - k0).max() <= 1e-9


def test_kksh_mkdv_residual():
    spec = make_kksh()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(120):
        s, t = rng.uniform(0, 4), rng.uniform(-0.5, 0.5)
        worst = max(worst, abs(spec.mkdv_residual(s, t)))
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
        worst_analytic = max(worst_analytic, abs(spec.kdv_residual(s, t)))
        worst_fd = max(worst_fd, abs(_kdv_residual_fd(spec, s, t)))
    assert worst_analytic <= 1e-4
    assert worst_fd <= 1e-3


def test_kksh_derivative_consistency():
    """Closed-form derivatives match high-order central differences."""
    spec = make_kksh()
    e = 1e-4
    for s, t in ((0.37, 0.0), (1.9, 0.21), (3.3, -0.4)):
        u = [spec.u(s + k * e, t) for k in range(-2, 3)]
        fd_us = (u[0] - 8 * u[1] + 8 * u[3] - u[4]) / (12 * e)
        assert spec.u_jet(s, t, 1)[1] == pytest.approx(fd_us, abs=1e-6)
        k = [spec.kappa(s + j * e, t) for j in range(-2, 3)]
        fd_ks = (k[0] - 8 * k[1] + 8 * k[3] - k[4]) / (12 * e)
        assert spec.kappa_jet(s, t, 1)[1] == pytest.approx(fd_ks, abs=5e-5)
        et = 1e-6
        fd_ut = (spec.u(s, t - 2 * et) - 8 * spec.u(s, t - et)
                 + 8 * spec.u(s, t + et) - spec.u(s, t + 2 * et)) / (12 * et)
        assert spec.u_t(s, t) == pytest.approx(fd_ut, rel=1e-6, abs=1e-6)


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


# ------------------------------------------------- doubly periodic search

def test_time_period_residual_smooth():
    mus = np.linspace(0.2, 0.8, 13)
    vals = [time_period_residual(m, tau_mn(m, 1, 6), 1, 2) for m in mus]
    assert all(math.isfinite(v) for v in vals)


def test_time_period_residual_validates():
    with pytest.raises(ValueError):
        time_period_residual(0.4, 0.1, 2, 4)


def test_find_doubly_periodic_none_and_consistency():
    res = find_doubly_periodic(1, 6, 1, 2, (0.3, 0.5), samples=8)
    if res is not None:
        mu0, tau0 = res
        assert mu0 != tau0
        assert abs(time_period_residual(mu0, tau0, 1, 2)) <= 1e-8
        Kmu, _ = complete_elliptic(mu0)
        Kt, _ = complete_elliptic(tau0)
        assert mu0 ** 0.25 * Kmu == pytest.approx(tau0 ** 0.25 * 6 * Kt, abs=1e-8)


def test_time_period_residual_swap_relation():
    """Swapping the two wave roles flips the residual by -(tau/mu)^{3/4}."""
    for (mu, tau, p, r) in ((0.3, 0.7, 1, 2), (0.2, 0.5, 3, 4), (0.6, 0.25, 2, 5)):
        r1 = time_period_residual(mu, tau, p, r)
        r2 = time_period_residual(tau, mu, r, p)
        assert r2 == pytest.approx(-(tau / mu) ** 0.75 * r1, rel=1e-12)


def test_kdv_rhs_on_stationary_jet():
    """The first flow evaluated on the stationary jet is the traveling-wave
    term: kappa''' - 6 kappa kappa' = -2 ell kappa'."""
    from ads_null_flows.jetalg import kdv_rhs
    spec = make_spec()
    rhs = kdv_rhs(1)
    for s in (0.2, 0.9, 1.7):
        jet = spec.kappa_jet(s, order=3)
        val = rhs.evaluate(jet)
        assert val == pytest.approx(-2.0 * spec.ell * jet[1], rel=1e-9, abs=1e-9)
