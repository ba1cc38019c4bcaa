"""Stationary curves: geometry invariants, closure, and the rigid evolution."""

import math

import numpy as np
import pytest
from geometry_ref import CARTAN_GRAM, cartan_frame

from ads_null_flows.kdvsol import StationaryBending
from ads_null_flows.lame import HeunLameEvaluator
from ads_null_flows.nullcurve import (
    ads_inner,
    bending_oracle,
    classify_orbit,
    evolve_stationary_path,
    expm_offdiag,
    proper_time_checks,
    stationary_curve,
    stationary_momenta,
)

MU = 0.9
H_PLUS = 0.9300299176777007     # S_{0.9, 2/5} elements
H_MINUS = 2.225980871712621


def spec():
    return StationaryBending(MU, H_PLUS, H_MINUS)


def two_period_grid(n=1601):
    sp = spec()
    return np.linspace(0.0, 2.0 * sp.s_period, n)


def test_frames_satisfy_frenet_systems():
    sp = spec()
    grid = np.linspace(0.0, sp.s_period, 1201)
    ds = grid[1] - grid[0]
    path = stationary_curve(MU, H_PLUS, H_MINUS, grid)
    for F, shift in zip(path.F, (1.0, -1.0)):
        d1 = (F[:-4] - 8 * F[1:-3] + 8 * F[3:-1] - F[4:]) / (12 * ds)
        k = sp.kappa(grid[2:-2]) + shift
        target = np.einsum("nij,njk->nik", F[2:-2],
                           np.stack([np.stack([np.zeros_like(k), k], axis=-1),
                                     np.stack([np.ones_like(k), np.zeros_like(k)],
                                              axis=-1)], axis=-2))
        assert np.abs(d1 - target).max() <= 1e-6


def test_stationary_geometry_invariants():
    grid = two_period_grid()
    ds = grid[1] - grid[0]
    path = stationary_curve(MU, H_PLUS, H_MINUS, grid)
    gamma = path.gamma()
    q0, q1, q2 = proper_time_checks(gamma, ds)
    assert q0 <= 1e-8
    assert q1 <= 1e-6
    assert q2 <= 1e-4
    frame = cartan_frame(path)
    for i in range(0, len(grid), 200):
        F = np.array([X[i] for X in frame])
        G = ads_inner(F[:, None], F[None, :])
        assert np.abs(G - CARTAN_GRAM).max() <= 1e-6


def test_bending_oracle_matches_closed_form():
    sp = spec()
    grid = two_period_grid()
    path = stationary_curve(MU, H_PLUS, H_MINUS, grid)
    kap = bending_oracle(path.gamma(), s_grid=grid)
    ref = sp.kappa(grid)
    sel = ~np.isnan(kap)
    assert np.abs(kap[sel] - ref[sel]).max() <= 1e-3


def test_stationary_closed_and_knot_data():
    sp = spec()
    rho = sp.s_period
    grid = np.linspace(0.0, rho, 65)
    path = stationary_curve(MU, H_PLUS, H_MINUS, grid)
    cls = classify_orbit(path, rho)
    assert cls.type_pair == "(E,E)"
    assert cls.closed
    # both eigenvalues sit in S_{mu, 2/5}: phases 2 pi / 5
    assert cls.plus.q_pi.denominator == 5
    assert cls.minus.q_pi.denominator == 5
    assert cls.least_period == pytest.approx(5 * rho, rel=1e-9)


def test_heun_method_agrees_with_ode_method():
    grid = np.linspace(0.0, spec().s_period, 41)
    a = stationary_curve(MU, H_PLUS, H_MINUS, grid, method="ode")
    b = stationary_curve(MU, H_PLUS, H_MINUS, grid, method="heun")
    assert np.abs(a.F - b.F).max() <= 1e-5


def test_heun_route_is_the_stack_of_single_h_paths():
    """The Heun route's one evaluator of (h+, h-) gives the frames of one
    evaluator per h, stacked, bit for bit, on a grid over negative s and
    several periods."""
    sp = spec()
    grid = np.linspace(-sp.s_period, 3.0 * sp.s_period, 1201)
    path = stationary_curve(MU, H_PLUS, H_MINUS, grid, method="heun")
    S = np.diag([1.0 / math.sqrt(sp.sigma), math.sqrt(sp.sigma)])
    per_h = np.stack([HeunLameEvaluator(MU, h)(sp.sigma * grid) for h in (H_PLUS, H_MINUS)])
    assert np.array_equal(path.F, per_h @ S)


@pytest.mark.parametrize("method", ["Heun", "taylor", ""])
def test_unknown_method_is_rejected(method):
    """Only "ode" and "heun" name a route; any other method fails rather
    than taking the ODE route."""
    with pytest.raises(ValueError, match="'ode' or 'heun'"):
        stationary_curve(MU, H_PLUS, H_MINUS, [0.0, 1.0], method=method)


def test_momenta_conservation_along_s():
    """F (P_lam - 2 ell K_lam) F^{-1} is constant in s and equals the
    closed-form momenta."""
    sp = spec()
    m_plus, m_minus, ell = stationary_momenta(sp)
    grid = np.linspace(0.0, sp.s_period, 33)
    path = stationary_curve(MU, H_PLUS, H_MINUS, grid)
    for F, m, lam in zip(path.F, (m_plus, m_minus), (1.0, -1.0)):
        for i in range(0, len(grid), 4):
            s = grid[i]
            k0, k1, k2 = sp.kappa_jet(s, order=2)
            P = np.array([[-k1, -k2 + 2 * k0 * k0 - 2 * lam * k0 - 4 * lam * lam],
                          [2 * k0 - 4 * lam, k1]])
            K = np.array([[0.0, k0 + lam], [1.0, 0.0]])
            H = P - 2.0 * ell * K
            got = F[i] @ H @ np.linalg.inv(F[i])
            assert np.abs(got - m).max() <= 1e-6


def test_evolution_factors_at_zero():
    m_plus, m_minus, ell = stationary_momenta(spec())
    assert np.abs(expm_offdiag(0.0 * m_plus) - np.eye(2)).max() == 0.0
    assert np.abs(expm_offdiag(0.0 * m_minus) - np.eye(2)).max() == 0.0
    assert ell == pytest.approx(spec().ell)


def test_expm_offdiag_cases():
    X = np.array([[0.0, 2.0], [3.0, 0.0]])
    w = math.sqrt(6.0)
    expected = math.cosh(w) * np.eye(2) + math.sinh(w) / w * X
    assert np.abs(expm_offdiag(X) - expected).max() <= 1e-12
    Y = np.array([[0.0, -2.0], [3.0, 0.0]])
    w = math.sqrt(6.0)
    expected = math.cos(w) * np.eye(2) + math.sin(w) / w * Y
    assert np.abs(expm_offdiag(Y) - expected).max() <= 1e-12
    Z = np.array([[0.0, 5.0], [0.0, 0.0]])
    assert np.abs(expm_offdiag(Z) - (np.eye(2) + Z)).max() == 0.0


def test_evolved_path_solves_lien_flow():
    """Finite differences in t of the evolved curve reproduce
    -2 sqrt2 (kappa T + 2 B)."""
    sp = spec()
    grid = np.linspace(0.0, sp.s_period, 901)
    e = 1e-5
    snaps = {dt: evolve_stationary_path(sp, grid, dt).gamma()
             for dt in (-2 * e, -e, e, 2 * e)}
    dgamma_dt = (snaps[-2 * e] - 8 * snaps[-e] + 8 * snaps[e] - snaps[2 * e]) / (12 * e)
    base = evolve_stationary_path(sp, grid, 0.0)
    _, T, _, B = cartan_frame(base)
    kap = sp.kappa(grid)
    target = -2 * math.sqrt(2.0) * (kap[:, None, None] * T + 2.0 * B)
    assert np.abs(dgamma_dt - target).max() <= 1e-4


def test_evolved_bending_is_traveling_wave():
    sp = spec()
    grid = np.linspace(0.0, sp.s_period, 301)
    t = 0.37
    path = evolve_stationary_path(sp, grid, t)
    kap = bending_oracle(path.gamma(), s_grid=grid)
    ref = sp.kappa(grid, t)
    sel = ~np.isnan(kap)
    assert np.abs(kap[sel] - ref[sel]).max() <= 1e-3


def test_non_eigenvalue_pair_is_not_closed():
    """Generic (h+, h-) give irrational monodromy phases: open curve."""
    rho = StationaryBending(0.9, 1.05, 2.0).s_period
    grid = np.linspace(0.0, rho, 33)
    path = stationary_curve(0.9, 1.05, 2.0, grid)
    cls = classify_orbit(path, rho)
    assert not cls.closed
    assert cls.least_period is None and cls.spin is None
