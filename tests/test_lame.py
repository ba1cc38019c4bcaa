"""Floquet spectra, monodromies, and the two fundamental-solution routes.

Regression targets (frozen from converged runs; integrator tolerances
1e-9..1e-13 agree to all digits shown):

    tau_{0.4}: root of tau = cos(2 pi/5) at h = 0.520232,
               root of tau = cos(3 pi/5) at h = 0.667443 whose monodromy is
               [[-0.309017, -0.331386], [2.72947, -0.309017]], order 10
    S_{0.9, 2/5} = {0.930030, 2.225981, ...}
    S_{0.6, 0}   = {3.287222, 11.059393, 24.040319, 42.216401, 65.586374, ...}
    S_{0.6, 1}   = {6.519135, ...}
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.special import ellipj

from ads_null_flows import lame
from ads_null_flows.config import DEFAULT, NumericFailure, UsageError
from ads_null_flows.lame import (
    HeunLameEvaluator,
    floquet_search,
    fundamental_ode,
    hermite_phase,
    lame_monodromy,
)
from ads_null_flows.specfun import JacobiScalar, complete_elliptic
from ads_null_flows.specfun.elliptic import period_remainder

PRINTED_M = np.array([[-0.309017, -0.331386], [2.72947, -0.309017]])
H_STAR = 0.6674427700743268   # first element of S_{0.4, 3/5}


def test_monodromy_is_unimodular():
    for mu, h in ((0.4, 0.67), (0.9, 2.0), (0.6, 30.0)):
        M = lame_monodromy(mu, h)
        assert abs(np.linalg.det(M) - 1.0) <= 1e-10


def _full_period_monodromy(mu, h):
    """delta(2K) by DOP853 over the whole period [0, 2K], on the same 7-state
    system (frame plus the Jacobi triple) and tolerances as lame_monodromy,
    without the parity step."""
    K, _ = complete_elliptic(mu)
    sol = solve_ivp(lame._lame_rhs_factory(mu, h), (0.0, 2.0 * K),
                    [1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0],
                    method="DOP853", rtol=DEFAULT.integrator_rel_tol,
                    atol=DEFAULT.integrator_abs_tol)
    assert sol.success
    return sol.y[:4, -1].reshape(2, 2)


@pytest.mark.parametrize("mu", [0.1, 0.4, 0.6, 0.9, 0.97])
def test_half_period_monodromy_matches_full_period(mu):
    """M from delta(K) by parity against the full-period integration: at the
    band edges mu, 1 and 1 + mu, inside both bands, in the gap and up the
    upper band to h = 500; and tau = M[0, 0] = M[1, 1] exactly."""
    for h in (mu, 0.5 * (mu + 1.0), 1.0, 1.0 + 0.5 * mu, 1.0 + mu, 2.0 + mu,
              20.0, 80.0, 500.0):
        M, ref = lame_monodromy(mu, h), _full_period_monodromy(mu, h)
        assert np.abs(M - ref).max() <= 1e-11 * np.abs(ref).max()
        assert abs(0.5 * np.trace(M) - 0.5 * np.trace(ref)) <= 1e-11
        assert M[0, 0] == M[1, 1]


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
def test_non_finite_h_is_a_usage_error(h):
    """A non-finite h fails fast as invalid input, before DOP853 (which would
    not return), the Heun series or the Taylor-panel transport (which would
    fail as if numerically)."""
    with pytest.raises(UsageError, match="finite"):
        lame_monodromy(0.6, h)
    with pytest.raises(UsageError, match="finite"):
        HeunLameEvaluator(0.6, h)
    with pytest.raises(UsageError, match="finite"):
        fundamental_ode(0.6, h, [0.5, 1.0])


def test_printed_monodromy_regression():
    """The printed matrix, of order 10: M^5 = -Id (eigenvalues exp(+-3 i pi/5))
    and M^10 = Id."""
    M = lame_monodromy(0.4, H_STAR)
    assert np.abs((M - PRINTED_M) / PRINTED_M).max() <= 1e-3
    assert np.abs(np.linalg.matrix_power(M, 5) + np.eye(2)).max() <= 1e-6
    assert np.abs(np.linalg.matrix_power(M, 10) - np.eye(2)).max() <= 1e-6


def test_tau_continuity():
    mu = 0.4
    for h in (0.5, 0.67, 0.9):
        t0, t1 = (0.5 * np.trace(lame_monodromy(mu, x)) for x in (h, h + 1e-6))
        assert abs(t0 - t1) <= 1e-3


def test_floquet_search_q_three_fifths_gives_067():
    rec = floquet_search(0.4, 3, 5, 1)[0]
    assert rec.h == pytest.approx(0.67, abs=0.01)
    assert rec.h == pytest.approx(H_STAR, abs=1e-8)
    assert rec.tau == pytest.approx(math.cos(3 * math.pi / 5), abs=1e-8)
    assert rec.order == 10


def test_floquet_search_q_two_fifths_definitional():
    rec = floquet_search(0.4, 2, 5, 1)[0]
    assert rec.h == pytest.approx(0.520232, abs=1e-5)
    assert rec.tau == pytest.approx(math.cos(2 * math.pi / 5), abs=1e-8)
    assert rec.order == 5


def test_floquet_search_mu09():
    recs = floquet_search(0.9, 2, 5, 2)
    assert recs[0].h == pytest.approx(0.93, abs=0.01)
    assert recs[1].h == pytest.approx(2.23, abs=0.01)
    assert recs[0].index == 0 and recs[1].index == 1
    assert recs[1].h > recs[0].h


def test_floquet_search_q0_spectrum():
    recs = floquet_search(0.6, 0, 1, 5)
    hs = [r.h for r in recs]
    assert hs == sorted(hs)
    assert hs[0] == pytest.approx(3.29, abs=0.05)
    assert hs[4] == pytest.approx(65.59, abs=0.1)
    for r in recs:
        assert r.tau == pytest.approx(1.0, abs=1e-8)
        assert np.abs(r.monodromy - np.eye(2)).max() <= 1e-6


def test_interlacing_even_before_odd():
    mu = 0.6
    b_even = floquet_search(mu, 0, 1, 1)[0].h
    b_odd = floquet_search(mu, 1, 1, 1)[0].h
    assert 1.0 + mu < b_even < b_odd
    assert b_odd == pytest.approx(6.519135, abs=1e-4)


def test_search_exhausted():
    cfg = replace(DEFAULT, scan_h_ceiling=2.0)
    with pytest.raises(NumericFailure, match="found 0 < 2 eigenvalues below h = 2.0"):
        floquet_search(0.6, 0, 1, 2, cfg)


def test_search_integrates_one_monodromy_per_eigenvalue(monkeypatch):
    """The closed-form search integrates only the eigenvalues it returns."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return lame_monodromy(*args, **kwargs)

    monkeypatch.setattr(lame, "lame_monodromy", counted)
    for args in ((0.6, 0, 1, 5), (0.9, 2, 5, 2)):
        calls.clear()
        recs = floquet_search(*args)
        assert len(calls) == len(recs) == args[3]


@pytest.mark.parametrize("mu", [0.25, 0.6, 0.9])
def test_discriminant_three_routes(mu):
    """Hermite's closed form, the ODE monodromy and the Heun monodromy give
    the same tau on both bands, including 5e-4 from the band edges and high
    up the upper band."""
    lower = [mu + 5e-4, 0.5 * (mu + 1.0), 1.0 - 5e-4]
    upper = [1.0 + mu + 5e-4, 2.0 + mu, 5.0, 20.0, 80.0]
    for h in lower + upper:
        t_hermite = -math.cos(hermite_phase(mu, h))
        t_heun = 0.5 * float(np.trace(HeunLameEvaluator(mu, h).monodromy))
        t_ode = 0.5 * float(np.trace(lame_monodromy(mu, h)))
        assert abs(t_hermite - t_ode) <= 1e-10
        assert abs(t_hermite - t_heun) <= 1e-10


def test_hermite_tau_rejects_the_gaps():
    for h in (0.1, 1.3):
        with pytest.raises(ValueError):
            hermite_phase(0.6, h)


def test_search_gate_rejects_an_unconfirmed_root():
    cfg = replace(DEFAULT, tol_floquet=1e-20)
    with pytest.raises(RuntimeError, match="Floquet gate"):
        floquet_search(0.4, 3, 5, 1, cfg)


def test_search_gate_rejects_a_parabolic_coexistence_monodromy(monkeypatch):
    """At q = 0 the record's order 1 claims M = Id: a monodromy with the right
    trace but M[1, 0] != 0 (a Jordan block) fails the gate."""
    monkeypatch.setattr(lame, "lame_monodromy",
                        lambda mu, h, config=DEFAULT: np.array([[1.0, 0.0], [1e-3, 1.0]]))
    with pytest.raises(NumericFailure, match="Floquet gate"):
        floquet_search(0.6, 0, 1, 1)


def test_records_invariants():
    for rec in floquet_search(0.4, 2, 5, 2):
        assert abs(np.linalg.det(rec.monodromy) - 1.0) <= 1e-10
        assert abs(rec.tau - math.cos(rec.q * math.pi)) <= 1e-8


# -------------------------------------------------------- fundamental paths

def test_fundamental_ode_normalization_and_wronskian():
    mu, h = 0.4, H_STAR
    K, _ = complete_elliptic(mu)
    grid = np.linspace(-K, 3 * K, 257)
    path = fundamental_ode(mu, h, grid)
    assert (fundamental_ode(mu, h, np.array([0.0]))[0] == np.eye(2)).all()
    assert np.abs(np.linalg.det(path) - 1.0).max() <= 1e-9


def test_fundamental_ode_takes_h_on_the_factor_axis():
    """A sequence of h is one transport with one system per h: the stacks
    (2, n, 2, 2) match the two scalar calls, and a path in any order (here
    the grid reversed) reads the same frames."""
    mu = 0.9
    K, _ = complete_elliptic(mu)
    grid = np.linspace(-K, 3.0 * K, 129)
    hs = [0.9300299176777007, 2.225980871712621]
    both = fundamental_ode(mu, hs, grid)
    assert both.shape == (2, len(grid), 2, 2)
    for F, h in zip(both, hs):
        single = fundamental_ode(mu, h, grid)
        assert single.shape == (len(grid), 2, 2)
        assert _rel_miss(F, single) <= 1e-12
        assert _rel_miss(fundamental_ode(mu, h, grid[::-1])[::-1], single) <= 1e-12


def test_fundamental_ode_20K_periodicity():
    mu = 0.4
    K, _ = complete_elliptic(mu)
    probes = np.array([0.3, 1.7, 2.9])
    for h in (H_STAR, 0.5202318683183447):
        a = fundamental_ode(mu, h, probes)
        b = fundamental_ode(mu, h, probes + 20 * K)
        assert np.abs(a - b).max() <= 1e-6


def _dop853_reference(mu, h, s_grid):
    """delta on the grid by scalar DOP853 at rtol 1e-13, with sn from
    scipy's ellipj: each row (f, f') solves f'' = (2 mu sn^2 - h) f, from
    delta(0) = Id outwards to either end of the grid."""
    def rhs(s, y):
        w = 2.0 * mu * ellipj(s, mu)[0] ** 2 - h
        return [y[1], w * y[0], y[3], w * y[2]]

    out = np.empty((len(s_grid), 2, 2))
    for side in (s_grid < 0.0, s_grid >= 0.0):
        ts = s_grid[side]
        if len(ts) == 0:
            continue
        order = np.argsort(np.abs(ts))
        sol = solve_ivp(rhs, (0.0, ts[order[-1]]), [1.0, 0.0, 0.0, 1.0], method="DOP853",
                        rtol=1e-13, atol=1e-15, t_eval=ts[order])
        assert sol.success
        rows = np.empty((len(ts), 2, 2))
        rows[order] = sol.y.T.reshape(-1, 2, 2)
        out[side] = rows
    return out


def _rel_miss(a, b):
    """max over samples of |a - b|_max / |b|_max."""
    return float((np.abs(a - b).max(axis=(1, 2)) / np.abs(b).max(axis=(1, 2))).max())


@pytest.mark.parametrize("mu, h", [(0.9, 0.930), (0.9, 2.226), (0.4, 0.667), (0.6, 65.6)])
def test_fundamental_ode_matches_dop853(mu, h):
    """The Taylor-panel path over [-2K, 8K], through s = 0, and its value at
    2K against the DOP853 monodromy."""
    K, _ = complete_elliptic(mu)
    grid = np.concatenate([np.linspace(-2.0 * K, 0.0, 41)[:-1], np.linspace(0.0, 8.0 * K, 161)])
    path = fundamental_ode(mu, h, grid)
    assert _rel_miss(path, _dop853_reference(mu, h, grid)) <= 1e-10
    M = fundamental_ode(mu, h, [2.0 * K])
    assert _rel_miss(M, lame_monodromy(mu, h)[None]) <= 1e-10


def test_heun_route_matches_ode_route():
    mu, h = 0.4, H_STAR
    K, _ = complete_elliptic(mu)
    grid = np.linspace(-K, 3 * K, 401)
    ode = fundamental_ode(mu, h, grid)
    heun = HeunLameEvaluator(mu, h)(grid)
    assert np.abs(ode - heun).max() <= 1e-5


@pytest.mark.parametrize("mu, h", [(0.6, 65.59), (0.9, 0.930)])
def test_heun_path_matches_magnus_path_through_the_cell_edges(mu, h):
    """The Heun route on [-3K, 8K], with samples on s = -K, K, 3K, where
    cn = 0, and 1e-9 K either side of K, against the ODE (Taylor-panel) path;
    and the half-period matrix is unimodular."""
    K, _ = complete_elliptic(mu)
    edges = [-K, K, 3.0 * K, K * (1.0 - 1e-9), K * (1.0 + 1e-9)]
    grid = np.unique(np.concatenate([np.linspace(-3.0 * K, 8.0 * K, 1025), edges]))
    ev = HeunLameEvaluator(mu, h)
    assert _rel_miss(ev(grid), fundamental_ode(mu, h, grid)) <= 1e-10
    assert abs(np.linalg.det(ev.Q_plus) - 1.0) <= 1e-12


def test_heun_reduction_is_exact():
    """The Heun route reduces s by the exact split half period: 10,000
    random s with |s| <= 20K reduce to math.remainder(s, 2K) exactly, with
    the integer count of half periods alongside (a floor-based reduction
    missed it by up to 1.8e-15 for about half of them at mu = 0.9)."""
    for mu in (0.4, 0.9):
        K, _ = complete_elliptic(mu)
        s = np.random.default_rng(13).uniform(-20.0 * K, 20.0 * K, 10_000)
        x, p = period_remainder(s, JacobiScalar(mu), half=True)
        assert (x == [math.remainder(si, 2.0 * K) for si in s]).all()
        assert (p == np.rint(s / (2.0 * K))).all()


def test_heun_route_far_cells():
    mu, h = 0.4, H_STAR
    K, _ = complete_elliptic(mu)
    grid = np.array([7.3 * K, 12.9 * K, -4.4 * K])
    ode = fundamental_ode(mu, h, np.sort(grid))
    heun = HeunLameEvaluator(mu, h)(np.sort(grid))
    assert np.abs(ode - heun).max() <= 1e-4


def test_fundamental_heun_tuple_and_normalization():
    (cl, clp), (sl, slp) = HeunLameEvaluator(0.4, H_STAR)(0.0)
    assert cl == pytest.approx(1.0, abs=1e-12)
    assert sl == pytest.approx(0.0, abs=1e-12)
    assert clp == pytest.approx(0.0, abs=1e-12)
    assert slp == pytest.approx(1.0, abs=1e-12)


def test_building_blocks_have_derivative_jump_at_K():
    """The raw (pre-extension) blocks are even/periodic, so their derivative
    flips sign across K while the true solution's derivative is continuous."""
    mu, h = 0.4, H_STAR
    ev = HeunLameEvaluator(mu, h)
    K = ev.K
    Q = ev.Q_plus
    # jump of cl~' across K is 2 |Q+[0,1]|, nonzero here
    assert abs(Q[0, 1]) > 1e-2
    # the extended solution is continuous: compare against the ODE route at K
    (_, clp), (_, slp) = fundamental_ode(mu, h, np.array([K]))[0]
    assert Q[0, 1] == pytest.approx(clp, abs=1e-6)
    assert Q[1, 1] == pytest.approx(slp, abs=1e-6)


def test_band_edge_above_one_plus_mu():
    """The spectral gap sits between 1 and 1 + mu: the discriminant crosses
    back through -1 just above h = 1 + mu, so the edge is sign-detectable."""
    mu = 0.6

    def tau(h):
        return 0.5 * np.trace(lame_monodromy(mu, h))

    assert tau(1.58) < -1.0          # inside the gap
    assert tau(1.62) > -1.0          # first band, just above 1 + mu
    assert tau(1.02) < -1.0


def test_fundamental_parity():
    """cl is even and sl is odd about s = 0 (even potential)."""
    mu, h = 0.4, H_STAR
    s = np.linspace(0.1, 2.3, 12)
    right = fundamental_ode(mu, h, s)
    left = fundamental_ode(mu, h, -s[::-1])[::-1]
    parity = np.array([[1.0, -1.0], [-1.0, 1.0]])    # S delta(-s) S
    assert np.abs(right - parity * left).max() <= 1e-10


def test_monodromy_order_matches_phase():
    """The record's order is the order implied by the eigenvalue phase as a
    root of unity (theta = pi m/n gives 2n for odd m, n for even), and the
    monodromy has exactly that order: M^n = Id and no lower power is."""
    for q_num, q_den, expect in ((3, 5, 10), (2, 5, 5), (0, 1, 1), (1, 1, 2)):
        rec = floquet_search(0.4, q_num, q_den, 1)[0]
        theta = math.acos(max(-1.0, min(1.0, rec.tau)))
        assert abs(theta - math.pi * q_num / q_den) <= 1e-8
        assert rec.order == expect
        powers = [np.linalg.matrix_power(rec.monodromy, n) for n in range(1, expect + 1)]
        assert np.abs(powers[-1] - np.eye(2)).max() <= 1e-6
        assert all(np.abs(P - np.eye(2)).max() > 0.1 for P in powers[:-1])


def test_heun_route_wronskian():
    mu, h = 0.4, H_STAR
    K, _ = complete_elliptic(mu)
    grid = np.linspace(-K, 7 * K, 301)
    path = HeunLameEvaluator(mu, h)(grid)
    assert np.abs(np.linalg.det(path) - 1.0).max() <= 1e-9
