"""The truncated power series type: its arithmetic against numpy's
polynomials, and the closed-form jets it carries through (Jacobi functions
and the KKSH and stationary kappa jets) against direct evaluation at
shifted points."""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from test_kdvsol import MU_STAR, _dual_kappa_jet

from ads_null_flows import transport as kernel
from ads_null_flows.kdvsol import KkshSpec, StationaryBending
from ads_null_flows.nullcurve import evolve
from ads_null_flows.specfun import jacobi_sncndn, sn_jet
from ads_null_flows.specfun.elliptic import _sncndn_series
from ads_null_flows.specfun.series import Series

TERMS = 12


def value(series: Series, d: float):
    """The series summed at dx = d."""
    return sum(c * d ** k for k, c in enumerate(series.c))


def test_arithmetic_matches_truncated_polynomials():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(2, TERMS, 5))
    b[0] += 4.0                          # keep 1/b well inside its radius
    x, y = Series(a), Series(b)
    for got, want in (
            ((x * y).c, [P.polymul(a[:, j], b[:, j])[:TERMS] for j in range(5)]),
            ((x + y).c, (a + b).T),
            ((2.0 - x).c, np.concatenate([2.0 - a[:1], -a[1:]]).T),
            ((x ** 3).c, [P.polypow(a[:, j], 3)[:TERMS] for j in range(5)])):
        assert np.allclose(got, np.transpose(want), rtol=1e-13, atol=1e-12)
    assert np.allclose((y * (1.0 / y)).c, np.eye(TERMS)[0][:, None], atol=1e-13)
    assert np.allclose((x / y).c, (x * y.reciprocal()).c, rtol=1e-15, atol=0.0)


def test_ndarray_constants_broadcast_against_coefficients():
    """A constant array of shape (2, 1) and a series over 5 points give
    coefficients (TERMS, 2, 5); numpy defers to the series."""
    lam = np.array([[1.0], [-1.0]])
    x = Series.variable(np.linspace(0.0, 1.0, 5), TERMS)
    for z in (lam * x, x * lam, x - lam, lam - x, lam + x * x):
        assert isinstance(z, Series) and z.c.shape == (TERMS, 2, 5)
    assert np.array_equal((x - lam).c[0], np.linspace(0.0, 1.0, 5) - lam)
    assert np.array_equal((lam * x).c[1], np.broadcast_to(lam, (2, 5)))


def test_jacobi_functions_of_a_linear_series():
    x0 = np.array([-7.0, 0.0, 0.3, 1.9, 40.0])
    sn, cn, dn = jacobi_sncndn(2.5 * Series.variable(x0, TERMS) + 0.1, 0.7)
    for d in (0.02, -0.03):
        for got, want in zip((sn, cn, dn), jacobi_sncndn(2.5 * (x0 + d) + 0.1, 0.7)):
            assert np.abs(value(got, d) - want).max() <= 1e-14
    with pytest.raises(ValueError, match="series argument"):
        jacobi_sncndn(Series.variable(x0, TERMS) ** 2, 0.7)


@pytest.mark.parametrize("sampler", [
    KkshSpec.with_quantum_numbers(0.6150396634356605, 1, 6, 2.0),
    StationaryBending(0.9, 0.9300299176777007, 2.225980871712621)],
    ids=["kksh", "stationary"])
def test_kappa_jet_on_a_series_in_t(sampler):
    """kappa_jet(0, t0 + dt) as a series (the t-system's coefficients)
    summed at small dt equals the jet at t0 + dt; the KKSH radius in t is
    about 1.5e-3."""
    t0 = np.array([0.0, 0.4, 1.6])
    jets = sampler.kappa_jet(0.0, Series.variable(t0, TERMS), order=2)
    for d in (5e-5, -3e-5):
        for got, want in zip(jets, sampler.kappa_jet(0.0, t0 + d, order=2)):
            assert np.abs(value(got, d) - want).max() <= 1e-10 * np.abs(want).max()


# ------------------------------------------- the fused Taylor engine of kdvsol

KKSH_MUS = [0.3, MU_STAR, 0.85]


def kksh_at(mu):
    return KkshSpec.with_quantum_numbers(mu, 1, 6, 2.0)


@pytest.mark.parametrize("mu", KKSH_MUS, ids=["mu03", "mustar", "mu085"])
def test_kksh_kappa_on_a_series_in_s(mu):
    """Order 0 on a Series, as the s-systems of lien_evolve call it
    (s0 + ds, rate 1) and as the KKSH monodromies do (s = rho sigma, rate
    rho), summed at small offsets, equals the array jet at the shifted
    points."""
    spec = kksh_at(mu)
    rho = spec.s_period()
    s0 = np.linspace(-0.3 * rho, 1.7 * rho, 9)
    for t in (0.0, 0.41):
        (kappa,) = spec.kappa_jet(Series.variable(s0, TERMS), t, order=0)
        for d in (4e-3, -3e-3):
            want = spec.kappa_jet(s0 + d, t, order=0)[0]
            assert np.abs(value(kappa, d) - want).max() <= 1e-12 * np.abs(want).max()
        sigma0 = s0 / rho
        (kappa,) = spec.kappa_jet(rho * Series.variable(sigma0, TERMS), t, order=0)
        for d in (4e-3 / rho, -3e-3 / rho):
            want = spec.kappa_jet(rho * (sigma0 + d), t, order=0)[0]
            assert np.abs(value(kappa, d) - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("mu", KKSH_MUS, ids=["mu03", "mustar", "mu085"])
def test_kksh_series_coefficients_match_the_dual_reference(mu):
    """Coefficient k of kappa on a Series s0 + rate dx is kappa^(k)(s0)
    rate^k / k!, against the dual-number reference of test_kdvsol, for
    k <= 4 and for the order-2 jets on a Series in t at s = 0."""
    spec = kksh_at(mu)
    rho = spec.s_period()
    s0 = np.array([0.0, 0.37 * rho, 1.21 * rho])
    t = 0.29
    for rate in (1.0, rho):
        (kappa,) = spec.kappa_jet(rate * Series.variable(s0 / rate, TERMS), t, order=0)
        for j, s in enumerate(s0):
            ref = _dual_kappa_jet(spec, s, t, 4)
            want = [ref[k] * rate ** k / math.factorial(k) for k in range(5)]
            scale = np.abs(want).max()
            assert np.abs(kappa.c[:5, j] - want).max() <= 1e-12 * scale
    t0 = np.array([0.0, 0.4])
    jets = spec.kappa_jet(0.0, Series.variable(t0, TERMS), order=2)
    for j, tj in enumerate(t0):
        ref = _dual_kappa_jet(spec, 0.0, float(tj), 2)
        for k, jet in enumerate(jets):
            assert abs(jet.c[0, j] - ref[k]) <= 1e-12 * np.abs(ref[k]).max()


def test_stacked_waves_match_single_wave_calls():
    """The fused recurrence on a wave axis, each wave with its own rate
    and parameter, equals one call per wave, for (sn, cn, dn)."""
    x0 = np.array([[-7.0, 0.0, 0.3, 1.9, 40.0], [2.0, -0.5, 0.1, 3.3, -12.0]])
    w = np.array([[2.5], [-0.7]])
    mus = np.array([[0.7], [0.2]])
    trip = np.array([jacobi_sncndn(x0[i], float(mus[i, 0])) for i in range(2)])
    stacked = _sncndn_series(np.moveaxis(trip, 0, 1), w, mus, TERMS)
    for i in range(2):
        single = _sncndn_series(trip[i], float(w[i, 0]), float(mus[i, 0]), TERMS)
        for got, want in zip(stacked, single):
            assert np.abs(got[:, i] - want).max() <= 1e-15 * np.abs(want).max()
        x = Series.variable(x0[i], TERMS)          # x0 + w dx
        x.c[1] = w[i, 0]
        for got, want in zip(stacked, jacobi_sncndn(x, float(mus[i, 0]))):
            assert np.abs(got[:, i] - want.c).max() <= 1e-15 * np.abs(want.c).max()


def test_sn_jet_on_a_series_is_the_shifted_series():
    """sn_jet on a Series x0 + w dx: the Series of each derivative, summed
    at small offsets, equals sn_jet at the shifted points."""
    x0 = np.array([-3.0, 0.2, 1.7])
    jets = sn_jet(1.5 * Series.variable(x0, TERMS), 0.8, order=4)
    for d in (0.01, -0.02):
        for got, want in zip(jets, sn_jet(1.5 * (x0 + d), 0.8, order=4)):
            assert np.abs(value(got, d) - want).max() <= 1e-13 * np.abs(want).max()


def _einsums_per_call(monkeypatch, generator, x) -> int:
    count = [0]
    einsum = np.einsum

    def counting(*args, **kwargs):
        count[0] += 1
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    generator(x)
    monkeypatch.setattr(np, "einsum", einsum)
    return count[0]


def test_generator_work_budget(monkeypatch):
    """np.einsum calls of one generator block of each KKSH transport: the
    Series products of kappa stay off the hot path (they were 172 per
    s-block and 206 per t-block).  The one s-generator of _s_frames costs
    51 per system, for a t-slice of lien_evolve (scale 1) as for a
    rescaled monodromy."""
    spec = kksh_at(MU_STAR)
    x = Series.variable(np.linspace(0.0, 1.0, 64), kernel.TERMS - 1)
    captured = []

    def capture(generator, x0, grid, rel_tol):
        captured.append(generator)
        factors = generator(x)[1].c.shape[1]
        return np.zeros((factors, len(grid), 2, 2))

    monkeypatch.setattr(evolve, "transport", capture)
    evolve.lien_evolve(spec, [0.0], [0.0, 0.3])
    evolve.kksh_frames_t0([spec, kksh_at(0.5), kksh_at(0.4)])
    monkeypatch.undo()
    budgets = [_einsums_per_call(monkeypatch, g, x) for g in captured]
    assert budgets == [84, 2 * 51, 2 * 51, 51]
