"""The truncated power series type: its arithmetic against numpy's
polynomials, and the closed-form jets it carries through (Jacobi functions
and the KKSH and stationary kappa jets) against direct evaluation at
shifted points."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from ads_null_flows.kdvsol import KkshSpec, StationaryBending
from ads_null_flows.specfun import jacobi_sncndn
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
