"""Bulk randomized property suites: algebra identities, elliptic identities,
frame round trips, classification invariance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ads_null_flows.jetalg import JetPoly, lenard_p, hamiltonian_density
from ads_null_flows.jetalg.poly import U, U1
from ads_null_flows.nullcurve import (
    classify_monodromies,
    constant_bending_frames,
    integrate_spinor_frames,
)
from ads_null_flows.specfun import complete_elliptic, jacobi_sncndn


@st.composite
def jet_polys(draw, max_index=4, max_terms=4, max_deg=3):
    n_terms = draw(st.integers(min_value=1, max_value=max_terms))
    p = JetPoly.zero()
    for _ in range(n_terms):
        c = draw(st.integers(min_value=-5, max_value=5))
        m = JetPoly.const(c)
        for _ in range(draw(st.integers(min_value=0, max_value=max_deg))):
            m = m * JetPoly.var(draw(st.integers(min_value=0, max_value=max_index)))
        p = p + m
    return p


@settings(max_examples=100, deadline=None)
@given(jet_polys(max_index=5))
def test_euler_compose_total_derivative_is_zero(p):
    assert p.total_derivative().euler().is_zero()


@settings(max_examples=50, deadline=None)
@given(jet_polys())
def test_divergence_properties(p):
    assert (U1 * p.euler()).euler().is_zero()
    assert (U * p.euler().total_derivative()).euler().is_zero()


def test_hierarchy_identities_to_six():
    for n in range(2, 7):
        assert lenard_p(n).total_derivative() == lenard_p(n - 1).script_D()
    for n in range(1, 7):
        assert hamiltonian_density(n).euler() == lenard_p(n)


def test_elliptic_identities_bulk():
    rng = np.random.default_rng(123)
    mus = rng.uniform(0.02, 0.98, 40)
    worst_pyth = worst_dn = worst_odd = worst_half = 0.0
    for mu in mus:
        s = rng.uniform(-60.0, 60.0, 250)
        sn, cn, dn = jacobi_sncndn(s, float(mu))
        worst_pyth = max(worst_pyth, np.abs(sn * sn + cn * cn - 1.0).max())
        worst_dn = max(worst_dn, np.abs(dn * dn + mu * sn * sn - 1.0).max())
        sn_m, _, _ = jacobi_sncndn(-s, float(mu))
        worst_odd = max(worst_odd, np.abs(sn + sn_m).max())
        K, _ = complete_elliptic(float(mu))
        sn2, _, _ = jacobi_sncndn(s + 2.0 * K, float(mu))
        worst_half = max(worst_half, np.abs(sn2 ** 2 - sn ** 2).max())
    assert worst_pyth <= 1e-12
    assert worst_dn <= 1e-12
    assert worst_odd <= 1e-13
    assert worst_half <= 1e-10


def test_frame_round_trip_random_bendings():
    rng = np.random.default_rng(7)
    grid = np.linspace(0.0, 3.0, 91)
    for _ in range(20):
        a, b, w = rng.uniform(-1.5, 1.5), rng.uniform(-2, 0.5), rng.uniform(0.5, 2)
        path = integrate_spinor_frames(lambda s: a * math.sin(w * s) + b, grid)
        assert np.abs(path.F[0] @ np.linalg.inv(path.F[1]) - path.gamma()).max() <= 1e-8
        # unimodularity of the frames and the cousin normalization
        assert np.abs(np.linalg.det(path.F) - 1.0).max() <= 1e-9


def test_classification_conjugation_invariance_random():
    rng = np.random.default_rng(11)
    rho = 1.3
    for trial in range(20):
        kappa0 = rng.uniform(-3.0, -1.1)
        Fp, Fm = constant_bending_frames(kappa0, rho)
        ref = classify_monodromies(Fp, Fm, rho)
        A = rng.normal(size=(2, 2))
        B = rng.normal(size=(2, 2))
        A /= math.sqrt(abs(np.linalg.det(A)))
        B /= math.sqrt(abs(np.linalg.det(B)))
        got = classify_monodromies(A @ Fp @ np.linalg.inv(A),
                                   B @ Fm @ np.linalg.inv(B), rho)
        assert got.type_pair == ref.type_pair
        assert got.closed == ref.closed
        assert got.spin == ref.spin
        assert got.plus.invariant == pytest.approx(ref.plus.invariant,
                                                   rel=1e-9, abs=1e-9)
        assert got.minus.invariant == pytest.approx(ref.minus.invariant,
                                                    rel=1e-9, abs=1e-9)
        assert got.plus.q_pi == ref.plus.q_pi
        assert got.minus.q_pi == ref.minus.q_pi


def test_concurrent_evaluation_is_consistent():
    """Shared evaluators give identical answers under concurrent use."""
    from concurrent.futures import ThreadPoolExecutor

    from ads_null_flows.lame import HeunLameEvaluator

    ev = HeunLameEvaluator(0.4, 0.6674427700743268)
    K, _ = complete_elliptic(0.4)
    pts = list(np.linspace(-K, 5 * K, 160))
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(ev, pts))
    serial = [HeunLameEvaluator(0.4, 0.6674427700743268)(s) for s in pts]
    assert max(np.abs(a - b).max() for a, b in zip(parallel, serial)) <= 1e-12

    with ThreadPoolExecutor(max_workers=8) as pool:
        vals = list(pool.map(lambda m: jacobi_sncndn(1.234, float(m)),
                             np.linspace(0.05, 0.95, 64)))
    ref = [jacobi_sncndn(1.234, float(m)) for m in np.linspace(0.05, 0.95, 64)]
    assert vals == ref
