"""Orbit classification, spin/period algebra, torical chart."""

import math
from fractions import Fraction

import numpy as np
import pytest
from geometry_ref import classify_constant_closed

from ads_null_flows.nullcurve import (
    classify_monodromies,
    classify_orbit,
    constant_bending_frames,
    constant_bending_path,
    constant_case_tag,
    constant_curve_period,
    integrate_spinor_frames,
    rationalize,
    torical_embed,
    winding_numbers,
)
from ads_null_flows.nullcurve.frames import closed_constant


def test_classify_constant_73():
    cls, rho = classify_constant_closed(7, 3)
    assert cls.type_pair == "(E,E)"
    assert cls.closed
    assert cls.spin == Fraction(1, 2)
    assert cls.least_period == pytest.approx(constant_curve_period(7, 3), rel=1e-12)


def test_classify_constant_83():
    cls, rho = classify_constant_closed(8, 3)
    assert cls.type_pair == "(E,E)"
    assert cls.closed
    assert cls.spin == Fraction(1)
    assert cls.least_period == pytest.approx(constant_curve_period(8, 3), rel=1e-12)


def test_classification_algebra_matches_the_closed_form():
    """The rational-phase algebra on the monodromies over one window gives
    the closed form for every coprime m > n with m < 40: both factors
    elliptic, as constant_case_tag reads off kappa_{m,n} < -1 (the tag the
    constant command exports), a closed curve, and the spin and least period
    of closed_constant and constant_curve_period."""
    pairs = [(m, n) for m in range(2, 40) for n in range(1, m) if math.gcd(m, n) == 1]
    assert len(pairs) == 473
    for m, n in pairs:
        cls, _ = classify_constant_closed(m, n)
        kappa, spin, _ = closed_constant(m, n)
        assert cls.type_pair == constant_case_tag(float(kappa)) == "(E,E)", (m, n)
        assert cls.closed and cls.spin == spin, (m, n)
        assert cls.least_period == pytest.approx(constant_curve_period(m, n), rel=1e-12)


def test_classify_kappa_one_is_HP():
    rho = 1.7
    Fp, Fm = constant_bending_frames(1.0, rho)
    cls = classify_monodromies(Fp, Fm, rho)
    assert cls.type_pair == "(H,P)"
    assert not cls.closed
    assert cls.plus.invariant > 0
    assert abs(cls.minus.invariant) <= 1e-9


def _rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


def test_classify_mixed_signs():
    """Rotations by pi/2 and pi/3: after L = 6 windows the plus factor is -1
    and the minus factor +1, so the curve closes only after 2 L = 12
    windows, with spin 1."""
    rho = 1.3
    cls = classify_monodromies(_rotation(math.pi / 2), _rotation(math.pi / 3), rho)
    assert cls.type_pair == "(E,E)" and cls.closed
    assert (cls.plus.q_pi, cls.minus.q_pi) == (Fraction(1, 2), Fraction(1, 3))
    assert cls.least_period == pytest.approx(12 * rho, rel=1e-15)
    assert cls.spin == Fraction(1)


def test_classify_from_path():
    kappa0 = -1.45
    _, rho = classify_constant_closed(7, 3)
    grid = np.linspace(0.0, rho, 33)
    path = constant_bending_path(kappa0, grid)
    cls = classify_orbit(path, rho)
    assert cls.type_pair == "(E,E)" and cls.closed and cls.spin == Fraction(1, 2)


def test_classification_conjugation_invariant():
    rng = np.random.default_rng(7)
    cls0, rho = classify_constant_closed(7, 3)
    Fp, Fm = constant_bending_frames(-1.45, rho)
    for _ in range(20):
        A = rng.normal(size=(2, 2))
        B = rng.normal(size=(2, 2))
        A /= math.sqrt(abs(np.linalg.det(A)))
        B /= math.sqrt(abs(np.linalg.det(B)))
        cls = classify_monodromies(A @ Fp @ np.linalg.inv(A),
                                   B @ Fm @ np.linalg.inv(B), rho)
        assert cls.type_pair == cls0.type_pair
        assert cls.closed == cls0.closed
        assert cls.spin == cls0.spin
        assert cls.plus.invariant == pytest.approx(cls0.plus.invariant, abs=1e-8)
        assert cls.minus.invariant == pytest.approx(cls0.minus.invariant, abs=1e-8)
        assert cls.plus.q_pi == cls0.plus.q_pi


def test_not_periodic_bending_guard():
    grid = np.linspace(0.0, 2.0, 41)
    path = integrate_spinor_frames(lambda s: -2.0 + 0.3 * s, grid)
    with pytest.raises(ValueError, match=r"kappa\(s0 \+ rho\) - kappa\(s0\) = 6\.000e-01"):
        classify_orbit(path, 2.0)


def test_rationalize():
    assert rationalize(0.4, 64, 1e-6) == Fraction(2, 5)
    assert rationalize(math.pi / 10, 64, 1e-6) is None
    assert rationalize(3 / 7 + 1e-9, 64, 1e-6) == Fraction(3, 7)


# ------------------------------------------------------------------ torical

def test_torical_identity():
    assert np.abs(torical_embed(np.eye(2)) - np.array([2.0, 0.0, 0.0])).max() <= 1e-14


def test_torical_inside():
    rng = np.random.default_rng(3)
    for _ in range(200):
        X = rng.normal(size=(2, 2)) * 3.0
        X /= math.sqrt(abs(np.linalg.det(X)))
        if np.linalg.det(X) < 0:
            continue
        x, y, z = torical_embed(X)
        assert (math.hypot(x, y) - 2.0) ** 2 + z ** 2 < 1.0    # the open solid torus


def test_torical_closed_constant_curve():
    kappa, spin, knot = closed_constant(7, 3)
    period = constant_curve_period(7, 3)
    # frames close only after 2 periods (spin 1/2) but the curve closes at 1
    grid = np.linspace(0.0, period, 2001)
    path = constant_bending_path(float(kappa), grid)
    gamma = path.gamma()
    assert np.abs(gamma[-1] - gamma[0]).max() <= 1e-9
    pts = torical_embed(gamma)
    assert np.abs(pts[-1] - pts[0]).max() <= 1e-9
    # the axial winding is the homology class in the solid torus and matches
    # the first knot integer; the disc-angle count is chart data only
    w_theta, w_phi = winding_numbers(gamma)
    assert abs(w_theta) == abs(knot[0])
    # gamma(0) = Id lies on the chart's core axis, where phi is undefined
    assert w_phi is None


def _torus_loop(core: float, turns: tuple, n: int = 801) -> np.ndarray:
    """Unimodular matrices with split coordinates (cosh a cos theta,
    cosh a sin theta, sinh a cos phi, sinh a sin phi), a = core + sin^2(pi u)
    and (theta, phi) = 2 pi u turns, u in [0, 1]: a closed curve that meets
    the core axis r = sinh a = 0 exactly when core = 0."""
    u = np.linspace(0.0, 1.0, n)
    a = core + np.sin(np.pi * u) ** 2
    theta, phi = 2.0 * np.pi * turns[0] * u, 2.0 * np.pi * turns[1] * u
    x1, x2 = np.cosh(a) * np.cos(theta), np.cosh(a) * np.sin(theta)
    x3, x4 = np.sinh(a) * np.cos(phi), np.sinh(a) * np.sin(phi)
    return np.stack([np.stack([x1 + x4, x2 + x3], -1),
                     np.stack([x3 - x2, x1 - x4], -1)], -2)


def test_winding_numbers_off_and_on_the_core_axis():
    """Both turns of a loop that keeps off the core axis, and no phi turns
    for one through it (its least r is 0 to rounding), nor for one whose
    least r is at the rounding of its entries."""
    for turns in ((2, -3), (-1, 4), (0, 1)):
        assert winding_numbers(_torus_loop(0.5, turns)) == turns
        assert winding_numbers(_torus_loop(0.0, turns)) == (turns[0], None)
        assert winding_numbers(_torus_loop(1e-15, turns)) == (turns[0], None)
        assert winding_numbers(_torus_loop(1e-9, turns)) == turns


def test_open_constant_curve_approaches_ideal_boundary():
    """For constant bending 2 both factors are hyperbolic: the curve runs
    toward the ideal boundary of the chart in both directions."""
    from ads_null_flows.nullcurve import constant_bending_path

    grid = np.linspace(-12.0, 12.0, 401)
    path = constant_bending_path(2.0, grid)
    pts = torical_embed(path.gamma())
    depth = (np.hypot(pts[:, 0], pts[:, 1]) - 2.0) ** 2 + pts[:, 2] ** 2
    assert depth.max() < 1.0 + 1e-12               # never leaves the chart
    assert depth[0] > 0.999 and depth[-1] > 0.999  # hugging the boundary
    assert depth[200] < 0.5                        # interior at s = 0
