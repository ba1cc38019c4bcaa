"""Frame integration, curve construction, Cartan frame, bending oracle,
constant-bending closed forms."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from geometry_ref import CARTAN_GRAM, cartan_frame, future_directed

from ads_null_flows.config import UsageError
from ads_null_flows.kdvsol import KkshSpec, StationaryBending
from ads_null_flows.nullcurve import (
    ads_inner,
    bending_oracle,
    classify_orbit,
    closed_constant,
    constant_bending_frames,
    constant_bending_path,
    constant_case_tag,
    constant_curve_period,
    evolve_stationary_path,
    integrate_spinor_frames,
    lien_evolve,
    proper_time_checks,
    stationary_curve,
)
from ads_null_flows.nullcurve.frames import _D3, LAMBDA, expm_offdiag


def test_constant_kappa_matches_closed_form():
    kappa0 = -1.45
    grid = np.linspace(0.0, 5.0, 101)
    path = integrate_spinor_frames(lambda s: kappa0, grid)
    assert np.abs(path.F - constant_bending_frames(kappa0, grid)).max() <= 1e-9
    assert np.abs(np.linalg.det(path.F) - 1.0).max() <= 1e-9


def test_zero_kappa_rotation_block():
    grid = np.linspace(0.0, 3.0, 61)
    path = integrate_spinor_frames(lambda s: 0.0, grid)
    c, s = np.cos(grid), np.sin(grid)
    rot = np.empty((len(grid), 2, 2))
    rot[:, 0, 0], rot[:, 0, 1] = c, -s
    rot[:, 1, 0], rot[:, 1, 1] = s, c
    assert np.abs(path.F[1] - rot).max() <= 1e-10


def test_curve_and_cousins_basics():
    kappa0 = -1.45
    grid = np.linspace(0.0, 6.0, 400)
    path = constant_bending_path(kappa0, grid)
    gamma = path.gamma()
    eta_p, eta_m = path.F[..., 0]
    assert np.abs(gamma[0] - np.eye(2)).max() <= 1e-14
    assert np.abs(1.0 - np.linalg.det(gamma)).max() <= 1e-10    # q = -det = -1
    # central affine normalization and the cousin curvature defect k+ - k- = 2
    ds = grid[1] - grid[0]
    for eta, shift in ((eta_p, kappa0 + 1.0), (eta_m, kappa0 - 1.0)):
        d1 = (eta[:-4] - 8 * eta[1:-3] + 8 * eta[3:-1] - eta[4:]) / (12 * ds)
        d2 = (-eta[:-4] + 16 * eta[1:-3] - 30 * eta[2:-2]
              + 16 * eta[3:-1] - eta[4:]) / (12 * ds ** 2)
        unit = eta[2:-2, 0] * d1[:, 1] - eta[2:-2, 1] * d1[:, 0]
        assert np.abs(unit - 1.0).max() <= 1e-6
        curv = -(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        assert np.abs(curv - shift).max() <= 1e-5


def _hyperbolic_gamma(kappa0, s):
    """exp(s K+) exp(-s K-) for kappa0 > 1 by the product-to-sum formulas:
    each entry is a combination of cosh or sinh of (w+ +- w-) s, so no float
    frame is inverted and no large terms cancel."""
    wp, wm = math.sqrt(kappa0 + 1.0), math.sqrt(kappa0 - 1.0)
    add, sub = (wp + wm) * s, (wp - wm) * s
    out = np.empty(s.shape + (2, 2))
    out[:, 0, 0] = 0.5 * ((1.0 - wp / wm) * np.cosh(add) + (1.0 + wp / wm) * np.cosh(sub))
    out[:, 0, 1] = 0.5 * ((wp - wm) * np.sinh(add) + (wp + wm) * np.sinh(sub))
    out[:, 1, 0] = 0.5 * ((1.0 / wp - 1.0 / wm) * np.sinh(add)
                          + (1.0 / wp + 1.0 / wm) * np.sinh(sub))
    out[:, 1, 1] = 0.5 * ((1.0 - wm / wp) * np.cosh(add) + (1.0 + wm / wp) * np.cosh(sub))
    return out


@pytest.mark.parametrize("kappa0", [5.0, 40.0, 500.0])
def test_gamma_of_growing_frames(kappa0):
    """gamma = F+ F-^{-1} over the default --s-span 12, where |F-| reaches
    1e10 (kappa0 = 5) to 1e116 and an LU inverse of F- is singular in
    float64, against the closed form."""
    grid = np.linspace(0.0, 12.0, 1025)
    gamma = constant_bending_path(kappa0, grid).gamma()
    ref = _hyperbolic_gamma(kappa0, grid)
    rel = np.abs(gamma - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
    assert rel.max() <= 1e-12


def test_cousin_roundtrip_rebuilds_curve():
    grid = np.linspace(0.0, 4.0, 120)
    path = integrate_spinor_frames(lambda s: 0.4 * math.sin(s) - 1.2, grid)
    gamma = path.gamma()
    # the frames are the cousin curves and their derivative columns
    rebuilt = path.F[0] @ np.linalg.inv(path.F[1])
    assert np.abs(rebuilt - gamma).max() <= 1e-8


def test_cartan_frame_gram_and_derivatives():
    grid = np.linspace(0.0, 4.0, 801)
    ds = grid[1] - grid[0]
    path = integrate_spinor_frames(lambda s: 0.3 * math.cos(s) - 1.0, grid)
    g, T, N, B = cartan_frame(path)
    for i in (0, 200, 400, 799):
        F = np.array([g[i], T[i], N[i], B[i]])
        G = ads_inner(F[:, None], F[None, :])
        assert np.abs(G - CARTAN_GRAM).max() <= 1e-6
    d1 = (g[:-4] - 8 * g[1:-3] + 8 * g[3:-1] - g[4:]) / (12 * ds)
    assert np.abs(T[2:-2] - d1 / math.sqrt(2.0)).max() <= 1e-6
    d2 = (-g[:-4] + 16 * g[1:-3] - 30 * g[2:-2] + 16 * g[3:-1] - g[4:]) / (12 * ds ** 2)
    assert np.abs(N[2:-2] - d2 / 2.0).max() <= 1e-6


def test_curve_is_null_and_future_directed():
    grid = np.linspace(0.0, 4.0, 501)
    ds = grid[1] - grid[0]
    path = constant_bending_path(-1.45, grid)
    gamma = path.gamma()
    q0, q1, q2 = proper_time_checks(gamma, ds)
    assert q0 <= 1e-10 and q1 <= 1e-6 and q2 <= 1e-4
    d1 = (gamma[2:] - gamma[:-2]) / (2 * ds)
    for i in range(0, len(d1), 50):
        assert future_directed(gamma[i + 1], d1[i])


def test_bending_oracle_constant():
    grid = np.linspace(0.0, 6.0, 1201)
    path = constant_bending_path(-1.45, grid)
    kap = bending_oracle(path.gamma(), s_grid=grid)
    interior = kap[3:-3]
    assert np.abs(interior + 1.45).max() <= 1e-4


def test_bending_oracle_needs_enough_points():
    for n in (5, 6):
        with pytest.raises(ValueError, match="need at least 7 samples of gamma"):
            bending_oracle(np.tile(np.eye(2), (n, 1, 1)), s_grid=0.1 * np.arange(n))
    grid = np.linspace(0.0, 1.0, 9) ** 2
    with pytest.raises(ValueError, match="bending oracle needs a uniform grid"):
        bending_oracle(np.tile(np.eye(2), (9, 1, 1)), s_grid=grid)


def _bending_oracle_loop(gamma, ds):
    """The per-sample form of the oracle: one tensordot per interior sample."""
    out = np.full(gamma.shape[0], np.nan)
    for i in range(3, gamma.shape[0] - 3):
        g3 = np.tensordot(_D3, gamma[i - 3: i + 4], axes=(0, 0)) / ds ** 3
        out[i] = -ads_inner(g3, g3) / 16.0
    return out


def test_bending_oracle_matches_the_per_sample_loop():
    """On the `check` stationary curve (1,601 samples) and on a random
    gamma: the stencil contraction equals the loop within 1e-12 of its
    largest value, with the same NaN ends.  Other summation orders of the
    stencil differ from the loop by up to 6e-10 of kappa on the curve, so
    this asks for the same products summed in the same order."""
    spec = StationaryBending(0.9, 0.9300299176777007, 2.225980871712621)
    grid = np.linspace(0.0, 2 * spec.s_period, 1601)
    curve = stationary_curve(spec.mu, spec.h_plus, spec.h_minus, grid).gamma()
    rng = np.random.default_rng(3)
    for gamma, ds in ((curve, grid[1] - grid[0]), (rng.normal(size=(40, 2, 2)), 0.37)):
        got = bending_oracle(gamma, s_grid=ds * np.arange(len(gamma)))
        ref = _bending_oracle_loop(gamma, ds)
        assert np.isnan(got[:3]).all() and np.isnan(got[-3:]).all()
        assert not np.isnan(got[3:-3]).any()
        inner = ref[3:-3]
        assert np.abs(got[3:-3] - inner).max() <= 1e-12 * np.abs(inner).max()


# ------------------------------------------------------------ constant case

def test_constant_frames_case_tags():
    assert constant_case_tag(-1.45) == "(E,E)"
    assert constant_case_tag(-1.0) == "(P,E)"
    assert constant_case_tag(-0.5) == "(H,E)"
    assert constant_case_tag(1.0) == "(H,P)"
    assert constant_case_tag(2.0) == "(H,H)"


def test_constant_frames_trig_form():
    kappa0 = -1.45
    s = np.linspace(0, 3, 7)
    Fp, Fm = constant_bending_frames(kappa0, s)
    for k, F in ((kappa0 + 1, Fp), (kappa0 - 1, Fm)):
        w = math.sqrt(abs(k))
        assert np.abs(F[:, 0, 0] - np.cos(w * s)).max() <= 1e-14
        assert np.abs(F[:, 0, 1] + w * np.sin(w * s)).max() <= 1e-14
        assert np.abs(F[:, 1, 0] - np.sin(w * s) / w).max() <= 1e-14


def test_constant_frames_unipotent_and_hyperbolic():
    Fp, _ = constant_bending_frames(-1.0, 2.5)
    assert np.abs(Fp - np.array([[1.0, 0.0], [2.5, 1.0]])).max() <= 1e-15
    Fp2, Fm2 = constant_bending_frames(2.0, 1.0)
    for F, k in ((Fp2, 3.0), (Fm2, 1.0)):
        assert np.trace(F) > 2.0  # hyperbolic one-parameter factors


def test_closed_constant_examples():
    kappa, spin, knot = closed_constant(7, 3)
    assert kappa == Fraction(-29, 20)
    assert spin == Fraction(1, 2)
    assert knot == (-2, 5)
    kappa, spin, knot = closed_constant(8, 3)
    assert kappa == Fraction(-73, 55)
    assert spin == Fraction(1)
    assert knot == (-5, 11)


def test_closed_constant_rejects():
    for m, n in ((3, 7), (6, 3), (4, 4)):
        with pytest.raises(UsageError, match="need coprime integers m > n >= 1"):
            closed_constant(m, n)


def test_constant_period_commensurability():
    for m, n in ((7, 3), (8, 3), (5, 2)):
        kappa, _, _ = closed_constant(m, n)
        k = float(kappa)
        rho_p = 2 * math.pi / math.sqrt(abs(k + 1))
        rho_m = 2 * math.pi / math.sqrt(abs(k - 1))
        assert rho_p / rho_m == pytest.approx(m / n, rel=1e-12)
        P = constant_curve_period(m, n)
        Fp, Fm = constant_bending_frames(k, P)
        sign = 1.0 if (m + n) % 2 else -1.0
        # at the curve period both factors are at +Id (odd sum) or -Id (even)
        assert np.abs(Fp - sign * np.eye(2)).max() <= 1e-9
        assert np.abs(Fm - sign * np.eye(2)).max() <= 1e-9


# ------------------------------------------------------- frame stack layout

CHECK_BENDING = StationaryBending(0.9, 0.9300299176777007, 2.225980871712621)
LAYOUT_GRID = np.linspace(0.0, 1.0, 101)
PRODUCERS = {
    "constant_bending_path": lambda s: constant_bending_path(-1.45, s),
    "stationary_curve_ode": lambda s: stationary_curve(
        CHECK_BENDING.mu, CHECK_BENDING.h_plus, CHECK_BENDING.h_minus, s, method="ode"),
    "stationary_curve_heun": lambda s: stationary_curve(
        CHECK_BENDING.mu, CHECK_BENDING.h_plus, CHECK_BENDING.h_minus, s, method="heun"),
    "evolve_stationary_path": lambda s: evolve_stationary_path(CHECK_BENDING, s, 0.1),
    "lien_evolve": lambda s: lien_evolve(CHECK_BENDING, s, [0.0, 0.1]).paths[-1],
    "integrate_spinor_frames": lambda s: integrate_spinor_frames(
        lambda x: 0.3 * math.cos(x) - 1.0, s),
}


@pytest.mark.parametrize("producer", sorted(PRODUCERS))
def test_frame_stack_layout(producer):
    """Every producer holds both factors as one stack F of shape (2, n, 2, 2),
    F+ (lam = +1) first: gamma is F[0] F[1]^{-1} (to the det 1 of DOP853's
    frames, as gamma inverts F- by its adjugate), and each F[i] solves
    F' = F [[0, kappa + LAMBDA[i]], [1, 0]] (4th-order differences)."""
    path = PRODUCERS[producer](LAYOUT_GRID)
    F, n = path.F, len(LAYOUT_GRID)
    assert F.shape == (2, n, 2, 2)
    assert np.abs(path.gamma() - F[0] @ np.linalg.inv(F[1])).max() <= 1e-10
    ds = LAYOUT_GRID[1] - LAYOUT_GRID[0]
    d1 = (F[:, :-4] - 8 * F[:, 1:-3] + 8 * F[:, 3:-1] - F[:, 4:]) / (12 * ds)
    K = np.zeros((2, n - 4, 2, 2))
    K[..., 0, 1] = path.kappa[2:-2] + LAMBDA
    K[..., 1, 0] = 1.0
    assert np.abs(d1 - F[:, 2:-2] @ K).max() <= 1e-6
    if producer == "constant_bending_path":
        for i, lam in enumerate(LAMBDA[:, 0]):
            X = np.array([[0.0, -1.45 + lam], [1.0, 0.0]])
            assert (F[i] == expm_offdiag(X, LAYOUT_GRID)).all()


def test_monodromies_need_a_sample_at_s0_plus_rho():
    """SpinorFramePath.monodromy, classify_orbit and
    LienEvolution.monodromy_drift find s0 + rho by one lookup,
    SpinorFramePath.period_index, and all raise without it."""
    rho = CHECK_BENDING.s_period
    grid = np.linspace(0.0, rho, 9)
    assert stationary_curve(CHECK_BENDING.mu, CHECK_BENDING.h_plus,
                            CHECK_BENDING.h_minus, grid).period_index(rho) == 8
    short = 0.9 * grid
    path = stationary_curve(CHECK_BENDING.mu, CHECK_BENDING.h_plus,
                            CHECK_BENDING.h_minus, short)
    with pytest.raises(ValueError, match="does not sample s0 \\+ rho"):
        path.monodromy(rho)
    with pytest.raises(ValueError, match="does not sample s0 \\+ rho"):
        classify_orbit(path, rho)
    ev = lien_evolve(CHECK_BENDING, short, [0.0, 0.1])
    with pytest.raises(ValueError, match="does not sample s0 \\+ rho"):
        ev.monodromy_drift(rho)


def _wings_paths():
    """The frames of `kksh --mn 1,6 --h 2 --mu 0.6 --wings --t 0,0.3`, whose
    grid starts at s0 = -rho/2, where F is not the identity."""
    spec = KkshSpec.with_quantum_numbers(0.6, 1, 6, 2.0)
    rho = spec.s_period
    ev = lien_evolve(spec, np.linspace(-rho / 2, 1.5 * rho, 257), [0.0, 0.3])
    return rho, ev.paths


def _stationary_paths():
    rho = CHECK_BENDING.s_period
    return rho, [stationary_curve(CHECK_BENDING.mu, CHECK_BENDING.h_plus,
                                  CHECK_BENDING.h_minus, np.linspace(0.5, 0.5 + 2 * rho, 33))]


@pytest.mark.parametrize("paths", [_stationary_paths, _wings_paths])
def test_monodromy_matches_the_lu_product(paths):
    """M+- = F+-(s0 + rho) adj F+-(s0) against F+-(s0 + rho) F+-(s0)^{-1}
    by LU, within 1e-12 relative."""
    rho, frame_paths = paths()
    for path in frame_paths:
        assert np.abs(path.F[:, 0] - np.eye(2)).max() > 0.1   # F(s0) is not Id
        M = path.monodromy(rho)
        lu = path.F[:, path.period_index(rho)] @ np.linalg.inv(path.F[:, 0])
        assert M.shape == (2, 2, 2)
        assert np.abs(M - lu).max() <= 1e-12 * np.abs(lu).max()


@pytest.mark.parametrize("b, c", [(-1.45, 2.0), (0.0, 3.0), (2.45, 0.5)],
                         ids=["elliptic", "parabolic", "hyperbolic"])
def test_expm_offdiag_over_an_array_of_times(b, c):
    """exp(t X) of X = [[0, b], [c, 0]] for bc < 0, = 0 and > 0, over a
    (3, 5) array of t, against scipy.linalg.expm one t at a time (whose
    Pade approximant is itself 4e-13 off at t = 3.5 in the hyperbolic case,
    where the closed form is within 1.4e-16 of a 40-digit exponential)."""
    X = np.array([[0.0, b], [c, 0.0]])
    t = np.linspace(-3.0, 4.0, 15).reshape(3, 5)
    got = expm_offdiag(X, t)
    assert got.shape == (3, 5, 2, 2)
    for ti, E in zip(t.ravel(), got.reshape(-1, 2, 2)):
        want = scipy.linalg.expm(ti * X)
        assert np.abs(E - want).max() <= 1e-12 * np.abs(want).max()
