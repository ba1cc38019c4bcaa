"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line.  Tolerances are pinned here and nowhere else.

Reference constants frozen from converged runs (stable across integrator
tolerances 1e-9..1e-13; see the test modules for the per-module versions):

    S_{0.4, 3/5}[0] = 0.667443, monodromy [[-0.309017, -0.331386],
                                           [2.72947, -0.309017]], order 10
    S_{0.9, 2/5}[0:2] = {0.930030, 2.225981}
    S_{0.6, 0} = {3.287222, 11.059393, 24.040319, 42.216401, 65.586374}
    mu* = 0.61503966 (rotation condition of the (1,6,2) family)
"""

import math
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from geometry_ref import classify_constant_closed
from jetalg_ref import evaluate

from ads_null_flows import jetalg
from ads_null_flows.config import DEFAULT
from ads_null_flows.jetalg.poly import U, U1
from ads_null_flows.kdvsol import KkshSpec, StationaryBending
from ads_null_flows.lame import HeunLameEvaluator, floquet_search, fundamental_ode
from ads_null_flows.nullcurve import (
    bending_oracle,
    classify_monodromies,
    constant_bending_frames,
    evolve_stationary_path,
    integrate_spinor_frames,
    kksh_frames_t0,
    kksh_mu_star,
    lien_evolve,
    monodromy_trace_drift,
    proper_time_checks,
    stationary_curve,
)
from ads_null_flows.nullcurve.frames import closed_constant
from ads_null_flows.specfun import complete_elliptic, jacobi_sncndn

H04 = 0.6674427700743268           # S_{0.4, 3/5}[0]
H09 = (0.9300299176777007, 2.225980871712621)   # S_{0.9, 2/5}[0:2]
MU_STAR = 0.6150396634356605
PRINTED_M04 = np.array([[-0.309017, -0.331386], [2.72947, -0.309017]])
PRINTED_FPLUS = np.array([[32.13972944617541, 31.723219516279162],
                          [32.5231, 32.1327]])

_mu_star_cache = {}


def solved_mu_star() -> float:
    if "v" not in _mu_star_cache:
        _mu_star_cache["v"] = kksh_mu_star(1, 6, 2.0)
    return _mu_star_cache["v"]


@contextmanager
def criterion(n: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n:2d} [{label}]: FAIL")
        raise
    print(f"ACCEPTANCE {n:2d} [{label}]: PASS")


def V(i, e=1):
    return jetalg.JetPoly.var(i, e)


def test_criterion_01_symbolic_hierarchy():
    with criterion(1, "symbolic hierarchy"):
        assert jetalg.lenard_p(2) == V(2) - 3 * U * U
        assert jetalg.lenard_p(3) == V(4) - 10 * U * V(2) - 5 * V(1, 2) \
            + 10 * U * U * U
        assert jetalg.lenard_p(2).total_derivative() == V(3) - 6 * U * U1
        assert jetalg.lenard_p(3).total_derivative() == \
            V(5) - 10 * U * V(3) - 20 * U1 * V(2) + 30 * U * U * U1
        for n in range(1, 7):
            assert jetalg.hamiltonian_density(n).euler() == jetalg.lenard_p(n)


def test_criterion_02_lien_coefficients_and_zero_curvature():
    with criterion(2, "flow coefficients + zero curvature"):
        _, _, a1, b1 = jetalg.lien_coefficients(1)
        assert a1 == 4 * U and b1 == jetalg.JetPoly.const(-8)
        _, _, a2, b2 = jetalg.lien_coefficients(2)
        assert a2 == 4 * V(2) - 12 * U * U - 32 and b2 == 16 * U
        # frame (gamma, gamma', N, sqrt2 B): P^_ij = P_ij d_j / d_i with
        # D = diag(1, sqrt2, 1, sqrt2); the paper's values in the comments
        _, P1 = jetalg.lien_matrix_polys(1)
        assert P1[0][3] == -4 * U                 # -2 sqrt2 u on T
        assert P1[0][1] == jetalg.JetPoly.const(-8)   # -4 sqrt2 on B
        _, P2 = jetalg.lien_matrix_polys(2)
        assert P2[0][3] == -4 * (V(2) - U * U + 8)    # -2 sqrt2 (u2 - u^2 + 8)
        assert P2[0][2] == 8 * U1
        assert P2[0][1] == 16 * U                 # 8 sqrt2 u
        for n in range(4):
            assert jetalg.mat_is_zero(jetalg.zero_curvature_check(n))


def test_criterion_03_floquet_regression():
    with criterion(3, "Floquet regression"):
        # exponent labeled 2/5 upstream; the printed monodromy, its order 10,
        # and the odd-numerator order rule all identify 3/5 (see the build
        # notes); the definitional 2/5 sequence starts at 0.520232 instead
        rec = floquet_search(0.4, 3, 5, 1)[0]
        assert rec.h == pytest.approx(0.67, abs=0.01)
        M = rec.monodromy
        assert np.abs((M - PRINTED_M04) / PRINTED_M04).max() <= 1e-3
        assert np.abs(np.linalg.matrix_power(M, 10) - np.eye(2)).max() <= 1e-6
        assert floquet_search(0.4, 2, 5, 1)[0].h == pytest.approx(0.520232, abs=1e-4)
        recs = floquet_search(0.9, 2, 5, 2)
        assert recs[0].h == pytest.approx(0.93, abs=0.01)
        assert recs[1].h == pytest.approx(2.23, abs=0.01)
        recs = floquet_search(0.6, 0, 1, 5)
        # the upstream figure pairs the 1st and 5th elements of this spectrum
        assert recs[0].h == pytest.approx(3.29, abs=0.05)
        assert recs[4].h == pytest.approx(65.59, abs=0.1)


def test_criterion_04_heun_vs_ode_oracle():
    with criterion(4, "Heun route vs ODE route"):
        mu, h = 0.4, H04
        K, _ = complete_elliptic(mu)
        grid = np.linspace(-K, 3 * K, 401)
        ode = fundamental_ode(mu, h, grid)
        heun = HeunLameEvaluator(mu, h)(grid)
        assert np.abs(ode - heun).max() <= 1e-5
        probes = np.array([0.4, 1.9, 3.1])
        a = fundamental_ode(mu, h, probes)
        b = fundamental_ode(mu, h, probes + 20 * K)
        assert np.abs(a - b).max() <= 1e-5


def test_criterion_05_stationary_geometry():
    with criterion(5, "stationary geometry"):
        spec = StationaryBending(0.9, *H09)
        grid = np.linspace(0.0, 2 * spec.s_period, 1601)
        path = stationary_curve(spec.mu, spec.h_plus, spec.h_minus, grid)
        q0, q1, q2 = proper_time_checks(path.gamma(), float(grid[1] - grid[0]))
        assert q0 <= 1e-8
        assert q1 <= 1e-6
        assert q2 <= 1e-4
        kap = bending_oracle(path.gamma(), s_grid=grid)
        sel = ~np.isnan(kap)
        assert np.abs(kap[sel] - spec.kappa(grid[sel])).max() <= 1e-3
        k0, k1, _, k3 = spec.kappa_jet(np.linspace(0, spec.s_period, 97), order=3)
        assert np.abs(k3 + 2.0 * spec.ell * k1 - 6.0 * k0 * k1).max() <= 1e-8


def test_criterion_06_stationary_evolution_cross_check():
    with criterion(6, "evolution cross-check"):
        spec = StationaryBending(0.9, *H09)
        s_grid = np.linspace(0.0, spec.s_period, 33)
        t_grid = np.linspace(0.0, 0.25, 10)
        ev = lien_evolve(spec, s_grid, t_grid)
        # the closed form starts at diag(1/sqrt sigma, sqrt sigma), lien_evolve at Id
        to_id = np.diag([math.sqrt(spec.sigma), 1.0 / math.sqrt(spec.sigma)])
        for j, t in enumerate(t_grid):
            closed = evolve_stationary_path(spec, s_grid, float(t))
            Fp, Fm = to_id @ closed.F
            gamma = Fp @ np.linalg.inv(Fm)
            assert np.abs(ev.paths[j].gamma() - gamma).max() <= 1e-4


def test_criterion_07_constant_bending():
    with criterion(7, "constant bending"):
        kappa, spin, _ = closed_constant(7, 3)
        assert kappa == Fraction(-29, 20) and spin == Fraction(1, 2)
        kappa, spin, _ = closed_constant(8, 3)
        assert kappa == Fraction(-73, 55) and spin == Fraction(1)
        for (m, n), want_spin in (((7, 3), Fraction(1, 2)), ((8, 3), Fraction(1))):
            cls, _ = classify_constant_closed(m, n)
            assert cls.type_pair == "(E,E)" and cls.closed
            assert cls.spin == want_spin
        Fp, Fm = constant_bending_frames(1.0, 1.3)
        assert classify_monodromies(Fp, Fm, 1.3).type_pair == "(H,P)"


def test_criterion_08_kksh_regression():
    with criterion(8, "three-parameter family regression"):
        mu_star = solved_mu_star()
        assert mu_star == pytest.approx(MU_STAR, abs=1e-7)
        K, _ = complete_elliptic(mu_star)
        assert 2 * K == pytest.approx(3.93225, abs=1e-3)
        spec = KkshSpec.with_quantum_numbers(mu_star, 1, 6, 2.0)
        (Fp,), (Fm,) = kksh_frames_t0([spec])
        assert np.abs((Fp - PRINTED_FPLUS) / PRINTED_FPLUS).max() <= 1e-3
        tr = float(np.trace(Fp))
        zeta1 = 0.5 * (tr + math.sqrt(tr * tr - 4.0))
        assert zeta1 == pytest.approx(64.26, abs=0.1)
        for mu in np.linspace(0.08, 0.92, 10):
            spec_i = KkshSpec.with_quantum_numbers(float(mu), 1, 6, 2.0)
            (Fp_i,), (Fm_i,) = kksh_frames_t0([spec_i])
            cls = classify_monodromies(Fp_i, Fm_i, spec_i.s_period)
            assert cls.type_pair == "(H,E)"
        s, t = np.meshgrid(np.linspace(0.0, spec.s_period, 100),
                           np.linspace(-0.4, 0.4, 20))
        u, u_t = spec._u_series(s, t, 4)              # mKdV from the series of u
        worst_m = np.abs(u_t[0] - 6.0 * u[0] ** 2 * u[1] + 6.0 * u[3]).max()
        k0, k1, _, k3 = spec.kappa_jet(s, t, order=3)  # KdV as the gate forms it
        worst_k = np.abs(spec.kappa_t(s, t) - 6.0 * k0 * k1 + k3).max()
        assert worst_m <= 1e-5
        assert worst_k <= 1e-4


def test_criterion_08_reference_mu_star_literal():
    """Pins the published 8-digit reference value at its stated +-1e-5.

    The converged zero of the rotation condition is 0.61503966 (stable to
    ten digits across integrator tolerances 1e-9..1e-13 and root solvers),
    3.0e-5 away from the published 0.61500934.  The published companion
    matrix is itself only ~1e-4-relative accurate, so the reference value
    carries more error than its printed digits suggest.  This check is
    expected to fail; see the build notes ledger for the analysis.  All
    other clauses of criterion 8 pass at the converged value.
    """
    with criterion(8, "reference mu* literal +-1e-5"):
        mu_star = solved_mu_star()
        assert mu_star == pytest.approx(0.61500934, abs=1e-5)


def test_criterion_09_monodromy_preservation():
    with criterion(9, "monodromy preservation + conserved integrals"):
        spec = KkshSpec.with_quantum_numbers(MU_STAR, 1, 6, 2.0)
        rho = spec.s_period
        t1 = 0.537285
        # matrix drift on the conditioning window [0, t1] (see build notes:
        # the plus-factor t-system grows hyperbolically, so the conjugated
        # comparison is meaningful only while cond(A)^2 stays moderate)
        cfg = replace(DEFAULT, integrator_rel_tol=1e-13, integrator_abs_tol=1e-15)
        t_grid = np.linspace(0.0, t1, 10)
        ev = lien_evolve(spec, np.array([0.0, rho]), t_grid, cfg)
        assert ev.monodromy_drift(rho) <= 1e-4
        # conjugation-invariant monodromy data over the full snapshot span
        dp, dm = monodromy_trace_drift(
            lien_evolve(spec, np.array([0.0, rho]), [0.0, t1, 2 * t1, 3 * t1]))
        assert dp <= 1e-6 and dm <= 1e-6
        # conserved integrals of the first three densities, relative 1e-4
        s = np.linspace(0.0, rho, 256, endpoint=False)
        ds = rho / 256
        for n in (1, 2, 3):
            dens = jetalg.hamiltonian_density(n)
            order = dens.order()
            vals = []
            for t in (0.0, t1, 2 * t1, 3 * t1):
                jets = [spec.kappa_jet(float(x), t, order=max(order, 1))
                        for x in s]
                vals.append(sum(evaluate(dens, j) for j in jets) * ds)
            ref = abs(vals[0])
            assert max(abs(v - vals[0]) for v in vals) <= 1e-4 * ref


def test_criterion_10_property_suites():
    with criterion(10, "property suites"):
        rng = np.random.default_rng(2024)
        # jet algebra identities on 100 random polynomials
        for _ in range(100):
            p = jetalg.JetPoly.zero()
            for _ in range(rng.integers(1, 4)):
                term = jetalg.JetPoly.const(int(rng.integers(-5, 6)))
                for _ in range(rng.integers(0, 4)):
                    term = term * jetalg.JetPoly.var(int(rng.integers(0, 5)))
                p = p + term
            assert p.total_derivative().euler().is_zero()
            assert (U1 * p.euler()).euler().is_zero()
            assert (U * p.euler().total_derivative()).euler().is_zero()
        # elliptic identities on 1e4 random points
        mus = rng.uniform(0.02, 0.98, 50)
        for mu in mus:
            pts = rng.uniform(-40.0, 40.0, 200)
            sn, cn, dn = jacobi_sncndn(pts, float(mu))
            assert np.abs(sn * sn + cn * cn - 1.0).max() <= 1e-12
            assert np.abs(dn * dn + mu * sn * sn - 1.0).max() <= 1e-12
        # frame round trip and conjugation invariance on 20 random cases
        grid = np.linspace(0.0, 2.5, 81)
        for _ in range(20):
            a, b = rng.uniform(-1.0, 1.0), rng.uniform(-2.5, 0.0)
            path = integrate_spinor_frames(
                lambda s: a * math.sin(1.3 * s) + b, grid)
            assert np.abs(path.F[0] @ np.linalg.inv(path.F[1]) - path.gamma()).max() <= 1e-8
            kappa0 = rng.uniform(-3.0, -1.2)
            rho = 1.1
            Mp, Mm = constant_bending_frames(kappa0, rho)
            ref = classify_monodromies(Mp, Mm, rho)
            A = rng.normal(size=(2, 2))
            A /= math.sqrt(abs(np.linalg.det(A)))
            B = rng.normal(size=(2, 2))
            B /= math.sqrt(abs(np.linalg.det(B)))
            got = classify_monodromies(A @ Mp @ np.linalg.inv(A),
                                       B @ Mm @ np.linalg.inv(B), rho)
            assert got.type_pair == ref.type_pair
            assert got.closed == ref.closed and got.spin == ref.spin
