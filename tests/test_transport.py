"""The frame-transport kernel (Taylor panels) against DOP853 at rtol 1e-13:
the KKSH t-system and s-monodromies, single and batched, and the two-step
evolution of a stationary bending; batched t-slices and h+- pairs against
separate transports, dense output, the two sides of a grid in any order,
the panel ladders and transport counts, the block products (bit for
bit the entrywise scan), the varying-entry frame recursion against the
general one, unimodularity, the panel cap, the DOP853 confirmation gate of
lien_evolve (over half a period by parity for an even bending, and at rho
on short grids), its one-period extension by the s-monodromy and the
fallbacks to the full transport, the accepted range of
integrator_rel_tol; the KKSH period lattice (invariance of kappa, the
t-frames from one cell against the direct transport, the closed-form
holonomy powers against exact ones, the commutator gate and the fallback),
the work budget of the two DOP853 oracles, and the mu* search (its early
scan, its bracketed rounds and their safeguard, and its residual)."""

import json
import math
import re
from decimal import Decimal, getcontext

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ads_null_flows import lame
from ads_null_flows import transport as kernel
from ads_null_flows.cli import main
from ads_null_flows.config import DEFAULT, NumericFailure, RunConfig
from ads_null_flows.kdvsol import KkshSpec, StationaryBending
from ads_null_flows.nullcurve import (
    evolve,
    evolve_stationary_path,
    lien_evolve,
    stationary_curve,
)
from ads_null_flows.specfun import JacobiScalar, complete_elliptic
from ads_null_flows.specfun.series import Series
from ads_null_flows.transport import transport

MU_STAR = 0.6150396634356605
KKSH_T = [0.0, 0.537285, 1.07457, 1.611855]
CHECK_SPEC = StationaryBending(0.9, 0.9300299176777007, 2.225980871712621)


def kksh(mu=MU_STAR):
    return KkshSpec.with_quantum_numbers(mu, 1, 6, 2.0)


# DOP853 right-hand sides on the eight entries of (F+, F-), in plain floats

def s_rhs(sampler, t):
    def rhs(s, y):
        k = sampler.kappa_jet(float(s), t, order=0)[0]
        ap, bp, cp, dp, am, bm, cm, dm = y
        return (bp, (k + 1.0) * ap, dp, (k + 1.0) * cp,
                bm, (k - 1.0) * am, dm, (k - 1.0) * cm)
    return rhs


def kksh_t_jet(spec):
    """(kappa, kappa_s, kappa_ss) of a KKSH spec at (0, t), for a float t, in
    plain floats: kappa_jet at a point takes the series of u from order 1
    on, some 35 times the cost, and the README t-grid takes some 3e5 calls.
    The sn jets of both waves follow from sn'' = g sn, g = w^2 (2 mu sn^2 -
    1 - mu), the Leibniz rule gives phi = amp P M to phi'''', the quotient
    rule psi = artanh(phi) from psi' (1 - phi^2) = phi', and kappa = -2
    psi'' + 4 psi'^2."""
    waves = [(JacobiScalar(m), w, v, m) for w, v, m in
             ((spec.w_plus, spec.v_plus, spec.mu), (spec.w_minus, spec.v_minus, spec.tau))]

    def jet(t):
        P, M = [], []
        for out, (sncndn, w, v, m) in zip((P, M), waves):
            sn, cn, dn = sncndn(v * t)
            f1, g = w * cn * dn, w * w * (2.0 * m * sn * sn - 1.0 - m)
            g3 = g + 4.0 * w * w * m * sn * sn
            out += [sn, f1, g * sn, g3 * f1, 12.0 * w * w * m * sn * f1 * f1 + g3 * g * sn]
        a = spec.amp
        p0, p1 = a * P[0] * M[0], a * (P[1] * M[0] + P[0] * M[1])
        p2 = a * (P[2] * M[0] + 2.0 * P[1] * M[1] + P[0] * M[2])
        p3 = a * (P[3] * M[0] + 3.0 * (P[2] * M[1] + P[1] * M[2]) + P[0] * M[3])
        p4 = a * (P[4] * M[0] + 4.0 * (P[3] * M[1] + P[1] * M[3]) + 6.0 * P[2] * M[2]
                  + P[0] * M[4])
        r = 1.0 / (1.0 - p0 * p0)
        d1, d2, d3 = -2.0 * p0 * p1, -2.0 * (p1 * p1 + p0 * p2), -2.0 * (3.0 * p1 * p2 + p0 * p3)
        s1 = p1 * r
        s2 = (p2 - s1 * d1) * r
        s3 = (p3 - 2.0 * s2 * d1 - s1 * d2) * r
        s4 = (p4 - 3.0 * (s3 * d1 + s2 * d2) - s1 * d3) * r
        return 4.0 * s1 * s1 - 2.0 * s2, 8.0 * s1 * s2 - 2.0 * s3, 8.0 * (s2 * s2 + s1 * s3) - 2.0 * s4
    return jet


def t_rhs(sampler):
    jet = kksh_t_jet(sampler) if isinstance(sampler, KkshSpec) else \
        (lambda t: sampler.kappa_jet(0.0, t, order=2))

    def rhs(t, y):
        k0, k1, k2 = jet(float(t))
        q = 2.0 * k0 * k0 - k2
        out = []
        for lam, (a, b, c, d) in ((1.0, y[:4]), (-1.0, y[4:])):
            p01, p10 = q - 2.0 * lam * k0 - 4.0, 2.0 * k0 - 4.0 * lam
            out += [b * p10 - a * k1, a * p01 + b * k1, d * p10 - c * k1, c * p01 + d * k1]
        return out
    return rhs


def dop853(rhs, x0, grid, F0=None):
    """Reference frames (2, len(grid), 2, 2) from F0 (default Id) at x0, by
    DOP853 at rtol 1e-13."""
    F0 = np.broadcast_to(np.eye(2), (2, 2, 2)) if F0 is None else np.asarray(F0)
    grid = np.asarray(grid, dtype=float)
    sol = solve_ivp(rhs, (x0, grid[-1]), F0.ravel(), method="DOP853",
                    rtol=1e-13, atol=1e-15, t_eval=grid)
    assert sol.success
    return sol.y.T.reshape(len(grid), 2, 2, 2).transpose(1, 0, 2, 3)


def rel_err(F, ref):
    """max over samples of |F - ref|_max / |ref|_max."""
    return float((np.abs(F - ref).max(axis=(-2, -1))
                  / np.abs(ref).max(axis=(-2, -1))).max())


@pytest.fixture(scope="module")
def kksh_t_reference():
    """DOP853 frames of the KKSH t-system on the README t-grid, once per
    module (the slowest reference of the suite)."""
    return dop853(t_rhs(kksh()), 0.0, KKSH_T)


def test_t_system_on_the_kksh_grid(kksh_t_reference):
    """lien_evolve's A+-(t) along s = 0 on the README t-grid; |A+| reaches
    2.4e9."""
    ev = lien_evolve(kksh(), [0.0], KKSH_T)
    # at s = 0 the frames are A+-(t) Phi+-(0, t) = A+-(t) exactly
    A = np.stack([p.F[:, 0] for p in ev.paths], axis=1)
    assert np.abs(A[0, -1]).max() > 1e9
    assert rel_err(A, kksh_t_reference) <= 1e-9


@pytest.mark.parametrize("rel_tol", [1e-12, 1e-30])
def test_taylor_t_system_matches_dop853(kksh_t_reference, rel_tol):
    """A tolerance below the rounding is met at the rounding floor."""
    A = transport(evolve._t_generator(kksh()), KKSH_T, rel_tol)
    assert rel_err(A, kksh_t_reference) <= 1e-10


def test_taylor_panel_propagators_are_unimodular():
    """Each panel factor, from all terms and without the last one, has det
    1 to rounding."""
    centre = np.linspace(0.0, 1.6, 300)
    half = np.full_like(centre, 4e-4)
    radii = []
    _, _, P = kernel._panels(evolve._t_generator(kksh()), centre, half, radii)
    assert P.shape == (2, 2, 4, 300)
    det = P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0]
    assert np.abs(det - 1.0).max() <= 1e-13
    assert np.abs(P[0, 0, :2] - P[0, 0, 2:]).max() > 0.0      # the two truncations differ
    assert radii[0].shape == (300,) and np.all(half < radii[0])


@pytest.mark.parametrize("mu", [0.3, 0.6, MU_STAR])
def test_s_monodromy_matches_dop853(mu):
    spec = kksh(mu)
    rho = spec.s_period
    F = evolve.kksh_frames_t0([spec])
    assert rel_err(F, dop853(s_rhs(spec, 0.0), 0.0, [rho])) <= 1e-10


def test_batched_monodromies_match_dop853():
    """Specs stacked along the factor axis, each rescaled onto sigma in
    [0, 1], with their own scale and t, against one DOP853 run per spec
    and against separate transports."""
    specs = [kksh(mu) for mu in (0.3, 0.6, MU_STAR)]
    rho = [spec.s_period for spec in specs]
    rho[1] *= 0.5
    t = [0.0, 0.2, 0.4]
    F = evolve._s_frames(specs, rho, t, [1.0], DEFAULT)
    assert F.shape == (2, 3, 1, 2, 2)
    for i, spec in enumerate(specs):
        assert rel_err(F[:, i], dop853(s_rhs(spec, t[i]), 0.0, [rho[i]])) <= 1e-10
        single = evolve._s_frames([spec], rho[i], t[i], [1.0], DEFAULT)[:, 0]
        assert rel_err(F[:, i], single) <= 1e-11
    assert evolve.kksh_frames_t0([]).shape == (2, 0, 2, 2)


def test_lien_evolve_matches_dop853_on_the_check_bending():
    """The stationary bending and the grids of the `check` command."""
    spec = CHECK_SPEC
    s_grid = np.linspace(0.0, spec.s_period, 17)
    t_grid = np.linspace(0.0, 0.2, 5)
    ev = lien_evolve(spec, s_grid, t_grid)
    A = dop853(t_rhs(spec), 0.0, t_grid)
    for j, t in enumerate(t_grid):
        ref = dop853(s_rhs(spec, t), 0.0, s_grid, F0=A[:, j])
        assert rel_err(ev.paths[j].F, ref) <= 1e-10


def _ladders(monkeypatch):
    """Record the panel total of every level, one list per transport call
    (from the transport, lame or evolve module)."""
    ladders = []
    sweep, transport_ = kernel._sweep, kernel.transport

    def counting(generator, x, count, radii):
        ladders[-1].append(count)
        return sweep(generator, x, count, radii)

    def calling(*args):
        ladders.append([])
        return transport_(*args)

    monkeypatch.setattr(kernel, "_sweep", counting)
    for module in (kernel, lame, evolve):
        monkeypatch.setattr(module, "transport", calling)
    return ladders


def _predictions(ladder):
    """How many levels were predicted: the first level is accepted, or the
    one level its root test predicts (at least a doubling) is, without a
    further doubling."""
    assert len(ladder) in (1, 2), ladder
    if len(ladder) == 2:
        assert ladder[1] >= 2 * ladder[0], ladder
    return len(ladder) - 1


def test_kksh_t_system_accepts_the_predicted_level(monkeypatch):
    """lien_evolve on the README grids: the t-system over one lattice cell
    (one side, t in [0, t2]) accepts its first level, and each transport of
    the s-systems (the three remainders and two holonomies, then the four
    t-slices, BATCH each) its first level or the one it predicts.  The
    direct t-system over [0, 1.61] took one predicted level of 2,040
    panels (test_kksh_t_system_accepts_the_predicted_panels)."""
    ladders = _ladders(monkeypatch)
    spec = kksh()
    lien_evolve(spec, np.linspace(0.0, 2.0 * spec.s_period, 257), KKSH_T)
    assert len(ladders) == 1 + math.ceil(5 / evolve.BATCH) + math.ceil(len(KKSH_T) / evolve.BATCH)
    assert ladders[0] == [kernel.FIRST_PANELS]
    for ladder in ladders[1:]:
        _predictions(ladder)


@pytest.mark.parametrize("mu", [0.3, MU_STAR, 0.8])
def test_kksh_t_system_accepts_the_predicted_panels(monkeypatch, mu):
    """The t-system's ladder: the first level, then the level its root test
    predicts, accepted without a doubling."""
    ladders = _ladders(monkeypatch)
    kernel.transport(evolve._t_generator(kksh(mu)), KKSH_T,
                     DEFAULT.integrator_rel_tol)
    assert len(ladders) == 1 and len(ladders[0]) == 2, ladders
    assert ladders[0][1] > 2 * ladders[0][0]


@pytest.mark.parametrize("mu", [0.3, 0.6, MU_STAR])
def test_s_monodromy_accepts_the_predicted_level(monkeypatch, mu):
    ladders = _ladders(monkeypatch)
    evolve.kksh_frames_t0([kksh(mu)])
    assert len(ladders) == 1
    _predictions(ladders[0])


def test_check_bending_ladders_end_at_most_one_prediction(monkeypatch):
    """The t-system (accepted at its first level on this short grid) and the
    transports of the five s-systems of the `check` evolution, BATCH each."""
    ladders = _ladders(monkeypatch)
    spec = CHECK_SPEC
    lien_evolve(spec, np.linspace(0.0, spec.s_period, 17), np.linspace(0.0, 0.2, 5))
    assert len(ladders) == 1 + math.ceil(5 / evolve.BATCH) and len(ladders[0]) == 1
    for ladder in ladders[1:]:
        _predictions(ladder)


def test_mu_star_ladders_end_at_most_one_prediction(monkeypatch):
    """Every transport of the README mu* search (two scan batches, whose
    second shows the sign change, then two refinement rounds of BATCH
    points) accepts its first level or the one level predicted from it:
    none misses its prediction and refines again."""
    ladders = _ladders(monkeypatch)
    evolve.kksh_mu_star(1, 6, 2.0)
    assert len(ladders) == 4
    for ladder in ladders:
        _predictions(ladder)


def _half_trace(mu, m, n, h):
    """tr F-(rho)/2 at mu, from one transport."""
    return 0.5 * float(np.trace(
        evolve.kksh_frames_t0([KkshSpec.with_quantum_numbers(mu, m, n, h)])[1, 0]))


def _rotation(mu, m, n, h):
    """The trace condition g(mu) = tr F-(rho)/2 - cos(4 pi/3) of kksh_mu_star."""
    return _half_trace(mu, m, n, h) - evolve.MU_STAR_TARGET


def test_mu_star_matches_the_converged_root():
    """The README mu* stays within 1e-12 of 0.6150396634404971, where
    |g| = 9e-13."""
    assert abs(evolve.kksh_mu_star(1, 6, 2.0) - 0.6150396634404971) <= 1e-12


def test_mu_star_of_a_scan_step_with_three_roots():
    """(3, 10, 1) has three roots in the scan step (0.75, 0.8), 0.75373,
    0.7712 and 0.79853, and the lowest root of the bracket, 0.72547, one
    step below them: the search returns that one.  The square-root form
    p = Re(tr + sqrt(tr^2 - 4))/2 - cos(4 pi/3) of the condition also
    vanished at a hyperbolic 0.723 in the same lower step, so p kept its
    sign over it and the search returned 0.75373."""
    assert abs(evolve.kksh_mu_star(3, 10, 1.0) - 0.7254711111208041) <= 1e-12


@pytest.mark.parametrize("m, n, h", [(1, 6, 2.0), (1, 6, 1.0), (1, 4, 1.0), (1, 3, 1.0),
                                     (2, 7, 2.0), (1, 8, 2.0), (3, 10, 2.0), (2, 9, 1.0),
                                     (3, 10, 1.0)])
def test_mu_star_zeroes_the_rotation_condition(m, n, h):
    """tr F-(mu*)/2 = -1/2 to 1e-12 on every family whose mu* is tested
    here: the certified bracket and the inverse cubic inside it leave
    |g(mu*)| at rounding level; a 1e-8 bracket alone allows |g| near 1e-8."""
    assert abs(_half_trace(evolve.kksh_mu_star(m, n, h), m, n, h) + 0.5) <= 1e-12


def _stub_rotation(monkeypatch, g, most=64):
    """kksh_frames_t0 replaced by elliptic frames whose rotation condition
    reads g(mu) (|g| <= 0.5): records each batch of mu, and stops a search
    that asks for more than `most` batches."""
    batches = []

    def frames(specs, config=DEFAULT):
        mu = np.array([spec.mu for spec in specs])
        batches.append(mu)
        assert len(batches) <= most, "the mu* search does not stop"
        F = np.zeros((2, len(specs), 2, 2))
        F[..., 0, 0] = F[..., 1, 1] = g(mu) + evolve.MU_STAR_TARGET
        return F

    monkeypatch.setattr(evolve, "kksh_frames_t0", frames)
    return batches


@pytest.mark.parametrize("k, scanned", [(3, 2), (5, 2), (10, 3)])
def test_mu_star_on_a_scan_point_is_that_point(monkeypatch, k, scanned):
    """g = 0 exactly at scan point k returns that point once the scan holds
    it and its right neighbour (the full scan's order of tests), with no
    refinement round."""
    grid = np.linspace(*evolve.MU_STAR_BRACKET, evolve.MU_STAR_SCAN)
    batches = _stub_rotation(monkeypatch, lambda mu: mu - grid[k])
    assert evolve.kksh_mu_star(1, 6, 2.0) == grid[k]
    assert len(batches) == scanned


def _recorded_batches(monkeypatch):
    """kksh_frames_t0 unchanged, but recording each batch of mu it is given."""
    batches = []
    frames = evolve.kksh_frames_t0

    def recording(specs, config=DEFAULT):
        batches.append([spec.mu for spec in specs])
        return frames(specs, config)

    monkeypatch.setattr(evolve, "kksh_frames_t0", recording)
    return batches


@pytest.mark.parametrize("m, n, h, i", [(2, 7, 2.0, 3), (3, 10, 2.0, 5), (2, 9, 1.0, 0),
                                        (3, 10, 1.0, 8)])
def test_mu_star_refines_inside_the_scan_bracket(monkeypatch, m, n, h, i):
    """The scan stops at the batch that holds its first sign change, between
    points i and i + 1, and every refinement point lies strictly inside
    that pair, though g is not monotone over the scan points around it
    (its scan values of (3, 10, 1) fall to -162, then rise to 0.4)."""
    batches = _recorded_batches(monkeypatch)
    mu = evolve.kksh_mu_star(m, n, h)
    grid = np.linspace(*evolve.MU_STAR_BRACKET, evolve.MU_STAR_SCAN)
    scanned = -(-(i + 2) // evolve.BATCH)
    assert np.array_equal(np.concatenate(batches[:scanned]), grid[:scanned * evolve.BATCH])
    refined = np.concatenate(batches[scanned:])
    assert refined.size and (grid[i] < refined).all() and (refined < grid[i + 1]).all()
    assert grid[i] < mu < grid[i + 1] and abs(_rotation(mu, m, n, h)) <= 1e-12


@pytest.mark.parametrize("m, n, h", [(1, 2, 1.0), (3, 7, 2.0)])
def test_mu_star_without_a_sign_change_on_the_scan_raises(monkeypatch, m, n, h):
    """(1, 2, 1) has no rotation in the bracket: g keeps its sign over all
    of it, though the square-root form p vanished at a hyperbolic 0.31099
    (tr F- = -5/2) and the search returned that.  (3, 7, 2) has two roots
    in one scan step, (0.8, 0.85), which the scan cannot see.  Both scan
    every point, then raise naming the bracket."""
    batches = _recorded_batches(monkeypatch)
    with pytest.raises(NumericFailure, match=re.escape(f"on {evolve.MU_STAR_BRACKET}")):
        evolve.kksh_mu_star(m, n, h)
    grid = np.linspace(*evolve.MU_STAR_BRACKET, evolve.MU_STAR_SCAN)
    assert np.array_equal(np.concatenate(batches), grid)


def test_mu_star_safeguard_spaces_evenly_after_a_stalled_round(monkeypatch):
    """A rotation with a kink at its root, flat below it: the inverse cubic
    of the scan points leaves the bracket (0.45, 0.5), so the first round's
    points are moved inside it; a later round fails to halve the bracket,
    and the round after it divides the bracket evenly.  The root is still
    bracketed to MU_STAR_XTOL, and no point leaves the scan bracket."""
    root = 0.454

    def g(mu):
        return 0.4 * np.tanh(np.where(mu < root, 0.01, 1.0) * (mu - root) / 0.01)

    batches = _stub_rotation(monkeypatch, g)
    cubic = evolve._inverse_root([(x, float(g(x))) for x in (0.45, 0.5, 0.4, 0.55)])
    assert not 0.45 < cubic < 0.5
    mu = evolve.kksh_mu_star(1, 6, 2.0)
    assert abs(mu - root) <= evolve.MU_STAR_XTOL
    refined = np.concatenate(batches[2:])
    assert (0.45 < refined).all() and (refined < 0.5).all()

    def even(k):
        """batch k is a + (b - a) j / (BATCH + 1) between two earlier points."""
        step = batches[k][1] - batches[k][0]
        ends = batches[k][0] - step, batches[k][-1] + step
        earlier = np.concatenate(batches[:k])
        return (np.allclose(np.diff(batches[k]), step, rtol=1e-9, atol=0.0)
                and all(np.isclose(earlier, end, rtol=0.0, atol=1e-15).any() for end in ends))

    assert any(even(k) for k in range(3, len(batches)))


def test_dense_output_panels_do_not_follow_the_grid(monkeypatch):
    """fundamental_ode on 1,025 and on 16,385 samples of the same span
    sweeps the same panel levels, and the samples they share agree."""
    ladders = _ladders(monkeypatch)
    K, _ = complete_elliptic(0.9)
    coarse = lame.fundamental_ode(0.9, 2.2, np.linspace(-2.0 * K, 8.0 * K, 1025))
    fine = lame.fundamental_ode(0.9, 2.2, np.linspace(-2.0 * K, 8.0 * K, 16385))
    assert len(ladders) == 2 and ladders[0] == ladders[1], ladders
    assert rel_err(coarse, fine[::16]) <= 1e-12


def _entrywise_prefix(E):
    """The prefix scan on the four entries (p, q, r, s) as separate arrays,
    one product of entries a round: the reference that kernel._prefix keeps
    bit for bit."""
    def mul(x, y):
        p0, q0, r0, s0 = x
        p1, q1, r1, s1 = y
        return (p0 * p1 + q0 * r1, p0 * q1 + q0 * s1, r0 * p1 + s0 * r1, r0 * q1 + s0 * s1)

    n = E[0].shape[-1]
    k = 1
    while k < n:
        head = tuple(e[..., :k] for e in E)
        tail = mul(tuple(e[..., :-k] for e in E), tuple(e[..., k:] for e in E))
        E = tuple(np.concatenate([h, t], axis=-1) for h, t in zip(head, tail))
        k *= 2
    return E


@pytest.mark.parametrize("n", [1, 2, 7, 257])
def test_prefix_scan_ends_at_the_sequential_product(n):
    """The last prefix entry, the product that each block folds into the
    running frame, is E_0 E_1 ... E_{n-1}, odd lengths and one past a
    power of two included; the factors are random with det 1.  Every entry
    equals the entrywise scan's bit for bit."""
    rng = np.random.default_rng(n)
    p = rng.uniform(0.5, 2.0, size=(2, n))
    q, r = rng.normal(scale=0.5, size=(2, 2, n))
    E = np.array([[p, q], [r, (1.0 + q * r) / p]])
    prefix = kernel._prefix(E.copy())
    assert np.array_equal(prefix, np.array(_entrywise_prefix(tuple(E.reshape(4, 2, n))))
                          .reshape(2, 2, 2, n))
    prefix = kernel._as_matrices(prefix)
    assert prefix.shape == (2, n, 2, 2)
    matrices = kernel._as_matrices(E)
    product = np.broadcast_to(np.eye(2), (2, 2, 2))
    for i in range(n):
        product = product @ matrices[:, i]
    assert rel_err(prefix[:, -1], product) <= 1e-12


GENERAL, ONLY_B = "iabfn,ibcfn->acfn", "irfn,ifn->rfn"


def _block_entries(generator, n=64):
    """The entries (a, b, c) of a generator on one block of n panel centres."""
    return generator(Series.variable(np.linspace(0.0, 1.0, n), kernel.TERMS - 1))


def _s_block_generator(monkeypatch, specs):
    """The generator of _s_frames' first transport on specs."""
    seen = []

    def recording(generator, *args):
        seen.append(generator)
        return kernel.transport(generator, *args)

    monkeypatch.setattr(evolve, "transport", recording)
    evolve._s_frames(specs, [spec.s_period for spec in specs], 0.0, [1.0], DEFAULT)
    monkeypatch.undo()
    return seen[0]


def _recursion(monkeypatch, a, b, c, n=64):
    """The frame series of (a, b, c) on n panels, and the set of einsum
    subscripts it used."""
    seen, einsum = set(), np.einsum

    def spy(subscripts, *operands, **kwargs):
        seen.add(subscripts)
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    Phi = kernel._frame_series(a, b, c, n)
    monkeypatch.undo()
    return Phi, seen


@pytest.mark.parametrize("block, factors", [("kksh4", 8), ("lame2", 2), ("constant", 1)])
def test_the_varying_entry_recursion_is_the_general_one(monkeypatch, block, factors):
    """With a the constant 0 and c a constant, only b is convolved, and the
    frame series equals the general recursion's (forced by a zero Series a)
    bit for bit: a 4-spec KKSH s-block (c one value per factor), a Lame
    block of two h (b per factor, c = 1) and a constant generator."""
    if block == "kksh4":
        generator = _s_block_generator(monkeypatch, [kksh(mu) for mu in (0.3, 0.45, 0.6, 0.75)])
    elif block == "lame2":
        generator = lame._lame_generator(0.9, np.array([[0.93], [2.23]]))
    else:
        def generator(x):
            return 0.0, -6400.0, 1.0
    a, b, c = _block_entries(generator)
    assert a == 0.0 and not isinstance(c, Series)
    fast, used = _recursion(monkeypatch, a, b, c)
    zero = Series(np.zeros((kernel.TERMS - 1, 1, 64)))
    general, used_general = _recursion(monkeypatch, zero, b, c)
    assert used == {ONLY_B} and used_general == {GENERAL}
    assert fast.shape == (kernel.TERMS, 2, 2, factors, 64)
    assert np.array_equal(fast, general)
    assert np.abs(fast[-1]).max() > 0.0


def test_the_t_system_and_a_constant_diagonal_take_the_general_recursion(monkeypatch):
    """The KKSH t-system (a, b and c all Series) and a generator whose
    constant a is not 0 keep the general einsum over all four entries."""
    a, b, c = _block_entries(evolve._t_generator(kksh()))
    assert all(isinstance(v, Series) for v in (a, b, c))
    assert _recursion(monkeypatch, a, b, c)[1] == {GENERAL}
    a, b, c = _block_entries(lambda x: (0.5, 2.0 * x * x - 1.0, 1.0))
    Phi, used = _recursion(monkeypatch, a, b, c)
    assert used == {GENERAL}
    assert (Phi[1, 0, 0] == 0.5).all() and (Phi[1, 1, 1] == -0.5).all()


@pytest.mark.parametrize("slices", [1, 2, 3, 5])
def test_lien_evolve_t_slices_match_separate_transports(monkeypatch, slices):
    """The s-systems of all t-slices, BATCH per transport, against one
    transport per slice: one t-system transport, then ceil(slices / BATCH)
    s-transports."""
    spec = CHECK_SPEC
    s_grid = np.linspace(-0.5 * spec.s_period, spec.s_period, 17)
    t_grid = np.linspace(0.0, 0.2, slices)
    ladders = _ladders(monkeypatch)
    ev = lien_evolve(spec, s_grid, t_grid)
    assert len(ladders) == 1 + -(-slices // evolve.BATCH)
    monkeypatch.undo()
    A = transport(evolve._t_generator(spec), t_grid, DEFAULT.integrator_rel_tol)
    for j, t in enumerate(t_grid):
        Phi = evolve._s_frames([spec], 1.0, t, s_grid, DEFAULT)[:, 0]
        single = A[:, j, None] @ Phi
        assert rel_err(ev.paths[j].F, single) <= 1e-12
        assert ev.t_grid[j] == t
        assert (ev.paths[j].kappa == spec.kappa_jet(s_grid, float(t), order=0)[0]).all()


def test_one_transport_per_stationary_curve(monkeypatch):
    """h+ and h- share one transport, in stationary_curve and in the
    evolved snapshot built on it, and match one transport each."""
    spec = CHECK_SPEC
    grid = np.linspace(0.0, 2.0 * spec.s_period, 257)
    ladders = _ladders(monkeypatch)
    path = stationary_curve(spec.mu, spec.h_plus, spec.h_minus, grid)
    evolve_stationary_path(spec, grid, 0.1)
    assert len(ladders) == 2
    monkeypatch.undo()
    x_grid = spec.sigma * grid
    S = np.diag([1.0 / math.sqrt(spec.sigma), math.sqrt(spec.sigma)])
    for F, h in zip(path.F, (spec.h_plus, spec.h_minus)):
        assert rel_err(F, lame.fundamental_ode(spec.mu, h, x_grid) @ S) <= 1e-12


def test_unimodular_by_construction():
    """Every sample of a dense, moderate-norm path has det 1 to rounding."""
    spec = CHECK_SPEC
    grid = np.linspace(-spec.s_period, spec.s_period, 513)
    F = evolve._s_frames([spec], 1.0, 0.0, grid, DEFAULT)[:, 0]
    assert np.abs(F).max() < 20.0
    assert np.abs(np.linalg.det(F) - 1.0).max() <= 1e-13


def test_refinement_cap_raises(monkeypatch):
    """A Lamé path out of reach of the panel cap fails instead of hanging."""
    monkeypatch.setattr(kernel, "MAX_PANELS", 256)
    K, _ = complete_elliptic(0.9)
    with pytest.raises(NumericFailure, match="panels"):
        lame.fundamental_ode(0.9, 500.0, np.linspace(0.0, 40.0 * K, 101))


def test_taylor_panel_cap_raises(monkeypatch):
    """A panel count beyond the cap fails before that level is swept."""
    ladders = _ladders(monkeypatch)
    monkeypatch.setattr(kernel, "MAX_PANELS", 1000)
    with pytest.raises(NumericFailure, match="panels"):
        kernel.transport(evolve._t_generator(kksh()), KKSH_T, 1e-12)
    assert len(ladders) == 1 and len(ladders[0]) == 1     # the first level only


def test_taylor_huge_span_raises_without_warnings():
    """t up to 1e300: the first level's panels are 1e297 wide, overflow
    (a miss, silently) and predict far more panels than the cap."""
    with pytest.raises(NumericFailure, match="panels"):
        transport(evolve._t_generator(kksh()), [1e300], 1e-12)


def test_kksh_at_a_huge_time_exits_1(tmp_path, capsys):
    assert main(["kksh", "--mn", "1,6", "--h", "2", "--mu", "0.6", "--t", "1e300",
                 "--invariant-grid", "2", "-o", str(tmp_path / "k")]) == 1
    assert "numeric failure" in capsys.readouterr().err


def test_taylor_non_finite_coefficient_raises():
    def blow_up(x):
        return 0.0, x * np.nan, 1.0

    with pytest.raises(NumericFailure, match="non-finite"):
        transport(blow_up, [1.0], 1e-12)


def test_non_finite_frames_raise():
    """Finite coefficients whose frame series overflows: every level
    misses, and the level predicted from a zero radius exceeds the cap."""
    def blow_up(x):
        return 0.0, 1e300 + 0.0 * x, 1.0

    with pytest.raises(NumericFailure, match="panels"):
        transport(blow_up, [1.0], 1e-12)


def test_nan_radius_raises_at_the_first_miss(monkeypatch):
    """A NaN root-test radius makes the first level miss and its predicted
    level NaN: NumericFailure before a second level is swept."""
    panels = kernel._panels

    def nan_radii(generator, centre, half, radii):
        out = panels(generator, centre, half, radii)
        radii[-1] = radii[-1] * np.nan
        return out

    ladders = _ladders(monkeypatch)
    monkeypatch.setattr(kernel, "_panels", nan_radii)
    with pytest.raises(NumericFailure, match="panels"):
        kernel.transport(evolve._t_generator(kksh()), KKSH_T, 1e-12)
    assert ladders == [[kernel.FIRST_PANELS]]


def test_a_permuted_grid_gives_the_permuted_frames():
    """Each point is reached from 0 on its own side, whatever the order of
    the grid: a permutation of a two-sided grid permutes the frames, bit
    for bit."""
    grid = np.linspace(-0.8, 1.6, 25)
    order = np.random.default_rng(3).permutation(len(grid))
    generator = evolve._t_generator(kksh())
    F = transport(generator, grid, 1e-12)
    assert np.array_equal(transport(generator, grid[order], 1e-12), F[:, order])


def test_a_two_sided_grid_is_its_two_sides(monkeypatch):
    """The sides of a two-sided grid are transported apart.  Under a
    constant generator the root-test radius does not depend on the panel
    centres, so each side reaches the level it reaches alone (its first
    level, a share of FIRST_PANELS, misses) and its frames are those of its
    one-sided transport, bit for bit.  The KKSH t-system's sides agree with
    their one-sided transports to the tolerance."""
    def constant(x):
        return 0.5, -6400.0, 1.0

    grid = np.array([-8.0, -3.0, 0.0, 2.5, 8.0])
    ladders = _ladders(monkeypatch)
    F = kernel.transport(constant, grid, 1e-12)
    left = kernel.transport(constant, grid[:2], 1e-12)
    right = kernel.transport(constant, grid[2:], 1e-12)
    assert np.array_equal(F[:, :2], left) and np.array_equal(F[:, 2:], right)
    pair, left_alone, right_alone = ladders
    # the sides of equal length share the first level; each then reaches the
    # level it reaches alone
    assert pair[0] + pair[2] == left_alone[0] == right_alone[0] == kernel.FIRST_PANELS
    assert pair[1::2] == left_alone[1:] + right_alone[1:], ladders
    generator = evolve._t_generator(kksh())
    t = np.array([-1.0, -0.5, 0.5, 1.6])
    F = transport(generator, t, 1e-12)
    assert rel_err(F[:, :2], transport(generator, t[:2], 1e-12)) <= 1e-11
    assert rel_err(F[:, 2:], transport(generator, t[2:], 1e-12)) <= 1e-11


def test_points_at_x0_and_repeated_points():
    """A point at 0 is the identity exactly, on a two-sided grid, on
    either one-sided grid and alone (its panel's series gives Id only to
    rounding), a repeated point repeats its frame bit for bit, and a point
    at 0 leaves its side as it is."""
    generator = evolve._t_generator(kksh())
    F = transport(generator, [0.8, 0.0, 0.8, -0.5, 0.0, -0.5], 1e-12)
    assert np.array_equal(F[:, 0], F[:, 2]) and np.array_equal(F[:, 3], F[:, 5])
    identity = np.broadcast_to(np.eye(2), (2, 2, 2, 2))
    assert np.array_equal(F[:, [1, 4]], identity)
    for grid in ([0.0, 0.0], [0.8, 0.0, 0.0], [-0.5, 0.0, 0.0]):
        assert np.array_equal(transport(generator, grid, 1e-12)[:, -2:], identity)
    for x in (0.8, -0.5):
        alone = transport(generator, [x], 1e-12)
        assert np.array_equal(transport(generator, [0.0, x], 1e-12)[:, 1:], alone)


def test_non_finite_grid_is_rejected():
    with pytest.raises(ValueError, match="finite"):
        transport(evolve._t_generator(kksh()), [0.5, math.nan], 1e-12)


def test_empty_grid_is_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        transport(evolve._t_generator(kksh()), [], 1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rel_tol", ["1e-4", "1e-8", "1e-14", "1e-30"])
def test_kksh_runs_over_the_tolerance_range(tmp_path, rel_tol):
    """Loose tolerances widen the DOP853 confirmation bound with DOP853's own
    error; tolerances below the rounding are met at the rounding."""
    assert main(["--set", f"integrator_rel_tol={rel_tol}", "kksh", "--mn", "1,6",
                 "--h", "2", "--mu", "0.6", "--t", "0,0.05", "--invariant-grid", "2",
                 "-o", str(tmp_path / "k")]) == 0


def test_kksh_transports_each_s_system_once(monkeypatch, tmp_path):
    """`kksh` with two snapshots and no invariant grid: one transport of the
    t-system over one lattice cell, one of the s-systems of its remainder
    and two holonomies (t = 0.3 is 161 cells out) and one of the two
    t-slices (BATCH >= 3); the trace drift reads lien_evolve's s-frames and
    transports nothing."""
    calls = []

    def counted(*args):
        calls.append(args)
        return transport(*args)

    monkeypatch.setattr(evolve, "transport", counted)
    assert main(["kksh", "--mn", "1,6", "--h", "2", "--mu", "0.6", "--t", "0,0.3",
                 "--invariant-grid", "0", "-o", str(tmp_path / "k")]) == 0
    assert len(calls) == 3


def test_confirmation_gate_rejects_a_wrong_kernel(monkeypatch):
    def off_by_1e6(*args):
        return transport(*args) * (1.0 + 1e-6)

    monkeypatch.setattr(evolve, "transport", off_by_1e6)
    spec = kksh()
    with pytest.raises(NumericFailure, match="DOP853"):
        lien_evolve(spec, np.linspace(0.0, spec.s_period, 9), [0.0, 0.1])


def _confirm_spans(monkeypatch):
    """Record the span of every DOP853 confirmation of lien_evolve."""
    spans = []

    def spy(rhs, span, *args, **kwargs):
        spans.append(span)
        return solve_ivp(rhs, span, *args, **kwargs)

    monkeypatch.setattr(evolve, "solve_ivp", spy)
    return spans


def _full_transport(monkeypatch, spec, s_grid, t_grid):
    """lien_evolve with the one-period extension switched off: the route of
    an aperiodic bending, k = 0 and r = s_grid, confirmed at its far end
    (the last point of these grids)."""
    with monkeypatch.context() as patch:
        patch.setattr(evolve, "_s_route",
                      lambda sampler, s_grid, *args: (0, s_grid, s_grid[-1], None, False))
        return lien_evolve(spec, s_grid, t_grid)


def _period_gap(spec, rho):
    """max |kappa(s + rho, t) - kappa(s, t)| / max |kappa| on the probes of
    lien_evolve's KdV gate for the grid [0, 2 rho] and KKSH_T."""
    s, t = np.meshgrid(np.linspace(0.0, 2.0 * rho, evolve.GATE_PROBES),
                       np.linspace(0.0, KKSH_T[-1], 6))
    k = spec.kappa_jet(np.stack([s, s + rho]), t, order=0)[0]
    return float(np.abs(k[1] - k[0]).max() / np.abs(k).max())


@pytest.mark.parametrize("mu, start, t_grid", [
    (MU_STAR, 0.0, KKSH_T),       # the README grid [0, 2 rho]
    (0.6, -0.5, [0.0, 0.3]),      # the --wings grid [-rho/2, 3 rho/2]
])
def test_one_period_extension_matches_the_full_transport(monkeypatch, mu, start, t_grid):
    """Phi+- and F+- from one transported period and powers of its
    monodromy (the adjugate for the wings' negative powers) against the
    transport of the whole grid; DOP853 confirms half the one period, the
    bending being even at t = 0."""
    spec = kksh(mu)
    rho = spec.s_period
    s_grid = np.linspace(start * rho, (start + 2.0) * rho, 257)
    spans = _confirm_spans(monkeypatch)
    ev = lien_evolve(spec, s_grid, t_grid)
    assert spans == [(0.0, rho / 2)]
    full = _full_transport(monkeypatch, spec, s_grid, t_grid)
    assert spans[1] == (0.0, float(s_grid[-1]))
    assert rel_err(ev.monodromies, full.monodromies) <= 1e-10
    for fast, ref in zip(ev.paths, full.paths):
        assert rel_err(fast.F, ref.F) <= 1e-10
        assert (fast.kappa == ref.kappa).all()


@pytest.mark.parametrize("spec", [
    KkshSpec.with_quantum_numbers(0.92, 5, 1, 2.0),   # periodic only to 1.6e-6
    KkshSpec(0.6, 0.01, 2.0),                         # no (m, n) constraint
], ids=["5,1-at-0.92", "unquantized"])
def test_aperiodic_bendings_keep_the_full_transport(monkeypatch, spec):
    """A period gap above integrator_rel_tol on the gate's probes: the whole
    grid is transported and confirmed at its far end, exactly as with the
    extension switched off."""
    rho = spec.s_period
    s_grid = np.linspace(0.0, 2.0 * rho, 65)
    assert _period_gap(spec, rho) > DEFAULT.integrator_rel_tol
    spans = _confirm_spans(monkeypatch)
    ev = lien_evolve(spec, s_grid, KKSH_T)
    full = _full_transport(monkeypatch, spec, s_grid, KKSH_T)
    assert spans == [(0.0, 2.0 * rho)] * 2
    assert np.array_equal(ev.monodromies, full.monodromies)
    for path, ref in zip(ev.paths, full.paths):
        assert np.array_equal(path.F, ref.F)


def test_a_two_sided_full_route_passes_its_confirmation(monkeypatch):
    """(5, 1) at mu = 0.92 on the wings grid [-rho/2, 3 rho/2] takes the
    full route (its period gap is 1.6e-6).  Each side is transported from
    s = 0, so Phi(3 rho/2), about 6e54, is not reached by a round trip
    through -rho/2, where |Phi| is about 3e18; along the path 0 -> -rho/2
    -> 3 rho/2 DOP853 missed it by 4.7e22 relative.  The confirmation over
    (0, 3 rho/2) passes, and the frame there agrees with the transport of
    the one-sided grid [0, 3 rho/2]."""
    spec = KkshSpec.with_quantum_numbers(0.92, 5, 1, 2.0)
    rho = spec.s_period
    s_grid = np.linspace(-0.5 * rho, 1.5 * rho, 257)
    spans = _confirm_spans(monkeypatch)
    ev = lien_evolve(spec, s_grid, [0.0, 0.3])
    assert spans == [(0.0, float(s_grid[-1]))]
    one_sided = lien_evolve(spec, s_grid[64:], [0.0, 0.3])
    for path, ref in zip(ev.paths, one_sided.paths):
        assert rel_err(path.F[:, -1], ref.F[:, -1]) <= 1e-11


def test_wings_export_the_one_sided_monodromy_data(tmp_path):
    """`kksh --mn 3,2 --h 2 --mu 0.5 --t 0,0.01` with and without --wings:
    both read the trace drift and the invariants off Phi+-(rho, t) from Id
    at s = 0 (traces about 6.8e8), so they agree.  Read off the wings'
    F(-rho/2), the drift was 669 / 0.732."""
    metas = []
    for wings in ([], ["--wings"]):
        out = tmp_path / f"k{len(wings)}"
        assert main(["kksh", "--mn", "3,2", "--h", "2", "--mu", "0.5", *wings,
                     "--t", "0,0.01", "--invariant-grid", "1", "-o", str(out)]) == 0
        metas.append(json.loads((out / "kksh_t0.json").read_text())["meta"])
    one_sided, wings = metas
    assert max(wings["monodromy_trace_drift"]) <= 1e-4
    assert np.allclose(wings["invariants"], one_sided["invariants"], rtol=1e-13, atol=0.0)


def test_extension_over_many_periods_raises_on_overflow():
    """M+ is hyperbolic (trace 64 at mu*), so its powers over 200 periods
    are past the float range: NumericFailure, as the transport of the whole
    grid gives, not inf or NaN frames."""
    spec = kksh()
    with pytest.raises(NumericFailure, match="s-frames overflow"):
        lien_evolve(spec, np.linspace(0.0, 200.0 * spec.s_period, 2001), [0.0])


@pytest.mark.parametrize("rel_tol", [1e-13, 1e-14])
def test_tight_tolerances_keep_the_one_period_route(monkeypatch, rel_tol):
    """Below the README grid's period gap (about 1.8e-13, the rounding of
    kappa at its arguments) the one-period route stays: its floor, twice
    that rounding, is about 8e-13, and DOP853 confirms (0, rho/2) once, by
    parity."""
    spec = kksh()
    rho = spec.s_period
    assert _period_gap(spec, rho) > rel_tol
    spans = _confirm_spans(monkeypatch)
    lien_evolve(spec, np.linspace(0.0, 2.0 * rho, 257), KKSH_T,
                RunConfig(integrator_rel_tol=rel_tol))
    assert spans == [(0.0, rho / 2)]


@pytest.mark.parametrize("spec", [
    KkshSpec.with_quantum_numbers(0.92, 5, 1, 2.0),
    KkshSpec(0.6, 0.01, 2.0),
], ids=["5,1-at-0.92", "unquantized"])
def test_the_rounding_floor_admits_no_aperiodic_bending(monkeypatch, spec):
    """At integrator_rel_tol 1e-14 the gaps 1.6e-6 and 1.99 stay far above
    the rounding floor: the whole grid is transported and confirmed."""
    rho = spec.s_period
    spans = _confirm_spans(monkeypatch)
    lien_evolve(spec, np.linspace(0.0, 2.0 * rho, 65), [0.0, 0.3],
                RunConfig(integrator_rel_tol=1e-14))
    assert spans == [(0.0, 2.0 * rho)]


def test_t0_snapshot_is_the_s_frames(monkeypatch):
    """F+-(0, 0) = Id is the normalization: A(0) is the identity exactly,
    so lien_evolve's t = 0 snapshot is its extended s-frames Phi(s, 0) bit
    for bit, on a two-sided grid over two periods."""
    extended, t_frames = [], []

    def spy(record, function):
        def wrapped(*args):
            out = function(*args)
            record.append(out)
            return out
        return wrapped

    monkeypatch.setattr(evolve, "floquet_extend", spy(extended, evolve.floquet_extend))
    monkeypatch.setattr(evolve, "_t_frames", spy(t_frames, evolve._t_frames))
    spec = kksh()
    rho = spec.s_period
    ev = lien_evolve(spec, np.linspace(-0.5 * rho, 1.5 * rho, 65), [0.0, 0.3])
    assert ev.one_period
    assert np.array_equal(t_frames[0][0][:, 0], np.broadcast_to(np.eye(2), (2, 2, 2)))
    assert np.array_equal(ev.paths[0].F, extended[0][:, 0])


def test_floquet_extension():
    """floquet_extend on a hyperbolic, an elliptic and a parabolic
    monodromy: k = 0 leaves a frame as it is, a negative k agrees with the
    powers of the LU inverse, and powers past the float range raise."""
    M = np.array([[[2.0, 1.0], [1.0, 1.0]], [[0.5, -1.0], [0.75, 0.5]],
                  [[1.0, 1.0], [0.0, 1.0]]])          # det 1 each
    F = np.random.default_rng(5).normal(size=(3, 7, 2, 2))
    k = np.array([0, 1, -1, 3, -4, 0, 2])
    out = kernel.floquet_extend(M, F, k)
    assert np.array_equal(out[:, k == 0], F[:, k == 0])
    for i in range(3):
        for j, power in enumerate(k):
            base = M[i] if power >= 0 else np.linalg.inv(M[i])
            want = np.linalg.matrix_power(base, abs(power)) @ F[i, j]
            assert np.abs(out[i, j] - want).max() <= 1e-13 * np.abs(want).max()
    with pytest.raises(NumericFailure, match="s-frames overflow over 2000 periods"):
        kernel.floquet_extend(M[0], F[0, :2], [0, -2000])


def test_confirmation_gate_rejects_a_wrong_monodromy(monkeypatch):
    """The extension's M = Phi(rho) off by 1e-6: every extended sample
    inherits it, and the one-period confirmation must catch it."""
    s_frames = evolve._s_frames

    def off_at_rho(*args):
        F = s_frames(*args)
        F[:, :, -1] *= 1.0 + 1e-6
        return F

    monkeypatch.setattr(evolve, "_s_frames", off_at_rho)
    spec = kksh()
    rho = spec.s_period
    with pytest.raises(NumericFailure, match="DOP853"):
        lien_evolve(spec, np.linspace(0.0, 2.0 * rho, 257), [0.0, 0.1])


@pytest.mark.parametrize("half", [False, True], ids=["origin", "half-period"])
def test_short_grids_confirm_the_monodromy(monkeypatch, half):
    """The grids [0] and [0, rho/2] end nearer than rho, yet lien_evolve
    returns Phi+-(rho): the k = 0 route then confirms at rho, by the full
    (0, rho) integration (periodicity is untested there, so no parity), and
    the confirmed frame is M itself, so an M off by 1e-6 raises.  Neither
    grid spans a period, so no period gap is measured."""
    spec = kksh()
    rho = spec.s_period
    s_grid = np.linspace(0.0, rho / 2, 9) if half else [0.0]
    spans = _confirm_spans(monkeypatch)
    ev = lien_evolve(spec, s_grid, [0.0, 0.1])
    assert spans == [(0.0, rho)]
    assert ev.period_gap is None and not ev.one_period
    s_frames = evolve._s_frames

    def off_at_rho(*args):
        F = s_frames(*args)
        F[:, :, -1] *= 1.0 + 1e-6
        return F

    monkeypatch.setattr(evolve, "_s_frames", off_at_rho)
    with pytest.raises(NumericFailure, match="DOP853"):
        lien_evolve(spec, s_grid, [0.0, 0.1])


class Translated:
    """kappa(s + s0, t) of a KKSH spec: rho-periodic and a KdV solution, but
    not even in s at t = 0 (unless s0 is a multiple of rho/2)."""

    def __init__(self, spec, s0):
        self.spec, self.s0, self.s_period = spec, s0, spec.s_period

    def kappa_jet(self, s, t=0.0, order=3):
        return self.spec.kappa_jet(s + self.s0, t, order=order)

    def kappa_t(self, s, t=0.0):
        return self.spec.kappa_t(s + self.s0, t)


@pytest.mark.parametrize("bending", ["kksh", "check"])
def test_even_bendings_give_mirrored_s_frames(bending):
    """kappa(., 0) even gives Phi(-s, 0) = S Phi(s, 0) S (S = diag(1, -1)),
    the rule behind the half-period confirmation; on a symmetric grid the
    two sides are transported separately from s = 0 (measured equal bit for
    bit)."""
    spec = kksh() if bending == "kksh" else CHECK_SPEC
    half = np.linspace(0.0, spec.s_period, 17)
    F = evolve._s_frames([spec], 1.0, 0.0, np.concatenate([-half[:0:-1], half]), DEFAULT)[:, 0]
    S = np.diag([1.0, -1.0])
    assert rel_err(F[:, 15::-1], S @ F[:, 17:] @ S) <= 1e-12


def test_parity_monodromy_on_stacks():
    """parity_monodromy on a (3, 4, 2, 2) stack equals the formula per
    matrix, [[ad + bc, 2ab], [2cd, ad + bc]], and Q S Q^{-1} S for
    unimodular Q."""
    Q = np.random.default_rng(3).normal(size=(3, 4, 2, 2))
    Q /= np.sqrt(np.abs(np.linalg.det(Q)))[..., None, None]
    Q[..., 0, :] *= np.sign(np.linalg.det(Q))[..., None]        # det Q = 1
    M = kernel.parity_monodromy(Q)
    S = np.diag([1.0, -1.0])
    for i, j in np.ndindex(3, 4):
        (a, b), (c, d) = Q[i, j]
        assert np.array_equal(M[i, j], [[a * d + b * c, 2.0 * a * b],
                                        [2.0 * c * d, a * d + b * c]])
        ref = Q[i, j] @ S @ np.linalg.inv(Q[i, j]) @ S
        assert np.abs(M[i, j] - ref).max() <= 1e-13 * np.abs(ref).max()
    assert lame.parity_monodromy is kernel.parity_monodromy


def test_a_translated_bending_keeps_the_full_period_confirmation(monkeypatch):
    """kappa(s + rho/7, t) passes the period test (gap about 5e-14) but is
    not even at t = 0, where parity would miss M by a factor of 5: DOP853
    confirms (0, rho), and passes.  Translated by rho/2 it is even again and
    takes the half period."""
    spec = kksh()
    rho = spec.s_period
    spans = _confirm_spans(monkeypatch)
    evs = [lien_evolve(Translated(spec, shift), np.linspace(0.0, 2.0 * rho, 129), [0.0, 0.3])
           for shift in (rho / 7, rho / 2)]
    assert spans == [(0.0, rho), (0.0, rho / 2)]
    assert all(ev.one_period and ev.period_gap <= DEFAULT.integrator_rel_tol for ev in evs)
    Q = evolve._s_frames([Translated(spec, rho / 7)], 1.0, 0.0, [rho / 2], DEFAULT)[:, 0, 0]
    assert rel_err(kernel.parity_monodromy(Q), evs[0].monodromies[:, 0]) > 1.0


def test_monodromy_drift_at_the_largest_kksh_time():
    """At t = 1.611855 |A+| is about 2.4e9 and its float det is 0, so an LU
    inverse of the frame raises; the raw drift must still be a number."""
    spec = kksh()
    rho = spec.s_period
    ev = lien_evolve(spec, np.linspace(0.0, rho, 9), KKSH_T)
    assert np.abs(ev.paths[-1].F[0, 0]).max() > 1e9
    assert math.isfinite(ev.monodromy_drift(rho))


def test_kksh_snapshots_are_finite(tmp_path):
    """At t = 1.07457 |A+| is about 2e6; no sample may be NaN or infinite."""
    out = tmp_path / "k"
    assert main(["kksh", "--mn", "1,6", "--h", "2", "--mu", "0.6150396634",
                 "--t", "0,1.07457", "--invariant-grid", "2", "-o", str(out)]) == 0
    doc = json.loads((out / "kksh_t1.07457.json").read_text())
    values = [v for sample in doc["samples"]
              for v in [sample["x"], sample["y"], sample["z"], *sample["matrix"]]]
    assert len(values) == 257 * 7
    assert all(math.isfinite(v) for v in values)
    for name in ("kksh_t1.07457.obj", "kksh_t1.07457_cousin_plus.csv",
                 "kksh_t1.07457_cousin_minus.csv"):
        text = (out / name).read_text().lower()
        assert "nan" not in text and "inf" not in text


# ------------------------------------------------- the KKSH period lattice

LATTICE_SPECS = {
    "readme": kksh(),
    "3,2": KkshSpec.with_quantum_numbers(0.5, 3, 2, 2.0),
    "1,3": KkshSpec.with_quantum_numbers(0.5, 1, 3, 1.0),     # m, n odd: d = 2
}


def _jets(spec, s, t):
    """(kappa, kappa_s, kappa_t) on a mesh."""
    k0, k1 = spec.kappa_jet(s, t, order=1)
    return np.stack([k0, k1, spec.kappa_t(s, t)])


@pytest.mark.parametrize("name", list(LATTICE_SPECS))
def test_lattice_vectors_leave_kappa_invariant(name):
    """On a probe mesh over [0, 2 rho] x [0, 1.61], l1 = +-(rho, ~0) and l2
    (least t > 0, s in [0, rho)) leave kappa, kappa_s and kappa_t invariant
    to rounding; the half-period shifts (a, b) = (1, 0) and (0, 1), of the
    other parity class, flip phi and move kappa by its own size."""
    spec = LATTICE_SPECS[name]
    rho = spec.s_period
    (s1, t1), (s2, t2) = spec.lattice
    assert abs(abs(s1) - rho) <= 1e-12 * rho and 0.0 <= t1 <= 1e-12 * t2
    assert t2 > 0.0 and 0.0 <= s2 < rho
    s, t = np.meshgrid(np.linspace(0.0, 2.0 * rho, 12), np.linspace(0.0, KKSH_T[-1], 6))
    ref = _jets(spec, s, t)
    scale = np.abs(ref).max(axis=(1, 2))
    for ds, dt in spec.lattice:
        assert (np.abs(_jets(spec, s + ds, t + dt) - ref).max(axis=(1, 2)) <= 1e-11 * scale).all()
    W = np.array([[spec.w_plus, spec.v_plus], [spec.w_minus, spec.v_minus]])
    K = np.array([complete_elliptic(spec.mu)[0], complete_elliptic(spec.tau)[0]])
    for ab in ([1, 0], [0, 1]):
        ds, dt = np.linalg.solve(W, 2.0 * K * ab)
        assert np.abs(_jets(spec, s + ds, t + dt)[0] - ref[0]).max() > 0.1 * scale[0]


def _direct(spec, t_grid):
    return transport(evolve._t_generator(spec), t_grid, DEFAULT.integrator_rel_tol)


@pytest.mark.parametrize("cells", [1, 100, 842])
def test_lattice_route_matches_the_direct_transport(cells):
    """A+-(t) = C1^n1 C2^n2 F(x_r) on the README bending at 1, 100 and 842
    cells (the README t-grid) against the transport along s = 0 (the two
    read 1.0e-11 apart at 842 cells, each about 1e-11 from DOP853); the
    holonomies commute to rounding."""
    spec = kksh()
    t2 = spec.lattice[1, 1]
    t_grid = KKSH_T if cells == 842 else [0.0, (cells + 0.5) * t2]
    ev = lien_evolve(spec, [0.0], t_grid)
    A = np.stack([p.F[:, 0] for p in ev.paths], axis=1)
    assert ev.cells[-1, 1] == cells and ev.commutator <= 1e-12
    assert rel_err(A, _direct(spec, t_grid)) <= 1e-10


def test_lattice_route_over_fat_cells():
    """(3, 2) at mu = 0.5, t in [0, 10]: cells 1.415 high, |A| up to 5e204.
    Each factor picks the remainder whose error is amplified least (the
    other missed by 1.8 at t = 5); the route reads within 1e-10 of the
    transport along s = 0."""
    spec = LATTICE_SPECS["3,2"]
    t_grid = np.linspace(0.0, 10.0, 21)
    ev = lien_evolve(spec, [0.0], t_grid)
    A = np.stack([p.F[:, 0] for p in ev.paths], axis=1)
    direct = _direct(spec, t_grid)
    assert np.abs(direct[:, -1]).max() > 1e200
    assert ev.cells[-1].tolist() == [1, 7] and ev.commutator <= 1e-12
    assert rel_err(A, direct) <= 1e-10


def test_the_first_cell_is_the_direct_transport():
    """(5, 1) at mu = 0.92 has t2 = 402: every t of the README grid has n = 0,
    so A is the transport along s = 0, byte for byte."""
    spec = KkshSpec.with_quantum_numbers(0.92, 5, 1, 2.0)
    assert spec.lattice[1, 1] > 400.0
    A, cells, commutator = evolve._t_frames(spec, np.array(KKSH_T), DEFAULT)
    assert not cells.any() and commutator is None
    assert np.array_equal(A, _direct(spec, KKSH_T))


def test_a_cancelling_holonomy_takes_the_direct_transport():
    """(4, 3) at mu = 0.3, h = 1: the path to l2 amplifies the transport's
    error by 4e5 in the plus factor (the lattice route missed DOP853 by up to
    1.2e-9, against 3e-12 along s = 0), so every t is transported directly."""
    spec = KkshSpec.with_quantum_numbers(0.3, 4, 3, 1.0)
    t_grid = np.array([0.0, 1.5, 2.5, 3.5, 4.5]) * spec.lattice[1, 1]
    A, cells, commutator = evolve._t_frames(spec, t_grid, DEFAULT)
    assert not cells.any() and commutator is None
    assert np.array_equal(A[:, 1:], _direct(spec, t_grid[1:]))


def _commuting_pair(D, sigma, r, number=float):
    """C1 = sigma1 sqrt(1 + D) I + P and C2 = sigma2 sqrt(1 + r^2 D) I + r P,
    unimodular and commuting, with P^2 = D I, as nested lists of number
    (float, or Decimal for an exact reference)."""
    p, q, D, r = number("0.3"), number("0.7"), number(repr(D)), number(repr(r))
    P = [[p, q], [(D - p * p) / q, -p]]
    c = [sigma[0] * (1 + D).sqrt() if number is Decimal else sigma[0] * math.sqrt(1 + D),
         sigma[1] * (1 + r * r * D).sqrt() if number is Decimal
         else sigma[1] * math.sqrt(1 + r * r * D)]
    return [[[c[i] * (a == b) + f * P[a][b] for b in range(2)] for a in range(2)]
            for i, f in enumerate((1, r))]


def _exact_power(C, k):
    """C^k of a unimodular 2x2 list-matrix, the adjugate for k < 0."""
    (a, b), (c, d) = C
    base = C if k >= 0 else [[d, -b], [-c, a]]
    out = [[1, 0], [0, 1]]
    for _ in range(abs(k)):
        out = [[sum(out[i][m] * base[m][j] for m in range(2)) for j in range(2)]
               for i in range(2)]
    return out


@pytest.mark.parametrize("D", [4.0, 1e-10, 0.0, -1e-10, -0.5])
@pytest.mark.parametrize("sigma", [(1, 1), (-1, 1), (1, -1), (-1, -1)])
def test_lattice_power_against_exact_powers(D, sigma):
    """C1^n1 C2^n2 from the closed form against products of exact powers
    (40 digits; the adjugate for negative powers): hyperbolic,
    near-parabolic on either side, parabolic and elliptic pairs, each
    holonomy of either sign; and C_i^k of each alone (one holonomy, as
    floquet_extend takes it), I exactly at k = 0.  Float powers are no
    reference: at D = 4 and n = (12, 9) they cancel by 1e8."""
    getcontext().prec = 40
    C = np.array(_commuting_pair(D, sigma, -0.6))
    exact = _commuting_pair(D, sigma, -0.6, Decimal)
    n = np.array([[0, 0], [1, 0], [0, 1], [3, -2], [-5, 7], [12, 9], [-11, -4]])
    Pi = kernel.lattice_power(C, n)
    assert Pi.shape == (len(n), 2, 2)
    for (n1, n2), got in zip(n, Pi):
        A, B = _exact_power(exact[0], int(n1)), _exact_power(exact[1], int(n2))
        want = np.array([[float(sum(A[i][m] * B[m][j] for m in range(2))) for j in range(2)]
                         for i in range(2)])
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    k = np.array([0, 1, -1, 4, -7, 12, -11])
    for i in range(2):
        Pi = kernel.lattice_power(C[i:i + 1], k[:, None])
        assert Pi.shape == (len(k), 2, 2)
        assert np.array_equal(Pi[0], np.eye(2))
        for power, got in zip(k, Pi):
            want = np.array(_exact_power(exact[i], int(power)), dtype=float)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_lattice_power_of_central_holonomies():
    """C = +-I, one holonomy or two: (+-1)^n I exactly, at any n; beside a
    hyperbolic holonomy, whose traceless part is then the base, -I only
    signs its powers."""
    C = np.array([np.eye(2), -np.eye(2)])
    n = np.array([[0, 0], [1, 0], [-2, 3], [2000, -2001], [-7, 0]])
    sign = np.where(n[:, 1] % 2, -1.0, 1.0)[:, None, None]
    assert np.array_equal(kernel.lattice_power(C, n), sign * np.eye(2))
    assert np.array_equal(kernel.lattice_power(C[:1], n[:, :1]),
                          np.broadcast_to(np.eye(2), (len(n), 2, 2)))
    assert np.array_equal(kernel.lattice_power(C[1:], n[:, 1:]), sign * np.eye(2))
    C[0] = _commuting_pair(4.0, (1, 1), 0.5)[0]
    n[3] = [20, -2001]
    assert np.array_equal(kernel.lattice_power(C, n),
                          sign * kernel.lattice_power(C[:1], n[:, :1]))


def test_lattice_power_on_factor_stacks():
    """A leading factor axis, (factors, 2, 2, 2), gives (factors, m, 2, 2)."""
    C = np.array([_commuting_pair(4.0, (1, -1), 0.5), _commuting_pair(-0.5, (-1, 1), 1.2)])
    n = np.array([[2, -3], [-1, 4]])
    Pi = kernel.lattice_power(C, n)
    assert Pi.shape == (2, 2, 2, 2)
    for f in range(2):
        assert np.array_equal(Pi[f], kernel.lattice_power(C[f], n))


def test_holonomies_from_different_factors_fail_the_commutator_gate(monkeypatch):
    """The minus factor's l2-holonomy built on the plus factor's s-frame:
    C1 and C2 no longer commute, and NumericFailure names the gate."""
    s_frames = evolve._s_frames

    def crossed(samplers, scale, t, grid, config):
        F = s_frames(samplers, scale, t, grid, config)
        if list(grid) == [1.0]:
            F[1, -1] = F[0, -1]
        return F

    monkeypatch.setattr(evolve, "_s_frames", crossed)
    with pytest.raises(NumericFailure, match="holonomies commute only to"):
        lien_evolve(kksh(), [0.0], [0.0, 0.3])


def test_dop853_oracles_have_a_work_budget(monkeypatch):
    """lame_monodromy and the s-frame confirmation run budgeted_dop853(): past
    MAX_RHS_CALLS right-hand sides each raises NumericFailure."""
    monkeypatch.setattr(lame, "MAX_RHS_CALLS", 100)
    with pytest.raises(NumericFailure, match="DOP853 needs more than 100 right-hand sides"):
        lame.lame_monodromy(0.9, [2.2, 5.0])
    spec = kksh()
    with pytest.raises(NumericFailure, match="DOP853 needs more than 100 right-hand sides"):
        lien_evolve(spec, np.linspace(0.0, 2.0 * spec.s_period, 9), [0.0])


def test_the_budget_changes_no_run(monkeypatch):
    """With the budget and with scipy's own DOP853, the two oracle runs make
    the same right-hand-side calls and return the same bytes."""
    runs = []

    def spy(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        runs.append((kwargs["method"], sol.nfev, sol.y[:, -1]))
        return sol

    spec = kksh()
    s_grid = np.linspace(0.0, 2.0 * spec.s_period, 9)
    monkeypatch.setattr(lame, "solve_ivp", spy)
    monkeypatch.setattr(evolve, "solve_ivp", spy)
    budgeted = [lame.lame_monodromy(0.9, [2.2, 5.0]), lien_evolve(spec, s_grid, [0.0]).paths[0].F]
    method = lame.budgeted_dop853()
    monkeypatch.setattr(lame, "budgeted_dop853", lambda: "DOP853")
    monkeypatch.setattr(evolve, "budgeted_dop853", lambda: "DOP853")
    free = [lame.lame_monodromy(0.9, [2.2, 5.0]), lien_evolve(spec, s_grid, [0.0]).paths[0].F]
    assert [run[0] for run in runs] == [method] * 2 + ["DOP853"] * 2
    for (_, nfev, y), (_, nfev_free, y_free) in zip(runs[:2], runs[2:]):
        assert nfev == nfev_free and np.array_equal(y, y_free)
    for a, b in zip(budgeted, free):
        assert np.array_equal(a, b)
