"""The frame-transport kernel (Taylor panels) against DOP853 at rtol 1e-13:
the KKSH t-system and s-monodromies, single and batched, and the two-step
evolution of a stationary bending; batched t-slices and h+- pairs against
separate transports, dense output, the panel ladders and transport counts,
the block products, unimodularity, the panel cap, the DOP853 confirmation
gate of lien_evolve, its one-period extension by the s-monodromy and the
fallbacks to the full transport, and the accepted range of
integrator_rel_tol."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ads_null_flows import lame
from ads_null_flows import transport as kernel
from ads_null_flows.cli import main
from ads_null_flows.config import DEFAULT, NumericFailure
from ads_null_flows.kdvsol import KkshSpec, StationaryBending
from ads_null_flows.nullcurve import (
    evolve,
    evolve_stationary_path,
    lien_evolve,
    stationary_curve,
)
from ads_null_flows.specfun import complete_elliptic
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


def t_rhs(sampler):
    def rhs(t, y):
        k0, k1, k2 = sampler.kappa_jet(0.0, float(t), order=2)
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
    A = transport(evolve._t_generator(kksh()), 0.0, KKSH_T, rel_tol)
    assert rel_err(A, kksh_t_reference) <= 1e-10


def test_taylor_panel_propagators_are_unimodular():
    """Each panel factor, from all terms and without the last one, has det
    1 to rounding."""
    centre = np.linspace(0.0, 1.6, 300)
    half = np.full_like(centre, 4e-4)
    radii = []
    _, _, P = kernel._panels(evolve._t_generator(kksh()), centre, half, radii)
    assert P[0].shape == (4, 300)
    det = P[0] * P[3] - P[1] * P[2]
    assert np.abs(det - 1.0).max() <= 1e-13
    assert np.abs(P[0][:2] - P[0][2:]).max() > 0.0      # the two truncations differ
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

    def counting(generator, knots, bounds, counts, radii):
        ladders[-1].append(int(counts.sum()))
        return sweep(generator, knots, bounds, counts, radii)

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
    """lien_evolve on the README grids: the t-system takes one predicted
    level, and each of the two transports of the four s-systems (BATCH = 2
    t-slices each) at most one."""
    ladders = _ladders(monkeypatch)
    spec = kksh()
    lien_evolve(spec, np.linspace(0.0, 2.0 * spec.s_period, 257), KKSH_T)
    assert len(ladders) == 3 and _predictions(ladders[0]) == 1
    for ladder in ladders[1:]:
        _predictions(ladder)


@pytest.mark.parametrize("mu", [0.3, MU_STAR, 0.8])
def test_kksh_t_system_accepts_the_predicted_panels(monkeypatch, mu):
    """The t-system's ladder: the first level, then the level its root test
    predicts, accepted without a doubling."""
    ladders = _ladders(monkeypatch)
    kernel.transport(evolve._t_generator(kksh(mu)), 0.0, KKSH_T,
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
    three transports of the five s-systems of the `check` evolution."""
    ladders = _ladders(monkeypatch)
    spec = CHECK_SPEC
    lien_evolve(spec, np.linspace(0.0, spec.s_period, 17), np.linspace(0.0, 0.2, 5))
    assert len(ladders) == 4 and len(ladders[0]) == 1
    for ladder in ladders[1:]:
        _predictions(ladder)


def test_mu_star_ladders_end_at_most_one_prediction(monkeypatch):
    """Every transport of the mu* search (the batched scan pairs and each
    brentq refinement) accepts its first level or the one level predicted
    from it: none misses its prediction and refines again."""
    ladders = _ladders(monkeypatch)
    evolve.kksh_mu_star(1, 6, 2.0)
    assert len(ladders) > 12 // evolve.BATCH       # the scan, then brentq
    for ladder in ladders:
        _predictions(ladder)


def test_dense_output_panels_do_not_follow_the_grid(monkeypatch):
    """fundamental_ode on 1,025 and on 16,385 samples of the same span
    sweeps the same panel levels, and the samples they share agree."""
    ladders = _ladders(monkeypatch)
    K, _ = complete_elliptic(0.9)
    coarse = lame.fundamental_ode(0.9, 2.2, np.linspace(-2.0 * K, 8.0 * K, 1025))
    fine = lame.fundamental_ode(0.9, 2.2, np.linspace(-2.0 * K, 8.0 * K, 16385))
    assert len(ladders) == 2 and ladders[0] == ladders[1], ladders
    assert rel_err(coarse, fine[::16]) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 7, 257])
def test_prefix_scan_ends_at_the_sequential_product(n):
    """The last prefix entry, the product that each block folds into the
    running frame, is E_0 E_1 ... E_{n-1}, odd lengths and one past a
    power of two included; the factors are random with det 1."""
    rng = np.random.default_rng(n)
    p = rng.uniform(0.5, 2.0, size=(2, n))
    q, r = rng.normal(scale=0.5, size=(2, 2, n))
    E = (p, q, r, (1.0 + q * r) / p)
    prefix = kernel._as_matrices(kernel._prefix(E))
    assert prefix.shape == (2, n, 2, 2)
    matrices = kernel._as_matrices(E)
    product = np.broadcast_to(np.eye(2), (2, 2, 2))
    for i in range(n):
        product = product @ matrices[:, i]
    assert rel_err(prefix[:, -1], product) <= 1e-12


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
    A = transport(evolve._t_generator(spec), 0.0, t_grid, DEFAULT.integrator_rel_tol)
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
        kernel.transport(evolve._t_generator(kksh()), 0.0, KKSH_T, 1e-12)
    assert len(ladders) == 1 and len(ladders[0]) == 1     # the first level only


def test_taylor_huge_span_raises_without_warnings():
    """t up to 1e300: the first level's panels are 1e297 wide, overflow
    (a miss, silently) and predict far more panels than the cap."""
    with pytest.raises(NumericFailure, match="panels"):
        transport(evolve._t_generator(kksh()), 0.0, [1e300], 1e-12)


def test_kksh_at_a_huge_time_exits_1(tmp_path, capsys):
    assert main(["kksh", "--mn", "1,6", "--h", "2", "--mu", "0.6", "--t", "1e300",
                 "--invariant-grid", "2", "-o", str(tmp_path / "k")]) == 1
    assert "numeric failure" in capsys.readouterr().err


def test_taylor_non_finite_coefficient_raises():
    def blow_up(x):
        return 0.0, x * np.nan, 1.0

    with pytest.raises(NumericFailure, match="non-finite"):
        transport(blow_up, 0.0, [1.0], 1e-12)


def test_non_finite_frames_raise():
    """Finite coefficients whose frame series overflows: every level
    misses, and the level predicted from a zero radius exceeds the cap."""
    def blow_up(x):
        return 0.0, 1e300 + 0.0 * x, 1.0

    with pytest.raises(NumericFailure, match="panels"):
        transport(blow_up, 0.0, [1.0], 1e-12)


def test_non_finite_grid_is_rejected():
    with pytest.raises(ValueError, match="finite"):
        transport(evolve._t_generator(kksh()), 0.0, [0.5, math.nan], 1e-12)


def test_empty_grid_is_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        transport(evolve._t_generator(kksh()), 0.0, [], 1e-12)


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
    t-system and one of the two s-systems (BATCH = 2); the trace drift
    reads lien_evolve's s-frames and transports nothing."""
    calls = []

    def counted(*args):
        calls.append(args)
        return transport(*args)

    monkeypatch.setattr(evolve, "transport", counted)
    assert main(["kksh", "--mn", "1,6", "--h", "2", "--mu", "0.6", "--t", "0,0.3",
                 "--invariant-grid", "0", "-o", str(tmp_path / "k")]) == 0
    assert len(calls) == 2


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
    """lien_evolve with the one-period extension switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(evolve, "period_gap", lambda *args: math.inf)
        return lien_evolve(spec, s_grid, t_grid)


@pytest.mark.parametrize("mu, start, t_grid", [
    (MU_STAR, 0.0, KKSH_T),       # the README grid [0, 2 rho]
    (0.6, -0.5, [0.0, 0.3]),      # the --wings grid [-rho/2, 3 rho/2]
])
def test_one_period_extension_matches_the_full_transport(monkeypatch, mu, start, t_grid):
    """Phi+- and F+- from one transported period and powers of its
    monodromy (the adjugate for the wings' negative powers) against the
    transport of the whole grid; DOP853 confirms the one period only."""
    spec = kksh(mu)
    rho = spec.s_period
    s_grid = np.linspace(start * rho, (start + 2.0) * rho, 257)
    spans = _confirm_spans(monkeypatch)
    ev = lien_evolve(spec, s_grid, t_grid)
    assert spans == [(0.0, rho)]
    full = _full_transport(monkeypatch, spec, s_grid, t_grid)
    assert spans[1] == (0.0, float(s_grid[-1]))
    for fast, ref in zip(ev.s_paths + ev.paths, full.s_paths + full.paths):
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
    s_probe = np.linspace(0.0, 2.0 * rho, evolve.GATE_PROBES)
    t_probe = np.linspace(0.0, KKSH_T[-1], 6)
    assert evolve.period_gap(spec, s_probe, t_probe, rho) > DEFAULT.integrator_rel_tol
    spans = _confirm_spans(monkeypatch)
    ev = lien_evolve(spec, s_grid, KKSH_T)
    full = _full_transport(monkeypatch, spec, s_grid, KKSH_T)
    assert spans == [(0.0, 2.0 * rho)] * 2
    for path, ref in zip(ev.s_paths + ev.paths, full.s_paths + full.paths):
        assert np.array_equal(path.F, ref.F)


def test_extension_over_many_periods_raises_on_overflow():
    """M+ is hyperbolic (trace 64 at mu*), so its powers over 200 periods
    are past the float range: NumericFailure, as the transport of the whole
    grid gives, not inf or NaN frames."""
    spec = kksh()
    with pytest.raises(NumericFailure, match="s-frames overflow"):
        lien_evolve(spec, np.linspace(0.0, 200.0 * spec.s_period, 2001), [0.0])


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
