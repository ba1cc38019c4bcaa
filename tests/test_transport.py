"""The frame-transport kernels against DOP853 at rtol 1e-13 and against
each other: the KKSH t-system (Taylor panels in lien_evolve, Magnus as a
kernel test) and s-monodromies, single and batched, the two-step evolution
of a stationary bending, the order of the Magnus scheme, the step and panel
ladders, unimodularity, the refinement caps, the DOP853 confirmation gate
of lien_evolve and the accepted range of integrator_rel_tol."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ads_null_flows import transport as kernel
from ads_null_flows.cli import main
from ads_null_flows.config import DEFAULT
from ads_null_flows.kdvsol import KkshSpec, StationaryBending
from ads_null_flows.nullcurve import evolve, lien_evolve
from ads_null_flows.transport import IntegrationFailure, transport

MU_STAR = 0.6150396634356605
KKSH_T = [0.0, 0.537285, 1.07457, 1.611855]


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
    A = np.stack([[p.Fplus[0] for p in ev.paths], [p.Fminus[0] for p in ev.paths]])
    assert np.abs(A[0, -1]).max() > 1e9
    assert rel_err(A, kksh_t_reference) <= 1e-9


@pytest.mark.parametrize("rel_tol", [1e-12, 1e-30])
def test_taylor_t_system_matches_magnus_and_dop853(kksh_t_reference, rel_tol):
    """The two kernels share no discretisation; a tolerance below the
    rounding is met at the rounding floor."""
    generator = evolve._t_generator(kksh())
    A = kernel.taylor_transport(generator, 0.0, KKSH_T, rel_tol)
    assert rel_err(A, kernel.transport(generator, 0.0, KKSH_T, 1e-12)) <= 1e-11
    assert rel_err(A, kksh_t_reference) <= 1e-10


def test_taylor_panel_propagators_are_unimodular():
    """Each panel factor, from all terms and without the last one, has det
    1 to rounding."""
    x = np.linspace(0.0, 1.6, 300)
    h = np.full_like(x, 8e-4)
    radii = []
    P = kernel._taylor_factors(evolve._t_generator(kksh()), x, h, radii)
    assert P[0].shape == (4, 300)
    det = P[0] * P[3] - P[1] * P[2]
    assert np.abs(det - 1.0).max() <= 1e-13
    assert np.abs(P[0][:2] - P[0][2:]).max() > 0.0      # the two truncations differ
    assert radii[0].shape == (300,) and np.all(h / 2 < radii[0])


@pytest.mark.parametrize("mu", [0.3, 0.6, MU_STAR])
def test_s_monodromy_matches_dop853(mu):
    spec = kksh(mu)
    rho = spec.s_period()
    F = np.stack(evolve.kksh_frames_t0(spec, rho))[:, None]
    assert rel_err(F, dop853(s_rhs(spec, 0.0), 0.0, [rho])) <= 1e-10


def test_batched_monodromies_match_dop853():
    """Specs stacked along the factor axis, each rescaled onto sigma in
    [0, 1], with their own rho and t, against one DOP853 run per spec and
    against separate transports."""
    specs = [kksh(mu) for mu in (0.3, 0.6, MU_STAR)]
    rho = [spec.s_period() for spec in specs]
    rho[1] *= 0.5
    t = [0.0, 0.2, 0.4]
    Fp, Fm = evolve.kksh_frames_t0(specs, rho, t)
    assert Fp.shape == Fm.shape == (3, 2, 2)
    for i, spec in enumerate(specs):
        F = np.stack([Fp[i], Fm[i]])[:, None]
        assert rel_err(F, dop853(s_rhs(spec, t[i]), 0.0, [rho[i]])) <= 1e-10
        single = np.stack(evolve.kksh_frames_t0(spec, rho[i], t[i]))[:, None]
        assert rel_err(F, single) <= 1e-11
    assert [F.shape for F in evolve.kksh_frames_t0([])] == [(0, 2, 2)] * 2


def test_lien_evolve_matches_dop853_on_the_check_bending():
    """The stationary bending and the grids of the `check` command."""
    spec = StationaryBending(0.9, 0.9300299176777007, 2.225980871712621)
    s_grid = np.linspace(0.0, spec.s_period, 17)
    t_grid = np.linspace(0.0, 0.2, 5)
    ev = lien_evolve(spec, s_grid, t_grid)
    A = dop853(t_rhs(spec), 0.0, t_grid)
    for j, t in enumerate(t_grid):
        ref = dop853(s_rhs(spec, t), 0.0, s_grid, F0=A[:, j])
        assert rel_err(np.stack([ev.paths[j].Fplus, ev.paths[j].Fminus]), ref) <= 1e-10


def test_error_ratio_on_halving_the_step():
    spec = kksh()
    generator = evolve._s_generator(spec, 0.0)
    rho = spec.s_period()
    ref = dop853(s_rhs(spec, 0.0), 0.0, [rho])
    err = [rel_err(kernel._sweep(generator, np.array([0.0, rho]), np.array([n])), ref)
           for n in (64, 128, 256)]
    for coarse, fine in zip(err, err[1:]):
        assert coarse / fine == pytest.approx(2.0 ** kernel.ORDER, rel=0.25)


def _ladders(monkeypatch, kernels=("magnus",)):
    """Record the step or panel total of every sweep of the given kernels,
    one list per transport call (a call starts where the kernel changes or
    the total falls back to a first level), and the kernel of each list."""
    ladders = []
    ladders_kernels = []
    sweep = kernel._sweep

    def counting(generator, knots, counts, *args):
        name = "taylor" if args else "magnus"
        if name in kernels:
            total = int(counts.sum())
            if not ladders or ladders_kernels[-1] != name or total < ladders[-1][-1]:
                ladders.append([])
                ladders_kernels.append(name)
            ladders[-1].append(total)
        return sweep(generator, knots, counts, *args)

    monkeypatch.setattr(kernel, "_sweep", counting)
    return ladders, ladders_kernels


def _predictions(ladder):
    """How many levels were predicted; every level before the last must be
    a doubling, so a predicted level is accepted the first time."""
    ratios = [fine / coarse for coarse, fine in zip(ladder, ladder[1:])]
    assert ratios and all(r == 2.0 for r in ratios[:-1]), ladder
    return int(ratios[-1] > 2.0)


def test_kksh_t_system_accepts_the_predicted_level(monkeypatch):
    ladders, _ = _ladders(monkeypatch)
    transport(evolve._t_generator(kksh()), 0.0, KKSH_T, DEFAULT.integrator_rel_tol)
    assert len(ladders) == 1 and _predictions(ladders[0]) == 1


@pytest.mark.parametrize("mu", [0.3, MU_STAR, 0.8])
def test_kksh_t_system_accepts_the_predicted_panels(monkeypatch, mu):
    """The Taylor ladder of lien_evolve: the first level, then the level its
    root test predicts, accepted without a doubling."""
    ladders, _ = _ladders(monkeypatch, ("taylor",))
    kernel.taylor_transport(evolve._t_generator(kksh(mu)), 0.0, KKSH_T,
                            DEFAULT.integrator_rel_tol)
    assert len(ladders) == 1 and len(ladders[0]) == 2, ladders
    assert ladders[0][1] > 2 * ladders[0][0]


@pytest.mark.parametrize("mu", [0.3, 0.6, MU_STAR])
def test_s_monodromy_accepts_the_predicted_level(monkeypatch, mu):
    ladders, _ = _ladders(monkeypatch)
    evolve.kksh_frames_t0(kksh(mu))
    assert len(ladders) == 1 and _predictions(ladders[0]) == 1


def test_check_bending_ladders_end_at_most_one_prediction(monkeypatch):
    """The t-system (Taylor panels, accepted at its first level on this
    short grid) and the five s-systems (Magnus) of the `check` evolution."""
    ladders, kernels = _ladders(monkeypatch, ("magnus", "taylor"))
    spec = StationaryBending(0.9, 0.9300299176777007, 2.225980871712621)
    lien_evolve(spec, np.linspace(0.0, spec.s_period, 17), np.linspace(0.0, 0.2, 5))
    assert kernels == ["taylor"] + ["magnus"] * 5
    assert len(ladders[0]) == 1
    for ladder in ladders[1:]:
        _predictions(ladder)


def test_mu_star_ladders_end_at_most_one_prediction(monkeypatch):
    """Every transport of the mu* search (the batched scan pairs and each
    brentq refinement) doubles, then accepts at most one predicted level:
    none misses its prediction and refines again."""
    ladders, _ = _ladders(monkeypatch)
    evolve.kksh_mu_star(1, 6, 2.0)
    assert len(ladders) > 12 // evolve.BATCH       # the scan, then brentq
    for ladder in ladders:
        _predictions(ladder)


@pytest.mark.parametrize("n", [1, 2, 7, 1000, 1023])
def test_tree_product_matches_the_prefix_scan(n):
    """The monodromy-only product of a block, odd lengths included, is the
    last entry of the prefix scan that dense output uses."""
    rng = np.random.default_rng(n)
    E = kernel._step_factors(*(rng.normal(size=(2, 3, n)) for _ in range(3)),
                             rng.uniform(0.0, 0.1, size=n))
    tree = kernel._as_matrices(kernel._tree(E), -1)
    prefix = kernel._as_matrices(kernel._prefix(E), -1)
    assert rel_err(tree, prefix) <= 1e-12


def test_unimodular_by_construction():
    """Every sample of a dense, moderate-norm path has det 1 to rounding."""
    spec = StationaryBending(0.9, 0.9300299176777007, 2.225980871712621)
    grid = np.linspace(-spec.s_period, spec.s_period, 513)
    F = transport(evolve._s_generator(spec, 0.0), 0.0, grid, 1e-12)
    assert np.abs(F).max() < 20.0
    assert np.abs(np.linalg.det(F) - 1.0).max() <= 1e-13


def test_refinement_cap_raises(monkeypatch):
    """A tolerance out of reach of the step cap fails instead of hanging."""
    monkeypatch.setattr(kernel, "MAX_STEPS", 4096)
    with pytest.raises(IntegrationFailure, match="steps"):
        transport(evolve._t_generator(kksh()), 0.0, KKSH_T, 1e-12)


def test_taylor_panel_cap_raises(monkeypatch):
    """A panel count beyond the cap fails before that level is swept."""
    ladders, _ = _ladders(monkeypatch, ("taylor",))
    monkeypatch.setattr(kernel, "MAX_PANELS", 1000)
    with pytest.raises(IntegrationFailure, match="panels"):
        kernel.taylor_transport(evolve._t_generator(kksh()), 0.0, KKSH_T, 1e-12)
    assert len(ladders) == 1 and len(ladders[0]) == 1     # the first level only


def test_taylor_huge_span_raises_without_warnings():
    """t up to 1e300: the first level's panels are 1e297 wide, overflow
    (a miss, silently) and predict far more panels than the cap."""
    with pytest.raises(IntegrationFailure, match="panels"):
        kernel.taylor_transport(evolve._t_generator(kksh()), 0.0, [1e300], 1e-12)


def test_kksh_at_a_huge_time_exits_1(tmp_path, capsys):
    assert main(["kksh", "--mn", "1,6", "--h", "2", "--mu", "0.6", "--t", "1e300",
                 "--invariant-grid", "2", "-o", str(tmp_path / "k")]) == 1
    assert "numeric failure" in capsys.readouterr().err


def test_taylor_non_finite_coefficient_raises():
    def blow_up(x):
        return 0.0, x * np.nan, 1.0

    with pytest.raises(IntegrationFailure, match="non-finite"):
        kernel.taylor_transport(blow_up, 0.0, [1.0], 1e-12)


def test_non_finite_frames_raise():
    def blow_up(x):
        return 0.0, np.full((2, x.size), np.nan), 1.0

    with pytest.raises(IntegrationFailure, match="non-finite"):
        transport(blow_up, 0.0, [1.0], 1e-12)


def test_non_finite_grid_is_rejected():
    with pytest.raises(ValueError, match="finite"):
        transport(evolve._s_generator(kksh(), 0.0), 0.0, [0.5, math.nan], 1e-12)


def test_empty_grid_is_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        transport(evolve._s_generator(kksh(), 0.0), 0.0, [], 1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rel_tol", ["1e-4", "1e-8", "1e-14", "1e-30"])
def test_kksh_runs_over_the_tolerance_range(tmp_path, rel_tol):
    """Loose tolerances widen the DOP853 confirmation bound with DOP853's own
    error; tolerances below the rounding are met at the rounding."""
    assert main(["--set", f"integrator_rel_tol={rel_tol}", "kksh", "--mn", "1,6",
                 "--h", "2", "--mu", "0.6", "--t", "0,0.05", "--invariant-grid", "2",
                 "-o", str(tmp_path / "k")]) == 0


def test_confirmation_gate_rejects_a_wrong_kernel(monkeypatch):
    def off_by_1e6(*args):
        return transport(*args) * (1.0 + 1e-6)

    monkeypatch.setattr(evolve, "transport", off_by_1e6)
    spec = kksh()
    with pytest.raises(IntegrationFailure, match="DOP853"):
        lien_evolve(spec, np.linspace(0.0, spec.s_period(), 9), [0.0, 0.1])


def test_monodromy_drift_at_the_largest_kksh_time():
    """At t = 1.611855 |A+| is about 2.4e9 and its float det is 0, so an LU
    inverse of the frame raises; the raw drift must still be a number."""
    spec = kksh()
    rho = spec.s_period()
    ev = lien_evolve(spec, np.linspace(0.0, rho, 9), KKSH_T)
    assert np.abs(ev.paths[-1].Fplus[0]).max() > 1e9
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
