"""The benchmark's own tests: span arithmetic, the speed rescaling, wrappers
that change no output, and checks that reject corrupted results.

    python3 -m pytest bench/tests -q
"""

import contextlib
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import speed
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[2]

QUICK_RECIPES = [
    ["hierarchy", "--n-max", "4", "--lien", "--verify"],
    ["floquet", "--mu", "0.9", "--q", "2/5", "--count", "1"],
    ["stationary", "--mu", "0.9", "--q", "2/5", "--t", "0.1"],
    ["constant", "--mn", "5,2"],
    ["kksh", "--mn", "1,6", "--h", "2", "--mu", "0.6", "--t", "0,0.05",
     "--invariant-grid", "2"],
]


def cli_run(argv, outdir):
    import ads_null_flows.cli as cli

    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*argv, "-o", str(outdir)]) == 0


def tree_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def package_bindings() -> dict:
    """Every attribute of every loaded program module and patched class."""
    import ads_null_flows.lame as lame
    import ads_null_flows.kdvsol as kdvsol
    import ads_null_flows.specfun.heun as heun
    import scipy.optimize

    out = {}
    for name, mod in list(sys.modules.items()):
        if name == tracer.PACKAGE or name.startswith(tracer.PACKAGE + "."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (lame.HeunLameEvaluator, kdvsol.KkshSpec, heun.HeunEvaluator):
        out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    out[("scipy.optimize", "brentq")] = scipy.optimize.brentq
    return out


# ------------------------------------------------------------------ spans

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)

    def leaf():
        clock.advance(1.0)

    def middle():
        clock.advance(0.5)
        wrapped_leaf()
        wrapped_leaf()
        clock.advance(0.25)

    def top():
        clock.advance(2.0)
        wrapped_middle()

    wrapped_leaf = tr.wrap("leaf", leaf)
    wrapped_middle = tr.wrap("middle", middle)
    tr.wrap("top", top)()
    spans = tr.summary()
    assert spans["leaf"] == {"calls": 2, "s": 2.0, "self_s": 2.0}
    assert spans["middle"] == {"calls": 1, "s": 2.75, "self_s": 0.75}
    assert spans["top"] == {"calls": 1, "s": 4.75, "self_s": 2.0}
    assert list(tr.parent) == [-1, 0, 1, 1]


def test_recursive_span_counts_inclusive_time_once():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)

    def fact(n):
        clock.advance(1.0)
        return 1 if n == 0 else n * wrapped(n - 1)

    wrapped = tr.wrap("fact", fact)
    assert wrapped(3) == 6
    assert tr.summary()["fact"] == {"calls": 4, "s": 4.0, "self_s": 4.0}


# --------------------------------------------------------------- wrappers

@pytest.fixture(scope="module")
def traced_pair(tmp_path_factory):
    """The quick recipes run plain once and traced twice."""
    base = tmp_path_factory.mktemp("wrappers")
    before = package_bindings()
    runs = {}
    for label in ("plain", "traced1", "traced2"):
        install = None
        if label != "plain":
            install = tracer.Installation(tracer.Tracer()).install()
        try:
            for i, argv in enumerate(QUICK_RECIPES):
                cli_run(argv, base / label / str(i))
        finally:
            if install is not None:
                install.uninstall()
        runs[label] = (tree_bytes(base / label), install)
    return before, package_bindings(), runs


def test_wrappers_leave_outputs_byte_identical(traced_pair):
    _, _, runs = traced_pair
    plain = runs["plain"][0]
    assert len(plain) > 20
    assert runs["traced1"][0] == plain
    assert runs["traced2"][0] == plain


def test_uninstall_restores_every_binding(traced_pair):
    before, after, _ = traced_pair
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []


def test_traced_counts_repeat_exactly(traced_pair):
    _, _, runs = traced_pair
    one, two = runs["traced1"][1].tracer, runs["traced2"][1].tracer
    calls = {k: v["calls"] for k, v in one.summary().items()}
    assert calls == {k: v["calls"] for k, v in two.summary().items()}
    assert one.counts == two.counts
    for name in ("lame.solve_ivp.nfev", "nullcurve.solve_ivp.nfev", "lame.brentq.fevals",
                 "kdvsol.KkshSpec.kappa_jet.order0.calls",
                 "kdvsol.KkshSpec.kappa_jet.order2.calls",
                 "kdvsol.KkshSpec.kappa_jet.order3.calls", "io_formats.bytes"):
        assert one.counts[name] > 0, name
    for span in ("specfun.sn_jet", "jetalg.lenard_p", "lame.floquet_search",
                 "cli.cmd_kksh", "nullcurve.lien_evolve", "io_formats.write_curve_json"):
        assert calls[span] > 0, span


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["spectra", "kksh", "curves"]
    values = tracer.per_layer_metrics({}, {}, 0.0)
    assert list(values) == [name for name, _ in tracer.PER_LAYER]


# ----------------------------------------------------------------- checks

@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("outputs")
    recipes = {
        "floquet": ["floquet", "--mu", "0.4", "--q", "3/5", "--count", "1"],
        "floquet0": ["floquet", "--mu", "0.9", "--q", "1", "--count", "1"],
        "stationary": ["stationary", "--mu", "0.9", "--q", "2/5", "--t", "0.1"],
        "constant": ["constant", "--mn", "5,2"],
        "hierarchy": ["hierarchy", "--n-max", "5"],
    }
    for name, argv in recipes.items():
        cli_run(argv, base / name)
    return base


def rewrite_csv_h(path: Path, factor: float):
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[1] = repr(float(cells[1]) * factor)
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name,mu,q", [("floquet", 0.4, Fraction(3, 5)),
                                       ("floquet0", 0.9, Fraction(1))])
def test_floquet_check_rejects_perturbed_eigenvalue(outputs, tmp_path, name, mu, q):
    [(good, _)] = checks.floquet_rows(outputs / name, mu, q, 1)
    assert good
    bad = tmp_path / name
    bad.mkdir()
    (bad / "floquet.csv").write_text((outputs / name / "floquet.csv").read_text())
    rewrite_csv_h(bad / "floquet.csv", 1.0 + 1e-6)
    [(good, detail)] = checks.floquet_rows(bad, mu, q, 1)
    assert not good and "reference residual" in detail


def test_floquet_check_rejects_wrong_printed_digits(outputs):
    [(good, _)] = checks.floquet_rows(outputs / "floquet", 0.4, Fraction(3, 5), 1,
                                      {0: "0.667444"})
    assert not good


def nan_copy(src: Path, dst: Path, index: int = 40):
    doc = json.loads(src.read_text())
    doc["samples"][index]["matrix"][1] = math.nan
    dst.parent.mkdir(parents=True, exist_ok=True)
    dst.write_text(json.dumps(doc))


def test_stationary_check_rejects_nan_sample(outputs, tmp_path):
    src = outputs / "stationary"
    assert all(good for good, _ in checks.stationary_export(src, [0.1], 1e-8))
    for f in src.iterdir():
        (tmp_path / f.name).write_bytes(f.read_bytes())
    nan_copy(src / "stationary_t0.1.json", tmp_path / "stationary_t0.1.json")
    base, snap = checks.stationary_export(tmp_path, [0.1], 1e-8)
    assert base[0] and not snap[0] and "not finite" in snap[1]


def test_constant_check_rejects_nan_sample(outputs, tmp_path):
    assert checks.constant_closed(outputs / "constant", 5, 2)[0]
    nan_copy(outputs / "constant" / "constant_5_2.json", tmp_path / "constant_5_2.json")
    good, detail = checks.constant_closed(tmp_path, 5, 2)
    assert not good and "not finite" in detail


def test_stationary_check_rejects_wrong_bending(outputs):
    _, s, mats, xyz = checks.read_curve(outputs / "stationary" / "stationary_base.json")
    meta = json.loads((outputs / "stationary" / "stationary_base.json").read_text())["meta"]
    args = (meta["mu"], meta["h_plus"], meta["h_minus"])
    assert checks.stationary_samples(s, mats, xyz, *args, 0.0, 1e-8)[0]
    good, detail = checks.stationary_samples(s, mats, xyz, *args, 0.05, 1e-8)
    assert not good and "bending residual" in detail


@pytest.mark.parametrize("n,edit", [(5, 1), (2, 0), (3, 3)])
def test_hierarchy_check_rejects_wrong_lenard_coefficient(outputs, tmp_path, n, edit):
    assert checks.hierarchy(outputs / "hierarchy", 5)[0]
    doc = json.loads((outputs / "hierarchy" / "hierarchy.json").read_text())
    term = doc["polynomials"][n]["p"]["terms"][edit]
    term["coeff"] = str(Fraction(term["coeff"]) + 1)
    (tmp_path / "hierarchy.json").write_text(json.dumps(doc))
    good, _ = checks.hierarchy(tmp_path, 5)
    assert not good


def test_check_table_rejects_failed_row():
    text = "check  residual  tolerance  status\nK_half  1.0e-16  1.0e-10  ok\n"
    assert checks.check_table(0, text)[0]
    assert not checks.check_table(0, text.replace("1.0e-16", "3.0e-10"))[0]
    assert not checks.check_table(1, text)[0]


def test_known_faults_are_kksh_snapshot_operations():
    names = [f"kksh/snapshot t={t}" for t in workloads.KKSH_T[1:]]
    assert workloads.KNOWN_FAULTS == set(names)


# ------------------------------------------------------------ speed scale

def test_ref_seconds_rescales_by_kernel_time_and_removes_kernels():
    ref = speed.REF_KERNEL_S
    quiet = [(0.01 * i, ref) for i in range(100)]
    slow = [(0.01 * i, 2.0 * ref) for i in range(100)]
    # [0.105, 0.505) holds 40 kernel starts (0.11 ... 0.50)
    assert speed.ref_seconds(quiet, 0.105, 0.505) == pytest.approx(0.4 - 40 * ref)
    assert speed.ref_seconds(slow, 0.105, 0.505) == pytest.approx(0.2 - 40 * ref)
    # before the first sample its speed holds, after the last the last one's
    assert speed.ref_seconds(slow, -1.0, 0.0) == pytest.approx(0.5)
    assert speed.ref_seconds(slow, 2.0, 3.0) == pytest.approx(0.5)
    assert speed.ref_seconds([], 1.0, 3.5) == 2.5


def test_ref_seconds_follows_a_change_of_speed():
    ref = speed.REF_KERNEL_S
    samples = [(0.0, ref), (1.0, 4.0 * ref)]
    assert speed.ref_seconds(samples, 0.5, 2.5) == pytest.approx(0.5 + 1.5 / 4.0 - ref)
