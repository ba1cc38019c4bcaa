"""Command-line interface: exit codes, file formats, determinism."""

import hashlib
import json
import math
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from ads_null_flows.cli import MIN_POINTS_PER_PERIOD, main
from ads_null_flows.config import NumericFailure


def run(args, tmp_path):
    return main(["--set", "integrator_rel_tol=1e-10",
                 "--set", "integrator_abs_tol=1e-12", *args])


def stderr(capsys) -> str:
    """What main wrote to stderr so far, which holds no traceback."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


@pytest.fixture(autouse=True)
def no_traceback_on_stderr(capsys):
    """Every exit of this module's cases, 0, 1 or 2, leaves stderr free of a
    traceback: a numeric failure and a usage error each print one line."""
    yield
    stderr(capsys)


def test_hierarchy_writes_polynomials(tmp_path):
    out = tmp_path / "h"
    assert main(["hierarchy", "--n-max", "2", "--lien", "--verify",
                 "-o", str(out)]) == 0
    text = (out / "hierarchy.txt").read_text()
    assert "p_2 = u2 - 3*u^2" in text
    assert "a_1 = 4*u" in text
    assert "b_1 = -8" in text
    doc = json.loads((out / "hierarchy.json").read_text())
    assert doc["meta"]["recipe"] == "hierarchy"
    assert doc["polynomials"][0]["p_text"] == "1"


def test_hierarchy_n0_trivial(tmp_path):
    out = tmp_path / "h0"
    assert main(["hierarchy", "--n-max", "0", "--lien", "-o", str(out)]) == 0
    text = (out / "hierarchy.txt").read_text()
    assert "p_0 = 1" in text and "a_0 = 4" in text


def test_hierarchy_text_is_pinned(tmp_path):
    """The exact n <= 8 hierarchy with its LIEN coefficients, byte for byte:
    the text and the JSON coefficient strings (at the default config)."""
    out = tmp_path / "h8"
    assert main(["hierarchy", "--n-max", "8", "--lien", "--verify",
                 "-o", str(out)]) == 0
    pins = {"hierarchy.txt": "b0d9ecf35694c4c5649e8daa834c2fd44fe0fc5d629212fb95037fb1bfe42f1a",
            "hierarchy.json": "a94b6608e064d23d08ff7260f0b80d6f70e4ed8849bd932278a8a700a265441d"}
    for name, pin in pins.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == pin, name


def test_floquet_csv(tmp_path):
    out = tmp_path / "f"
    assert main(["floquet", "--mu", "0.4", "--q", "3/5", "--count", "1",
                 "-o", str(out)]) == 0
    rows = [l for l in (out / "floquet.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert rows[0] == "index,h,tau,order"
    index, h, tau, order = rows[1].split(",")
    assert float(h) == pytest.approx(0.6674427700743268, abs=1e-6)
    assert int(order) == 10


def test_floquet_search_exhausted_exit_code(tmp_path):
    out = tmp_path / "fx"
    code = main(["--set", "scan_h_ceiling=2.0", "floquet", "--mu", "0.6",
                 "--q", "0", "--count", "2", "-o", str(out)])
    assert code == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["floquet", "--mu", "0.4"])   # missing --q
    assert exc.value.code == 2


def test_set_value_conversion_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["--set", "integrator_rel_tol=abc", "check"])
    assert exc.value.code == 2


def test_set_non_finite_value_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["--set", "tol_floquet=nan", "check"])
    assert exc.value.code == 2


@pytest.mark.parametrize("item", ["digest=1", "__post_init__=x", "__doc__=x",
                                  "with_overrides=1", "=1", "tol_metric"])
def test_set_non_field_exit_code(item):
    """Only RunConfig fields are keys, so a method or a dunder is unknown."""
    with pytest.raises(SystemExit) as exc:
        main(["--set", item, "check"])
    assert exc.value.code == 2


def test_unreadable_config_file_exit_code(tmp_path):
    for path in (tmp_path / "missing.cfg", tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(path), "check"])
        assert exc.value.code == 2


def test_config_file_and_set_share_one_parser(tmp_path, capsys):
    """A file line and a --set item are read alike; --set wins."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# tolerances\n tol_metric = 1e-18  # too tight\n\n")
    assert main(["--config", str(cfg), "check"]) == 1
    assert main(["--config", str(cfg), "--set", "tol_metric=1e-8", "check"]) == 0
    cfg.write_text("digest = 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "check"])
    assert exc.value.code == 2


@pytest.mark.parametrize("key", [
    "tol_det", "tol_wronskian", "limit_levels", "limit_tol",
    "order_tol", "tol_central", "orbit_type_tol", "rationalize_cap",
    "rationalize_tol", "kdv_residual_gate", "output_digits", "tol_h", "order_max",
    "min_points_per_period"])
def test_removed_config_keys_exit_code(key, tmp_path):
    # 1 parses as an int and a float, so only the unknown key can exit 2
    with pytest.raises(SystemExit) as exc:
        main(["--set", f"{key}=1", "check"])
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "check"])
    assert exc.value.code == 2


def test_floquet_mu_outside_domain_exit_code(tmp_path):
    out = tmp_path / "fmu"
    with pytest.raises(SystemExit) as exc:
        main(["floquet", "--mu", "1.5", "--q", "2/5", "-o", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("q", ["7/5", "abc", "1/0"])
def test_floquet_bad_exponent_exit_code(tmp_path, q):
    out = tmp_path / "fq"
    with pytest.raises(SystemExit) as exc:
        main(["floquet", "--mu", "0.4", "--q", q, "-o", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("mu", ["1e-300", "1e-16"])
def test_floquet_mu_that_closes_the_gap_exit_code(tmp_path, mu):
    """1 + mu == 1 in float64: the gap (1, 1 + mu) is empty, so the bands
    are not separated; a usage error before any search."""
    out = tmp_path / "ftiny"
    with pytest.raises(SystemExit) as exc:
        main(["floquet", "--mu", mu, "--q", "2/5", "-o", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("mu, message", [("1e-15", "Floquet gate"),
                                         ("2e-16", "Floquet gate"),
                                         ("1e-10", "Floquet gate")])
def test_floquet_tiny_mu_exits_1(tmp_path, capsys, mu, message):
    """Just above the rounding of 1 + mu the computed theta(h) is off, or
    jumps (at 1e-15 and 2e-16 the root find closes its bracket on a jump
    near h = mu); a root the ODE monodromy does not confirm is a numeric
    failure."""
    assert main(["floquet", "--mu", mu, "--q", "2/5", "-o", str(tmp_path / "f")]) == 1
    err = stderr(capsys)
    assert "numeric failure" in err and message in err


def test_stationary_at_a_huge_time_exits_1(tmp_path, capsys):
    """At t = 1e14 the shifted grid s + 2 ell t repeats samples in float64,
    so no snapshot of the grid exists there: a numeric failure naming it."""
    assert main(["stationary", "--mu", "0.9", "--q", "2/5", "--t", "1e14",
                 "-o", str(tmp_path / "s")]) == 1
    assert stderr(capsys) == ("numeric failure: s + 2 ell t repeats samples in float64 "
                              "at t = 1e+14\n")


def test_stationary_zero_denominator_exit_code(tmp_path):
    out = tmp_path / "sq"
    with pytest.raises(SystemExit) as exc:
        main(["stationary", "--mu", "0.9", "--q", "1/0", "-o", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_floquet_orders_in_a_narrow_lower_band(tmp_path):
    """In the lower band [0.97, 1], where theta rises by about 70 per unit h,
    every eigenvalue passes the Floquet gate and exports the order 14 of
    q = 3/7."""
    out = tmp_path / "fn"
    assert main(["floquet", "--mu", "0.97", "--q", "3/7", "--count", "6",
                 "-o", str(out)]) == 0
    rows = [l.split(",") for l in (out / "floquet.csv").read_text().splitlines()
            if not l.startswith("#")][1:]
    assert [int(r[3]) for r in rows] == [14] * 6


BAND_EDGE_ORDERS = {"1/97": 194, "96/97": 97, "1/3": 6}


@pytest.mark.parametrize("q", list(BAND_EDGE_ORDERS))
def test_floquet_gate_at_a_band_edge(tmp_path, capsys, q):
    """At mu = 0.999 the lower band is 1e-3 wide; a root 1e-10 off in h
    missed the Floquet gate by 2.6e-8 > tol_floquet and exited 1.  M is
    ill-conditioned there (||M^6 - Id|| = 1.3e-6 at index 0 of q = 1/3), and
    both the CSV and stdout carry the exact order of q on every row."""
    out = tmp_path / "fe"
    assert main(["floquet", "--mu", "0.999", "--q", q, "--count", "2",
                 "-o", str(out)]) == 0
    order = BAND_EDGE_ORDERS[q]
    rows = [l.split(",") for l in (out / "floquet.csv").read_text().splitlines()
            if not l.startswith("#")][1:]
    assert [int(r[3]) for r in rows] == [order] * 2
    lines = capsys.readouterr().out.splitlines()
    assert [l.split("order = ")[1] for l in lines] == [str(order)] * 2


def test_constant_invalid_pair_exit_code(tmp_path):
    out = tmp_path / "cpair"
    with pytest.raises(SystemExit) as exc:
        main(["constant", "--mn", "3,7", "-o", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_hierarchy_negative_n_max_exit_code(tmp_path):
    out = tmp_path / "hneg"
    with pytest.raises(SystemExit) as exc:
        main(["hierarchy", "--n-max", "-1", "-o", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_hierarchy_n_max_above_cap_exit_code(tmp_path):
    out = tmp_path / "h9"
    with pytest.raises(SystemExit) as exc:
        main(["hierarchy", "--n-max", "9", "-o", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_kksh_without_mu_exit_code(tmp_path):
    out = tmp_path / "knomu"
    with pytest.raises(SystemExit) as exc:
        main(["kksh", "--mn", "1,6", "--h", "2", "-o", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


# h = 1e103 and 1e300: h^3 past the float range, no OverflowError traceback
@pytest.mark.parametrize("mn, h", [("2,4", "2"), ("1,6", "-1"), ("40,1", "2"),
                                   ("1,6", "1e103"), ("1,6", "1e300")])
def test_kksh_domain_error_exit_code(tmp_path, mn, h):
    out = tmp_path / "kdom"
    with pytest.raises(SystemExit) as exc:
        main(["kksh", "--mn", mn, "--h", h, "--mu", "0.5", "-o", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


# tau_mn(0.6, 1, 1) is 0.6000000000000001, so only the quantum numbers,
# not an exact mu == tau, can reject 0.6; tau_mn(0.2, 1, 1) is exactly 0.2
@pytest.mark.parametrize("mu", ["0.6", "0.2"])
def test_kksh_equal_quantum_numbers_exit_code(tmp_path, capsys, mu):
    out = tmp_path / "k11"
    with pytest.raises(SystemExit) as exc:
        main(["kksh", "--mn", "1,1", "--h", "2", "--mu", mu,
              "--invariant-grid", "0", "-o", str(out)])
    assert exc.value.code == 2
    assert "mu = tau degenerates" in stderr(capsys)
    assert not out.exists()


def test_kksh_invariant_grid_near_tau_one(tmp_path):
    """At mu = 0.92 the (5, 1) family has 1 - tau = 6.2e-11, where one ulp
    of tau moves n g(tau) by 9e-7: the periodicity check allows for the
    rounding of tau, and the invariant table has its two rows."""
    out = tmp_path / "k51"
    assert main(["kksh", "--mn", "5,1", "--h", "2", "--mu", "0.6",
                 "--invariant-grid", "2", "-o", str(out)]) == 0
    rows = [l for l in (out / "kksh_invariants.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert rows[0] == "mu,I_plus,I_minus" and len(rows) == 3


def test_kksh_says_when_the_bending_fails_the_period_test(tmp_path, capsys):
    """(5, 1) at mu = 0.92 is periodic only to 7.9e-7 on the gate's probes
    over t in [0, 0.3] (1.6e-6 up to t = 1.61), so lien_evolve refuses the
    one-period route: the meta carries that gap
    and stdout says that the orbit type and the trace drift are those of
    Phi(rho).  The (1, 6) family passes at about 1e-13 and says nothing."""
    for mn, mu, refused in (("5,1", "0.92", True), ("1,6", "0.6", False)):
        out = tmp_path / mn
        assert main(["kksh", "--mn", mn, "--h", "2", "--mu", mu, "--t", "0,0.3",
                     "--invariant-grid", "0", "-o", str(out)]) == 0
        gap = json.loads((out / "kksh_t0.3.json").read_text())["meta"]["period_gap"]
        text = capsys.readouterr().out
        assert ("refused the one-period route" in text) == refused
        if refused:
            assert 5e-7 <= gap <= 2e-6
            assert f"period gap {gap:.3g} refused" in text
        else:
            assert gap <= 1e-12


def test_kksh_invariant_grid_usage_error_writes_nothing(tmp_path, capsys):
    """mu = 0.5 has a (6, 1) partner tau, but mu = 0.92 of the invariant grid
    does not: the usage error comes before any transport or file."""
    out = tmp_path / "k61"
    with pytest.raises(SystemExit) as exc:
        main(["kksh", "--mn", "6,1", "--h", "2", "--mu", "0.5",
              "--invariant-grid", "2", "-o", str(out)])
    assert exc.value.code == 2
    assert "exceeds the range limit" in stderr(capsys)
    assert not out.exists()


@pytest.mark.parametrize("argv, code, message", [
    (["kksh", "--mn", "1,6", "--h", "1e300", "--mu", "0.6", "--invariant-grid", "0"],
     2, "error: homothetic parameter h = 1e+300 gives non-finite phase rates"),
    (["constant", "--kappa", "1e3"], 1, "numeric failure: constant_k1000: the curve"),
])
def test_console_exit_codes_print_one_line(tmp_path, argv, code, message):
    """Run as a program, a usage error and a numeric failure end with their
    exit code and one message line on stderr, with no traceback."""
    proc = subprocess.run([sys.executable, "-m", "ads_null_flows.cli", *argv,
                           "-o", str(tmp_path / "out")], capture_output=True, text=True)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr.splitlines()[-1]


@pytest.mark.parametrize("indices", ["0", "1,1", "-2,3"])
def test_stationary_bad_indices_exit_code(tmp_path, indices):
    out = tmp_path / "sidx"
    with pytest.raises(SystemExit) as exc:
        main(["stationary", "--mu", "0.9", "--q", "2/5", f"--indices={indices}",
              "-o", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_transport_step_cap_exit_code(tmp_path, monkeypatch, capsys):
    """A transport that needs more panels than the frame kernel's cap: exit 1.
    One Lame period fits in 64 panels; the stationary path over 12 periods
    (which passes at the default cap) does not."""
    import ads_null_flows.transport as kernel

    monkeypatch.setattr(kernel, "MAX_PANELS", 64)
    out = tmp_path / "scap"
    code = main(["stationary", "--mu", "0.9", "--q", "2/5", "--periods", "12",
                 "-o", str(out)])
    assert code == 1
    assert "needs more than 64 panels" in stderr(capsys)


def test_dop853_budget_exit_code(tmp_path, monkeypatch, capsys):
    """A DOP853 oracle past its right-hand-side budget (lowered to 100):
    the Floquet gate's monodromy and kksh's s-frame confirmation each exit
    1 with one line naming the budget."""
    from ads_null_flows import lame

    monkeypatch.setattr(lame, "MAX_RHS_CALLS", 100)
    for argv in (["floquet", "--mu", "0.9", "--q", "2/5", "--count", "2"],
                 ["kksh", "--mn", "1,6", "--h", "2", "--mu", "0.6", "--invariant-grid", "0"]):
        assert main([*argv, "-o", str(tmp_path / argv[0])]) == 1
        assert stderr(capsys) == ("numeric failure: DOP853 needs more than 100 "
                                  "right-hand sides\n")


KKSH_META = {"config_digest", "h", "invariants", "m", "monodromy_trace_drift", "mu", "n",
             "orbit_type", "period_gap", "recipe", "rho", "t", "tau"}


@pytest.mark.parametrize("mn, mu, line", [
    ("1,6", "0.6", r"period lattice: \(n1, n2\) = \(\d+, 161\) cells at the last t; "
                   r"holonomy commutator (\S+) \(tolerance 1e-08\)"),
    ("5,1", "0.92", r"period lattice: no t reduced to a cell, the t-system transported "
                    r"directly()"),
])
def test_kksh_reports_the_lattice_route(tmp_path, capsys, mn, mu, line):
    """stdout says how far the last t lies in lattice cells (t = 0.3 is 161
    cells out at mu = 0.6; t2 = 402 at (5, 1), mu = 0.92) and the holonomy
    commutator with its tolerance; the exports' meta gains nothing."""
    out = tmp_path / "k"
    assert main(["kksh", "--mn", mn, "--h", "2", "--mu", mu, "--t", "0,0.3",
                 "--invariant-grid", "0", "-o", str(out)]) == 0
    found = re.search(line, capsys.readouterr().out)
    assert found and (not found[1] or float(found[1]) <= 1e-12)
    assert set(json.loads((out / "kksh_t0.3.json").read_text())["meta"]) == KKSH_META


def test_kksh_far_t_reports_a_lattice_overflow(tmp_path, capsys):
    """t = 1e6 lies 5.4e8 lattice cells out, where the closed-form product is
    past the float range: exit 1 naming the overflow, not a panel cap of a
    direct transport."""
    assert main(["kksh", "--mn", "1,6", "--h", "2", "--mu", "0.6", "--t", "0,1e6",
                 "--invariant-grid", "0", "-o", str(tmp_path / "k")]) == 1
    assert stderr(capsys) == ("numeric failure: t-frames overflow over 536952549 "
                              "lattice cells\n")


@pytest.mark.parametrize("argv", [
    ["kksh", "--mn", "1,6", "--h", "2", "--mu", "0.6", "--t", "abc"],
    ["kksh", "--mn", "1,6", "--h", "2", "--mu", "0.6", "--t", "0,nan"],
    ["kksh", "--mn", "1,6", "--h", "2", "--mu", "0.6", "--t", "0,0.2,0.1"],
    ["kksh", "--mn", "1,6", "--h", "2", "--mu", "0.6", "--invariant-grid", "-1"],
    ["stationary", "--mu", "0.9", "--q", "2/5", "--t", "abc"],
    ["stationary", "--mu", "0.9", "--q", "2/5", "--t", "inf"],
    ["constant", "--kappa", "nan"],
    ["constant", "--kappa", "inf"],
    ["constant", "--kappa", "-1.2", "--s-span", "nan"],
    ["constant", "--kappa", "-1.2", "--s-span", "-1"],
    ["stationary", "--mu", "0.9", "--q", "2/5", "--periods", "nan"],
    ["stationary", "--mu", "0.9", "--q", "2/5", "--periods", "-1"],
    ["stationary", "--mu", "nan", "--q", "2/5"],
    ["floquet", "--mu", "inf", "--q", "2/5"],
    ["kksh", "--mn", "1,6", "--h", "nan", "--mu", "0.6"],
    ["kksh", "--mn", "1,6", "--h", "2", "--mu", "nan"],
    # snapshot times whose 6-digit file tags collide
    ["stationary", "--mu", "0.9", "--q", "2/5", "--t", "0.1234561,0.1234562"],
    ["stationary", "--mu", "0.9", "--q", "2/5", "--t", "0.1,0.1"],
    ["kksh", "--mn", "1,6", "--h", "2", "--mu", "0.6", "--t", "0.1234561,0.1234562"],
    ["kksh", "--mn", "1,6", "--h", "2", "--find-mu-star", "--t", "0.1,0"],
])
def test_bad_grid_options_exit_code(tmp_path, argv):
    out = tmp_path / "grid"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "-o", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["stationary", "--mu", "0.9", "--q", "2/5", "--periods", "1e6"],
    ["stationary", "--mu", "0.9", "--q", "2/5", "--periods", "1e307"],
    ["kksh", "--mn", "1,6", "--h", "2", "--mu", "0.6", "--invariant-grid", "1000000000"],
])
def test_huge_grids_exit_2_before_any_work(tmp_path, monkeypatch, argv):
    """A grid of more than MAX_SAMPLES samples is a usage error, raised
    before the eigenvalue search, the mu* search or any grid is made."""
    import tracemalloc

    import ads_null_flows.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli, "floquet_search", never)
    monkeypatch.setattr(cli, "kksh_mu_star", never)
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "-o", str(tmp_path / "big")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.code == 2
    assert peak < 1 << 20
    assert not (tmp_path / "big").exists()


@pytest.mark.filterwarnings("error")
def test_kksh_tiny_h_exits_1_without_warnings(tmp_path, capsys):
    """h = 1e-9 stretches the s-period to about 9e9: the s-system overflows
    at the first level and predicts more panels than the cap, which fails
    before that level is swept."""
    assert main(["kksh", "--mn", "1,6", "--h", "1e-9", "--mu", "0.6",
                 "-o", str(tmp_path / "tiny")]) == 1
    assert "numeric failure" in stderr(capsys)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("h", ["1e61", "1e102"])
def test_kksh_huge_h_exits_1_without_warnings(tmp_path, capsys, h):
    """From h about 1e61 the KKSH jets overflow float64 on the gate's
    probes: the residual is nan and fails the KdV gate, with no overflow
    warning from the series engine."""
    assert main(["kksh", "--mn", "1,6", "--h", h, "--mu", "0.6",
                 "--invariant-grid", "0", "-o", str(tmp_path / "huge")]) == 1
    assert "numeric failure: bending violates the KdV residual gate" in stderr(capsys)


@pytest.mark.parametrize("q, spin", [("0", "1"), ("1", "1/2")])
def test_stationary_central_monodromies(tmp_path, q, spin):
    """At q = 0 both monodromies are +1 and at q = 1 both are -1: the curve
    is (C,C) and closes after one period, with spin 1 and 1/2."""
    out = tmp_path / q
    assert main(["stationary", "--mu", "0.6", "--q", q, "-o", str(out)]) == 0
    meta = json.loads((out / "stationary_base.json").read_text())["meta"]
    assert meta["orbit_type"] == "(C,C)" and meta["closed"] is True
    assert meta["spin"] == spin
    assert meta["least_period"] == meta["rho"]


@pytest.mark.parametrize("q, orbit_type, periods, spin, windings", [
    ("0", "(C,C)", 1, "1", [1, None]),
    ("1", "(C,C)", 1, "1/2", [1, None]),
    ("2/5", "(E,E)", 5, "1", [3, None]),
    ("3/5", "(E,E)", 5, "1/2", [2, None]),
    ("1/67", "(E,E)", 67, "1/2", [66, None]),
])
def test_stationary_closure_comes_from_q(tmp_path, q, orbit_type, periods, spin, windings):
    """Both factors are the rotation by q pi = p pi / d per period, so the
    curve closes after d periods with spin 1 for an even p and 1/2 for an
    odd one.  q = 1/67 closes too, though a denominator past 64 escapes
    classify_orbit's rationalising of the monodromy trace."""
    out = tmp_path / "s"
    assert main(["stationary", "--mu", "0.5", "--q", q, "-o", str(out)]) == 0
    meta = json.loads((out / "stationary_base.json").read_text())["meta"]
    assert list(meta) == ["recipe", "config_digest", "mu", "h_plus", "h_minus", "ell", "rho",
                          "diagnostics", "orbit_type", "closed", "least_period", "spin",
                          "windings"]
    assert (meta["orbit_type"], meta["closed"], meta["spin"], meta["windings"]) == \
        (orbit_type, True, spin, windings)
    assert meta["least_period"] == periods * meta["rho"]


def test_stationary_windings_path_takes_64_samples_a_period(tmp_path, monkeypatch):
    """The windings path over d = 5 periods has 64 * 5 + 1 samples, also at
    mu = 0.903, where 64 * (5 rho) / rho rounds below 320 in floats: the
    curve winding_numbers reads has that many."""
    import ads_null_flows.cli as cli

    samples = []

    def spy(gamma):
        samples.append(len(gamma))
        return winding_numbers(gamma)

    winding_numbers = cli.winding_numbers
    monkeypatch.setattr(cli, "winding_numbers", spy)
    assert main(["stationary", "--mu", "0.903", "--q", "3/5", "-o", str(tmp_path / "s")]) == 0
    assert samples == [64 * 5 + 1]


@pytest.mark.parametrize("q", ["0", "1", "1/2", "2/5", "3/5", "1/67"])
def test_stationary_windings_equal_the_direct_path(tmp_path, q):
    """The windings path rides the base's transport, its points past the
    base reduced by Floquet's rule: its windings are those of the path of
    one transport over the d periods."""
    from ads_null_flows.nullcurve import stationary_curve, winding_numbers

    out = tmp_path / "s"
    assert main(["stationary", "--mu", "0.5", "--q", q, "-o", str(out)]) == 0
    meta = json.loads((out / "stationary_base.json").read_text())["meta"]
    d = Fraction(q).denominator
    full = np.linspace(0.0, meta["least_period"], 64 * d + 1)
    direct = stationary_curve(0.5, meta["h_plus"], meta["h_minus"], full)
    assert meta["windings"] == list(winding_numbers(direct.gamma()))


def test_stationary_base_is_the_same_with_any_snapshots(tmp_path, capsys):
    """The snapshot points ride the base's transport without moving its
    panels: the base exports and the stdout are byte for byte the same with
    no --t, with --t 0 and with negative, small and large times."""
    runs = {}
    for name, times in (("none", []), ("zero", ["--t", "0"]),
                        ("mixed", ["--t=-0.4,0.1,5"])):
        out = tmp_path / name
        assert main(["stationary", "--mu", "0.9", "--q", "2/5", *times,
                     "-o", str(out)]) == 0
        runs[name] = (capsys.readouterr().out,
                      {p.name: p.read_bytes() for p in out.glob("stationary_base*")})
    assert len(runs["none"][1]) == 4
    assert runs["zero"] == runs["none"] and runs["mixed"] == runs["none"]
    assert len(list((tmp_path / "mixed").iterdir())) == 16


def test_stationary_long_t_list_keeps_each_transport_bounded(tmp_path, monkeypatch):
    """At most MAX_SAMPLES points ride one transport beside the base grid
    (257 samples, and rho), and every further transport keeps the base's far
    end, so its panels and every export are those of one transport."""
    import ads_null_flows.cli as cli
    import ads_null_flows.nullcurve.stationary as stationary

    times = "--t=" + ",".join(str(0.1 * k - 0.3) for k in range(8))
    out = tmp_path / "whole"
    assert main(["stationary", "--mu", "0.9", "--q", "2/5", times, "-o", str(out)]) == 0
    grids = []

    def spy(mu, h_plus, h_minus, grid, **kwargs):
        grids.append(np.asarray(grid))
        return stationary_curve(mu, h_plus, h_minus, grid, **kwargs)

    stationary_curve = stationary.stationary_curve
    monkeypatch.setattr(stationary, "stationary_curve", spy)
    monkeypatch.setattr(cli, "MAX_SAMPLES", 400)
    parts = tmp_path / "parts"
    assert main(["stationary", "--mu", "0.9", "--q", "2/5", times, "-o", str(parts)]) == 0
    # the windings path (321) and 8 snapshots of 257 in chunks of 400
    assert [len(g) for g in grids] == [258 + 400] + [1 + 400] * 4 + [1 + 377]
    assert all(g.max() == grids[0][256] for g in grids)
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in parts.iterdir()) and len(names) == 36
    for name in names:
        assert (out / name).read_bytes() == (parts / name).read_bytes(), name


def test_stationary_at_a_large_time_is_a_rigid_motion(tmp_path):
    """At t = 1e7 the snapshot is the base moved rigidly over 7e6 periods:
    by Floquet's rule it costs about what t = 0 does, and its exports are
    finite."""
    out = tmp_path / "s"
    assert main(["stationary", "--mu", "0.9", "--q", "2/5", "--t", "1e7",
                 "-o", str(out)]) == 0
    doc = json.loads((out / "stationary_t1e+07.json").read_text())
    assert doc["meta"]["t"] == 1e7 and len(doc["samples"]) == 257
    values = [v for x in doc["samples"] for v in (x["s"], x["x"], x["y"], x["z"], *x["matrix"])]
    assert np.isfinite(values).all()
    for sign in ("plus", "minus"):
        table = np.loadtxt(out / f"stationary_t1e+07_cousin_{sign}.csv", delimiter=",",
                           skiprows=3)
        assert table.shape == (257, 3) and np.isfinite(table).all()


def test_stationary_q_past_the_windings_cap_exit_code(tmp_path, monkeypatch, capsys):
    """The windings path of a closed curve takes 64 samples a period over d
    periods: d = 1024 asks for more than MAX_SAMPLES, a usage error naming
    --q before the eigenvalue search."""
    import ads_null_flows.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli, "floquet_search", never)
    out = tmp_path / "s"
    with pytest.raises(SystemExit) as exc:
        main(["stationary", "--mu", "0.5", "--q", "1/1024", "-o", str(out)])
    assert exc.value.code == 2
    assert "--q asks for 65537 samples, more than 65536" in stderr(capsys)
    assert not out.exists()


def test_stationary_q_at_the_windings_cap_passes(tmp_path, monkeypatch):
    """d = 1023 asks for 64 * 1023 + 1 = 65473 samples, within MAX_SAMPLES:
    the command gets past the cap to the eigenvalue search."""
    import ads_null_flows.cli as cli

    searched = []

    def stand_in(mu, p, d, *args, **kwargs):
        searched.append((p, d))
        raise NumericFailure("the search ran")

    monkeypatch.setattr(cli, "floquet_search", stand_in)
    assert main(["stationary", "--mu", "0.5", "--q", "1/1023",
                 "-o", str(tmp_path / "s")]) == 1
    assert searched == [(1, 1023)]


def test_stationary_indices_in_either_order(tmp_path):
    """--indices 1,0 swaps h+ and h- back: the files are those of 0,1."""
    a, b = tmp_path / "01", tmp_path / "10"
    for out, indices in ((a, "0,1"), (b, "1,0")):
        assert main(["stationary", "--mu", "0.9", "--q", "2/5", "--indices", indices,
                     "-o", str(out)]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir()) and len(names) == 4
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_kksh_wings(tmp_path):
    """--wings samples [-rho/2, 3 rho/2] instead of [0, 2 rho]; the
    classification and the invariants do not depend on the window."""
    docs = {}
    for wings in ([], ["--wings"]):
        out = tmp_path / ("w" if wings else "nw")
        assert main(["kksh", "--mn", "1,6", "--h", "2", "--mu", "0.6", "--t", "0,0.05",
                     "--invariant-grid", "2", *wings, "-o", str(out)]) == 0
        docs[bool(wings)] = json.loads((out / "kksh_t0.json").read_text())
    wide, plain = docs[True]["meta"], docs[False]["meta"]
    s = [x["s"] for x in docs[True]["samples"]]
    assert len(s) == 257
    assert s[0] == pytest.approx(-wide["rho"] / 2, rel=1e-15)
    assert s[-1] == pytest.approx(1.5 * wide["rho"], rel=1e-15)
    assert wide["orbit_type"] == plain["orbit_type"] == "(H,E)"
    assert wide["invariants"] == pytest.approx(plain["invariants"], rel=1e-9)


def test_stationary_periods_off_the_sample_spacing(tmp_path):
    """The grid spacing is rho / POINTS_PER_PERIOD whatever --periods is: at
    1.001 periods (256 p not an integer) rho is a sample, the grid ending
    at the last sample within the periods; at 2 periods the grid is
    linspace(0, 2 rho, 513) bit for bit."""
    for periods, count in (("1.001", 257), ("2", 513)):
        out = tmp_path / periods
        assert main(["stationary", "--mu", "0.9", "--q", "2/5", "--periods", periods,
                     "-o", str(out)]) == 0
        doc = json.loads((out / "stationary_base.json").read_text())
        s = np.array([x["s"] for x in doc["samples"]])
        rho = doc["meta"]["rho"]
        assert len(s) == count and s[256] == rho
        assert doc["meta"]["orbit_type"] == "(E,E)"
        assert doc["meta"]["windings"][1] is None
    assert np.array_equal(s, np.linspace(0.0, 2.0 * rho, 513))


def test_stationary_grid_resolves_a_high_pair(tmp_path):
    """The pair (8, 9) at mu = 0.9, q = 2/5 has 2 K(mu) sqrt(h-) = 30.7: its
    grid doubles to 512 samples a period, and the bending oracle, 2.3e-3
    off at 256, passes the unchanged 1e-3 gate.  The (0, 1) pair keeps 256."""
    for indices, count in (("8,9", 513), ("0,1", 257)):
        out = tmp_path / indices
        assert main(["stationary", "--mu", "0.9", "--q", "2/5", "--indices", indices,
                     "-o", str(out)]) == 0
        doc = json.loads((out / "stationary_base.json").read_text())
        s = np.array([x["s"] for x in doc["samples"]])
        assert np.array_equal(s, np.linspace(0.0, doc["meta"]["rho"], count))
        assert doc["meta"]["diagnostics"]["bending_residual"] <= 1e-3


def test_stationary_resolved_grid_is_held_to_max_samples(tmp_path, monkeypatch, capsys):
    """MAX_SAMPLES bounds the final count: 200 periods fit at 256 samples a
    period, but not at the 512 that (8, 9) takes."""
    import ads_null_flows.cli as cli

    monkeypatch.setattr(cli, "MAX_SAMPLES", 256 * 200 + 1)
    out = tmp_path / "big"
    with pytest.raises(SystemExit) as exc:
        main(["stationary", "--mu", "0.9", "--q", "2/5", "--indices", "8,9",
              "--periods", "200", "-o", str(out)])
    assert exc.value.code == 2
    assert "--periods asks for 102401 samples, more than 51201" in stderr(capsys)
    assert not out.exists()


def test_stationary_shorter_than_a_period(tmp_path):
    """--periods 0.001 still samples MIN_POINTS_PER_PERIOD intervals."""
    out = tmp_path / "short"
    assert main(["stationary", "--mu", "0.9", "--q", "2/5", "--periods", "0.001",
                 "-o", str(out)]) == 0
    doc = json.loads((out / "stationary_base.json").read_text())
    assert len(doc["samples"]) == MIN_POINTS_PER_PERIOD + 1


def test_programming_error_propagates(tmp_path, monkeypatch):
    """Only the listed numeric failures exit 1; a bug keeps its traceback."""
    import ads_null_flows.cli as cli

    def broken(*args, **kwargs):
        raise TypeError("a programming error")

    monkeypatch.setattr(cli, "floquet_search", broken)
    with pytest.raises(TypeError, match="a programming error"):
        main(["floquet", "--mu", "0.4", "--q", "3/5", "-o", str(tmp_path / "f")])


def test_constant_command_files(tmp_path):
    out = tmp_path / "c"
    assert main(["constant", "--mn", "7,3", "-o", str(out)]) == 0
    doc = json.loads((out / "constant_7_3.json").read_text())
    assert doc["meta"]["kappa"] == "-29/20"
    assert doc["meta"]["spin"] == "1/2"
    assert doc["meta"]["torus_knot"] == [-2, 5]
    assert doc["meta"]["orbit_type"] == "(E,E)"
    first = doc["samples"][0]
    assert {"s", "x", "y", "z", "matrix"} <= set(first)
    assert first["matrix"] == [1.0, 0.0, 0.0, 1.0]
    assert (first["x"], first["y"], first["z"]) == (2.0, 0.0, 0.0)
    obj = (out / "constant_7_3.obj").read_text().splitlines()
    assert obj[2] == "o curve"
    assert obj[3].startswith("v ")
    assert obj[-1].startswith("l 1 2 ")
    cous = (out / "constant_7_3_cousin_plus.csv").read_text().splitlines()
    assert cous[2] == "s,x,y"


@pytest.mark.parametrize("kappa", ["5", "600"])
def test_constant_growing_curves_export(tmp_path, kappa):
    """|F-| reaches 1e10 at kappa = 5 over the default --s-span 12, where an
    LU inverse of F- was singular; the exported floats are finite."""
    out = tmp_path / "c"
    assert main(["constant", "--kappa", kappa, "-o", str(out)]) == 0
    doc = json.loads((out / f"constant_k{kappa}.json").read_text())
    assert all(math.isfinite(v) for sample in doc["samples"]
               for v in [sample["x"], sample["y"], sample["z"], *sample["matrix"]])


@pytest.mark.parametrize("kappa", ["1e3", "1e150"])
def test_constant_overflowing_curve_exit_code(tmp_path, capsys, kappa):
    """gamma overflows float64 (at 1e150 the frames already do): a numeric
    failure before any file is written, with no numpy warning (an error
    here)."""
    out = tmp_path / "c"
    assert main(["constant", "--kappa", kappa, "-o", str(out)]) == 1
    assert "float64 range" in stderr(capsys)
    assert not out.exists() or not any(out.iterdir())


def test_curve_json_floats_round_trip(tmp_path):
    """json.loads returns every exported float of a curve JSON bit for bit."""
    from ads_null_flows.nullcurve import (
        closed_constant, constant_bending_path, constant_curve_period, torical_embed)

    out = tmp_path / "rt"
    assert main(["constant", "--mn", "7,3", "-o", str(out)]) == 0
    kappa, _, _ = closed_constant(7, 3)
    grid = np.linspace(0.0, constant_curve_period(7, 3), 2049)
    gamma = constant_bending_path(float(kappa), grid).gamma()
    points = torical_embed(gamma)
    samples = json.loads((out / "constant_7_3.json").read_text())["samples"]
    assert len(samples) == len(grid)
    assert np.array_equal([d["s"] for d in samples], grid)
    assert np.array_equal([[d["x"], d["y"], d["z"]] for d in samples], points)
    assert np.array_equal([d["matrix"] for d in samples], gamma.reshape(-1, 4))


def test_constant_case2_metadata(tmp_path):
    out = tmp_path / "c2"
    assert main(["constant", "--kappa", "-1", "--s-span", "6", "-o", str(out)]) == 0
    doc = json.loads((out / "constant_k-1.json").read_text())
    assert doc["meta"]["case"] == "(P,E)"
    assert "ideal_boundary" in doc["meta"]
    assert main(["constant", "--kappa", "2", "--s-span", "6", "-o", str(out)]) == 0
    doc = json.loads((out / "constant_k2.json").read_text())
    assert doc["meta"]["case"] == "(H,H)"


def test_stationary_snapshot_t0_identical(tmp_path):
    out = tmp_path / "s"
    assert main(["stationary", "--mu", "0.9", "--q", "2/5", "--t", "0",
                 "-o", str(out)]) == 0
    base = json.loads((out / "stationary_base.json").read_text())
    snap = json.loads((out / "stationary_t0.json").read_text())
    assert base["samples"] == snap["samples"]
    assert base["meta"]["orbit_type"] == "(E,E)"
    assert base["meta"]["closed"] is True


def test_outputs_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["constant", "--mn", "8,3", "-o", str(out)]) == 0
    for name in ("constant_8_3.json", "constant_8_3.obj",
                 "constant_8_3_cousin_plus.csv", "constant_8_3_cousin_minus.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_check_command_passes():
    assert main(["check"]) == 0


def test_check_fails_with_broken_tolerance():
    code = main(["--set", "tol_metric=1e-18", "check"])
    assert code == 1


def test_console_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "ads_null_flows.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "hierarchy" in proc.stdout and "kksh" in proc.stdout


@pytest.mark.parametrize("argv, message", [
    (["--mu", "0.6", "--find-mu-star"], "argument --find-mu-star: not allowed with argument --mu"),
    ([], "pass --mu or --find-mu-star"),
])
def test_kksh_takes_one_of_mu_and_find_mu_star(tmp_path, capsys, argv, message):
    """--mu and --find-mu-star exclude each other, and one is needed: both
    or neither is a usage error, before any search or file."""
    out = tmp_path / "k"
    with pytest.raises(SystemExit) as exc:
        main(["kksh", "--mn", "1,6", "--h", "2", *argv, "-o", str(out)])
    assert exc.value.code == 2
    assert message in stderr(capsys)
    assert not out.exists()


def test_kksh_mu_star_round_cap_exits_1(tmp_path, monkeypatch, capsys):
    """A rotation condition that is nan off the scan points never shrinks
    the bracket of its sign change: MU_STAR_ROUNDS refinement rounds, then
    exit 1 naming the last bracket, and no file."""
    from test_transport import _stub_rotation

    from ads_null_flows.nullcurve import evolve

    grid = np.linspace(*evolve.MU_STAR_BRACKET, evolve.MU_STAR_SCAN)
    batches = _stub_rotation(monkeypatch, lambda mu: np.where(np.isin(mu, grid), mu - 0.5123, np.nan),
                             most=2 + evolve.MU_STAR_ROUNDS)
    out = tmp_path / "k"
    assert main(["kksh", "--mn", "1,6", "--h", "2", "--find-mu-star", "-o", str(out)]) == 1
    assert len(batches) == 2 + evolve.MU_STAR_ROUNDS
    assert stderr(capsys) == (f"numeric failure: mu* not bracketed to 1e-08 in "
                              f"{evolve.MU_STAR_ROUNDS} rounds (last bracket [0.5, 0.55])\n")
    assert not out.exists()


def test_kksh_find_mu_star(tmp_path, capsys):
    out = tmp_path / "k"
    code = main(["kksh", "--mn", "1,6", "--h", "2", "--find-mu-star",
                 "--invariant-grid", "2", "-o", str(out)])
    assert code == 0
    # the gate's rounding-level residual is reported, not exported
    assert "KdV gate residual" in capsys.readouterr().out
    doc = json.loads((out / "kksh_t0.json").read_text())
    assert "kdv_gate_residual" not in doc["meta"]
    assert doc["meta"]["mu_star"] == pytest.approx(0.61503966, abs=1e-6)
    assert doc["meta"]["orbit_type"] == "(H,E)"
    assert doc["meta"]["rho"] == pytest.approx(3.93231, abs=1e-3)


def test_kksh_find_mu_star_without_a_rotation_exits_1(tmp_path, capsys):
    """(1, 2) at h = 1 has no rotation in the mu* bracket: exit 1 naming
    the bracket, before any file (the square-root form of the condition
    returned a hyperbolic 0.31099 and exited 0 with orbit type (H,H))."""
    out = tmp_path / "k12"
    assert main(["kksh", "--mn", "1,2", "--h", "1", "--find-mu-star", "--t", "0",
                 "--invariant-grid", "0", "-o", str(out)]) == 1
    assert stderr(capsys) == ("numeric failure: no sign change of the rotation "
                              "condition on (0.3, 0.85)\n")
    assert not out.exists()


# ------------------------------------------------------------ the reused parser

def test_the_parser_is_built_once_per_process(tmp_path):
    import ads_null_flows.cli as cli

    cli.build_parser.cache_clear()
    for n_max in ("0", "1"):
        assert main(["hierarchy", "--n-max", n_max, "-o", str(tmp_path / n_max)]) == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def _recording(monkeypatch, name):
    """cli.<name> replaced by a stand-in that records (args, config) and
    returns 0."""
    import ads_null_flows.cli as cli

    calls = []
    monkeypatch.setattr(cli, name, lambda args, config: calls.append((args, config)) or 0)
    return calls


def test_a_command_replaced_after_the_first_call_is_the_one_that_runs(tmp_path, monkeypatch):
    """The cached parser holds the cmd_* of its build, but main runs the
    module's current one: a wrapper installed, or a stand-in patched, after
    the parser was built still sees every call."""
    assert main(["hierarchy", "--n-max", "0", "-o", str(tmp_path / "h")]) == 0
    calls = _recording(monkeypatch, "cmd_floquet")
    assert main(["floquet", "--mu", "0.9", "--q", "2/5", "-o", str(tmp_path / "f")]) == 0
    assert len(calls) == 1 and calls[0][0].q == Fraction(2, 5)
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("command, extra", [
    ("stationary", ["--mu", "0.9", "--q", "2/5"]),
    ("kksh", ["--mn", "1,6", "--h", "2", "--mu", "0.6"]),
])
def test_list_options_leak_nothing_into_the_next_call(monkeypatch, command, extra):
    """--t and --set given to one call leave the next call's defaults
    empty: the shared parser's default lists are never filled."""
    from ads_null_flows.config import DEFAULT

    calls = _recording(monkeypatch, f"cmd_{command}")
    assert main(["--set", "integrator_rel_tol=1e-10", command, *extra, "--t", "0,0.1"]) == 0
    assert main([command, *extra]) == 0
    (first, first_config), (second, second_config) = calls
    assert first.t == [0.0, 0.1] and first.set == ["integrator_rel_tol=1e-10"]
    assert first_config.integrator_rel_tol == 1e-10
    assert second.t == [] and second.set == [] and second_config == DEFAULT


@pytest.mark.parametrize("bad", [
    ["floquet", "--mu", "x", "--q", "2/5"],        # argparse rejects it
    ["hierarchy", "--n-max", "9"],                 # cmd_hierarchy's UsageError
])
def test_a_usage_error_leaves_the_next_call_as_it_was(tmp_path, capsys, bad):
    import ads_null_flows.cli as cli

    def valid(out):
        assert main(["hierarchy", "--n-max", "2", "--verify", "-o", str(out)]) == 0
        return capsys.readouterr().out.replace(str(out), "OUT"), (out / "hierarchy.json").read_bytes()

    cli.build_parser.cache_clear()
    fresh = valid(tmp_path / "fresh")
    with pytest.raises(SystemExit) as exc:
        main([*bad, "-o", str(tmp_path / "bad")])
    assert exc.value.code == 2
    capsys.readouterr()
    assert valid(tmp_path / "after") == fresh
    assert cli.build_parser.cache_info().misses == 1


def test_importing_the_cli_builds_no_parser():
    """The parser is built on the first main call: importing the module
    (the bench's set-up, and any library import) creates no ArgumentParser."""
    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import ads_null_flows.cli as cli\n"
            "print(len(built), cli.build_parser.cache_info().currsize)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 0\n"
