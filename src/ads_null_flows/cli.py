"""Command-line front end.

    ads-null-flows hierarchy  --n-max 3 [--lien] [--verify] -o DIR
    ads-null-flows floquet    --mu 0.9 --q 2/5 --count 2 -o DIR
    ads-null-flows stationary --mu 0.9 --q 2/5 [--indices 0,1] [--t ...] -o DIR
    ads-null-flows constant   (--mn 7,3 | --kappa -1.45) [--s-span 12] -o DIR
    ads-null-flows kksh       --mn 1,6 --h 2 (--mu 0.615 | --find-mu-star)
                              [--t 0,0.537285,...] -o DIR
    ads-null-flows check

Exit codes: 0 success, 1 numeric failure (config.NumericFailure), 2 usage
error (config.UsageError, or an option argparse rejects); any other
exception is a programming error and keeps its traceback.  Outputs are JSON
(curve samples with the torical embedding and the frame matrix), OBJ
polylines, and CSV tables; every file embeds the recipe name and the config
digest.

The argparse parser is built on the first main call, not at import, and
reused by every later call in the process; main runs this module's current
cmd_*, so one replaced after the first call (a wrapper or a test's
stand-in) is the one that runs.  Only a process that calls main repeatedly
saves time by this.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import jetalg
from .config import NumericFailure, RunConfig, UsageError, load_config
from .io_formats import (fnum, write_csv, write_curve_json, write_hierarchy_json,
                         write_obj_polyline)
from .kdvsol import KkshSpec, StationaryBending
from .lame import floquet_search
from .nullcurve import (
    SpinorFramePath,
    bending_oracle,
    classify_monodromies,
    closed_constant,
    constant_bending_path,
    constant_case_tag,
    constant_curve_period,
    kksh_frames_t0,
    kksh_mu_star,
    lien_evolve,
    monodromy_trace_drift,
    proper_time_checks,
    stationary_curve,
    stationary_paths,
    torical_embed,
    winding_numbers,
)
from .nullcurve.evolve import KDV_GATE, agreement_bound
from .specfun import complete_elliptic


# stationary grids: POINTS_PER_PERIOD intervals per bending period, and never
# fewer than MIN_POINTS_PER_PERIOD in all, since the 7-point bending oracle
# needs at least 7 samples
POINTS_PER_PERIOD = 256
MIN_POINTS_PER_PERIOD = 8
# the bending oracle's truncation error falls as ds^4 and grows with the
# frames' phase 2 K(mu) sqrt(h-) over a Lame period, so a stationary grid
# doubles POINTS_PER_PERIOD until it is SAMPLES_PER_PHASE times that phase:
# 256 serves the (0, 1) pairs (4.5-15.5); (8, 9) at mu = 0.9, q = 2/5
# (30.7) takes 512, residual 1.5e-4 against 2.3e-3 at 256
SAMPLES_PER_PHASE = 16
# the most samples a stationary grid, its windings path, or kksh's invariant
# grid may ask for, and the most windings and snapshot points one stationary
# transport carries beside its grid: each sample costs memory, and each
# invariant-grid point a transport
MAX_SAMPLES = 1 << 16
# samples per period of the closed stationary path that windings are read off
WINDING_SAMPLES = 64


def _int_pair(text: str):
    a, b = text.split(",")
    return int(a), int(b)


def _index_pair(text: str):
    pair = _int_pair(text)
    if min(pair) < 0:
        raise argparse.ArgumentTypeError(f"indices must be >= 0, got {text}")
    return pair


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text}") from None


def _float_list(text: str):
    return [_finite_float(x) for x in text.split(",")] if text else []


def _grid_samples(intervals: float) -> float:
    """The samples of a grid of int(intervals) intervals, or inf where the
    interval count is past the float range."""
    return int(intervals) + 1 if math.isfinite(intervals) else math.inf


def _check_samples(option: str, samples: float) -> None:
    if samples > MAX_SAMPLES:
        raise UsageError(f"{option} asks for {samples} samples, "
                         f"more than {MAX_SAMPLES}")


def _snapshot_tags(prefix: str, t_list) -> list:
    """One file tag per snapshot time, t spelt to 6 significant digits; times
    that share a tag would overwrite each other's files, so they are a usage
    error."""
    tags = [f"{prefix}{fnum(t, 6)}" for t in t_list]
    if len(set(tags)) < len(tags):
        raise UsageError(f"--t times {t_list} give repeated snapshot names {tags}")
    return tags


def _export_path(outdir: Path, path: SpinorFramePath, recipe: str,
                 config: RunConfig, tag: str, extra: dict | None = None):
    gamma = path.gamma()
    if not np.isfinite(gamma).all():
        raise NumericFailure(f"{tag}: the curve leaves the float64 range")
    pts = torical_embed(gamma)
    write_curve_json(outdir / f"{tag}.json", recipe, config, path.s_grid, gamma, pts,
                     extra)
    write_obj_polyline(outdir / f"{tag}.obj", recipe, config, pts)
    # the cousins eta+- are the first columns of the factors
    for sign, F in zip(("plus", "minus"), path.F):
        write_csv(outdir / f"{tag}_cousin_{sign}.csv", recipe, config, ("s", "x", "y"),
                  np.column_stack((path.s_grid, F[:, :, 0])))


def _diagnostics(path: SpinorFramePath) -> dict:
    gamma = path.gamma()
    ds = float(path.s_grid[1] - path.s_grid[0])
    q0, q1, q2 = proper_time_checks(gamma, ds)
    kap = bending_oracle(gamma, s_grid=path.s_grid)
    sel = ~np.isnan(kap)
    return {
        "metric_residual": q0,
        "null_residual": q1,
        "proper_time_residual": q2,
        "bending_residual": float(np.abs(kap[sel] - path.kappa[sel]).max()),
        "det_drift": float(np.abs(np.linalg.det(path.F) - 1.0).max()),
    }


# ------------------------------------------------------------------ commands

def cmd_hierarchy(args, config: RunConfig) -> int:
    if args.n_max > 8:
        raise UsageError("n-max capped at 8 (coefficient growth)")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    entries, text_lines = [], []
    for n in range(args.n_max + 1):
        polys = [("p", jetalg.lenard_p(n))]
        if n >= 1:
            polys.append(("h", jetalg.hamiltonian_density(n)))
        if args.lien:
            polys += zip("ab", jetalg.lien_coefficients(n)[2:])
        # the JSON carries the text of p and h only; the text file all four
        entry = {"n": n}
        for name, poly in polys:
            terms = poly.sorted_terms()
            text = jetalg.terms_text(terms)
            entry[name] = terms
            if name in ("p", "h"):
                entry[f"{name}_text"] = text
            text_lines.append(f"{name}_{n} = {text}")
        entries.append(entry)
    write_hierarchy_json(outdir / "hierarchy.json", config, args.n_max, entries)
    (outdir / "hierarchy.txt").write_text("\n".join(text_lines) + "\n")
    if args.verify:
        for n in range(1, args.n_max + 1):
            if jetalg.hamiltonian_density(n).euler() != jetalg.lenard_p(n):
                raise NumericFailure(f"density identity failed at n={n}")
            if n >= 2 and jetalg.lenard_p(n).total_derivative() \
                    != jetalg.lenard_p(n - 1).script_D():
                raise NumericFailure(f"recursion identity failed at n={n}")
        for n in range(min(args.n_max, 3) + 1):
            if not jetalg.mat_is_zero(jetalg.zero_curvature_check(n)):
                raise NumericFailure(f"zero curvature failed at n={n}")
        print("hierarchy identities verified")
    print(f"wrote {outdir}/hierarchy.json")
    return 0


def cmd_floquet(args, config: RunConfig) -> int:
    records = floquet_search(args.mu, args.q.numerator, args.q.denominator,
                             args.count, config)
    outdir = Path(args.outdir)
    rows = [(r.index, r.h, r.tau, r.order) for r in records]
    write_csv(outdir / "floquet.csv", "floquet", config,
              ("index", "h", "tau", "order"), rows)
    for r in records:
        print(f"h[{r.index}] = {fnum(r.h, 12)}  tau = {fnum(r.tau, 12)}  "
              f"order = {r.order}")
    return 0


def cmd_stationary(args, config: RunConfig) -> int:
    tags = _snapshot_tags("stationary_t", args.t)
    _check_samples("--periods", _grid_samples(POINTS_PER_PERIOD * args.periods))
    q = args.q
    # the curve closes after q's denominator of periods (see below)
    _check_samples("--q", WINDING_SAMPLES * q.denominator + 1)
    indices = args.indices
    count = max(indices) + 1
    records = floquet_search(args.mu, q.numerator, q.denominator, count, config)
    h_plus = records[indices[0]].h
    h_minus = records[indices[1]].h
    if h_minus < h_plus:
        h_plus, h_minus = h_minus, h_plus
    spec = StationaryBending(args.mu, h_plus, h_minus)
    outdir = Path(args.outdir)
    rho = spec.s_period
    phase = 2.0 * complete_elliptic(args.mu)[0] * math.sqrt(h_minus)
    per = POINTS_PER_PERIOD
    while per < SAMPLES_PER_PHASE * phase:
        per *= 2
    _check_samples("--periods", _grid_samples(per * args.periods))
    intervals = int(per * args.periods)
    if intervals >= MIN_POINTS_PER_PERIOD:
        # spacing rho / per (exact), so every whole period is a sample; the
        # grid ends at the last sample within the periods
        grid = np.linspace(0.0, intervals * (rho / per), intervals + 1)
    else:
        grid = np.linspace(0.0, args.periods * rho, MIN_POINTS_PER_PERIOD + 1)
    # both eigenvalues have the exponent q = p/d, so each factor's monodromy
    # over rho is the rotation by q pi (+-Id at q = 0, 1): both reach +-Id
    # first after d periods, with the sign (-1)^p of the spin
    least_period = q.denominator * rho
    full = np.linspace(0.0, least_period, WINDING_SAMPLES * q.denominator + 1)
    # the base, the windings path and every snapshot from one transport
    base, (closed_path, *snaps) = stationary_paths(
        spec, grid, [(full, 0.0)] + [(grid, t) for t in args.t], MAX_SAMPLES, config)
    diag = _diagnostics(base)
    extra = {
        "mu": args.mu, "h_plus": h_plus, "h_minus": h_minus, "ell": spec.ell,
        "rho": rho, "diagnostics": diag,
        "orbit_type": "(E,E)" if 0 < q < 1 else "(C,C)", "closed": True,
        "least_period": least_period, "spin": "1/2" if q.numerator % 2 else "1",
        "windings": list(winding_numbers(closed_path.gamma())),
    }
    _export_path(outdir, base, "stationary", config, "stationary_base", extra)
    for snap, t, tag in zip(snaps, args.t, tags):
        _export_path(outdir, snap, "stationary", config, tag, {"t": t})
    if diag["metric_residual"] > config.tol_metric or \
            diag["bending_residual"] > 1e-3:
        raise NumericFailure(f"invariant violation: {diag}")
    print(f"stationary curve: h+ = {fnum(h_plus, 10)}, h- = {fnum(h_minus, 10)}, "
          f"ell = {fnum(spec.ell, 10)}")
    print(json.dumps(extra.get("diagnostics"), indent=1))
    return 0


def cmd_constant(args, config: RunConfig) -> int:
    outdir = Path(args.outdir)
    if args.mn:
        m, n = args.mn
        kappa, spin, knot = closed_constant(m, n)
        period = constant_curve_period(m, n)
        grid = np.linspace(0.0, period, 2049)
        path = constant_bending_path(float(kappa), grid)
        # kappa_{m,n} < -1 makes both factors elliptic: "(E,E)", and closed
        case = constant_case_tag(float(kappa))
        extra = {
            "kappa": str(kappa), "case": case,
            "spin": str(spin), "torus_knot": list(knot),
            "orbit_type": case, "closed": True,
            "least_period": period,
            "windings": list(winding_numbers(path.gamma())),
        }
        _export_path(outdir, path, "constant", config, f"constant_{m}_{n}", extra)
        print(f"kappa_{m},{n} = {kappa}  spin = {spin}  knot = {knot}")
    else:
        kappa0 = args.kappa
        grid = np.linspace(0.0, args.s_span, 1025)
        path = constant_bending_path(kappa0, grid)
        tag = constant_case_tag(kappa0)
        notes = {
            "(P,E)": "single ideal limit curve",
            "(H,E)": "two distinct ideal limit curves",
            "(H,P)": "two ideal limit points",
            "(H,H)": "two ideal limit points",
        }
        extra = {"kappa": kappa0, "case": tag, "closed": tag == "(E,E)"}
        if tag in notes:
            extra["ideal_boundary"] = notes[tag]
        _export_path(outdir, path, "constant", config,
                     f"constant_k{fnum(kappa0, 6)}", extra)
        print(f"constant bending {kappa0}: case {tag}")
    return 0


def cmd_kksh(args, config: RunConfig) -> int:
    m, n = args.mn
    outdir = Path(args.outdir)
    meta = {"m": m, "n": n, "h": args.h}
    t_list = args.t or [0.0]
    if t_list[0] != 0.0:
        t_list = [0.0] + t_list
    tags = _snapshot_tags("kksh_t", t_list)
    _check_samples("--invariant-grid", args.invariant_grid)
    # every spec before any transport, so a usage error leaves no files
    mu_grid = np.linspace(0.08, 0.92, args.invariant_grid)
    grid_specs = [KkshSpec.with_quantum_numbers(float(mu_i), m, n, args.h)
                  for mu_i in mu_grid]
    if args.find_mu_star:
        mu = kksh_mu_star(m, n, args.h, config=config)
        meta["mu_star"] = mu
        print(f"mu* = {fnum(mu, 10)}")
    else:
        if args.mu is None:
            raise UsageError("pass --mu or --find-mu-star")
        mu = args.mu
    spec = KkshSpec.with_quantum_numbers(mu, m, n, args.h)
    rho = spec.s_period
    meta.update({"mu": mu, "tau": spec.tau, "rho": rho})
    grid = np.linspace(-rho / 2 if args.wings else 0.0,
                       rho * (1.0 if not args.wings else 0.5) + rho,
                       257)
    ev = lien_evolve(spec, grid, np.array(t_list), config)
    print(f"KdV gate residual {fnum(ev.gate_residual, 3)} (tolerance {KDV_GATE:.0e})")
    if ev.commutator is None:
        print("period lattice: no t reduced to a cell, the t-system transported directly")
    else:
        n1, n2 = ev.cells[-1]
        print(f"period lattice: (n1, n2) = ({n1}, {n2}) cells at the last t; holonomy "
              f"commutator {fnum(ev.commutator, 3)} (tolerance "
              f"{agreement_bound(config):.0e})")
    # the trace drift is conjugation-invariant and stable; the raw matrix
    # drift ||M(t) - M(0)|| of entries up to 4e12 would export rounding noise
    dp, dm = monodromy_trace_drift(ev)
    meta["monodromy_trace_drift"] = [dp, dm]
    meta["period_gap"] = ev.period_gap
    cls = classify_monodromies(*ev.monodromies[:, 0], rho)
    meta["orbit_type"] = cls.type_pair
    meta["invariants"] = [cls.plus.invariant, cls.minus.invariant]
    for path, t, tag in zip(ev.paths, t_list, tags):
        _export_path(outdir, path, "kksh", config, tag, {**meta, "t": t})
    tr = np.trace(kksh_frames_t0(grid_specs, config=config), axis1=-2, axis2=-1)
    itable = [(float(mu_i), trp * trp - 4.0, trm * trm - 4.0)
              for mu_i, trp, trm in zip(mu_grid, *tr.tolist())]
    write_csv(outdir / "kksh_invariants.csv", "kksh", config,
              ("mu", "I_plus", "I_minus"), itable)
    if not ev.one_period:
        print(f"period gap {fnum(ev.period_gap, 3)} refused the one-period route: the "
              "orbit type and trace drift are those of Phi(rho) of a bending periodic "
              "only to that gap")
    print(f"orbit type {cls.type_pair}; monodromy trace drift "
          f"{fnum(dp, 3)} / {fnum(dm, 3)}")
    return 0


def cmd_check(args, config: RunConfig) -> int:
    rows = []

    def add(name, value, tol):
        rows.append((name, value, tol, "ok" if value <= tol else "FAIL"))

    p2 = jetalg.lenard_p(2)
    add("lenard_p2", 0.0 if p2.text() == "u2 - 3*u^2" else 1.0, 0.5)
    zc = 0.0 if all(jetalg.mat_is_zero(jetalg.zero_curvature_check(k))
                    for k in range(3)) else 1.0
    add("zero_curvature_n<=2", zc, 0.5)
    K, E = complete_elliptic(0.5)
    add("K_half", abs(K - 1.8540746773013719), 1e-10)
    # m = 1/2 is its own complement, so K' = K and E' = E in E K' + E' K - K K'
    add("legendre", abs(E * K + E * K - K * K - math.pi / 2), 1e-10)
    spec = StationaryBending(0.9, 0.9300299176777007, 2.225980871712621)
    grid = np.linspace(0.0, 2 * spec.s_period, 1601)
    path = stationary_curve(spec.mu, spec.h_plus, spec.h_minus, grid, config=config)
    d = _diagnostics(path)
    add("stationary_metric", d["metric_residual"], config.tol_metric)
    add("stationary_null", d["null_residual"], 1e-6)
    add("stationary_proper_time", d["proper_time_residual"], 1e-4)
    add("stationary_bending", d["bending_residual"], 1e-3)
    s_grid = np.linspace(0.0, spec.s_period, 17)
    t_grid = np.linspace(0.0, 0.2, 5)
    ev = lien_evolve(spec, s_grid, t_grid, config)
    add("monodromy_preservation", ev.monodromy_drift(spec.s_period), 1e-4)
    width = max(len(r[0]) for r in rows) + 2
    print(f"{'check'.ljust(width)}{'residual':>12}  {'tolerance':>10}  status")
    failed = False
    for name, value, tol, status in rows:
        print(f"{name.ljust(width)}{value:12.3e}  {tol:10.1e}  {status}")
        failed = failed or status == "FAIL"
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ads-null-flows",
        description="Null curves of the anti-de Sitter 3-space under the "
                    "KdV-type flow hierarchy: spectra, curves, exports.")
    ap.add_argument("--config", help="key=value config file", default=None)
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="config override (repeatable)")
    sub = ap.add_subparsers(dest="command", required=True)

    h = sub.add_parser("hierarchy", help="differential polynomials of the flows")
    h.add_argument("--n-max", type=_nonneg_int, default=3)
    h.add_argument("--lien", action="store_true")
    h.add_argument("--verify", action="store_true")
    h.add_argument("-o", "--outdir", default="out")
    h.set_defaults(func=cmd_hierarchy)

    f = sub.add_parser("floquet", help="eigenvalue search")
    f.add_argument("--mu", type=_finite_float, required=True)
    f.add_argument("--q", type=_fraction, required=True,
                   help="characteristic exponent, e.g. 2/5")
    f.add_argument("--count", type=int, default=2)
    f.add_argument("-o", "--outdir", default="out")
    f.set_defaults(func=cmd_floquet)

    st = sub.add_parser("stationary", help="stationary curves and their evolution")
    st.add_argument("--mu", type=_finite_float, required=True)
    st.add_argument("--q", type=_fraction, required=True)
    st.add_argument("--indices", type=_index_pair, default=(0, 1))
    st.add_argument("--periods", type=_positive_float, default=1.0)
    st.add_argument("--t", type=_float_list, default=[],
                    help="comma list of snapshot times; one that starts "
                         "with a negative time is written --t=-0.4,0.7")
    st.add_argument("-o", "--outdir", default="out")
    st.set_defaults(func=cmd_stationary)

    c = sub.add_parser("constant", help="constant-bending curves")
    g = c.add_mutually_exclusive_group(required=True)
    g.add_argument("--mn", type=_int_pair, help="coprime pair m,n with m>n")
    g.add_argument("--kappa", type=_finite_float)
    c.add_argument("--s-span", type=_positive_float, default=12.0)
    c.add_argument("-o", "--outdir", default="out")
    c.set_defaults(func=cmd_constant)

    k = sub.add_parser("kksh", help="three-parameter family evolution")
    k.add_argument("--mn", type=_int_pair, required=True)
    k.add_argument("--h", type=_finite_float, required=True)
    # both at once is argparse's usage error, neither is cmd_kksh's
    g = k.add_mutually_exclusive_group()
    g.add_argument("--mu", type=_finite_float)
    g.add_argument("--find-mu-star", action="store_true")
    k.add_argument("--t", type=_float_list, default=[],
                   help="comma list of snapshot times; one that starts "
                        "with a negative time is written --t=-0.4,0.7")
    k.add_argument("--wings", action="store_true",
                   help="sample [-rho/2, 3 rho/2] instead of [0, 2 rho]")
    k.add_argument("--invariant-grid", type=_nonneg_int, default=10)
    k.add_argument("-o", "--outdir", default="out")
    k.set_defaults(func=cmd_kksh)

    ck = sub.add_parser("check", help="invariant and regression suite")
    ck.set_defaults(func=cmd_check)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    # the parser keeps the cmd_* it was built with: run the module's current one
    command = globals()[args.func.__name__]
    try:
        return command(args, load_config(args.config, args.set))
    except UsageError as exc:
        ap.error(str(exc))
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
