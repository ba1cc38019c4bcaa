"""Checks of the program's exported results.

Each check compares a result with bench/reference.py, which computes it
apart from the program, or with a property the method must have.  A check
returns (ok, detail); nothing is compared with a stored copy of earlier
output.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

import reference as ref

TAU_TOL = 1e-8          # |tau_ref(h) - cos(q pi)| for an exported eigenvalue
DOUBLE_POINT_TOL = 1e-8  # max |M_ref -+ Id| at a coexistence eigenvalue
BENDING_TOL = 1e-3      # finite-difference bending, the stationary recipe's gate
CONSTANT_TOL = 1e-9     # exported constant curve against the expm closed form
MU_STAR_TOL = 1e-6      # |tr F-(rho; mu*) - 2 cos(4 pi / 3)|
TRACE_TOL = 1e-6        # relative, invariant table against reference traces
DRIFT_TOL = 1e-6        # conserved monodromy traces across the snapshots


def fail(detail: str):
    return False, detail


def ok(detail: str = ""):
    return True, detail


def snapshot_name(t: float) -> str:
    return f"{float(t):.6g}"


def read_csv(path: Path):
    """(header, rows as lists of strings), skipping the # comment lines."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:] if ln]


def read_curve(path: Path):
    """(meta, s, matrices (n,2,2), chart points (n,3)) of an exported curve."""
    doc = json.loads(path.read_text())
    samples = doc["samples"]
    s = np.array([p["s"] for p in samples], dtype=float)
    mats = np.array([p["matrix"] for p in samples], dtype=float).reshape(-1, 2, 2)
    xyz = np.array([[p["x"], p["y"], p["z"]] for p in samples], dtype=float)
    return doc["meta"], s, mats, xyz


def unimodular(mats: np.ndarray, tol: float):
    """Finite samples with |det - 1| <= tol."""
    if not np.isfinite(mats).all():
        bad = int((~np.isfinite(mats).all(axis=(1, 2))).sum())
        return fail(f"{bad} of {len(mats)} samples not finite")
    det_err = float(np.abs(np.linalg.det(mats) - 1.0).max())
    if not det_err <= tol:
        return fail(f"|det gamma - 1| = {det_err:.2e} > {tol:.0e}")
    return ok(f"|det gamma - 1| = {det_err:.1e}")


# ------------------------------------------------------------- spectra

def floquet_rows(outdir: Path, mu: float, q: Fraction, count: int,
                 printed: dict | None = None):
    """One (ok, detail) per requested eigenvalue of floquet.csv."""
    header, rows = read_csv(outdir / "floquet.csv")
    if header != ["index", "h", "tau", "order"]:
        raise ValueError(f"unexpected header {header}")
    results = []
    prev_h = -math.inf
    for i in range(count):
        if i >= len(rows):
            results.append(fail(f"eigenvalue {i} missing"))
            continue
        index, h, _, order = int(rows[i][0]), float(rows[i][1]), rows[i][2], int(rows[i][3])
        results.append(_eigenvalue(mu, q, i, index, h, order, prev_h,
                                   (printed or {}).get(i)))
        prev_h = h
    return results


def _eigenvalue(mu, q, i, index, h, order, prev_h, printed):
    if index != i or not math.isfinite(h) or not h > prev_h:
        return fail(f"row {i}: index {index}, h {h} after {prev_h}")
    in_band = h > 1.0 + mu or (0 < q < 1 and mu < h < 1.0)
    if not in_band:
        return fail(f"h = {h} outside the spectrum bands for mu = {mu}")
    if order != ref.floquet_order(q):
        return fail(f"order {order}, exponent {q} gives {ref.floquet_order(q)}")
    M = ref.lame_monodromy(mu, h)
    if 0 < q < 1:
        err = abs(0.5 * float(np.trace(M)) - math.cos(math.pi * q))
        tol = TAU_TOL
    else:
        sign = 1.0 if q == 0 else -1.0
        err = float(np.abs(M - sign * np.eye(2)).max())
        tol = DOUBLE_POINT_TOL
    if not err <= tol:
        return fail(f"h = {h!r}: reference residual {err:.2e} > {tol:.0e}")
    if printed is not None:
        digits = len(printed.split(".")[1])
        if abs(h - float(printed)) > 0.5 * 10.0 ** -digits:
            return fail(f"h = {h!r} does not print as {printed}")
    return ok(f"h = {h:.12g}, residual {err:.1e}")


# -------------------------------------------------------------- curves

def stationary_samples(s, mats, xyz, mu, h_plus, h_minus, t, tol_metric):
    """Unimodular finite samples, chart image consistent with the matrices,
    and finite-difference bending equal to the sn^2 closed form."""
    verdict = unimodular(mats, tol_metric)
    if not verdict[0]:
        return verdict
    if xyz is not None and not np.abs(xyz - ref.torus_chart(mats)).max() <= 1e-12:
        return fail("chart points disagree with the matrices")
    ds = float(s[1] - s[0])
    if np.abs(np.diff(s) - ds).max() > 1e-9 * abs(ds):
        return fail("samples not on a uniform grid")
    kap = ref.fd_bending(mats, ds)
    want = ref.stationary_kappa(mu, h_plus, h_minus, s[3:-3], t)
    err = float(np.abs(kap - want).max())
    if not err <= BENDING_TOL:
        return fail(f"bending residual {err:.2e} > {BENDING_TOL:.0e}")
    return ok(f"{verdict[1]}, bending residual {err:.1e}")


def stationary_export(outdir: Path, t_list, tol_metric):
    """Base curve plus one result per snapshot time."""
    meta, s, mats, xyz = read_curve(outdir / "stationary_base.json")
    mu, hp, hm = meta["mu"], meta["h_plus"], meta["h_minus"]
    results = [stationary_samples(s, mats, xyz, mu, hp, hm, 0.0, tol_metric)]
    for t in t_list:
        _, s, mats, xyz = read_curve(outdir / f"stationary_t{snapshot_name(t)}.json")
        results.append(stationary_samples(s, mats, xyz, mu, hp, hm, t, tol_metric))
    return results


def constant_closed(outdir: Path, m: int, n: int):
    meta, s, mats, xyz = read_curve(outdir / f"constant_{m}_{n}.json")
    kappa, period, knot = ref.closed_constant(m, n)
    if Fraction(meta["kappa"]) != kappa or tuple(meta["torus_knot"]) != knot:
        return fail(f"kappa {meta['kappa']}, knot {meta['torus_knot']}; "
                    f"want {kappa}, {knot}")
    if abs(s[-1] - period) > 1e-12 * period or abs(meta["least_period"] - period) > 1e-12 * period:
        return fail(f"period {s[-1]!r}, closed form {period!r}")
    verdict = _constant_samples(s, mats, xyz, float(kappa))
    if not verdict[0]:
        return verdict
    closure = float(np.abs(mats[-1] - mats[0]).max())
    if not closure <= CONSTANT_TOL:
        return fail(f"curve does not close at the period: {closure:.2e}")
    turns = ref.axial_turns(xyz)
    if abs(turns - round(turns)) > 1e-6 or abs(round(turns)) != abs(knot[0]):
        return fail(f"axial winding {turns:.6f}, torus knot {knot}")
    return ok(f"{verdict[1]}, winding {round(turns)}")


def constant_open(outdir: Path, kappa0: float, s_span: float, case: str):
    meta, s, mats, xyz = read_curve(outdir / f"constant_k{snapshot_name(kappa0)}.json")
    if meta["case"] != case or abs(s[-1] - s_span) > 1e-12 * s_span:
        return fail(f"case {meta['case']} over {s[-1]}, want {case} over {s_span}")
    return _constant_samples(s, mats, xyz, kappa0)


def _constant_samples(s, mats, xyz, kappa0):
    verdict = unimodular(mats, CONSTANT_TOL)
    if not verdict[0]:
        return verdict
    want = ref.constant_gamma(kappa0, s)
    err = float((np.abs(mats - want) / (1.0 + np.abs(want))).max())
    if not err <= CONSTANT_TOL:
        return fail(f"samples differ from exp(s C+) exp(s C-)^-1 by {err:.2e}")
    if not np.abs(xyz - ref.torus_chart(mats)).max() <= 1e-12:
        return fail("chart points disagree with the matrices")
    return ok(f"closed-form error {err:.1e}")


def check_table(rc: int, text: str):
    """Every row of the `check` recipe within its printed tolerance."""
    rows = [ln.split() for ln in text.splitlines()[1:] if ln.strip()]
    if rc != 0 or not rows:
        return fail(f"exit code {rc}, {len(rows)} rows")
    for name, value, tol, status in rows:
        if status != "ok" or not float(value) <= float(tol):
            return fail(f"{name}: {value} against {tol} ({status})")
    return ok(f"{len(rows)} rows within tolerance")


def hierarchy(outdir: Path, n_max: int):
    """Exact Lenard recursion and the first two flows, from hierarchy.json."""
    doc = json.loads((outdir / "hierarchy.json").read_text())
    entries = doc["polynomials"]
    if [e["n"] for e in entries] != list(range(n_max + 1)):
        return fail("entries are not n = 0..n_max")
    p = [ref.jet_poly(e["p"]) for e in entries]
    u = {((0, 1),): Fraction(1)}
    want = {
        0: {(): Fraction(1)},
        1: u,
        2: {((2, 1),): Fraction(1), ((0, 2),): Fraction(-3)},
        3: {((4, 1),): Fraction(1), ((0, 1), (2, 1)): Fraction(-10),
            ((1, 2),): Fraction(-5), ((0, 3),): Fraction(10)},
    }
    for n, poly in want.items():
        if n <= n_max and p[n] != poly:
            return fail(f"p_{n} = {entries[n]['p_text']}")
    for n in range(1, n_max + 1):
        if () in p[n]:
            return fail(f"p_{n} has a constant term")
    for n in range(2, n_max + 1):
        if not ref.lenard_step_holds(p[n - 1], p[n]):
            return fail(f"D p_{n} != (D^3 - 4uD - 2u_1) p_{n - 1}")
    flows = {1: ({((0, 1),): Fraction(4)}, {(): Fraction(-8)}),
             2: ({((2, 1),): Fraction(4), ((0, 2),): Fraction(-12), (): Fraction(-32)},
                 {((0, 1),): Fraction(16)})}
    for n, (a, b) in flows.items():
        if n <= n_max and "a" in entries[n] and \
                (ref.jet_poly(entries[n]["a"]) != a or ref.jet_poly(entries[n]["b"]) != b):
            return fail(f"flow coefficients a_{n}, b_{n} differ from the LIEN flows")
    return ok(f"Lenard recursion exact through n = {n_max}")


# ---------------------------------------------------------------- KKSH

def kksh(outdir: Path, m: int, n: int, h: float, t_list, tol_metric):
    """[mu*, tau_mn, trace drift, snapshots..., invariant table]."""
    meta, *_ = read_curve(outdir / "kksh_t0.json")
    mu, tau = meta["mu_star"], meta["tau"]
    results = []
    gap = abs(m * ref.g_of(mu) - n * ref.g_of(tau))
    tau_ok = gap <= 1e-12 * m * ref.g_of(mu)
    if tau_ok:
        _, Fm = ref.kksh_monodromies(mu, tau, h, m)
        err = abs(float(np.trace(Fm)) - 2.0 * math.cos(4.0 * math.pi / 3.0))
        results.append((err <= MU_STAR_TOL, f"mu* = {mu!r}: tr F- residual {err:.1e}"))
    else:
        results.append(fail("mu* not checked: tau is wrong"))
    results.append((tau_ok, f"m g(mu) - n g(tau) = {gap:.1e}"))
    dp, dm = meta["monodromy_trace_drift"]
    results.append((max(dp, dm) <= DRIFT_TOL and meta["orbit_type"] == "(H,E)",
                    f"trace drift {dp:.1e} / {dm:.1e}, orbit {meta['orbit_type']}"))
    for t in t_list:
        _, _, mats, _ = read_curve(outdir / f"kksh_t{snapshot_name(t)}.json")
        ok_t, detail = unimodular(mats, tol_metric)
        results.append((ok_t, f"t = {t}: {detail}"))
    results.append(kksh_invariants(outdir / "kksh_invariants.csv", m, n, h))
    return results


def kksh_invariants(path: Path, m: int, n: int, h: float, probe: int = 5):
    """Ten rows on linspace(0.08, 0.92), type (H,E) throughout, and one row
    against reference traces."""
    _, rows = read_csv(path)
    table = np.array(rows, dtype=float)
    if table.shape != (10, 3) or np.abs(table[:, 0] - np.linspace(0.08, 0.92, 10)).max() > 1e-15:
        return fail(f"table shape {table.shape}")
    if not (table[:, 1] > 0).all() or not (table[:, 2] < 0).all():
        return fail("not of type (H,E) on the whole grid")
    mu_i = float(table[probe, 0])
    Fp, Fm = ref.kksh_monodromies(mu_i, ref.tau_mn(mu_i, m, n), h, m)
    want = np.array([np.trace(Fp) ** 2 - 4.0, np.trace(Fm) ** 2 - 4.0])
    err = float((np.abs(table[probe, 1:] - want) / np.abs(want)).max())
    if not err <= TRACE_TOL:
        return fail(f"invariants at mu = {mu_i:.4f} off by {err:.1e} (relative)")
    return ok(f"(H,E) on the grid, reference error {err:.1e}")
