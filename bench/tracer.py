"""Spans and work counters recorded around the program's public functions.

The program has no instrumentation of its own, so the traced run wraps the
public functions of each layer from outside.  A wrapper is installed into
every module namespace of the package that bound the function at import, so
calls made through ``from .x import f`` bindings are seen too.  Spans
(name, start, end, parent) are kept in flat arrays in memory; the per-layer
figures are computed from them once the run ends.  ``uninstall`` puts every
patched attribute back.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import Counter
from typing import Callable

PACKAGE = "ads_null_flows"

# Public functions per layer: (module, attribute, span name).  A dotted
# attribute names a method, patched on its class.
FUNCTIONS = [
    ("specfun.elliptic", "complete_elliptic", "specfun.complete_elliptic"),
    ("specfun.elliptic", "jacobi_sncndn", "specfun.jacobi_sncndn"),
    ("specfun.elliptic", "sn_jet", "specfun.sn_jet"),
    ("specfun.heun", "HeunEvaluator.value_and_derivative",
     "specfun.HeunEvaluator.value_and_derivative"),
    ("jetalg.hierarchy", "lenard_p", "jetalg.lenard_p"),
    ("jetalg.hierarchy", "hamiltonian_density", "jetalg.hamiltonian_density"),
    ("jetalg.hierarchy", "lien_coefficients", "jetalg.lien_coefficients"),
    ("jetalg.matrices", "zero_curvature_check", "jetalg.zero_curvature_check"),
    ("lame", "floquet_search", "lame.floquet_search"),
    ("lame", "lame_monodromy", "lame.lame_monodromy"),
    ("lame", "HeunLameEvaluator.__init__", "lame.HeunLameEvaluator"),
    ("lame", "HeunLameEvaluator.__call__", "lame.HeunLameEvaluator"),
    ("kdvsol", "tau_mn", "kdvsol.tau_mn"),
    ("kdvsol", "KkshSpec.kappa_jet", "kdvsol.KkshSpec.kappa_jet"),
    ("nullcurve.evolve", "kksh_mu_star", "nullcurve.kksh_mu_star"),
    ("nullcurve.evolve", "kksh_frames_t0", "nullcurve.kksh_frames_t0"),
    ("nullcurve.evolve", "lien_evolve", "nullcurve.lien_evolve"),
    ("nullcurve.evolve", "monodromy_trace_drift", "nullcurve.monodromy_trace_drift"),
    ("nullcurve.stationary", "stationary_curve", "nullcurve.stationary_curve"),
    ("nullcurve.stationary", "evolve_stationary_path", "nullcurve.evolve_stationary_path"),
    ("nullcurve.classify", "classify_orbit", "nullcurve.classify_orbit"),
    ("nullcurve.frames", "bending_oracle", "nullcurve.bending_oracle"),
    ("nullcurve.frames", "proper_time_checks", "nullcurve.proper_time_checks"),
    ("nullcurve.torical", "torical_embed", "nullcurve.torical_embed"),
    ("nullcurve.torical", "winding_numbers", "nullcurve.winding_numbers"),
    ("io_formats", "write_curve_json", "io_formats.write_curve_json"),
    ("io_formats", "write_obj_polyline", "io_formats.write_obj_polyline"),
    ("io_formats", "write_csv", "io_formats.write_csv"),
] + [("cli", f"cmd_{c}", f"cli.cmd_{c}")
     for c in ("floquet", "stationary", "constant", "hierarchy", "kksh", "check")]

# scipy entry points the program binds at module level: (module, span layer)
SOLVE_IVP_BINDINGS = [("lame", "lame"), ("nullcurve.frames", "nullcurve"),
                      ("nullcurve.evolve", "nullcurve")]
BRENTQ_BINDINGS = [("kdvsol", "kdvsol")]
# brentq imported inside a function body (lame._refine, kksh_mu_star) is
# read from scipy.optimize at call time; the caller's module names the layer
BRENTQ_CALLERS = {f"{PACKAGE}.lame": "lame", f"{PACKAGE}.nullcurve.evolve": "nullcurve",
                  f"{PACKAGE}.kdvsol": "kdvsol"}

# (metric, unit) reported by a traced run, in BENCHMARK.json order
PER_LAYER = [
    ("lame.floquet_search.calls", "count"), ("lame.floquet_search.s", "s"),
    ("lame.lame_monodromy.calls", "count"), ("lame.lame_monodromy.self_s", "s"),
    ("lame.monodromies_per_eigenvalue", "calls/result"),
    ("lame.solve_ivp.calls", "count"), ("lame.solve_ivp.nfev", "count"),
    ("lame.brentq.calls", "count"), ("lame.brentq.fevals", "count"),
    ("lame.HeunLameEvaluator.calls", "count"), ("lame.HeunLameEvaluator.s", "s"),
    ("kdvsol.KkshSpec.kappa_jet.calls", "count"),
    ("kdvsol.KkshSpec.kappa_jet.self_s", "s"),
    ("kdvsol.KkshSpec.kappa_jet.order0.calls", "count"),
    ("kdvsol.KkshSpec.kappa_jet.order2.calls", "count"),
    ("kdvsol.KkshSpec.kappa_jet.order3.calls", "count"),
    ("kdvsol.tau_mn.calls", "count"), ("kdvsol.tau_mn.s", "s"),
    ("nullcurve.kksh_mu_star.s", "s"),
    ("nullcurve.kksh_frames_t0.calls", "count"), ("nullcurve.kksh_frames_t0.s", "s"),
    ("nullcurve.lien_evolve.s", "s"), ("nullcurve.lien_evolve.self_s", "s"),
    ("nullcurve.monodromy_trace_drift.s", "s"),
    ("nullcurve.solve_ivp.calls", "count"), ("nullcurve.solve_ivp.nfev", "count"),
    ("nullcurve.brentq.fevals", "count"),
    ("nullcurve.stationary_curve.calls", "count"), ("nullcurve.stationary_curve.s", "s"),
    ("nullcurve.evolve_stationary_path.s", "s"), ("nullcurve.classify_orbit.s", "s"),
    ("nullcurve.bending_oracle.s", "s"), ("nullcurve.proper_time_checks.s", "s"),
    ("nullcurve.torical_embed.s", "s"), ("nullcurve.winding_numbers.s", "s"),
    ("specfun.sn_jet.calls", "count"), ("specfun.sn_jet.self_s", "s"),
    ("specfun.jacobi_sncndn.calls", "count"), ("specfun.jacobi_sncndn.self_s", "s"),
    ("specfun.HeunEvaluator.value_and_derivative.calls", "count"),
    ("specfun.HeunEvaluator.value_and_derivative.self_s", "s"),
    ("specfun.complete_elliptic.calls", "count"),
    ("jetalg.lenard_p.s", "s"), ("jetalg.hamiltonian_density.s", "s"),
    ("jetalg.lien_coefficients.s", "s"), ("jetalg.zero_curvature_check.s", "s"),
    ("io_formats.write_curve_json.calls", "count"), ("io_formats.write_curve_json.s", "s"),
    ("io_formats.write_obj_polyline.s", "s"), ("io_formats.write_csv.s", "s"),
    ("io_formats.bytes", "B"),
] + [(f"cli.cmd_{c}.s", "s")
     for c in ("floquet", "stationary", "constant", "hierarchy", "kksh", "check")] + [
    ("trace.overhead_s", "s"),
]


class Tracer:
    """Flat in-memory span store plus named counters.

    Span i has name id ``name[i]``, times ``start[i]``/``end[i]`` and parent
    index ``parent[i]`` (-1 at the root).  ``nested[i]`` marks a span with an
    ancestor of the same name, so inclusive time counts recursion once.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, after: Callable | None = None,
             before: Callable | None = None) -> Callable:
        """fn recorded as one span per call.  before(args, kwargs) and
        after(args, kwargs, result) update counters at the same boundary."""
        nid = self._name_id(name)
        clock, stack, active = self.clock, self._stack, self._active
        names, parents, starts, ends, nested = \
            self.name, self.parent, self.start, self.end, self.nested

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            nested.append(1 if active[nid] else 0)
            ends.append(math.nan)
            active[nid] += 1
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                active[nid] -= 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def summary(self) -> dict:
        """{name: {"calls", "s", "self_s"}}: s is inclusive time of the
        outermost spans of that name, self_s is span time minus the time of
        its direct child spans, summed over all spans."""
        n = len(self.name)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {nm: {"calls": 0, "s": 0.0, "self_s": 0.0} for nm in self.names}
        rows = [out[nm] for nm in self.names]
        name, nested = self.name, self.nested
        for i in range(n):
            row = rows[name[i]]
            dur = end[i] - start[i]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            if not nested[i]:
                row["s"] += dur
        return out


class Installation:
    """Wrappers patched into the package's modules; ``uninstall`` restores."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._patches: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> "Installation":
        import scipy.optimize

        tr = self.tracer
        counts = tr.counts
        for mod_name, attr, span in FUNCTIONS:
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, tr.wrap(span, cls.__dict__[meth],
                                             **_hooks(span, counts)))
            else:
                original = getattr(mod, attr)
                self._replace_everywhere(original, tr.wrap(span, original,
                                                           **_hooks(span, counts)))
        for mod_name, layer in SOLVE_IVP_BINDINGS:
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            self._set(mod, "solve_ivp", tr.wrap(f"{layer}.solve_ivp", mod.solve_ivp,
                                                after=_count_nfev(layer, counts)))
        for mod_name, layer in BRENTQ_BINDINGS:
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            self._set(mod, "brentq", tr.wrap(f"{layer}.brentq",
                                             _counting_brentq(mod.brentq, layer, counts)))
        self._set(scipy.optimize, "brentq", _routed_brentq(tr, scipy.optimize.brentq))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _hooks(span: str, counts: Counter) -> dict:
    if span == "kdvsol.KkshSpec.kappa_jet":
        def before(args, kwargs):
            order = kwargs.get("order", args[3] if len(args) > 3 else 3)
            counts[f"{span}.order{order}.calls"] += 1
        return {"before": before}
    if span == "lame.floquet_search":
        def after(args, kwargs, result):
            counts["lame.eigenvalues"] += len(result)
        return {"after": after}
    if span.startswith("io_formats.write_"):
        def after(args, kwargs, result):
            counts["io_formats.bytes"] += args[0].stat().st_size
        return {"after": after}
    return {}


def _count_nfev(layer: str, counts: Counter) -> Callable:
    def after(args, kwargs, sol):
        counts[f"{layer}.solve_ivp.nfev"] += int(sol.nfev)
    return after


def _counting_brentq(brentq: Callable, layer: str, counts: Counter) -> Callable:
    key = f"{layer}.brentq.fevals"

    def counted(f, *args, **kwargs):
        def g(x, *fargs):
            counts[key] += 1
            return f(x, *fargs)
        return brentq(g, *args, **kwargs)

    return counted


def _routed_brentq(tracer: Tracer, brentq: Callable) -> Callable:
    """scipy.optimize.brentq replacement that names its span after the
    calling module's layer."""
    routes = {layer: tracer.wrap(f"{layer}.brentq",
                                 _counting_brentq(brentq, layer, tracer.counts))
              for layer in sorted(set(BRENTQ_CALLERS.values()))}

    @functools.wraps(brentq)
    def routed(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        return routes.get(BRENTQ_CALLERS.get(caller), brentq)(*args, **kwargs)

    return routed


def per_layer_metrics(spans: dict, counts: dict, overhead_s: float) -> dict:
    """Every PER_LAYER metric from a traced round's span summary and
    counters.  A function that never ran reports 0."""
    values = {}
    for metric, unit in PER_LAYER:
        base, _, field = metric.rpartition(".")
        if field in ("nfev", "fevals", "bytes") or ".order" in metric:
            value = counts.get(metric, 0)
        elif metric == "lame.monodromies_per_eigenvalue":
            found = counts.get("lame.eigenvalues", 0)
            calls = spans.get("lame.lame_monodromy", {}).get("calls", 0)
            value = calls / found if found else 0.0
        elif metric == "trace.overhead_s":
            value = overhead_s
        else:
            value = spans.get(base, {}).get(field, 0)
        values[metric] = {"value": value, "unit": unit}
    return values
