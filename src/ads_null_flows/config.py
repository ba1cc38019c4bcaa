"""Run-wide numeric configuration.

RunConfig holds the tolerances and grid settings a run may override; fixed
numerical choices are module constants next to their single reader.  The CLI
builds a RunConfig from an optional key=value file plus --set overrides;
DEFAULT is used everywhere else.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace


class UsageError(ValueError):
    """Invalid input: a parameter outside its domain (CLI exit code 2)."""


@dataclass(frozen=True)
class RunConfig:
    # adaptive integrator (embedded high-order Runge-Kutta)
    integrator_rel_tol: float = 1e-12
    integrator_abs_tol: float = 1e-14

    # Floquet eigenvalue search
    scan_h_ceiling: float = 500.0    # eigenvalues are sought below this h
    tol_h: float = 1e-10             # root tolerance on eigenvalues
    tol_floquet: float = 1e-8        # |tau - cos(q pi)| acceptance

    # monodromy order measurement
    order_max: int = 10_000

    # geometry tolerance
    tol_metric: float = 1e-8

    # grids
    min_points_per_period: int = 8

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                continue
            # ints are exact, and math.isfinite overflows on a huge one
            if v <= 0 or (isinstance(v, float) and not math.isfinite(v)):
                raise UsageError(
                    f"config field {f.name} must be positive and finite, got {v}")
        if self.min_points_per_period < 8:
            raise UsageError("grid density must be at least 8 points per period")

    def with_overrides(self, **kw) -> "RunConfig":
        return replace(self, **kw)

    def digest(self) -> str:
        body = ";".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self))
        return hashlib.sha256(body.encode()).hexdigest()[:16]


DEFAULT = RunConfig()


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """key=value file (one per line, # comments) plus explicit overrides."""
    kw = {}
    if path:
        valid = {f.name: f.type for f in fields(RunConfig)}
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                key, _, val = line.partition("=")
                key = key.strip()
                if key not in valid:
                    raise KeyError(f"unknown config key {key!r}")
                cur = getattr(DEFAULT, key)
                kw[key] = type(cur)(val.strip())
    if overrides:
        kw.update(overrides)
    return RunConfig(**kw)
