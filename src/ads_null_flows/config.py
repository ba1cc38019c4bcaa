"""Run-wide numeric configuration.

RunConfig holds the tolerances and the search ceiling a run may override;
fixed numerical choices are module constants next to their single reader.
The CLI builds a RunConfig from an optional key=value file plus --set
overrides, both read by one parser keyed on the fields; DEFAULT is used
everywhere else.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields


class UsageError(ValueError):
    """Invalid input: a parameter outside its domain (CLI exit code 2)."""


@dataclass(frozen=True)
class RunConfig:
    # adaptive integrator (embedded high-order Runge-Kutta)
    integrator_rel_tol: float = 1e-12
    integrator_abs_tol: float = 1e-14

    # Floquet eigenvalue search
    scan_h_ceiling: float = 500.0    # eigenvalues are sought below this h
    tol_floquet: float = 1e-8        # |tau - cos(q pi)| acceptance

    # geometry tolerance
    tol_metric: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (v > 0 and math.isfinite(v)):
                raise UsageError(
                    f"config field {f.name} must be positive and finite, got {v}")

    def digest(self) -> str:
        body = ";".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self))
        return hashlib.sha256(body.encode()).hexdigest()[:16]


DEFAULT = RunConfig()


def _parse_setting(item: str) -> tuple:
    """One key=value setting: the key of a RunConfig field and the value
    converted to that field's type (UsageError for any other key)."""
    key, _, val = item.partition("=")
    key = key.strip()
    kind = {f.name: type(f.default) for f in fields(RunConfig)}.get(key)
    if kind is None:
        raise UsageError(f"unknown config key {key!r}")
    return key, kind(val.strip())


def load_config(path: str | None = None, items=()) -> RunConfig:
    """A key=value file (one per line, # comments), then key=value items
    that override it, each read by _parse_setting."""
    lines = []
    if path:
        try:
            with open(path) as fh:
                lines = [ln for ln in (line.split("#", 1)[0] for line in fh) if ln.strip()]
        except OSError as exc:
            raise UsageError(f"cannot read config file {path}: {exc.strerror}") from None
    return RunConfig(**dict(_parse_setting(item) for item in [*lines, *items]))
