"""File exporters: curve JSON, OBJ polylines, CSV tables.

Every file carries a meta block (or comment header) with the recipe name and
the config digest.  Doubles round-trip: json writes each float as its
shortest repr, and the OBJ and CSV writers use 17 significant digits.

Each file is formatted in one bulk pass: its floats are spelt by one C-level
call and poured into a per-row template by one `%` operation.  The bytes are
those of a per-sample writer: a curve JSON reads exactly as
`json.dumps(doc, indent=1)` of its {"meta", "samples"} document, and each
OBJ or CSV float exactly as `fnum` spells it (tests/test_io_formats.py keeps
such writers as the reference).
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .config import RunConfig

_FLOAT_TYPES = (float, np.floating)

# one sample of the samples list as json.dumps(..., indent=1) lays it out
# at depth 2: s, x, y, z, then the matrix entries a, b, c, d
_SAMPLE = ('  {\n   "s": %s,\n   "x": %s,\n   "y": %s,\n   "z": %s,\n'
           '   "matrix": [\n    %s,\n    %s,\n    %s,\n    %s\n   ]\n  }')


def fnum(x: float, digits: int = 17) -> str:
    return f"{float(x):.{digits}g}"


def meta_block(recipe: str, config: RunConfig, extra: dict | None = None) -> dict:
    meta = {"recipe": recipe, "config_digest": config.digest()}
    if extra:
        meta.update(extra)
    return meta


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def write_curve_json(path: Path, recipe: str, config: RunConfig,
                     s_grid: np.ndarray, matrices: np.ndarray,
                     points: np.ndarray, extra_meta: dict | None = None) -> None:
    """{"meta": ..., "samples": [{"s", "x", "y", "z", "matrix": [a, b, c, d]}]}
    with indent=1.  The C encoder spells all 8 n floats in one call, exactly
    as the indenting encoder would (repr, or NaN/Infinity/-Infinity)."""
    n = len(s_grid)
    text = json.dumps({"meta": meta_block(recipe, config, extra_meta),
                       "samples": []}, indent=1)
    if n:
        table = np.column_stack((s_grid, points, np.reshape(matrices, (n, 4))))
        floats = json.dumps(table.astype(float).ravel().tolist())[1:-1].split(", ")
        samples = ",\n".join([_SAMPLE] * n) % tuple(floats)
        # the document ends '"samples": []\n}': fill the list after its "["
        text = f"{text[:-3]}\n{samples}\n ]\n}}"
    _write(path, text + "\n")


def write_obj_polyline(path: Path, recipe: str, config: RunConfig,
                       points: np.ndarray) -> None:
    n = len(points)
    lines = [f"# recipe: {recipe}", f"# config: {config.digest()}", "o curve"]
    if n:
        lines.append("\n".join(["v %.17g %.17g %.17g"] * n)
                     % tuple(np.ravel(points).tolist()))
    lines.append("l " + " ".join(map(str, range(1, n + 1))))
    _write(path, "\n".join(lines) + "\n")


def write_csv(path: Path, recipe: str, config: RunConfig,
              header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """rows: an iterable of equal-length rows, or an (n, k) array.  A column
    of floats only (float or numpy floating) is spelt by a %.17g template, as
    fnum spells it; any other column cell by cell, fnum for a float and str
    for anything else."""
    lines = [f"# recipe: {recipe}", f"# config: {config.digest()}",
             ",".join(header)]
    rows = rows.tolist() if isinstance(rows, np.ndarray) else list(rows)
    if rows:
        cols = list(zip(*rows))
        specs = []
        for j, col in enumerate(cols):
            if all(issubclass(t, _FLOAT_TYPES) for t in set(map(type, col))):
                specs.append("%.17g")
            else:
                specs.append("%s")
                cols[j] = [fnum(v) if isinstance(v, _FLOAT_TYPES) else str(v)
                           for v in col]
        cells = tuple(chain.from_iterable(zip(*cols)))
        lines.append("\n".join([",".join(specs)] * len(rows)) % cells)
    _write(path, "\n".join(lines) + "\n")
