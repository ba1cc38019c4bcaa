"""File exporters: curve JSON, OBJ polylines, CSV tables, the hierarchy JSON.

Every file carries a meta block (or comment header) with the recipe name and
the config digest.  Doubles round-trip: json writes each float as its
shortest repr, and the OBJ and CSV writers use 17 significant digits.

Each file is formatted in one bulk pass: its floats go from one tolist
straight into a per-row template by one `%` operation (`%s`, which is repr,
for a curve JSON; `%.17g` for the OBJ and a float64 CSV array), and the
hierarchy's terms into one row template per term.  The bytes are those of a
per-sample writer: a curve JSON reads exactly as `json.dumps(doc, indent=1)`
of its {"meta", "samples"} document, the hierarchy JSON as that of its
{"meta", "polynomials"} document, and each OBJ or CSV float exactly as
`fnum` spells it (tests/test_io_formats.py keeps such writers as the
reference).
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


# one term of a polynomial's terms list as json.dumps(..., indent=1) lays it
# out at depth 5 of the hierarchy document: its coefficient, whose str (an
# int or a fraction p/q) needs no escape, and its monomial object
_TERM = '     {\n      "coeff": "%s",\n      "monomial": %s\n     }'


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
    with indent=1.  The 8 n floats fill the sample template by `%s`, their
    repr, as json spells a finite float; a non-finite entry is first swapped
    for json's spelling (NaN, Infinity, -Infinity)."""
    n = len(s_grid)
    text = json.dumps({"meta": meta_block(recipe, config, extra_meta),
                       "samples": []}, indent=1)
    if n:
        table = np.column_stack((s_grid, points, np.reshape(matrices, (n, 4))))
        flat = np.asarray(table, dtype=float).ravel()
        floats = flat.tolist()
        for i in np.flatnonzero(~np.isfinite(flat)).tolist():
            floats[i] = json.dumps(floats[i])
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
    """rows: an iterable of equal-length rows, or an (n, k) array.  A float64
    array is spelt by one %.17g template over its tolist, as fnum spells
    each float.  Otherwise a column of floats only (float or numpy floating)
    takes %.17g, and any other column is spelt cell by cell, fnum for a
    float and str for anything else."""
    lines = [f"# recipe: {recipe}", f"# config: {config.digest()}",
             ",".join(header)]
    if isinstance(rows, np.ndarray) and rows.dtype == np.float64 and rows.ndim == 2:
        count, specs = len(rows), ["%.17g"] * rows.shape[1]
        cells = tuple(rows.ravel().tolist())
    else:
        rows = rows.tolist() if isinstance(rows, np.ndarray) else list(rows)
        cols = list(zip(*rows))
        count, specs = len(rows), []
        for j, col in enumerate(cols):
            if all(issubclass(t, _FLOAT_TYPES) for t in set(map(type, col))):
                specs.append("%.17g")
            else:
                specs.append("%s")
                cols[j] = [fnum(v) if isinstance(v, _FLOAT_TYPES) else str(v)
                           for v in col]
        cells = tuple(chain.from_iterable(zip(*cols)))
    if count:
        lines.append("\n".join([",".join(specs)] * count) % cells)
    _write(path, "\n".join(lines) + "\n")


def _monomial_json(pairs) -> str:
    """{"index": exponent, ...} at depth 6 of the hierarchy document."""
    if not pairs:
        return "{}"
    rows = ",\n".join([f'       "{i}": {e}' for i, e in pairs])
    return f"{{\n{rows}\n      }}"


def _terms_json(terms) -> str:
    """{"terms": [...]} at depth 3 of the hierarchy document, from a
    polynomial's sorted (pairs, coefficient) terms."""
    if not terms:
        return '{\n    "terms": []\n   }'
    rows = ",\n".join([_TERM] * len(terms)) % tuple(
        chain.from_iterable((c, _monomial_json(pairs)) for pairs, c in terms))
    return f'{{\n    "terms": [\n{rows}\n    ]\n   }}'


def write_hierarchy_json(path: Path, config: RunConfig, n_max: int,
                         entries: Sequence[dict]) -> None:
    """{"meta": ..., "polynomials": [entry, ...]} with indent=1.  Each entry
    value is an int (the "n"), a string (a polynomial's text) or a
    polynomial's sorted terms, written {"terms": [{"coeff", "monomial"}]}."""
    meta = json.dumps(meta_block("hierarchy", config, {"n_max": n_max}), indent=1)
    blocks = []
    for entry in entries:
        fields = []
        for key, value in entry.items():
            if isinstance(value, int):
                value = str(value)
            elif isinstance(value, str):
                value = json.dumps(value)
            else:
                value = _terms_json(value)
            fields.append(f'   "{key}": {value}')
        blocks.append("  {\n" + ",\n".join(fields) + "\n  }")
    polys = "[\n" + ",\n".join(blocks) + "\n ]" if blocks else "[]"
    meta = meta.replace("\n", "\n ")
    _write(path, f'{{\n "meta": {meta},\n "polynomials": {polys}\n}}\n')
