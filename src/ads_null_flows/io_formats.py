"""File exporters: curve JSON, OBJ polylines, CSV tables, the hierarchy JSON.

Every file carries a meta block (or comment header) with the recipe name and
the config digest.  Doubles round-trip: json writes each float as its
shortest repr, and the OBJ and CSV writers use 17 significant digits.

Each curve export is written chunk by chunk, byte for byte: CHUNK samples
at a time, their floats go from one tolist straight into a per-row template
by one `%` operation (`%s`, which is repr, for a curve JSON; `%.17g` for the
OBJ and CSV arrays), so no table or string grows with the samples of a
file.  The hierarchy's terms go into one row template per term.  The bytes
are those of a per-sample writer: a curve JSON reads exactly as
`json.dumps(doc, indent=1)` of its {"meta", "samples"} document, the
hierarchy JSON as that of its {"meta", "polynomials"} document, and each OBJ
or CSV float exactly as `fnum` spells it (tests/test_io_formats.py keeps
such writers as the reference).
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import RunConfig

# samples (or rows) per write of a curve export, so the memory of a write is
# flat in the file's samples; at 1024 the writes cost no measurable time
# over formatting the whole file at once
CHUNK = 1024

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


def _open(path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w")


def _chunks(n: int):
    """The slices of CHUNK samples that cover n, in order."""
    return (slice(i, min(i + CHUNK, n)) for i in range(0, n, CHUNK))


def write_curve_json(path: Path, recipe: str, config: RunConfig,
                     s_grid: np.ndarray, matrices: np.ndarray,
                     points: np.ndarray, extra_meta: dict | None = None) -> None:
    """{"meta": ..., "samples": [{"s", "x", "y", "z", "matrix": [a, b, c, d]}]}
    with indent=1, a chunk of samples at a time.  A chunk's 8 m floats fill
    the sample template by `%s`, their repr, as json spells a finite float;
    a non-finite entry is first swapped for json's spelling (NaN, Infinity,
    -Infinity)."""
    n = len(s_grid)
    head = json.dumps({"meta": meta_block(recipe, config, extra_meta),
                       "samples": []}, indent=1)
    with _open(path) as f:
        if not n:
            f.write(head + "\n")
            return
        # the document ends '"samples": []\n}': fill the list after its "["
        f.write(head[:-3])
        for part in _chunks(n):
            m = part.stop - part.start
            table = np.column_stack((s_grid[part], points[part],
                                     np.reshape(matrices[part], (m, 4))))
            flat = np.asarray(table, dtype=float).ravel()
            floats = flat.tolist()
            for i in np.flatnonzero(~np.isfinite(flat)).tolist():
                floats[i] = json.dumps(floats[i])
            f.write((",\n" if part.start else "\n")
                    + ",\n".join([_SAMPLE] * m) % tuple(floats))
        f.write("\n ]\n}\n")


def write_obj_polyline(path: Path, recipe: str, config: RunConfig,
                       points: np.ndarray) -> None:
    """The vertices, then the polyline "l 1 2 ... n", a chunk at a time."""
    n = len(points)
    with _open(path) as f:
        f.write(f"# recipe: {recipe}\n# config: {config.digest()}\no curve\n")
        for part in _chunks(n):
            f.write("v %.17g %.17g %.17g\n" * (part.stop - part.start)
                    % tuple(np.ravel(points[part]).tolist()))
        f.write("l ")
        for part in _chunks(n):
            f.write((" " if part.start else "")
                    + " ".join(map(str, range(part.start + 1, part.stop + 1))))
        f.write("\n")


def write_csv(path: Path, recipe: str, config: RunConfig,
              header: Sequence[str], rows: np.ndarray) -> None:
    """rows: an (n, k) float64 array, spelt a chunk of rows at a time by one
    %.17g template over its tolist, as fnum spells each float (an integer
    column, such as floquet's index, spells as str does)."""
    if not (isinstance(rows, np.ndarray) and rows.dtype == np.float64 and rows.ndim == 2):
        raise TypeError("write_csv takes a 2-D float64 array")
    row = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with _open(path) as f:
        f.write(f"# recipe: {recipe}\n# config: {config.digest()}\n{','.join(header)}\n")
        for part in _chunks(len(rows)):
            f.write(row * (part.stop - part.start) % tuple(rows[part].ravel().tolist()))


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
    with _open(path) as f:
        f.write(f'{{\n "meta": {meta},\n "polynomials": {polys}\n}}\n')
