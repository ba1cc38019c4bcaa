"""File exporters: curve JSON, OBJ polylines, CSV tables.

Every file carries a meta block (or comment header) with the recipe name and
the config digest.  Doubles round-trip: json writes each float as its
shortest repr, and the OBJ and CSV writers use 17 significant digits.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .config import RunConfig


def fnum(x: float, digits: int = 17) -> str:
    return f"{float(x):.{digits}g}"


def meta_block(recipe: str, config: RunConfig, extra: dict | None = None) -> dict:
    meta = {"recipe": recipe, "config_digest": config.digest()}
    if extra:
        meta.update(extra)
    return meta


def write_curve_json(path: Path, recipe: str, config: RunConfig,
                     s_grid: np.ndarray, matrices: np.ndarray,
                     points: np.ndarray, extra_meta: dict | None = None) -> None:
    samples = []
    for s, M, p in zip(s_grid, matrices, points):
        samples.append({
            "s": float(s),
            "x": float(p[0]), "y": float(p[1]), "z": float(p[2]),
            "matrix": [float(M[0, 0]), float(M[0, 1]),
                       float(M[1, 0]), float(M[1, 1])],
        })
    doc = {"meta": meta_block(recipe, config, extra_meta), "samples": samples}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def write_obj_polyline(path: Path, recipe: str, config: RunConfig,
                       points: np.ndarray, closed: bool = False) -> None:
    lines = [f"# recipe: {recipe}", f"# config: {config.digest()}", "o curve"]
    for p in points:
        lines.append(f"v {fnum(p[0])} {fnum(p[1])} {fnum(p[2])}")
    idx = list(range(1, len(points) + 1))
    if closed:
        idx.append(1)
    lines.append("l " + " ".join(str(i) for i in idx))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def write_csv(path: Path, recipe: str, config: RunConfig,
              header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [f"# recipe: {recipe}", f"# config: {config.digest()}",
             ",".join(header)]
    for row in rows:
        cells = [fnum(v) if isinstance(v, (float, np.floating)) else str(v)
                 for v in row]
        lines.append(",".join(cells))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
