"""The bulk exporters against the per-sample writers they replace, byte for
byte: json.dumps(doc, indent=1) for a curve JSON, fnum per cell for the OBJ
and CSV files."""

import json

import numpy as np
import pytest

from ads_null_flows.config import DEFAULT
from ads_null_flows.io_formats import (
    fnum, meta_block, write_csv, write_curve_json, write_obj_polyline)

# ------------------------------------------------ reference (per-sample) writers


def ref_curve_json(recipe, config, s_grid, matrices, points, extra_meta=None):
    samples = []
    for s, M, p in zip(s_grid, matrices, points):
        samples.append({
            "s": float(s),
            "x": float(p[0]), "y": float(p[1]), "z": float(p[2]),
            "matrix": [float(M[0, 0]), float(M[0, 1]),
                       float(M[1, 0]), float(M[1, 1])],
        })
    doc = {"meta": meta_block(recipe, config, extra_meta), "samples": samples}
    return json.dumps(doc, indent=1) + "\n"


def ref_obj_polyline(recipe, config, points):
    lines = [f"# recipe: {recipe}", f"# config: {config.digest()}", "o curve"]
    for p in points:
        lines.append(f"v {fnum(p[0])} {fnum(p[1])} {fnum(p[2])}")
    idx = list(range(1, len(points) + 1))
    lines.append("l " + " ".join(str(i) for i in idx))
    return "\n".join(lines) + "\n"


def ref_csv(recipe, config, header, rows):
    lines = [f"# recipe: {recipe}", f"# config: {config.digest()}",
             ",".join(header)]
    for row in rows:
        cells = [fnum(v) if isinstance(v, (float, np.floating)) else str(v)
                 for v in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ data

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300,
           1.0, 0.1, 1e16, 1e-5, 123456789012345678.0, 2.0 ** -1022, 1 / 3]


def curve_data(n, seed=0):
    """n samples of random doubles of all magnitudes, the values of SPECIAL
    (four times each where there is room) at random places."""
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((n, 8)) * 10.0 ** rng.integers(-30, 30, (n, 8))
    flat = table.ravel()
    k = min(flat.size, 4 * len(SPECIAL))
    flat[rng.permutation(flat.size)[:k]] = np.resize(SPECIAL, k)
    return table[:, 0], table[:, 4:].reshape(n, 2, 2), table[:, 1:4]


META = {"t": 0.1, "windings": [3, -7], "nested": [[1.5, [2, "x"]], {"k": None}],
        "label": "μ* — (E,E) ∂κ", "flag": True, "nan": float("nan")}


@pytest.mark.parametrize("n", [0, 1, 2, 257])
@pytest.mark.parametrize("extra", [None, META], ids=["no_meta", "meta"])
def test_curve_json_bytes(tmp_path, n, extra):
    s, M, p = curve_data(n, seed=n)
    out = tmp_path / "sub" / "c.json"
    write_curve_json(out, "stationary", DEFAULT, s, M, p, extra)
    assert out.read_text() == ref_curve_json("stationary", DEFAULT, s, M, p, extra)


def test_curve_json_empty_grid(tmp_path):
    out = tmp_path / "e.json"
    write_curve_json(out, "constant", DEFAULT, np.zeros(0), np.zeros((0, 2, 2)),
                     np.zeros((0, 3)))
    assert '"samples": []' in out.read_text()
    assert json.loads(out.read_text())["samples"] == []


def test_curve_json_each_special_value(tmp_path):
    """Every special value in every one of the eight sample slots."""
    out = tmp_path / "v.json"
    for v in SPECIAL:
        for slot in range(8):
            table = np.ones((3, 8))
            table[1, slot] = v
            s, M, p = table[:, 0], table[:, 4:].reshape(3, 2, 2), table[:, 1:4]
            write_curve_json(out, "constant", DEFAULT, s, M, p)
            assert out.read_text() == ref_curve_json("constant", DEFAULT, s, M, p)


@pytest.mark.parametrize("n", [0, 1, 300])
def test_obj_polyline_bytes(tmp_path, n):
    _, _, p = curve_data(n, seed=7 + n)
    out = tmp_path / "o.obj"
    write_obj_polyline(out, "kksh", DEFAULT, p)
    assert out.read_text() == ref_obj_polyline("kksh", DEFAULT, p)


def test_csv_bytes_float_columns(tmp_path):
    s, _, p = curve_data(200, seed=3)
    out = tmp_path / "f.csv"
    for rows in (np.column_stack((s, p[:, :2])), zip(s, p[:, 0], p[:, 1])):
        write_csv(out, "stationary", DEFAULT, ("s", "x", "y"), rows)
        assert out.read_text() == ref_csv("stationary", DEFAULT, ("s", "x", "y"),
                                          zip(s, p[:, 0], p[:, 1]))


def test_csv_bytes_mixed_cells(tmp_path):
    """float, np.float64, np.float32, int, bool and str cells, in pure and
    mixed columns (the floquet table mixes int and float columns)."""
    rows = [
        (0, 1.5, np.float64(0.1), -1, "a", 0.1, np.float32(0.1), True),
        (1, float("nan"), np.float64(-0.0), 10 ** 20, "b,c", 7, 2.0, 1e300),
        (2, 5e-324, np.float64(np.inf), 3, "μ", "x", np.float32(-2.5), False),
    ]
    header = [f"c{j}" for j in range(8)]
    out = tmp_path / "m.csv"
    write_csv(out, "floquet", DEFAULT, header, iter(rows))
    assert out.read_text() == ref_csv("floquet", DEFAULT, header, rows)


def test_csv_bytes_empty_and_int_array(tmp_path):
    out = tmp_path / "e.csv"
    write_csv(out, "kksh", DEFAULT, ("mu", "I_plus", "I_minus"), [])
    assert out.read_text() == ref_csv("kksh", DEFAULT, ("mu", "I_plus", "I_minus"), [])
    table = np.arange(12).reshape(4, 3)
    write_csv(out, "kksh", DEFAULT, ("a", "b", "c"), table)
    assert out.read_text() == ref_csv("kksh", DEFAULT, ("a", "b", "c"), table)
