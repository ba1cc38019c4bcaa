"""The chunked exporters against the per-sample writers they replace, byte
for byte: json.dumps(doc, indent=1) for a curve JSON and for the hierarchy
JSON, fnum per cell for the OBJ and CSV files; at and around the chunk
boundaries, and in memory flat in the samples of a file."""

import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ads_null_flows.cli import main
from ads_null_flows.config import DEFAULT
from ads_null_flows.io_formats import (
    CHUNK, fnum, meta_block, write_csv, write_curve_json, write_hierarchy_json,
    write_obj_polyline)
from ads_null_flows.jetalg import hamiltonian_density, lenard_p, lien_coefficients

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


def ref_terms_json(terms):
    """{"terms": [...]} of a polynomial's sorted (pairs, coefficient) terms."""
    return {"terms": [{"coeff": str(c), "monomial": {str(i): e for i, e in pairs}}
                      for pairs, c in terms]}


def ref_hierarchy_doc(config, n_max, lien):
    """The {"meta", "polynomials"} document of hierarchy.json, built whole."""
    doc = {"meta": meta_block("hierarchy", config, {"n_max": n_max}),
           "polynomials": []}
    for n in range(n_max + 1):
        p = lenard_p(n)
        entry = {"n": n, "p": ref_terms_json(p.sorted_terms()), "p_text": p.text()}
        if n >= 1:
            hn = hamiltonian_density(n)
            entry["h"] = ref_terms_json(hn.sorted_terms())
            entry["h_text"] = hn.text()
        if lien:
            _, _, a, b = lien_coefficients(n)
            entry["a"] = ref_terms_json(a.sorted_terms())
            entry["b"] = ref_terms_json(b.sorted_terms())
        doc["polynomials"].append(entry)
    return doc


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
    write_csv(out, "stationary", DEFAULT, ("s", "x", "y"), np.column_stack((s, p[:, :2])))
    assert out.read_text() == ref_csv("stationary", DEFAULT, ("s", "x", "y"),
                                      zip(s, p[:, 0], p[:, 1]))


def test_csv_bytes_empty_and_int_array(tmp_path):
    """No row, and integer cells as floats: %.17g spells them as str spells
    the ints (floquet.csv's index and order columns)."""
    out = tmp_path / "e.csv"
    write_csv(out, "kksh", DEFAULT, ("mu", "I_plus", "I_minus"), np.zeros((0, 3)))
    assert out.read_text() == ref_csv("kksh", DEFAULT, ("mu", "I_plus", "I_minus"), [])
    table = np.array([[0, 5, 10], [-7, 2 ** 40, 123456789]])
    write_csv(out, "kksh", DEFAULT, ("a", "b", "c"), table.astype(float))
    assert out.read_text() == ref_csv("kksh", DEFAULT, ("a", "b", "c"), table.tolist())


@pytest.mark.parametrize("rows", [[(0.1, 0.2)], np.ones((2, 2), dtype=np.float32),
                                  np.ones((2, 2), dtype=int), np.ones(4)],
                         ids=["list", "float32", "int", "1-d"])
def test_csv_takes_a_2d_float64_array_only(tmp_path, rows):
    with pytest.raises(TypeError, match="2-D float64"):
        write_csv(tmp_path / "t.csv", "floquet", DEFAULT, ("a", "b"), rows)


EDGE = [np.nan, np.inf, -np.inf, -0.0, 5e-324, -5e-324, 1e16, 1e22]


def test_float64_array_edges_csv_and_curve_json(tmp_path):
    """A float64 array of every edge value in every column, through
    write_csv's %.17g row template and through write_curve_json's
    swap of the non-finite entries, against the per-cell writers."""
    table = np.resize(np.array(EDGE * 8), (len(EDGE) + 3, 8))
    table[-3:] = np.random.default_rng(11).standard_normal((3, 8))
    out = tmp_path / "edge.csv"
    write_csv(out, "kksh", DEFAULT, [f"c{j}" for j in range(8)], table)
    assert out.read_text() == ref_csv("kksh", DEFAULT, [f"c{j}" for j in range(8)], table)
    assert "nan,inf,-inf,-0,4.9406564584124654e-324" in out.read_text()
    s, M, p = table[:, 0], table[:, 4:].reshape(-1, 2, 2), table[:, 1:4]
    out = tmp_path / "edge.json"
    write_curve_json(out, "kksh", DEFAULT, s, M, p)
    text = out.read_text()
    assert text == ref_curve_json("kksh", DEFAULT, s, M, p)
    for spelt in ("NaN", "Infinity", "-Infinity", "-0.0", "5e-324", "1e+16", "1e+22"):
        assert f" {spelt},\n" in text or f" {spelt}\n" in text


def chunk_table(n):
    """n rows of 8 random doubles, the EDGE values (reversed in the row
    before) in the last rows: the last chunk."""
    table = np.random.default_rng(n).standard_normal((n, 8)) * 1e3
    last = np.array([EDGE[::-1], EDGE])[-min(n, 2):] if n else np.zeros((0, 8))
    table[len(table) - len(last):] = last
    return table


@pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_chunked_exports_bytes(tmp_path, n):
    """Each curve export at and around its chunk boundaries against the
    per-sample writers."""
    table = chunk_table(n)
    s, M, p = table[:, 0], table[:, 4:].reshape(n, 2, 2), table[:, 1:4]
    out = tmp_path / "c.json"
    write_curve_json(out, "stationary", DEFAULT, s, M, p, META)
    assert out.read_text() == ref_curve_json("stationary", DEFAULT, s, M, p, META)
    out = tmp_path / "c.obj"
    write_obj_polyline(out, "stationary", DEFAULT, p)
    assert out.read_text() == ref_obj_polyline("stationary", DEFAULT, p)
    out = tmp_path / "c.csv"
    header = [f"c{j}" for j in range(8)]
    write_csv(out, "stationary", DEFAULT, header, table)
    assert out.read_text() == ref_csv("stationary", DEFAULT, header, table)


def test_curve_exports_write_in_memory_flat_in_the_samples(tmp_path):
    """A 50,000-sample curve JSON, its OBJ and a cousin CSV are written
    with a traced peak below a tenth of the JSON file's size: no table or
    string of the whole file."""
    n = 50_000
    table = np.random.default_rng(5).standard_normal((n, 8))
    s, M, p = table[:, 0], table[:, 4:].reshape(n, 2, 2), table[:, 1:4]
    cousin = np.ascontiguousarray(table[:, :3])
    tracemalloc.start()
    try:
        write_curve_json(tmp_path / "c.json", "stationary", DEFAULT, s, M, p)
        write_obj_polyline(tmp_path / "c.obj", "stationary", DEFAULT, p)
        write_csv(tmp_path / "c.csv", "stationary", DEFAULT, ("s", "x", "y"), cousin)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "c.json").stat().st_size
    assert size > 10_000_000
    assert peak < size / 10, (peak, size)


# ------------------------------------------------------------ hierarchy JSON

@pytest.mark.parametrize("lien", [False, True], ids=["plain", "lien"])
@pytest.mark.parametrize("n_max", range(9))
def test_hierarchy_json_bytes(tmp_path, n_max, lien):
    out = tmp_path / "h"
    assert main(["hierarchy", "--n-max", str(n_max), *(["--lien"] if lien else []),
                 "-o", str(out)]) == 0
    want = json.dumps(ref_hierarchy_doc(DEFAULT, n_max, lien), indent=1) + "\n"
    assert (out / "hierarchy.json").read_text() == want


def test_hierarchy_json_edge_entries(tmp_path):
    """No entry, a zero polynomial, a constant, fractions, many factors, and
    texts that json must escape."""
    out = tmp_path / "e.json"
    write_hierarchy_json(out, DEFAULT, 0, [])
    doc = {"meta": meta_block("hierarchy", DEFAULT, {"n_max": 0}), "polynomials": []}
    assert out.read_text() == json.dumps(doc, indent=1) + "\n"
    terms = [([(0, 3), (1, 1), (4, 2), (12, 5)], Fraction(-7, 12)),
             ([(2, 1)], 10 ** 30), ([], Fraction(1, 3)), ([], -1)]
    entries = [{"n": 0, "p": [], "p_text": "0"},
               {"n": 11, "p": terms, "p_text": 'μ "x" \\ \n', "a": [([], 4)], "b": []}]
    write_hierarchy_json(out, DEFAULT, 11, entries)
    doc = {"meta": meta_block("hierarchy", DEFAULT, {"n_max": 11}), "polynomials": [
        {key: ref_terms_json(v) if isinstance(v, list) else v for key, v in e.items()}
        for e in entries]}
    assert out.read_text() == json.dumps(doc, indent=1) + "\n"


def test_hierarchy_json_terms(tmp_path):
    """p_2 and h_1 as their coefficient strings and monomial objects."""
    out = tmp_path / "h"
    assert main(["hierarchy", "--n-max", "2", "-o", str(out)]) == 0
    polys = json.loads((out / "hierarchy.json").read_text())["polynomials"]
    assert polys[2]["p"]["terms"] == [{"coeff": "1", "monomial": {"2": 1}},
                                      {"coeff": "-3", "monomial": {"0": 2}}]
    assert polys[1]["h"]["terms"] == [{"coeff": "1/2", "monomial": {"0": 2}}]
    assert polys[0]["p"]["terms"] == [{"coeff": "1", "monomial": {}}]
