"""Package integrity: every module imports, every exported name exists, and
src/ defines nothing that no command, workload or other src/ code reaches."""

import ast
import importlib
import pkgutil
from pathlib import Path

import ads_null_flows

ROOT = Path(__file__).parents[1]

# defined in src/ and reached only from the tests, each kept on purpose
UNREFERENCED_ALLOWED = {
    # the DOP853 frame reference; bench/tracer.py binds solve_ivp in its module
    "integrate_spinor_frames",
    # exact checks of the paper's identities over Q
    "g_membership_defect",
    "lax_zero_curvature_2x2",
    "JetPoly.evaluate",
}


# the src/ modules that import scipy, and what each imports (at module level
# or inside a function): the start-up path should lose these, never gain one;
# the frame kernel, transport, imports none
SCIPY_IMPORTS = {
    "ads_null_flows.kdvsol": {"scipy.optimize"},
    "ads_null_flows.lame": {"scipy.integrate", "scipy.optimize", "scipy.special"},
    "ads_null_flows.nullcurve.evolve": {"scipy.integrate", "scipy.optimize"},
    "ads_null_flows.nullcurve.frames": {"scipy.integrate"},
}


def _modules():
    yield ads_null_flows
    for info in pkgutil.walk_packages(ads_null_flows.__path__, "ads_null_flows."):
        yield importlib.import_module(info.name)


def test_every_module_imports_and_every_export_resolves():
    modules = list(_modules())
    assert len(modules) >= 20
    missing = [f"{m.__name__}.{name}" for m in modules
               for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert missing == []


def _definitions(tree: ast.Module):
    """(qualified name, bare name) of each top-level function and class and
    each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name


def _references(tree: ast.Module, strings: bool) -> set:
    """Every name read, attribute taken or name imported; with strings, also
    each dotted part of every string constant."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rsplit(".", 1)[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.update(node.value.split("."))
    return refs


def test_src_defines_nothing_unreferenced():
    """A function or class of src/ is referenced somewhere in src/ or bench/
    beyond its own definition and the __init__ re-exports (names in the
    tracer's strings count), or it is allowlisted above."""
    defined, refs = [], set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        defined += _definitions(tree)
        if path.name != "__init__.py":
            refs |= _references(tree, strings=False)
    for path in sorted((ROOT / "bench").rglob("*.py")):
        refs |= _references(ast.parse(path.read_text()), strings=path.name == "tracer.py")
    unreferenced = {qual for qual, bare in defined if bare not in refs}
    assert unreferenced == UNREFERENCED_ALLOWED


def test_scipy_imports_are_pinned():
    """Every scipy import of src/ is in SCIPY_IMPORTS, and every entry there
    is still imported."""
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] == "scipy":
                    found.setdefault(module, set()).add(name)
    assert found == SCIPY_IMPORTS
