"""Package integrity: every module imports, every exported name exists,
src/ defines nothing that no command, workload or other src/ code reaches,
and one failure policy decides every exit code."""

import ast
import builtins
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.optimize
import scipy.special

import ads_null_flows
from ads_null_flows import lame, scipy_deferred

ROOT = Path(__file__).parents[1]

# defined in src/ and reached only from the tests, each kept on purpose
UNREFERENCED_ALLOWED = {
    # the DOP853 frame reference; bench/tracer.py binds solve_ivp in its module
    "integrate_spinor_frames",
    # lame's module __getattr__ (PEP 562), called by attribute access
    "__getattr__",
}


# the src/ modules that import scipy, and what each imports, always inside a
# function body, so that importing the package loads no scipy: the stand-ins
# of scipy_deferred, lame's BudgetedDOP853 and floquet_search's brentq (which
# bench/tracer.py routes by its caller); the list should shrink, never grow
SCIPY_IMPORTS = {
    "ads_null_flows.lame": {"scipy.integrate", "scipy.optimize"},
    "ads_null_flows.scipy_deferred": {"scipy.integrate", "scipy.optimize", "scipy.special"},
}


# the package's exception classes, both in config.py: UsageError exits 2 and
# NumericFailure exits 1; what src/ may raise besides them is a programming
# error or argparse's own usage error
EXCEPTION_CLASSES = {"config.py": ["UsageError", "NumericFailure"]}
RAISABLE = {"UsageError", "NumericFailure", "ValueError", "TypeError",
            "argparse.ArgumentTypeError",
            "AttributeError"}    # what a module __getattr__ (PEP 562) raises


def _src_trees():
    for path in sorted((ROOT / "src").rglob("*.py")):
        yield path, ast.parse(path.read_text())


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


def _imports(node: ast.AST, in_function: bool = False):
    """(module imported, whether inside a function body) of every absolute
    import under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            yield from ((alias.name, in_function) for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            yield child.module, in_function
        yield from _imports(child, in_function or isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def test_scipy_imports_are_pinned():
    """Every scipy import of src/ is in SCIPY_IMPORTS and sits in a function
    body, and every entry there is still imported."""
    found, at_module_level = {}, []
    for path in sorted((ROOT / "src").rglob("*.py")):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        for name, in_function in _imports(ast.parse(path.read_text())):
            if name.split(".")[0] == "scipy":
                found.setdefault(module, set()).add(name)
                if not in_function:
                    at_module_level.append(f"{module}: {name}")
    assert found == SCIPY_IMPORTS
    assert at_module_level == []


def _scipy_after(code: str, cwd: Path) -> list:
    """The scipy modules loaded once code has run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    probe = (f"{code}\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_importing_the_cli_loads_no_scipy(tmp_path):
    assert _scipy_after("import ads_null_flows.cli", tmp_path) == []


@pytest.mark.parametrize("argv, loads_scipy", [
    (["hierarchy", "--n-max", "3"], False),
    (["constant", "--mn", "7,3"], False),
    # the deferral is per use: the Floquet search calls scipy
    (["floquet", "--mu", "0.9", "--q", "2/5", "--count", "2"], True),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_scipy_is_loaded_only_by_the_commands_that_call_it(tmp_path, argv, loads_scipy):
    code = ("import ads_null_flows.cli as cli\n"
            f"assert cli.main({[*argv, '-o', 'out']!r}) == 0")
    assert bool(_scipy_after(code, tmp_path)) == loads_scipy


# the mu = 0.6 Floquet eigenvalues of the paper: S_{0.6, 0} and S_{0.6, 1}
PAPER_EIGENVALUES_06 = [3.287222, 11.059393, 24.040319, 42.216401, 65.586374, 6.519135]


def test_the_deferred_functions_are_scipy_bit_for_bit(monkeypatch):
    """scipy_deferred's stand-ins return scipy's values bit for bit, and
    after their first call none runs an import statement."""
    for phi, m in ((0.3, 0.4), (1.2, 0.1), (math.pi / 2, 0.999)):
        assert scipy_deferred.ellipkinc(phi, m) == scipy.special.ellipkinc(phi, m)
        assert scipy_deferred.ellipeinc(phi, m) == scipy.special.ellipeinc(phi, m)
    for f, lo, hi in ((math.cos, 0.0, 2.0), (lambda x: x ** 3 - 2.0, 0.0, 2.0)):
        assert scipy_deferred.brentq(f, lo, hi, xtol=1e-15) == scipy.optimize.brentq(
            f, lo, hi, xtol=1e-15)
    deferred = [lame.hermite_phase(0.6, h) for h in PAPER_EIGENVALUES_06]
    imports = []
    real_import = builtins.__import__

    def counting_import(*args, **kwargs):
        imports.append(args[0])
        return real_import(*args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", counting_import)
    scipy_deferred.brentq(math.cos, 0.0, 2.0)
    assert [lame.hermite_phase(0.6, h) for h in PAPER_EIGENVALUES_06] == deferred
    assert imports == []
    monkeypatch.setattr(lame, "ellipkinc", scipy.special.ellipkinc)
    monkeypatch.setattr(lame, "ellipeinc", scipy.special.ellipeinc)
    assert [lame.hermite_phase(0.6, h) for h in PAPER_EIGENVALUES_06] == deferred


def test_two_exception_classes_decide_every_exit_code():
    """src/ defines no exception class but the two of config.py, every raise
    names one of RAISABLE (or re-raises), and cli.main has one except
    clause per class, so no list of failure classes can fall out of step."""
    known = {name for name, obj in vars(builtins).items()
             if isinstance(obj, type) and issubclass(obj, BaseException)}
    classes = [(path, node) for path, tree in _src_trees()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    defined = {}
    grew = True
    while grew:             # a class deriving from an exception class is one
        grew = False
        for path, node in classes:
            if node.name not in defined.get(path.name, []) and any(
                    ast.unparse(base).rsplit(".", 1)[-1] in known for base in node.bases):
                defined.setdefault(path.name, []).append(node.name)
                known.add(node.name)
                grew = True
    assert defined == EXCEPTION_CLASSES

    raised = {}
    for path, tree in _src_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.setdefault(ast.unparse(exc), []).append(
                    f"{path.name}:{node.lineno}")
    assert set(raised) <= RAISABLE, {k: v for k, v in raised.items() if k not in RAISABLE}

    cli = ast.parse((ROOT / "src" / "ads_null_flows" / "cli.py").read_text())
    main = next(node for node in cli.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = [ast.unparse(node.type) for node in ast.walk(main)
              if isinstance(node, ast.ExceptHandler)]
    assert caught == ["UsageError", "NumericFailure"]
