"""Package integrity: every module imports, every exported name exists,
src/ defines nothing that no command, workload or other src/ code reaches,
and one failure policy decides every exit code."""

import ast
import builtins
import importlib
import pkgutil
from pathlib import Path

import ads_null_flows

ROOT = Path(__file__).parents[1]

# defined in src/ and reached only from the tests, each kept on purpose
UNREFERENCED_ALLOWED = {
    # the DOP853 frame reference; bench/tracer.py binds solve_ivp in its module
    "integrate_spinor_frames",
}


# the src/ modules that import scipy, and what each imports (at module level
# or inside a function): the start-up path should lose these, never gain one;
# the frame kernel, transport, imports none
SCIPY_IMPORTS = {
    "ads_null_flows.kdvsol": {"scipy.optimize"},
    "ads_null_flows.lame": {"scipy.integrate", "scipy.optimize", "scipy.special"},
    "ads_null_flows.nullcurve.evolve": {"scipy.integrate"},
    "ads_null_flows.nullcurve.frames": {"scipy.integrate"},
}


# the package's exception classes, both in config.py: UsageError exits 2 and
# NumericFailure exits 1; what src/ may raise besides them is a programming
# error or argparse's own usage error
EXCEPTION_CLASSES = {"config.py": ["UsageError", "NumericFailure"]}
RAISABLE = {"UsageError", "NumericFailure", "ValueError", "TypeError",
            "argparse.ArgumentTypeError"}


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
