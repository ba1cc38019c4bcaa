"""Package integrity: every module imports and every exported name exists."""

import importlib
import pkgutil

import ads_null_flows


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
