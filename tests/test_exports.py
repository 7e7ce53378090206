import importlib
import pkgutil

import pytest

import madness

MODULES = ["madness"] + [
    "madness." + info.name for info in pkgutil.iter_modules(madness.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, "%s.__all__ names what it does not define: %s" % (module_name, missing)
