import importlib
import pkgutil

import pytest

import entcloak

MODULES = ["entcloak"] + [f"entcloak.{m.name}"
                          for m in pkgutil.iter_modules(entcloak.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is deleted fails only
    # when some caller star-imports the module
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
