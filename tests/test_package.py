import ast
import importlib
import pkgutil
from pathlib import Path

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


TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _wrap_points():
    """(module, attribute) pairs of the benchmark tracer's WRAP_POINTS,
    read from its source without importing it."""
    tree = ast.parse(TRACING.read_text())
    node = next(n.value for n in tree.body if isinstance(n, ast.Assign)
                and any(getattr(t, "id", None) == "WRAP_POINTS" for t in n.targets))
    return [(elt.elts[0].id, elt.elts[1].value) for elt in node.elts]


def test_wrap_points_found():
    assert len(_wrap_points()) > 0


@pytest.mark.parametrize("module, attr", _wrap_points())
def test_every_traced_name_resolves(module, attr):
    # the tracer replaces these module attributes; a renamed or removed
    # one would make every traced benchmark run fail
    assert callable(getattr(importlib.import_module(f"entcloak.{module}"), attr))
