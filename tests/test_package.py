import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import entcloak
from entcloak import emcore
from entcloak.optimizer import DesignConfig
from entcloak.vie import PermittivityGrid

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


def _public_callables(module):
    """(name, callable) of each callable in `__all__`, plus the methods
    each exported class defines."""
    for name in module.__all__:
        obj = getattr(module, name)
        if not callable(obj):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("name", ["emcore", "vie", "optimizer"])
def test_no_wavenumber_or_orientation_parameter(name):
    # k0 = 2 pi (lambda0 = 1) and p = z-hat are emcore constants; no
    # layer takes either as a parameter
    module = importlib.import_module(f"entcloak.{name}")
    offenders = [qual for qual, obj in _public_callables(module)
                 if {"k", "p_hat"} & set(inspect.signature(obj).parameters)]
    assert offenders == []


def test_unit_wavenumber():
    assert emcore.K0 == 2 * np.pi


def test_design_config_owns_no_grid_value():
    # each value has one owner: a bound the grid carries (eps_max, say)
    # is read from the grid, never repeated in the design knobs
    names = [{f.name for f in dataclasses.fields(cls)}
             for cls in (DesignConfig, PermittivityGrid)]
    assert names[0] & names[1] == set()


SRC = Path(entcloak.__file__).resolve().parent


def test_no_warning_filters_in_package():
    # each catch_warnings resets the once-per-location memory of warnings,
    # so a filter in the package would reprint a warning per operation
    names = {"catch_warnings", "simplefilter", "filterwarnings"}
    calls = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) in names]
    assert calls == []
