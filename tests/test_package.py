import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
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


def test_grid_carries_no_design_state():
    # which voxels a design may change is the design loop's decision
    # (`optimizer.prepare_design`); the grid holds only the map itself
    names = [f.name for f in dataclasses.fields(PermittivityGrid)]
    assert names == ["origin", "spacing", "dims", "eps", "eps_max"]


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


def test_package_reads_no_environment():
    # every behaviour follows from the inputs and what the code observes
    # (map size, usable cores), never from an environment variable
    uses = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")]
    assert uses == []


def test_only_the_cli_warns():
    # library layers raise or return; the CLI is the one place that
    # talks to the user
    calls = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             if path.name != "cli.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) == "warn"]
    assert calls == []


def test_cli_start_up_imports_no_scipy():
    # the package runs on numpy alone; a stray scipy import would add
    # its load time to every command's start-up
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import entcloak, entcloak.cli as cli\n"
        "cli.build_grid(cli.parse_config(sys.argv[2]))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    toy = Path(__file__).resolve().parents[1] / "configs" / "toy.cfg"
    out = subprocess.run([sys.executable, "-c", code, str(SRC.parent), str(toy)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_start_up_leaves_the_check_suite_unloaded():
    # only `entcloak validate` needs entcloak.validate; every other
    # command would pay for compiling it when no bytecode cache is kept
    code = (
        "import sys\n"
        "import entcloak.cli\n"
        "print('entcloak.validate' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_runtime_commands_leave_the_check_suite_unloaded(tmp_path):
    # the oracles live in entcloak.validate; no runtime command may reach
    # them, so each of the four runs in one child interpreter, the sweep
    # point in-process (a thread pool in place of the process pool)
    # where a forked worker's imports would go unseen
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("dims = 4,4,4\nspacing = 0.0625\nd12 = 0.25\n"
                   "max_iterations = 1\nexclusion_radius = 1.0\n")
    freespace = Path(__file__).resolve().parents[1] / "configs" / "freespace.cfg"
    code = (
        "import sys, warnings\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import entcloak.cli as cli\n"
        "warnings.simplefilter('ignore')\n"
        "cli.ProcessPoolExecutor = ThreadPoolExecutor\n"
        "cfg, fs, out = sys.argv[1:]\n"
        "runs = [['mems'], ['freespace', '--config', fs],\n"
        "        ['optimize', '--config', cfg], ['sweep', '--config', cfg]]\n"
        "codes = [cli.main(argv + ['--out', f'{out}/{argv[0]}']) for argv in runs]\n"
        "print(codes, 'entcloak.validate' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code, str(cfg), str(freespace),
                          str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[0, 0, 0, 0] False"
    assert (tmp_path / "sweep" / "sweep.csv").read_text().count("\n") == 2


def test_cli_start_up_loads_numpy_fft():
    # numpy 2 loads numpy.fft on first use; loaded at import, it is
    # inherited by every sweep worker the CLI forks, not imported by each
    code = (
        "import sys\n"
        "import entcloak.cli\n"
        "print('numpy.fft' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "True"


def test_every_definition_has_a_program_caller():
    # a top-level function or class that only the tests name is surface
    # no command runs; a name counts wherever the package or the
    # benchmark spells it, the tracer's WRAP_POINTS strings included
    program = sorted(SRC.glob("*.py")) + sorted(TRACING.parent.glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in program}
    named = set()
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.update({node.name, node.asname})
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.add(node.value)
    uncalled = [f"{path.name}:{node.name}" for path in sorted(SRC.glob("*.py"))
                for node in trees[path].body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name not in named]
    assert uncalled == []
