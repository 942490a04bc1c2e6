import argparse
import csv
import errno
import functools
import json
import multiprocessing
import os
import re
import subprocess
import sys
import warnings
from concurrent.futures import Future
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from entcloak import cli, quantum, vie
from entcloak.emcore import CouplingSet
from entcloak.errors import ConfigError, DegenerateSteadyStateError
from entcloak.optimizer import IterationEntry
from entcloak.validate import aligned_g12, aligned_gamma12
from entcloak.vie import GridResolutionWarning, PermittivityGrid

TINY_CONFIG = """
# toy design, kept tiny so the suite stays fast
dims = 4,4,4
spacing = 0.0625
d12 = 0.25
pump_ratio = 0.005
max_iterations = 2
exclusion_radius = 1.0
target = concurrence
seed = 7
"""

#: Config keys that no longer exist: a config that sets one exits 2.
REMOVED_KEYS = {"origin", "delta_eps", "solver_rtol", "tol_accept",
                "delta_eps_min", "sweep_mode", "bidirectional"}

#: TINY_CONFIG on a 6^3 map.  The first state is vacuum and skips the
#: Krylov solve; the swept map of the first iteration needs one.
KRYLOV_CONFIG = TINY_CONFIG.replace("dims = 4,4,4", "dims = 6,6,6")


def write_config(tmp_path, text=TINY_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class InlinePool:
    """ProcessPoolExecutor stand-in that runs each task in this process,
    so a test's patches and counters see the work of every sweep point."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.fixture
def degenerate_steady_state(monkeypatch):
    """Make every closed-form steady state report a two-dimensional
    Liouvillian kernel."""
    def degenerate(*args):
        raise DegenerateSteadyStateError("kernel dimension 2", kernel_dim=2)

    monkeypatch.setattr(quantum, "x_block_steady_state", degenerate)


class TestConfigParsing:
    def test_defaults_and_overrides(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path))
        assert cfg.dims == (4, 4, 4)
        assert cfg.design.max_iterations == 2
        assert cfg.design.pump_ratio == 0.005
        assert cfg.seed == 7

    def test_optimize_seed_flag_removed(self, tmp_path, capsys):
        # the seed key is the one way to set the recorded seed
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            cli.main(["optimize", "--config", str(write_config(tmp_path)),
                      "--out", str(out), "--seed", "3"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "dims = 4,4,4\nwavelength = 400\n")
        with pytest.raises(ConfigError):
            cli.parse_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = write_config(tmp_path, "dims 4,4,4\n")
        with pytest.raises(ConfigError):
            cli.parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "d12 = 0.25\nd12 = 0.5\n")
        with pytest.raises(ConfigError):
            cli.parse_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = write_config(tmp_path, "spacing = tiny\n")
        with pytest.raises(ConfigError):
            cli.parse_config(path)
        path = write_config(tmp_path, "d12 = -0.25\n", name="neg.cfg")
        with pytest.raises(ConfigError):
            cli.parse_config(path)

    @pytest.mark.parametrize("field, value", [
        ("spacing", float("nan")),
        ("d12", float("nan")),
        ("d12_list", (0.25, float("nan"))),
        ("pump_list", (float("nan"),)),
        ("spacing", float("inf")),
        ("d12", float("inf")),
        ("d12_list", (float("inf"),)),
        ("pump_list", (0.005, float("inf"))),
        ("d12", 1e-7),
        ("d12_list", (0.25, 1e-7)),
    ], ids=["spacing", "d12", "d12_list", "pump_list", "spacing-inf",
            "d12-inf", "d12_list-inf", "pump_list-inf", "d12-coincident",
            "d12_list-coincident"])
    def test_nan_range_rejected(self, field, value):
        # a RunConfig built directly, not parsed: nan and inf both fail,
        # and so does a d12 below emcore.COINCIDENT_THRESHOLD
        with pytest.raises(ConfigError):
            cli.RunConfig(**{field: value})

    def test_logspace_lists(self, tmp_path):
        path = write_config(tmp_path, "d12_list = logspace:0.1,1.0,3\n")
        cfg = cli.parse_config(path)
        assert np.allclose(cfg.d12_list, np.geomspace(0.1, 1.0, 3))

    @pytest.mark.parametrize("spec", ["-1,1,3", "0.1,-1,3"])
    def test_logspace_nonpositive_bound_rejected_silently(self, tmp_path, spec):
        # the bounds are checked before np.geomspace, which would warn
        path = write_config(tmp_path, f"pump_list = logspace:{spec}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConfigError, match="bad logspace spec"):
                cli.parse_config(path)
        assert caught == []

    def test_explicit_lists(self, tmp_path):
        path = write_config(tmp_path, "pump_list = 0.005, 0.05\n")
        cfg = cli.parse_config(path)
        assert cfg.pump_list == (0.005, 0.05)

    def test_grid_centered_on_the_pair(self, tmp_path):
        path = write_config(tmp_path, "dims = 4,4,4\nd12 = 0.2\n")
        # the emitter at z = 0.1 is 0.00625 < spacing/2 from a center plane
        with pytest.warns(UserWarning, match="nearest voxel center plane"):
            grid, emitters = cli.build_grid(cli.parse_config(path))
        assert np.array_equal(grid.origin, [-0.09375] * 3)
        assert np.array_equal(emitters[0] + emitters[1], np.zeros(3))


class TestOptimizeCommand:
    def test_writes_outputs_with_monotone_trace(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["optimize", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "trace.csv")
        assert len(rows) >= 1
        vals = [float(r["target_value"]) for r in rows]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert (out / "design.eps.csv").exists()
        assert (out / "design.meta.json").exists()

    def test_meta_validates_against_shipped_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["optimize", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        meta = json.loads((out / "design.meta.json").read_text())
        jsonschema.validate(meta, cli.META_SCHEMA)

    def test_eps_roundtrip_lossless(self, tmp_path):
        # rebuild the grid from the two design files with the standard
        # library alone, rewrite it, and compare bytes
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["optimize", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        meta = json.loads((out / "design.meta.json").read_text())
        dims = tuple(meta["dims"])
        eps = np.ones(dims)
        for row in read_csv(out / "design.eps.csv"):
            eps[int(row["ix"]), int(row["iy"]), int(row["iz"])] = float(row["eps"])
        grid = PermittivityGrid(origin=np.array(meta["origin"]),
                                spacing=meta["spacing"], dims=dims,
                                eps=eps.ravel(), eps_max=meta["eps_max"])
        ref_grid, _ = cli.build_grid(cli.parse_config(cfg_path))
        assert grid.dims == ref_grid.dims
        assert np.array_equal(grid.origin, ref_grid.origin)
        cli.save_grid_csv(grid, out / "design2.eps.csv")
        assert (out / "design.eps.csv").read_bytes() == \
            (out / "design2.eps.csv").read_bytes()

    def test_all_frozen_region_single_row(self, tmp_path):
        cfg_path = write_config(
            tmp_path, TINY_CONFIG + "exclusion_radius = 50\n")
        # duplicate key would be rejected; write a fresh config instead
        cfg_path = write_config(
            tmp_path, TINY_CONFIG.replace("exclusion_radius = 1.0",
                                          "exclusion_radius = 50"),
            name="frozen.cfg")
        out = tmp_path / "outf"
        assert cli.main(["optimize", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        rows = read_csv(out / "trace.csv")
        assert len(rows) == 1
        assert int(rows[0]["accepted_count"]) == 0

    @pytest.mark.parametrize("line", [
        "dims = 4,4", "spacing = -0.0625", "origin = 0.1,0.2", "solver_rtol = 0",
        "dims = 4,6,6\nsymmetry = z-axis-rotation-4fold",
        "dims = 4,4,4\norigin = 0.03,-0.09375,-0.09375\nsymmetry = mirror-z",
        "max_iterations = 2.5",
        "pump_ratio = nan", "d12 = nan", "eta_converge = nan", "eps_max = inf",
        "eps_max = 1.0", "eps_max = 0.5",
        # the emitters at z = +-0.03125 lie on voxel-center planes
        "dims = 4,4,4\nd12 = 0.0625",
        "dims = 4,4,4\neta_converge = -1", "tol_accept = -1e-9",
        "delta_eps_min = 0", "exclusion_radius = -5", "max_iterations = -1",
        # keys that no longer exist
        "sweep_mode = frozen-reference", "bidirectional = true",
        "delta_eps = 0.05",
    ], ids=["dims", "spacing", "origin", "solver_rtol", "rotation-dims",
            "mirror-off-axis", "max_iterations",
            "pump_ratio-nan", "d12-nan", "eta_converge-nan", "eps_max-inf",
            "eps_max-no-increment", "eps_max-below-vacuum",
            "emitter-on-center-plane", "eta_converge-negative",
            "tol_accept-negative", "delta_eps_min-zero",
            "exclusion_radius-negative", "max_iterations-negative",
            "sweep_mode-removed", "bidirectional", "delta_eps-removed"])
    def test_malformed_config_exit_2_no_outputs(self, tmp_path, monkeypatch,
                                                capsys, line):
        # a configuration error must surface before any field solve
        from entcloak import optimizer

        def no_solve(*args, **kwargs):
            raise AssertionError("field solve on a malformed configuration")

        monkeypatch.setattr(optimizer, "_fields_and_incident", no_solve)
        cfg_path = write_config(tmp_path, line + "\n", name="bad.cfg")
        out = tmp_path / "never"
        rc = cli.main(["optimize", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        keys = {part.split(" =")[0] for part in line.splitlines()}
        for key in keys & REMOVED_KEYS:
            assert f"unknown config key '{key}'" in err
        if "z-axis-rotation-4fold" in line:  # a removed symmetry
            assert "symmetry must be one of" in err

    @pytest.mark.parametrize("method", ["dens", "auto"])
    def test_unknown_solver_method_exit_2(self, tmp_path, capsys, method):
        cfg_path = write_config(tmp_path, TINY_CONFIG + f"solver_method = {method}\n")
        out = tmp_path / "never"
        rc = cli.main(["optimize", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "iterative" in err and "dense" in err

    def test_unphysical_couplings_exit_3_no_outputs(self, tmp_path, capsys,
                                                    lossy_pair_scalars):
        out = tmp_path / "never"
        rc = cli.main(["optimize", "--config", str(write_config(tmp_path)),
                       "--out", str(out)])
        assert rc == 3
        assert not out.exists()
        assert "gamma11=" in capsys.readouterr().err

    def test_krylov_non_convergence_exit_3_no_outputs(self, tmp_path, monkeypatch,
                                                      capsys):
        monkeypatch.setattr(vie, "MAX_KRYLOV_ITER", 1)
        out = tmp_path / "never"
        rc = cli.main(["optimize", "--config",
                       str(write_config(tmp_path, KRYLOV_CONFIG)), "--out", str(out)])
        assert rc == 3
        assert not out.exists()
        assert "ConvergenceError" in capsys.readouterr().err

    def test_degenerate_steady_state_exit_4_no_outputs(self, tmp_path, capsys,
                                                       degenerate_steady_state):
        out = tmp_path / "never"
        rc = cli.main(["optimize", "--config", str(write_config(tmp_path)),
                       "--out", str(out)])
        assert rc == 4
        assert not out.exists()
        assert "degenerate steady state:" in capsys.readouterr().err

    def test_guarded_names_reached_on_a_valid_config(self, tmp_path,
                                                     monkeypatch):
        # the no_solve guards patch optimizer._fields_and_incident and the
        # lossy_pair_scalars fixture patches optimizer._pair_scalars; were
        # either no longer called, those tests would pass vacuously
        from entcloak import optimizer
        calls = {"_fields_and_incident": 0, "_pair_scalars": 0}
        for name in calls:
            def counting(*args, _name=name, _real=getattr(optimizer, name),
                         **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(optimizer, name, counting)
        # sweep points run in worker processes, whose calls a counter in
        # this process cannot see
        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        sweep_cfg = write_config(
            tmp_path, TINY_CONFIG + "d12_list = 0.25\npump_list = 0.005\n",
            name="sweep.cfg")
        for argv in (["optimize", "--config", str(write_config(tmp_path))],
                     ["sweep", "--config", str(sweep_cfg)]):
            before = dict(calls)
            assert cli.main(argv + ["--out", str(tmp_path / argv[0])]) == 0
            assert all(calls[n] > before[n] for n in calls), argv[0]

    def test_deterministic_outputs(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["optimize", "--config", str(cfg_path),
                         "--out", str(out1)]) == 0
        assert cli.main(["optimize", "--config", str(cfg_path),
                         "--out", str(out2)]) == 0
        for name in ("trace.csv", "design.eps.csv", "design.meta.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestResolutionWarning:
    """TINY_CONFIG's spacing 0.0625 exceeds lambda/(10 sqrt(eps_max)):
    each command reports that once, and library grids never do."""

    @staticmethod
    def resolution_warnings(record):
        return [w for w in record if issubclass(w.category, GridResolutionWarning)]

    def test_optimize_warns_once(self, tmp_path):
        with pytest.warns(GridResolutionWarning) as record:
            assert cli.main(["optimize", "--config", str(write_config(tmp_path)),
                             "--out", str(tmp_path / "out")]) == 0
        assert len(self.resolution_warnings(record)) == 1

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_sweep_warns_once_for_all_points(self, tmp_path, threads):
        text = TINY_CONFIG + "d12_list = 0.25,0.375\npump_list = 0.005,0.05\n"
        cfg_path = write_config(tmp_path, text, name="sweep.cfg")
        with pytest.warns(GridResolutionWarning) as record:
            assert cli.main(["sweep", "--config", str(cfg_path),
                             "--out", str(tmp_path / "out"),
                             "--threads", threads]) == 0
        assert len(self.resolution_warnings(record)) == 1

    @pytest.mark.parametrize("command", ["optimize", "sweep"])
    def test_rejected_config_does_not_warn(self, tmp_path, command):
        # an eps_max with no room for one step exits 2 before any warning,
        # on a grid coarse enough to warn at any eps_max
        text = TINY_CONFIG.replace("spacing = 0.0625", "spacing = 0.125")
        text += "eps_max = 1.0\npump_list = 0.005,0.05\n"
        cfg_path = write_config(tmp_path, text)
        with pytest.warns(GridResolutionWarning):
            cli._warn_if_coarse(cli.parse_config(cfg_path))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main([command, "--config", str(cfg_path),
                             "--out", str(tmp_path / "out")]) == 2
        assert self.resolution_warnings(caught) == []
        assert not (tmp_path / "out").exists()

    def test_library_grids_do_not_warn(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path))
        csv_path, meta_path = tmp_path / "g.eps.csv", tmp_path / "g.meta.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = PermittivityGrid.vacuum((4, 4, 4), 1 / 16)
            grid.copy()
            cli.save_grid_csv(grid, csv_path)
            cli.save_meta(cfg, grid, cli._emitter_pair(0.25), meta_path)


class TestSweepCommand:
    def test_toy_sweep_rows_and_contract(self, tmp_path):
        text = TINY_CONFIG + "d12_list = 0.25,0.375\npump_list = 0.005,0.05\n"
        cfg_path = write_config(tmp_path, text, name="sweep.cfg")
        out = tmp_path / "outs"
        rc = cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 4
        for row in rows:
            assert float(row["C"]) >= float(row["C0"]) - 1e-9
            assert float(row["C_minus_C0"]) == pytest.approx(
                float(row["C"]) - float(row["C0"]), abs=1e-12)

    def test_c0_column_matches_direct_evaluation(self, tmp_path):
        text = TINY_CONFIG + "d12_list = 0.25\npump_list = 0.005\n"
        cfg_path = write_config(tmp_path, text, name="sweep1.cfg")
        out = tmp_path / "outs1"
        assert cli.main(["sweep", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        row = read_csv(out / "sweep.csv")[0]
        params = quantum.MasterEqParams(
            1.0, 1.0, aligned_gamma12(0.25), aligned_g12(0.25), 0.005)
        c0 = quantum.concurrence(quantum.steady_state(params))
        assert float(row["C0"]) == pytest.approx(c0, abs=1e-9)

    def test_final_columns_are_the_last_trace_row(self, tmp_path):
        # the sweep rebuilds the final state from the last recorded
        # couplings; it must give the value the loop recorded, to the bit
        text = TINY_CONFIG + "d12_list = 0.25\npump_list = 0.005\n"
        cfg_path = write_config(tmp_path, text, name="sweep1.cfg")
        assert cli.main(["sweep", "--config", str(cfg_path),
                         "--out", str(tmp_path / "sweep")]) == 0
        assert cli.main(["optimize", "--config", str(cfg_path),
                         "--out", str(tmp_path / "design")]) == 0
        row = read_csv(tmp_path / "sweep" / "sweep.csv")[0]
        last = read_csv(tmp_path / "design" / "trace.csv")[-1]
        assert int(last["n"]) > 0
        assert row["C"] == last["target_value"]
        for key in ("gamma12_over_gamma", "g12_over_gamma", "purcell"):
            assert row[key] == last[key], key

    def test_failed_points_recorded_and_run_continues(self, tmp_path):
        # d12 = 0.1875 puts an emitter exactly on a voxel center plane of
        # the 4^3 grid, so that point fails while the other succeeds
        text = TINY_CONFIG + "d12_list = 0.25,0.1875\npump_list = 0.005\n"
        cfg_path = write_config(tmp_path, text, name="sweepfail.cfg")
        out = tmp_path / "outsf"
        assert cli.main(["sweep", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        assert len(read_csv(out / "sweep.csv")) == 1
        failures = read_csv(out / "failures.csv")
        assert len(failures) == 1
        assert float(failures[0]["d12_over_lambda"]) == 0.1875

    def test_krylov_non_convergence_recorded_as_failure(self, tmp_path, monkeypatch):
        # points run in this process, so they see the patched cap
        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(vie, "MAX_KRYLOV_ITER", 1)
        text = KRYLOV_CONFIG + "d12_list = 0.25\npump_list = 0.005\n"
        out = tmp_path / "outsk"
        assert cli.main(["sweep", "--config", str(write_config(tmp_path, text)),
                         "--out", str(out)]) == 0
        assert read_csv(out / "sweep.csv") == []
        failures = read_csv(out / "failures.csv")
        assert len(failures) == 1
        assert failures[0]["error"].startswith("ConvergenceError: ")

    def test_degenerate_steady_state_recorded_as_failure(
            self, tmp_path, monkeypatch, degenerate_steady_state):
        # points run in this process, so they see the patched steady state
        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        text = TINY_CONFIG + "d12_list = 0.25\npump_list = 0.005\n"
        out = tmp_path / "outsd"
        assert cli.main(["sweep", "--config", str(write_config(tmp_path, text)),
                         "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("d12_over_lambda,")
        failures = read_csv(out / "failures.csv")
        assert len(failures) == 1
        assert failures[0]["error"].startswith("DegenerateSteadyStateError: ")

    def test_crashed_worker_fails_only_its_point(self, tmp_path, monkeypatch):
        # the worker of the d12 = 0.375 point dies outright; the pool it
        # breaks must not take the other point with it
        real = cli._sweep_point

        def crash_at_375(task):
            if task[1] == 0.375:
                os._exit(1)
            return real(task)

        monkeypatch.setattr(cli, "_sweep_point", crash_at_375)
        # forked workers inherit the patched _sweep_point
        monkeypatch.setattr(cli, "ProcessPoolExecutor", functools.partial(
            cli.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
        text = TINY_CONFIG + "d12_list = 0.25,0.375\npump_list = 0.005\n"
        cfg_path = write_config(tmp_path, text, name="sweepcrash.cfg")
        out = tmp_path / "outsc"
        assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out),
                         "--threads", "2"]) == 0
        assert [float(r["d12_over_lambda"])
                for r in read_csv(out / "sweep.csv")] == [0.25]
        failures = read_csv(out / "failures.csv")
        assert [float(f["d12_over_lambda"]) for f in failures] == [0.375]
        assert failures[0]["error"].startswith("BrokenProcessPool: ")

    def test_crashed_worker_at_default_threads_fails_only_its_point(
            self, tmp_path):
        # the same crash with no --threads; in a child interpreter, since
        # a sweep that ran its points in-process would die with them
        code = (
            "import os, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from entcloak import cli\n"
            "real = cli._sweep_point\n"
            "def crash_at_375(task):\n"
            "    if task[1] == 0.375:\n"
            "        os._exit(1)\n"
            "    return real(task)\n"
            "cli._sweep_point = crash_at_375\n"
            "sys.exit(cli.main(['sweep', '--config', sys.argv[2],"
            " '--out', sys.argv[3]]))\n"
        )
        text = TINY_CONFIG + "d12_list = 0.25,0.375\npump_list = 0.005\n"
        cfg_path = write_config(tmp_path, text, name="sweepcrash.cfg")
        out = tmp_path / "outsc"
        src = Path(cli.__file__).parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", code, str(src), str(cfg_path), str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert [float(r["d12_over_lambda"])
                for r in read_csv(out / "sweep.csv")] == [0.25]
        failures = read_csv(out / "failures.csv")
        assert [float(f["d12_over_lambda"]) for f in failures] == [0.375]
        assert failures[0]["error"].startswith("BrokenProcessPool: ")

    def test_clean_rerun_leaves_no_earlier_failure_rows(self, tmp_path):
        # the first run fails its d12 = 0.1875 point (see above); a clean
        # rerun into the same directory must not keep that row
        out = tmp_path / "outsr"
        for d12_list, n_failed in (("0.25,0.1875", 1), ("0.25", 0)):
            text = TINY_CONFIG + f"d12_list = {d12_list}\npump_list = 0.005\n"
            cfg_path = write_config(tmp_path, text, name="sweeprerun.cfg")
            assert cli.main(["sweep", "--config", str(cfg_path),
                             "--out", str(out)]) == 0
            assert len(read_csv(out / "failures.csv")) == n_failed

    @pytest.mark.parametrize("line, message", [
        ("dims = 4,6,6\nsymmetry = z-axis-rotation-4fold",
         "symmetry must be one of"),
        ("dims = 4,4,4\norigin = 0.03,-0.09375,-0.09375\nsymmetry = mirror-z",
         "unknown config key 'origin'"),
    ], ids=["rotation-dims", "mirror-off-axis"])
    def test_uncarriable_symmetry_exit_2_no_outputs(self, tmp_path, monkeypatch,
                                                    capsys, line, message):
        # neither the removed 4-fold rotation nor a mirror-z grid moved
        # off the emitter axis, which only the removed origin key could
        # set, can be configured: a configuration error before any point
        # starts, not one failures.csv row per point
        from entcloak import optimizer

        def no_solve(*args, **kwargs):
            raise AssertionError("field solve on a malformed configuration")

        monkeypatch.setattr(optimizer, "_fields_and_incident", no_solve)
        text = line + "\nd12_list = 0.25,0.375\npump_list = 0.005,0.05\n"
        cfg_path = write_config(tmp_path, text, name="bad.cfg")
        out = tmp_path / "never"
        rc = cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["pump_list = nan", "eps_max = 1.0"],
                             ids=["pump_list-nan", "eps_max-no-increment"])
    def test_malformed_config_exit_2_no_outputs(self, tmp_path, line):
        # every point would fail alike: a configuration error, not
        # failures.csv rows
        text = TINY_CONFIG + line + "\n"
        cfg_path = write_config(tmp_path, text, name="bad.cfg")
        out = tmp_path / "never"
        rc = cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_pool_capped_at_point_count(self, tmp_path, monkeypatch):
        # a fork pool starts all its workers up front: 64 asked for one
        # point must start one
        seen = []

        def recording_pool(max_workers):
            seen.append(max_workers)
            return InlinePool(max_workers)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", recording_pool)
        text = TINY_CONFIG + "d12_list = 0.25\npump_list = 0.005\n"
        cfg_path = write_config(tmp_path, text, name="sweep1.cfg")
        out = tmp_path / "outs1"
        assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out),
                         "--threads", "64"]) == 0
        assert seen == [1]
        assert len(read_csv(out / "sweep.csv")) == 1

    def test_worker_pool_matches_sequential(self, tmp_path):
        text = TINY_CONFIG + "d12_list = 0.25,0.375\npump_list = 0.005\n"
        cfg_path = write_config(tmp_path, text, name="sweep2.cfg")
        out1, out2 = tmp_path / "seq", tmp_path / "par"
        assert cli.main(["sweep", "--config", str(cfg_path),
                         "--out", str(out1)]) == 0
        assert cli.main(["sweep", "--config", str(cfg_path),
                         "--out", str(out2), "--threads", "2"]) == 0
        assert (out1 / "sweep.csv").read_bytes() == \
            (out2 / "sweep.csv").read_bytes()


class TestFreespaceCommand:
    def test_reference_values(self, tmp_path):
        text = "d12_list = 0.05,0.5\npump_list = 0.005\n"
        cfg_path = write_config(tmp_path, text, name="fs.cfg")
        out = tmp_path / "outfs"
        assert cli.main(["freespace", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        rows = {float(r["d12_over_lambda"]): r
                for r in read_csv(out / "freespace.csv")}
        half = rows[0.5]
        assert float(half["gamma12_over_gamma0"]) == pytest.approx(
            3 / np.pi**2, rel=1e-12)
        assert float(half["g12_over_gamma0"]) == pytest.approx(
            -3 / (2 * np.pi**3), rel=1e-12)
        close = rows[0.05]
        # closed form 3 (sin x - x cos x)/x^3 evaluated at x = 0.1 pi
        assert float(close["gamma12_over_gamma0"]) == pytest.approx(
            aligned_gamma12(0.05), rel=1e-12)
        assert float(close["gamma12_over_gamma0"]) == pytest.approx(
            0.9901651210473111, rel=1e-10)

    def test_c0_columns_match_quantum_pipeline(self, tmp_path):
        text = "d12_list = 0.1,0.3\npump_list = 0.005,0.1\n"
        cfg_path = write_config(tmp_path, text, name="fs2.cfg")
        out = tmp_path / "outfs2"
        assert cli.main(["freespace", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        for row in read_csv(out / "freespace.csv"):
            d = float(row["d12_over_lambda"])
            for p in (0.005, 0.1):
                params = quantum.MasterEqParams(
                    1.0, 1.0, aligned_gamma12(d), aligned_g12(d), p)
                expect = quantum.concurrence(quantum.steady_state(params))
                assert float(row[f"C0_P_over_gamma_{p:g}"]) == pytest.approx(
                    expect, abs=1e-12)


class TestClosedFormAtRuntime:
    def test_commands_build_no_liouvillian(self, tmp_path, monkeypatch):
        # the commands take the closed form unchecked; the Liouvillian is
        # built only by its oracles and by the degenerate-kernel fallback
        def forbidden(*args, **kwargs):
            raise AssertionError("a command built the Liouvillian")

        monkeypatch.setattr(quantum, "build_liouvillian", forbidden)
        # sweep points run in this process, so they see the patch
        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        fs_cfg = Path(__file__).parents[1] / "configs" / "freespace.cfg"
        assert cli.main(["freespace", "--config", str(fs_cfg),
                         "--out", str(tmp_path / "fs")]) == 0
        assert len(read_csv(tmp_path / "fs" / "freespace.csv")) == 100
        text = TINY_CONFIG + "d12_list = 0.25,0.375\npump_list = 0.005\n"
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(write_config(tmp_path, text)),
                         "--out", str(out)]) == 0
        assert len(read_csv(out / "sweep.csv")) == 2
        assert read_csv(out / "failures.csv") == []


class TestMemsCommand:
    def test_file_contents(self, tmp_path):
        out = tmp_path / "outm"
        assert cli.main(["mems", "--out", str(out)]) == 0
        rows = read_csv(out / "mems.csv")
        assert len(rows) == 201
        first, last = rows[0], rows[-1]
        assert (float(first["r"]), float(first["C"])) == (0.0, 0.0)
        assert float(first["S_L"]) == pytest.approx(8 / 9, abs=1e-15)
        assert (float(last["r"]), float(last["C"])) == (1.0, 1.0)
        assert float(last["S_L"]) == pytest.approx(0.0, abs=1e-15)
        # branch continuity around r = 2/3: both branch slopes are -8/9
        # there, so the nearest grid sample sits within (8/9) * dr of 16/27
        rs = np.array([float(r["r"]) for r in rows])
        sls = np.array([float(r["S_L"]) for r in rows])
        k = np.argmin(np.abs(rs - 2 / 3))
        assert abs(sls[k] - 16 / 27) <= (8 / 9) * abs(rs[k] - 2 / 3) + 1e-12


class TestAtomicWrites:
    @staticmethod
    def record(n_entries):
        cs = CouplingSet(gamma11=1.5, gamma22=1.5, gamma12=0.3, g12=-0.2)
        return SimpleNamespace(entries=[
            IterationEntry(n=n, target_value=0.1 * n, accepted_count=n,
                           couplings=cs, convergence_mismatch=1e-6,
                           delta_eps_used=0.05)
            for n in range(n_entries)])

    def test_interrupted_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.csv"
        cli.save_trace_csv(self.record(2), path)
        before = path.read_bytes()
        rows = cli._trace_rows

        def one_row_then_fail(record):
            yield next(rows(record))
            raise RuntimeError("interrupted")

        monkeypatch.setattr(cli, "_trace_rows", one_row_then_fail)
        with pytest.raises(RuntimeError, match="interrupted"):
            cli.save_trace_csv(self.record(3), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]

    def test_completed_write_replaces_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        cli.save_trace_csv(self.record(2), path)
        cli.save_trace_csv(self.record(3), path)
        assert len(read_csv(path)) == 3
        assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]


class TestUnwritableOut:
    """An --out that cannot be made or written into exits 2 with one
    `cannot write output` line and leaves no temporary file."""

    @pytest.fixture
    def afile(self, tmp_path):
        path = tmp_path / "afile"
        path.write_text("")
        return path

    def assert_one_line_naming(self, err, path):
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("config error: cannot write output ")
        assert str(path) in err

    def test_mems_to_a_path_under_a_file_exit_2(self, tmp_path, afile):
        # through the console entry point, so a traceback would be seen
        env = {**os.environ,
               "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        out = subprocess.run(
            [sys.executable, "-m", "entcloak.cli", "mems",
             "--out", str(afile / "sub")],
            env=env, capture_output=True, text=True)
        assert out.returncode == 2 and out.stdout == ""
        self.assert_one_line_naming(out.stderr, afile / "sub")
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_optimize_to_a_file_exit_2(self, tmp_path, capsys, afile, under):
        out = afile / "sub" if under else afile
        rc = cli.main(["optimize", "--config", str(write_config(tmp_path)),
                       "--out", str(out)])
        assert rc == 2
        self.assert_one_line_naming(capsys.readouterr().err, out)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "run.cfg"]
        assert afile.read_text() == ""

    def test_failed_write_exit_2_no_temp_file(self, tmp_path, capsys,
                                              monkeypatch):
        def full_disk(record):
            yield from []
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "_trace_rows", full_disk)
        out = tmp_path / "out"
        rc = cli.main(["optimize", "--config", str(write_config(tmp_path)),
                       "--out", str(out)])
        assert rc == 2
        self.assert_one_line_naming(capsys.readouterr().err, out / "trace.csv")
        assert sorted(p.name for p in out.iterdir()) == ["design.eps.csv",
                                                         "design.meta.json"]

    def test_other_os_errors_are_not_caught(self, tmp_path, monkeypatch):
        # only the writes are mapped: an OSError elsewhere, here from
        # starting the sweep's worker pool, still propagates
        def no_fork(max_workers):
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_fork)
        with pytest.raises(OSError, match="temporarily unavailable"):
            cli.main(["sweep", "--config", str(write_config(tmp_path)),
                      "--out", str(tmp_path / "out")])


class TestValidateCommand:
    def test_negative_control_fails_rayleigh(self, monkeypatch, capsys):
        # the suite must catch a voxel self term zeroed out
        from entcloak import validate as vmod, vie
        monkeypatch.setattr(
            vmod, "CHECKS",
            [("vie/rayleigh-sphere", vmod.check_rayleigh_sphere)])
        assert cli.main(["validate"]) == 0
        orig = vie.self_interaction
        monkeypatch.setattr(vie, "self_interaction",
                            lambda spacing: 0.0 * orig(spacing))
        assert cli.main(["validate"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "rayleigh" in out

    def test_random_grids_build_without_warnings(self):
        from entcloak import validate as vmod
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            vmod._random_grid(np.random.default_rng(0))
        assert caught == []


class TestDocDrift:
    """The CLI documentation names exactly what the parser accepts."""

    def test_docstring_key_table_matches_parse_config(self, tmp_path):
        table = cli.__doc__.split("Normative keys and defaults:")[1]
        table = table.split("\n\n")[1]
        documented = dict(re.findall(r"^    (\w+)\s*=\s*(\S+)", table, re.M))
        accepted = ({f.name for f in fields(cli.RunConfig)} - {"design"}) \
            | cli._DESIGN_PARSERS.keys()
        assert set(documented) == accepted
        # every key parses, and at its documented default
        text = "".join(f"{key} = {val}\n" for key, val in documented.items())
        assert cli.parse_config(write_config(tmp_path, text)) == cli.RunConfig()

    def test_readme_check_count_matches_validate(self):
        from entcloak import validate
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        counts = re.findall(r"all (\d+) named\s+invariant checks", readme)
        assert counts == [str(len(validate.CHECKS))]

    def test_readme_flag_table_matches_parser(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        subparsers = next(a for a in cli._build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        for name, parser in subparsers.choices.items():
            # a hidden (argparse.SUPPRESS) flag counts too
            flags = {opt for a in parser._actions
                     for opt in a.option_strings if opt not in ("-h", "--help")}
            row = re.search(rf"^\| `{name}` +\|(.*)\|$", readme, re.M)
            assert row is not None, name
            assert set(re.findall(r"--[a-z-]+", row.group(1))) == flags, name
