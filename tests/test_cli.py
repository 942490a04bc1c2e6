import argparse
import csv
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

from entcloak import cli, quantum
from entcloak.emcore import CouplingSet, aligned_g12, aligned_gamma12
from entcloak.errors import ConfigError
from entcloak.optimizer import IterationEntry
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


class TestConfigParsing:
    def test_defaults_and_overrides(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path))
        assert cfg.dims == (4, 4, 4)
        assert cfg.design.max_iterations == 2
        assert cfg.design.pump_ratio == 0.005
        assert cfg.seed == 7
        assert cfg.design.sweep_mode == "sequential"

    def test_seed_override(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path), seed_override=99)
        assert cfg.seed == 99

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
    ], ids=["spacing", "d12", "d12_list", "pump_list", "spacing-inf",
            "d12-inf", "d12_list-inf", "pump_list-inf"])
    def test_nan_range_rejected(self, field, value):
        # a RunConfig built directly, not parsed: nan and inf both fail
        with pytest.raises(ConfigError):
            cli.RunConfig(**{field: value})

    # the list holds every required key, so each `key in meta` test passes
    @pytest.mark.parametrize("meta", [5, list(cli.META_SCHEMA["required"])],
                             ids=["int", "list"])
    def test_meta_not_an_object_rejected(self, meta):
        with pytest.raises(ConfigError, match="JSON object"):
            cli.validate_meta(meta)

    @pytest.mark.parametrize("key", ["dims", "origin", "emitters"])
    def test_meta_array_key_not_a_list_rejected(self, key):
        meta = {"format_version": 1, "dims": [4, 4, 4], "spacing": 0.0625,
                "origin": [0.0, 0.0, 0.0], "emitters": [[0.0] * 3, [0.1] * 3],
                "lambda0": 1.0, "eps_max": 9.0}
        cli.validate_meta(meta)
        with pytest.raises(ConfigError, match=f"{key} must be a JSON array"):
            cli.validate_meta({**meta, key: 5})

    def test_logspace_lists(self, tmp_path):
        path = write_config(tmp_path, "d12_list = logspace:0.1,1.0,3\n")
        cfg = cli.parse_config(path)
        assert np.allclose(cfg.d12_list, np.geomspace(0.1, 1.0, 3))

    def test_explicit_lists(self, tmp_path):
        path = write_config(tmp_path, "pump_list = 0.005, 0.05\n")
        cfg = cli.parse_config(path)
        assert cfg.pump_list == (0.005, 0.05)

    def test_explicit_origin(self, tmp_path):
        path = write_config(tmp_path,
                            "dims = 4,4,4\norigin = -0.1, -0.1, 0.03\n")
        cfg = cli.parse_config(path)
        # the emitter at z = 0.125 is 0.03 < spacing/2 from a center plane
        with pytest.warns(UserWarning, match="nearest voxel center plane"):
            grid, _ = cli.build_grid(cfg)
        assert np.allclose(grid.origin, [-0.1, -0.1, 0.03])


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
        meta = json.loads((out / "design.meta.json").read_text())
        cli.validate_meta(meta)

    def test_meta_validates_against_shipped_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["optimize", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        meta = json.loads((out / "design.meta.json").read_text())
        jsonschema.validate(meta, cli.META_SCHEMA)

    def test_corrupted_meta_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["optimize", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        meta = json.loads((out / "design.meta.json").read_text())
        del meta["dims"]
        bad = tmp_path / "bad.meta.json"
        bad.write_text(json.dumps(meta))
        with pytest.raises(ConfigError):
            cli.load_grid(out / "design.eps.csv", bad)

    @pytest.mark.parametrize("meta_edit, csv_edit", [
        ({}, lambda lines: [lines[0], lines[1].rsplit(",", 1)[0] + ",nan"]),
        ({"spacing": 0}, None),
        ({"dims": [0, 2, 2]}, None),
        ({}, lambda lines: [line.rsplit(",", 1)[0] for line in lines]),
        ({}, lambda lines: [lines[0], lines[1].rsplit(",", 1)[0]]),
        ("{not json", None),
        ("5", None),
        ({"dims": 5}, None),
    ], ids=["eps-nan", "spacing-zero", "dims-zero", "no-eps-column",
            "short-row", "invalid-json", "meta-not-object", "dims-not-list"])
    def test_out_of_range_grid_file_rejected(self, tmp_path, meta_edit,
                                             csv_edit):
        # meta_edit is merged into the metadata, or a string replaces its
        # text; csv_edit maps the grid file's lines to the ones written
        out = tmp_path / "out"
        assert cli.main(["optimize", "--config", str(write_config(tmp_path)),
                         "--out", str(out)]) == 0
        meta_text = (out / "design.meta.json").read_text()
        if not isinstance(meta_edit, str):
            meta_edit = json.dumps(json.loads(meta_text) | meta_edit)
        (tmp_path / "g.meta.json").write_text(meta_edit)
        lines = (out / "design.eps.csv").read_text().splitlines()
        if csv_edit is not None:
            lines = csv_edit(lines)
        (tmp_path / "g.eps.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError):
            cli.load_grid(tmp_path / "g.eps.csv", tmp_path / "g.meta.json")

    def test_eps_roundtrip_lossless(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["optimize", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        grid, meta = cli.load_grid(out / "design.eps.csv",
                                   out / "design.meta.json")
        cfg = cli.parse_config(cfg_path)
        ref_grid, _ = cli.build_grid(cfg)
        assert grid.dims == ref_grid.dims
        assert np.array_equal(grid.origin, ref_grid.origin)
        # real round-trip check: rewrite what we loaded and compare bytes
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
        "max_iterations = 2.5", "bidirectional = maybe",
        "pump_ratio = nan", "d12 = nan", "eta_converge = nan", "eps_max = inf",
        "eps_max = 1.0", "eps_max = 0.5",
        # the emitters at z = +-0.03125 lie on voxel-center planes
        "dims = 4,4,4\nd12 = 0.0625",
        "dims = 4,4,4\neta_converge = -1", "tol_accept = -1e-9",
        "delta_eps_min = 0", "exclusion_radius = -5", "max_iterations = -1",
    ], ids=["dims", "spacing", "origin", "solver_rtol", "rotation-dims",
            "mirror-off-axis", "max_iterations", "bidirectional",
            "pump_ratio-nan", "d12-nan", "eta_converge-nan", "eps_max-inf",
            "eps_max-no-increment", "eps_max-below-vacuum",
            "emitter-on-center-plane", "eta_converge-negative",
            "tol_accept-negative", "delta_eps_min-zero",
            "exclusion_radius-negative", "max_iterations-negative"])
    def test_malformed_config_exit_2_no_outputs(self, tmp_path, monkeypatch,
                                                line):
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
        # a symmetry the layout cannot carry exits 2 before any warning
        text = TINY_CONFIG.replace("dims = 4,4,4", "dims = 4,6,6")
        text += "symmetry = z-axis-rotation-4fold\npump_list = 0.005,0.05\n"
        cfg_path = write_config(tmp_path, text)
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
            cli.load_grid(csv_path, meta_path)


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

    @pytest.mark.parametrize("line", [
        "dims = 4,6,6\nsymmetry = z-axis-rotation-4fold",
        "dims = 4,4,4\norigin = 0.03,-0.09375,-0.09375\nsymmetry = mirror-z",
    ], ids=["rotation-dims", "mirror-off-axis"])
    def test_uncarriable_symmetry_exit_2_no_outputs(self, tmp_path, monkeypatch,
                                                    line):
        # the layout fails every point alike: a configuration error before
        # any point starts, not one failures.csv row per point
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
