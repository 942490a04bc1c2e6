"""The benchmark's seed-0 operations, run in-process with every output
check of bench/workloads.py, the comparison with bench/reference.json
at its REL_TOL included: a change that flips one accepted voxel fails
here, not only in a benchmark run.  The `freespace` and `mems` outputs,
which the benchmark does not run, are held to reference_outputs.json at
the same tolerances."""

import csv
import importlib.util
import json
from pathlib import Path

import pytest

from entcloak import cli

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", ["design16", "sweep"])
def test_seed_0_operation_passes_every_check(name, tmp_path):
    # one worker process for the sweep: its fingerprints do not depend
    # on the pool size
    workload = workloads.all_workloads(1)[name]
    [item] = workload.make_pass(0, tmp_path)
    outcome = workloads.attempt(workload, item, tmp_path, 0)
    assert outcome.problems == []
    assert outcome.failed == 0


def test_freespace_and_mems_match_reference(tmp_path):
    reference = json.loads(
        (Path(__file__).parent / "reference_outputs.json").read_text())
    cli.cmd_freespace(cli.parse_config(ROOT / "configs" / "freespace.cfg"),
                      tmp_path)
    cli.cmd_mems(tmp_path)
    for name, expected in reference.items():
        with open(tmp_path / name, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == expected["header"], name
        assert len(rows) == len(expected["rows"]), name
        for row, ref in zip(rows, expected["rows"]):
            assert [float(v) for v in row] == pytest.approx(
                ref, rel=workloads.REL_TOL, abs=workloads.ABS_TOL), name
