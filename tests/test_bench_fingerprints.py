"""The benchmark's seed-0 operations, run in-process with every output
check of bench/workloads.py, the comparison with bench/reference.json
at its REL_TOL included: a change that flips one accepted voxel fails
here, not only in a benchmark run."""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


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
