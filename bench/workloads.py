"""The two benchmark workloads: inputs from a seed, one operation, checks.

Each workload turns the seed into one *pass*: a fixed list of
operations (here one design or one whole sweep).  The benchmark repeats
whole passes, so every run sees each input equally often.  Seed 0 runs configs/sweep.cfg as shipped and builds the 16^3
design on configs/toy.cfg (with the iteration caps below); other seeds
draw the design pump ratio and the sweep pump list from inside the
range of configs/sweep.cfg.

Every operation's outputs are checked.  On every seed: the design trace
never decreases, each accepted iteration keeps eq3_mismatch within
eta_converge, the couplings are physical and every witness lies in
[0, 1].  On seed 0 the outputs must also match reference.json (the
fingerprints recorded from this code) to REL_TOL.
"""

import contextlib
import csv
import io
import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from entcloak import cli

#: Relative tolerance of the seed-0 fingerprints.  The toy design's
#: final_value differs between the dense and the iterative solve path by
#: 8.4e-12 and the Krylov tolerance is 1e-10, so any correct change of
#: solve path stays far inside 1e-8, while one voxel accepted or lost
#: moves final_value by about 1e-6.
REL_TOL = 1e-8
#: Absolute floor for fingerprint values that are (close to) zero.
ABS_TOL = 1e-12
#: Slack on the Cauchy-Schwarz bound |gamma12| <= sqrt(gamma11 gamma22)
#: and on the witness range, matching emcore.POSITIVITY_TOL.
PHYS_TOL = 1e-9

PUMP_RANGE = (0.005, 0.05)   # pump_list = logspace:0.005,0.05,3 in sweep.cfg

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

# configs/toy.cfg and configs/sweep.cfg as shipped, except max_iterations.
# The 16^3 design changes toy.cfg's grid and solver.
TOY_CFG = {
    "dims": "8,8,8", "spacing": "0.0625", "d12": "0.25", "pump_ratio": "0.005",
    "target": "concurrence", "max_iterations": "120", "exclusion_radius": "1.0",
    "seed": "0",
}
SWEEP_CFG = {
    "dims": "8,8,8", "spacing": "0.0625", "pump_ratio": "0.005",
    "target": "concurrence", "max_iterations": "40", "exclusion_radius": "1.0",
    "d12_list": "0.125,0.25,0.375", "pump_list": "logspace:0.005,0.05,3",
    "seed": "0",
}


@dataclass
class Outcome:
    """What one operation attempted, how much of it failed, and why."""

    attempted: int = 1
    failed: int = 0
    problems: list = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)


def _draw_pump(rng):
    lo, hi = np.log(PUMP_RANGE[0]), np.log(PUMP_RANGE[1])
    return float(np.exp(rng.uniform(lo, hi)))


def _write_cfg(path, keys):
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return path


def _close(a, b):
    return abs(a - b) <= max(REL_TOL * abs(b), ABS_TOL)


def _compare(fingerprint, reference, problems):
    for key, ref in reference.items():
        got = fingerprint.get(key)
        if ref is None:
            ok = False
        elif isinstance(ref, list):
            ok = got is not None and len(got) == len(ref) and all(
                _close(g, r) for g, r in zip(got, ref))
        elif isinstance(ref, int):
            ok = got == ref
        else:
            ok = got is not None and _close(got, ref)
        if not ok:
            problems.append(f"fingerprint {key}: got {got!r}, reference {ref!r}")


def _check_couplings(cs, problems, where):
    if not (cs.gamma11 > 0 and cs.gamma22 > 0):
        problems.append(f"{where}: non-positive decay rate {cs}")
    elif abs(cs.gamma12) > math.sqrt(cs.gamma11 * cs.gamma22) + PHYS_TOL:
        problems.append(f"{where}: |gamma12| above sqrt(gamma11 gamma22) {cs}")


def _check_unit_range(value, problems, where):
    if not (-PHYS_TOL <= value <= 1.0 + PHYS_TOL):
        problems.append(f"{where}: {value!r} outside [0, 1]")


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


class Design:
    """One `entcloak optimize` run: solve, sweep, verify, write 3 files."""

    workers = 1

    def __init__(self, name, overrides, cap):
        self.name = name
        self.overrides = overrides
        self.cap = cap
        self.dims = tuple(int(t) for t in {**TOY_CFG, **overrides}["dims"].split(","))

    def config_keys(self, seed):
        keys = {**TOY_CFG, **self.overrides, "max_iterations": str(self.cap)}
        if seed != 0:
            keys["pump_ratio"] = repr(_draw_pump(np.random.default_rng(seed)))
        return keys

    def make_pass(self, seed, work):
        keys = self.config_keys(seed)
        self.cfg_path = _write_cfg(work / f"{self.name}.cfg", keys)
        self._eta = cli.parse_config(self.cfg_path).design.eta_converge
        return [self.cfg_path]

    def run(self, cfg_path, work, seed):
        out_dir = work / "out"
        records = []
        real = cli.optimize

        def keep_record(*args, **kwargs):
            records.append(real(*args, **kwargs))
            return records[-1]

        cli.optimize = keep_record
        try:
            rc = _quiet(cli.main, ["optimize", "--config", str(cfg_path),
                                   "--out", str(out_dir)])
        finally:
            cli.optimize = real
        outcome = Outcome()
        if rc != 0 or not records:
            outcome.failed = 1
            outcome.problems.append(f"optimize exited {rc}")
            return outcome
        rows = _read_csv(out_dir / "trace.csv")
        values = [float(r["target_value"]) for r in rows]
        p = outcome.problems
        if any(b < a for a, b in zip(values, values[1:])):
            p.append("trace.csv target_value decreases")
        for r in rows[1:]:
            if float(r["eq3_mismatch"]) > self._eta:
                p.append(f"iteration {r['n']}: eq3_mismatch {r['eq3_mismatch']} "
                         f"> eta_converge {self._eta}")
        for v in values:
            _check_unit_range(v, p, "concurrence")
        for e in records[0].entries:
            _check_couplings(e.couplings, p, f"iteration {e.n}")
        outcome.fingerprint = {
            "final_value": values[-1],
            "accepted_total": sum(int(r["accepted_count"]) for r in rows),
            "iterations": len(rows) - 1,
        }
        if seed == 0:
            _compare(outcome.fingerprint, REFERENCE[self.name], p)
        outcome.failed = int(bool(p))
        return outcome


class Sweep:
    """One `entcloak sweep` over a (d12, P/gamma) grid with a process pool."""

    name = "sweep"
    dims = (8, 8, 8)
    cap = 1

    def __init__(self, workers):
        self.workers = workers
        self.worker_peak_mb = 0.0

    def config_keys(self, seed):
        keys = {**SWEEP_CFG, "max_iterations": str(self.cap)}
        if seed != 0:
            rng = np.random.default_rng(seed)
            pumps = sorted(_draw_pump(rng) for _ in range(3))
            keys["pump_list"] = ",".join(repr(x) for x in pumps)
        return keys

    def make_pass(self, seed, work):
        self.cfg_path = _write_cfg(work / "sweep.cfg", self.config_keys(seed))
        cfg = cli.parse_config(self.cfg_path)
        self.points = len(cfg.d12_list) * len(cfg.pump_list)
        return [self.cfg_path]

    def run(self, cfg_path, work, seed):
        out_dir = work / "out"
        for stale in ("sweep.csv", "failures.csv"):
            (out_dir / stale).unlink(missing_ok=True)
        outcome = Outcome(attempted=self.points)
        p = outcome.problems
        real_pool = cli.ProcessPoolExecutor
        cli.ProcessPoolExecutor = _pool_recording_peak(real_pool, self)
        try:
            rc = _quiet(cli.main, ["sweep", "--config", str(cfg_path),
                                   "--out", str(out_dir),
                                   "--threads", str(self.workers)])
        finally:
            cli.ProcessPoolExecutor = real_pool
        rows = _read_csv(out_dir / "sweep.csv") if rc == 0 else []
        if rc != 0:
            p.append(f"sweep exited {rc}")
        if (out_dir / "failures.csv").exists():
            for f in _read_csv(out_dir / "failures.csv"):
                p.append(f"point {f['d12_over_lambda']},{f['P_over_gamma']}: "
                         f"{f['error']}")
        bad_rows = 0
        for r in rows:
            before = len(p)
            point = f"{r['d12_over_lambda']},{r['P_over_gamma']}"
            for key in ("C", "C0", "S_L", "S_L0", "N", "N0"):
                _check_unit_range(float(r[key]), p, f"point {point} {key}")
            if not float(r["purcell"]) > 0:
                p.append(f"point {point}: non-positive purcell {r['purcell']}")
            fingerprint = {point: [float(r[key]) for key in
                                   ("C", "gamma12_over_gamma", "purcell")]}
            outcome.fingerprint.update(fingerprint)
            if seed == 0:
                _compare(fingerprint, {point: REFERENCE[self.name].get(point)}, p)
            bad_rows += len(p) > before
        # Points missing from sweep.csv (failures.csv rows, or all points
        # left unfinished by a crashed pool or a non-zero exit) fail too.
        outcome.failed = self.points - len(rows) + bad_rows
        return outcome


def attempt(workload, item, work, seed):
    """Run one operation; one that raises fails everything it attempted.

    For a sweep that includes a crashed pool (BrokenProcessPool): no
    point reaches sweep.csv, so every point counts as failed.
    """
    try:
        return workload.run(item, work, seed)
    except Exception:
        n = getattr(workload, "points", 1)
        return Outcome(attempted=n, failed=n, problems=[traceback.format_exc()])


def _pool_recording_peak(base, sink):
    """ProcessPoolExecutor that notes its workers' peak RSS at shutdown."""

    class Pool(base):
        def shutdown(self, *args, **kwargs):
            procs = list((getattr(self, "_processes", None) or {}).values())
            total = sum(vm_hwm_mb(p.pid) for p in procs)
            sink.worker_peak_mb = max(sink.worker_peak_mb, total)
            return super().shutdown(*args, **kwargs)

    return Pool


def vm_hwm_mb(pid="self"):
    """Peak resident set size of a live process, in MB (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def all_workloads(workers):
    return {
        "design16": Design("design16",
                           {"dims": "16,16,16", "solver_method": "iterative"},
                           cap=4),
        "sweep": Sweep(workers),
    }
