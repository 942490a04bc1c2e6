"""Batch driver: single designs, (d12, P/gamma) sweeps, reference curves.

Configuration is a flat key=value text file ('#' starts a comment);
every number in it must be finite.  The grid is always centered on
the emitter midpoint.
Normative keys and defaults:

    dims            = 8,8,8          voxel counts nx,ny,nz
    spacing         = 0.0625         voxel edge in lambda units
    d12             = 0.25           emitter separation (lambda units)
    eps_max         = 9.0
    eta_converge    = 0.01
    max_iterations  = 200
    exclusion_radius= 2.0            vacuum shell around emitters, in spacings
    symmetry        = none           or mirror-z
    target          = concurrence    or negativity
    pump_ratio      = 0.005          P / gamma, held fixed during design
    solver_method   = iterative      or dense (the LU oracle)
    d12_list        = 0.25           list for sweep/freespace; either
                                     comma-separated values or
                                     'logspace:min,max,count'
    pump_list       = 0.005          same forms
    seed            = 0              recorded in design.meta.json only; the
                                     design itself is deterministic

All emitted numbers are dimensionless (lambda, gamma0 units); column
headers carry the unit names.  Exit codes: 0 success, 1 validation
failure, 2 configuration error, 3 solver failure, 4 degenerate steady
state.

The resolution rule, spacing <= lambda/(10 sqrt(eps_max)), is checked
here and nowhere else: `optimize` and `sweep` issue one
GridResolutionWarning for a coarser config and run on.  `sweep` runs
every point in a pool of worker processes (`--threads` of them, at
most one per point).  A point that fails, also by its worker process
dying, becomes a failures.csv row; the other points are still written
and the sweep exits 0.
"""

import argparse
import csv
import json
import math
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, fields as dc_fields, replace
from itertools import product
from pathlib import Path

import numpy as np

from . import quantum
from .emcore import (COINCIDENT_THRESHOLD, couplings_from_green,
                     free_space_green, vacuum_self_green)
from .errors import ConfigError, DegenerateSteadyStateError, EntcloakError
from .optimizer import DesignConfig, optimize, prepare_design, pump_params
from .vie import GridResolutionWarning, PermittivityGrid

META_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "entcloak permittivity-map metadata",
    "type": "object",
    "required": ["format_version", "dims", "spacing", "origin", "emitters",
                 "lambda0", "eps_max"],
    "properties": {
        "format_version": {"const": 1},
        "dims": {"type": "array", "items": {"type": "integer", "minimum": 1},
                 "minItems": 3, "maxItems": 3},
        "spacing": {"type": "number", "exclusiveMinimum": 0},
        "origin": {"type": "array", "items": {"type": "number"},
                   "minItems": 3, "maxItems": 3},
        "emitters": {"type": "array", "minItems": 2, "maxItems": 2,
                     "items": {"type": "array", "items": {"type": "number"},
                               "minItems": 3, "maxItems": 3}},
        "lambda0": {"type": "number"},
        "eps_max": {"type": "number", "minimum": 1},
        "d12": {"type": "number"},
        "target": {"type": "string"},
        "pump_ratio": {"type": "number"},
        "seed": {"type": "integer"},
    },
}


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Parsed configuration of one CLI invocation."""

    dims: tuple = (8, 8, 8)
    spacing: float = 0.0625
    d12: float = 0.25
    eps_max: float = 9.0
    d12_list: tuple = (0.25,)
    pump_list: tuple = (0.005,)
    seed: int = 0
    design: DesignConfig = None

    def __post_init__(self):
        if self.design is None:
            self.design = DesignConfig()
        # each range test is written so that nan and inf fail it
        if not 0 < self.spacing < math.inf:
            raise ConfigError("spacing must be positive and finite")
        # emcore refuses emitters closer than COINCIDENT_THRESHOLD
        d_min = COINCIDENT_THRESHOLD
        if not d_min <= self.d12 < math.inf:
            raise ConfigError(f"d12 must be finite and at least {d_min:g}")
        if len(self.d12_list) == 0 or any(not d_min <= d < math.inf
                                          for d in self.d12_list):
            raise ConfigError("d12_list must be non-empty, finite and at "
                              f"least {d_min:g}")
        if len(self.pump_list) == 0 or any(not 0 < p < math.inf
                                           for p in self.pump_list):
            raise ConfigError("pump_list must be non-empty, positive and finite")


def _parse_float(text):
    """float(text); nan and inf raise ValueError."""
    if not np.isfinite(value := float(text)):
        raise ValueError(f"non-finite number {text!r}")
    return value


def _parse_scalar_list(text):
    text = text.strip()
    if text.startswith("logspace:"):
        try:
            lo, hi, num = text[len("logspace:"):].split(",")
            lo, hi = _parse_float(lo), _parse_float(hi)
            # checked here: np.geomspace warns before it returns nan
            if not (lo > 0 and hi > 0):
                raise ValueError("bounds must be positive")
            return tuple(np.geomspace(lo, hi, int(num)))
        except Exception as exc:
            raise ConfigError(f"bad logspace spec {text!r}: {exc}") from exc
    try:
        return tuple(_parse_float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {text!r}") from exc


#: Config-value parser of each DesignConfig key, from its field's type.
_PARSERS = {float: _parse_float, int: int, str: str}
_DESIGN_PARSERS = {f.name: _PARSERS[type(f.default)] for f in dc_fields(DesignConfig)}


def read_config_file(path):
    """Flat key=value file -> dict of raw string values."""
    raw = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = val
    return raw


def parse_config(path):
    """Parse and validate a config file into a RunConfig."""
    raw = read_config_file(path)

    design_kwargs = {}
    run_kwargs = {}
    for key, val in raw.items():
        try:
            if key == "dims":
                parts = tuple(int(tok) for tok in val.split(","))
                if len(parts) != 3 or any(p < 1 for p in parts):
                    raise ConfigError(f"dims must be three positive ints, got {val!r}")
                run_kwargs["dims"] = parts
            elif key in ("spacing", "d12", "eps_max"):
                run_kwargs[key] = _parse_float(val)
            elif key in ("d12_list", "pump_list"):
                run_kwargs[key] = _parse_scalar_list(val)
            elif key == "seed":
                run_kwargs["seed"] = int(val)
            elif key in _DESIGN_PARSERS:
                design_kwargs[key] = _DESIGN_PARSERS[key](val)
            else:
                raise ConfigError(f"unknown config key {key!r}")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {val!r}") from exc

    try:
        design = DesignConfig(**design_kwargs)
        return RunConfig(design=design, **run_kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _emitter_pair(d12):
    """Both emitters sit on the z axis at -d12/2 and +d12/2."""
    return (np.array([0.0, 0.0, -d12 / 2.0]), np.array([0.0, 0.0, d12 / 2.0]))


def _vacuum_grid(cfg):
    """The all-vacuum grid of a config, centered on the emitter midpoint
    (independent of d12)."""
    try:
        return PermittivityGrid.vacuum(cfg.dims, cfg.spacing,
                                       eps_max=cfg.eps_max)
    except ValueError as exc:  # eps_max below the vacuum's 1
        raise ConfigError(str(exc)) from exc


def _warn_if_coarse(cfg):
    """Warn of a voxel spacing above lambda/(10 sqrt(eps_max)); each
    command calls this once, after its pre-flight checks pass."""
    limit = 1.0 / (10.0 * np.sqrt(cfg.eps_max))
    if cfg.spacing > limit + 1e-15:
        warnings.warn(
            f"spacing {cfg.spacing:.4g} exceeds lambda/(10 sqrt(eps_max))"
            f" = {limit:.4g}; solves remain valid but discretization error"
            " grows",
            GridResolutionWarning,
        )


def build_grid(cfg, d12=None):
    """Grid and emitter pair for one design run."""
    emitters = _emitter_pair(cfg.d12 if d12 is None else d12)
    grid = _vacuum_grid(cfg)
    zc = grid.centers()[:, 2]
    for r in emitters:
        gap = np.min(np.abs(zc - r[2]))
        if gap < COINCIDENT_THRESHOLD:
            raise ConfigError(
                f"emitter at z={r[2]} coincides with a voxel center; "
                "adjust d12/spacing"
            )
        if gap < cfg.spacing / 2.0 - 1e-12:
            warnings.warn(
                f"emitter at z={r[2]} is {gap:.3g} from the nearest voxel "
                f"center plane (< spacing/2); consider adjusting d12/spacing",
                stacklevel=2,
            )
    return grid, emitters


# ---------------------------------------------------------------------------
# CSV / JSON export
# ---------------------------------------------------------------------------

@contextmanager
def _atomic_open(path, newline=None):
    """Text file handle whose contents replace `path` only when the block
    completes; on any error `path` is left as it was and the temporary
    file beside it is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_grid_csv(grid, path):
    """(ix, iy, iz, eps) rows; eps written with 17 significant digits."""
    with _atomic_open(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["ix", "iy", "iz", "eps"])
        w.writerows([ix, iy, iz, f"{e:.17g}"] for (ix, iy, iz), e in
                    zip(product(*map(range, grid.dims)), grid.eps.tolist()))


def save_meta(cfg, grid, emitters, path):
    meta = {
        "format_version": 1,
        "dims": list(grid.dims),
        "spacing": grid.spacing,
        "origin": [float(x) for x in grid.origin],
        "emitters": [[float(x) for x in r] for r in emitters],
        "lambda0": 1.0,
        "eps_max": grid.eps_max,
        "d12": cfg.d12,
        "target": cfg.design.target,
        "pump_ratio": cfg.design.pump_ratio,
        "seed": cfg.seed,
    }
    with _atomic_open(path) as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return meta


def _trace_rows(record):
    for e in record.entries:
        cs = e.couplings
        yield [e.n, f"{e.target_value:.17g}", e.accepted_count,
               f"{cs.gamma12 / cs.gamma11:.17g}",
               f"{cs.g12 / cs.gamma11:.17g}",
               f"{cs.gamma11:.17g}",
               f"{e.convergence_mismatch:.17g}",
               f"{e.delta_eps_used:.17g}"]


def save_trace_csv(record, path):
    with _atomic_open(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "target_value", "accepted_count", "gamma12_over_gamma",
                    "g12_over_gamma", "purcell", "eq3_mismatch", "delta_eps"])
        for row in _trace_rows(record):
            w.writerow(row)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_optimize(cfg, out_dir):
    grid, emitters = build_grid(cfg)
    # reject an eps_max with no room for one step before warning (the
    # centered, on-axis layout always carries the symmetry)
    prepare_design(grid.copy(), emitters, cfg.design)
    _warn_if_coarse(cfg)
    record = optimize(grid, emitters, cfg.design)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_grid_csv(record.final_grid, out_dir / "design.eps.csv")
    save_meta(cfg, record.final_grid, emitters, out_dir / "design.meta.json")
    save_trace_csv(record, out_dir / "trace.csv")
    final = record.entries[-1]
    print(f"{cfg.design.target}: {record.initial_value:.6f} -> "
          f"{final.target_value:.6f} in {final.n} iterations")
    return 0


def _witness_triple(rho):
    return (quantum.concurrence(rho), quantum.negativity(rho),
            quantum.linear_entropy(rho))


def _sweep_point(args):
    """One (d12, pump) optimization; returns the sweep.csv row values."""
    cfg, d12, pump = args
    design = replace(cfg.design, pump_ratio=pump)
    grid, emitters = build_grid(cfg, d12=d12)
    record = optimize(grid, emitters, design)
    cs = record.entries[-1].couplings
    rho = quantum.steady_state(pump_params(cs, pump))
    C, N, SL = _witness_triple(rho)
    rho0 = quantum.steady_state(pump_params(record.entries[0].couplings, pump))
    C0, N0, SL0 = _witness_triple(rho0)
    return [d12, pump, C, C0, C - C0, cs.gamma12 / cs.gamma11,
            cs.g12 / cs.gamma11, cs.gamma11, SL, SL0, N, N0]


def cmd_sweep(cfg, out_dir, threads):
    # an eps_max with no room for one step fails every point alike:
    # reject it before any point starts (no d12 enters the check)
    prepare_design(_vacuum_grid(cfg), _emitter_pair(cfg.d12), cfg.design)
    _warn_if_coarse(cfg)
    tasks = [(cfg, d, p) for d in cfg.d12_list for p in cfg.pump_list]
    outcomes = _pool_outcomes(tasks, threads)
    # outcomes come back in task order, i.e. deterministic (d, P) order
    rows = [out for out in outcomes if not isinstance(out, str)]
    failures = [[d12, pump, out] for (_, d12, pump), out in zip(tasks, outcomes)
                if isinstance(out, str)]

    out_dir.mkdir(parents=True, exist_ok=True)
    header = ["d12_over_lambda", "P_over_gamma", "C", "C0", "C_minus_C0",
              "gamma12_over_gamma", "g12_over_gamma", "purcell",
              "S_L", "S_L0", "N", "N0"]
    with _atomic_open(out_dir / "sweep.csv", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([f"{v:.17g}" for v in row] for row in rows)
    # written on every run, header only when no point failed, so no
    # failure row of an earlier run in the same directory survives
    with _atomic_open(out_dir / "failures.csv", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["d12_over_lambda", "P_over_gamma", "error"])
        w.writerows(failures)
    if failures:
        print(f"{len(failures)} sweep points failed; see failures.csv",
              file=sys.stderr)
    print(f"sweep: {len(rows)}/{len(tasks)} points written")
    return 0


def _sweep_point_safe(task):
    """The sweep.csv row of one point, or the error text if it failed.

    Runs in the worker, so an error crosses back to the sweep as text:
    not every entcloak error can be unpickled from its args.
    """
    try:
        return _sweep_point(task)
    except Exception as exc:  # record the point, keep the sweep alive
        return f"{type(exc).__name__}: {exc}"


def _pool_outcomes(tasks, threads):
    """_sweep_point_safe of each task, in worker processes.

    A worker that dies breaks its pool and every point still unfinished
    in it; each of those is re-run alone in a fresh one-worker pool, so
    only a point whose own worker dies is recorded as failed.
    """
    with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
        futures = [pool.submit(_sweep_point_safe, task) for task in tasks]
        # shut down only after every point has ended, so that a pool
        # subclass inspecting its workers at shutdown sees all their work
        wait(futures)
    outcomes = []
    for task, future in zip(tasks, futures):
        try:
            outcomes.append(future.result())
        except BrokenProcessPool:
            try:
                with ProcessPoolExecutor(max_workers=1) as solo:
                    outcomes.append(solo.submit(_sweep_point_safe, task).result())
            except BrokenProcessPool as exc:
                outcomes.append(f"{type(exc).__name__}: {exc}")
    return outcomes


def cmd_freespace(cfg, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    header = ["d12_over_lambda", "gamma12_over_gamma0", "g12_over_gamma0"]
    header += [f"C0_P_over_gamma_{p:g}" for p in cfg.pump_list]
    with _atomic_open(out_dir / "freespace.csv", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        vac_self = vacuum_self_green()
        for d in cfg.d12_list:
            G12 = free_space_green(*_emitter_pair(d))
            cs = couplings_from_green(vac_self, vac_self, G12)
            row = [d, cs.gamma12, cs.g12]
            for p in cfg.pump_list:
                rho = quantum.steady_state(pump_params(cs, p))
                row.append(quantum.concurrence(rho))
            w.writerow([f"{v:.17g}" for v in row])
    print(f"freespace: {len(cfg.d12_list)} distances written")
    return 0


def cmd_mems(out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    with _atomic_open(out_dir / "mems.csv", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["r", "C", "S_L"])
        for r in np.linspace(0.0, 1.0, 201):
            c, sl = quantum.mems_curve(r)
            w.writerow([f"{r:.17g}", f"{c:.17g}", f"{sl:.17g}"])
    print("mems: 201 points written")
    return 0


def cmd_validate(seed):
    # imported here, so the other commands do not load the check suite
    from . import validate
    ok = validate.run_all(seed=seed)
    print("validate:", "all checks passed" if ok else "FAILURES detected")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser():
    ap = argparse.ArgumentParser(
        prog="entcloak",
        description="Inverse design of dielectric maps for emitter-pair "
                    "entanglement; emits CSV/JSON data only.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    opt, sweep, fs, mems, val = (sub.add_parser(name) for name in
                                 ("optimize", "sweep", "freespace", "mems",
                                  "validate"))
    for p in (opt, sweep, fs):
        p.add_argument("--config", required=True, help="key=value config file")
    for p in (opt, sweep, fs, mems):
        p.add_argument("--out", default="out", help="output directory")
    sweep.add_argument("--threads", type=int, default=1,
                       help="worker processes that run the points "
                            "(at most one per point)")
    val.add_argument("--seed", type=int, default=0,
                     help="seed of the randomized checks")
    return ap


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(seed=args.seed)
        out_dir = Path(args.out)
        if args.command == "mems":
            return cmd_mems(out_dir)
        cfg = parse_config(args.config)
        if args.command == "optimize":
            return cmd_optimize(cfg, out_dir)
        if args.command == "sweep":
            return cmd_sweep(cfg, out_dir, threads=max(1, args.threads))
        if args.command == "freespace":
            return cmd_freespace(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DegenerateSteadyStateError as exc:
        print(f"degenerate steady state: {exc}", file=sys.stderr)
        return 4
    except EntcloakError as exc:
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
