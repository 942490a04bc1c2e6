"""Greedy per-voxel topology optimization of the emitter-pair witness.

One iteration: solve the two emitter field problems on the current
map into an `IterationState`, the one carrier of the loop's state,
visit each symmetry orbit of free voxels once (orbits are built once
per design, before any solve), score its trial step through the
first-Born perturbation of the three P_HAT-projected Green's scalars

    dq_ij = k^2 dV d_eps (G(r_k, r_i) p) . (G(r_k, r_j) p),

with k = emcore.K0 and p = emcore.P_HAT, keep the step when the
steady-state witness improves, apply the kept steps together, re-solve
and verify that the accumulated perturbative estimate matches the
re-solved scalars (the convergence identity).  Only the P_HAT
orientation of each emitter is solved: the loop reads nothing else.
Every witness of the loop, of each trial step and of each re-solved
state, is scored by `score_q`, one function of the three scalars and
the pump ratio on plain Python numbers: emcore's rate conversion and
positivity rule, then quantum's scalar X-block kernels.  It builds no
CouplingSet, MasterEqParams or array.
The sequential and frozen-reference modes share that one loop; they
differ only in whether later orbits are scored against the running
estimate or the iteration-start scalars.  The bound eps_max is the
grid's own.  The pump is held at a fixed ratio P/gamma11 of the
current device decay rate, so the steady state depends only on the
coupling ratios and the loop effectively shapes (gamma12/gamma,
g12/gamma) and the Purcell factor.

Safeguard: if a completed sweep lowers the re-solved target or breaks
the convergence identity beyond eta_converge, the sweep is reverted and
delta_eps halved; the loop stops once delta_eps falls below
delta_eps_min.  The recorded per-iteration target is therefore
non-decreasing.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import quantum
from .emcore import (K0, CouplingSet, as_position, couplings_from_q,
                     free_space_green, is_physical, project, rates_from_q,
                     vacuum_self_green)
from .errors import ConfigError
from .vie import (KRYLOV_RTOL, SOLVER_METHODS, PermittivityGrid,
                  _fields_and_incident)
# unused here, kept because the benchmark tracer wraps optimizer.solve_green_block
from .vie import solve_green_block  # noqa: F401

__all__ = [
    "DesignConfig",
    "IterationEntry",
    "DesignRecord",
    "born_delta_green",
    "pump_params",
    "score_q",
    "sweep_once",
    "verify_convergence",
    "optimize",
    "prepare_design",
    "compute_state",
    "freeze_exclusion_zone",
]

log = logging.getLogger(__name__)

#: Witness of each design target, as the closed-form kernel on
#: (rho00, rho33, rho12) of the X-type steady state, for `score_q`.
_WITNESSES = {"concurrence": quantum.concurrence_x,
              "negativity": quantum.negativity_x}
_SWEEP_MODES = ("sequential", "frozen-reference")
_SYMMETRIES = ("none", "mirror-z", "z-axis-rotation-4fold")

#: Emitter index pairs (i, j) of the pair axis of `q` and `s`: 11, 22, 12.
_PAIRS = ((0, 0), (1, 1), (0, 1))


@dataclass(frozen=True)
class DesignConfig:
    """Knobs of the greedy design loop (all lengths in lambda units)."""

    delta_eps: float = 0.05
    delta_eps_min: float = 1e-3
    tol_accept: float = 1e-9
    eta_converge: float = 1e-2
    max_iterations: int = 200
    sweep_mode: str = "sequential"
    # +delta_eps is scored first; -delta_eps (down to eps = 1) is scored
    # only when the increment is not accepted
    bidirectional: bool = False
    exclusion_radius: float = 2.0  # in voxel spacings
    symmetry: str = "none"
    target: str = "concurrence"
    pump_ratio: float = 5e-3  # P / gamma11, held fixed
    solver_method: str = "iterative"  # or "dense", the LU oracle
    solver_rtol: float = KRYLOV_RTOL

    def __post_init__(self):
        # each range test is written so that nan fails it
        if not self.delta_eps > 0:
            raise ValueError("delta_eps must be positive")
        if not self.delta_eps_min > 0:
            raise ValueError("delta_eps_min must be positive")
        if not self.tol_accept >= 0:
            raise ValueError("tol_accept must be non-negative")
        if not self.eta_converge > 0:
            raise ValueError("eta_converge must be positive")
        if not self.max_iterations >= 0:
            raise ValueError("max_iterations must be non-negative")
        if not self.exclusion_radius >= 0:
            raise ValueError("exclusion_radius must be non-negative")
        # the candidate scorer takes pump_ratio raw, so inf fails too
        if not 0 < self.pump_ratio < math.inf:
            raise ValueError("pump_ratio must be positive and finite")
        if self.target not in _WITNESSES:
            raise ValueError(f"target must be one of {tuple(_WITNESSES)}")
        if self.sweep_mode not in _SWEEP_MODES:
            raise ValueError(f"sweep_mode must be one of {_SWEEP_MODES}")
        if self.symmetry not in _SYMMETRIES:
            raise ValueError(f"symmetry must be one of {_SYMMETRIES}")
        if self.solver_method not in SOLVER_METHODS:
            raise ValueError(f"solver_method must be one of {SOLVER_METHODS}")
        if not self.solver_rtol > 0:
            raise ValueError("solver_rtol must be positive")


@dataclass
class IterationEntry:
    """One completed iteration of the design trace."""

    n: int
    target_value: float
    accepted_count: int
    couplings: CouplingSet
    convergence_mismatch: float
    delta_eps_used: float


@dataclass
class DesignRecord:
    """Full result of one design run."""

    entries: list
    final_grid: PermittivityGrid
    target: str

    @property
    def values(self):
        return [e.target_value for e in self.entries]

    @property
    def final_value(self):
        return self.entries[-1].target_value

    @property
    def initial_value(self):
        return self.entries[0].target_value


def born_delta_green(G_ik, G_kj, delta_eps, voxel_volume):
    """First-Born Green's-tensor increment of one voxel perturbation.

    K0^2 G(r_i, r_k) . delta_eps . G(r_k, r_j) . dV, the `_born_dq`
    prefactor on the tensor product; exactly linear in delta_eps.
    Broadcasts over leading axes: stacks of (3, 3) tensors with
    delta_eps shaped (..., 1, 1) give one increment per voxel.
    """
    return _born_dq(delta_eps, np.asarray(G_ik) @ np.asarray(G_kj), voxel_volume)


def _born_dq(delta_eps, s, voxel_volume):
    """First-Born increments K0^2 dV delta_eps s of the P_HAT-projected
    Green's scalars, from a voxel's field products `s` (broadcasts); the
    one place the first-Born prefactor is written."""
    return (K0**2 * voxel_volume * delta_eps) * s


def _pump_rate(gamma11, pump_ratio):
    """The pump rule: P = pump_ratio * gamma11, held at a fixed ratio of
    the current decay rate; on plain numbers, as `score_q` needs."""
    return pump_ratio * gamma11


def pump_params(cs, pump_ratio):
    """Master-equation rates of a coupling set with the pump of
    `_pump_rate`."""
    return quantum.MasterEqParams(
        gamma11=cs.gamma11, gamma22=cs.gamma22, gamma12=cs.gamma12,
        g12=cs.g12, P=_pump_rate(cs.gamma11, pump_ratio),
    )


def score_q(q11, q22, q12, pump_ratio, target):
    """Witness `target` of the steady state of the P_HAT-projected Green's
    scalars with the pump of `_pump_rate`, or None when the rates fail
    emcore's `is_physical`.

    The one witness evaluation of the loop, for trial steps and
    re-solved states alike.  It runs on Python numbers and builds no
    CouplingSet, MasterEqParams or array.
    """
    gamma11, gamma22, gamma12, g12 = rates_from_q(q11, q22, q12)
    if not is_physical(gamma11, gamma22, gamma12):
        return None
    rho00, _, _, rho33, rho12 = quantum.x_block_steady_state(
        gamma11, gamma22, gamma12, g12, _pump_rate(gamma11, pump_ratio))
    return _WITNESSES[target](rho00, rho33, rho12)


@dataclass
class IterationState:
    """Everything one sweep needs from the latest field solve."""

    grid: PermittivityGrid
    emitters: tuple
    q: np.ndarray          # (3,) P_HAT-projected q11, q22, q12 (`_PAIRS`)
    s: np.ndarray          # (N, 3) products f_i[k] . f_j[k], no conjugation
    couplings: CouplingSet
    target_value: float


def _pair_scalars(grid, emitters, fields, incident):
    """P_HAT-projected Green's scalars (q11, q22, q12) of the emitter
    field maps `fields`, by reciprocity:

        q_ij = p.G0(r_i, r_j).p + K0^2 dV sum_k chi_k (G0(r_k, r_i) p).f_j[k]

    with p = P_HAT and, for i = j, the vacuum self term
    p.vacuum_self_green().p in place of G0.  `incident[i]` is the
    solve's right-hand side, the (N, 3) map G0(r_k, r_i) p.
    """
    chi = grid.chi()
    active = np.flatnonzero(chi)
    weighted = [(chi[active] * grid.voxel_volume)[:, None] * f[active]
                for f in fields]
    q_self = project(vacuum_self_green())
    q_vac = (q_self, q_self, project(free_space_green(*emitters)))
    return np.array([q0 + K0**2 * np.einsum("ka,ka->", incident[i][active],
                                            weighted[j])
                     for q0, (i, j) in zip(q_vac, _PAIRS)])


def compute_state(grid, emitters, config):
    """P_HAT field solve at the current map plus everything the sweep
    consumes: two right-hand sides, one per emitter."""
    emitters = tuple(as_position(r) for r in emitters)
    fields, incident = _fields_and_incident(grid, emitters,
                                            config.solver_method,
                                            config.solver_rtol)
    q = _pair_scalars(grid, emitters, fields, incident)
    # unphysical couplings raise emcore's SolverInconsistencyError, which
    # names the rates, so score_q below never returns None
    cs = couplings_from_q(*q.tolist()).validate()
    target_value = score_q(*q.tolist(), config.pump_ratio, config.target)
    s = np.stack([np.einsum("ka,ka->k", fields[i], fields[j])
                  for i, j in _PAIRS], axis=1)
    return IterationState(
        grid=grid, emitters=emitters, q=q, s=s, couplings=cs,
        target_value=target_value,
    )


def sweep_once(state, config, delta_eps=None, orbits=None):
    """Visit each orbit of state.grid once; returns (grid, sum_dq, accepted).

    `orbits` rows are the visiting order (default `_symmetry_orbits`).
    Each orbit's +delta_eps step is scored first; with
    `config.bidirectional` the -delta_eps step (clipped so eps stays
    >= 1) is scored only when the increment is not accepted.  Sequential
    mode folds each accepted step into the running estimate before
    scoring later orbits; frozen-reference mode scores every orbit
    against the iteration-start scalars (order independent).  Accepted
    steps are added to the grid in place when the sweep ends; no step
    takes eps past `grid.eps_max`.  sum_dq holds the accumulated
    first-Born increments of `state.q`, consumed by `verify_convergence`.
    """
    grid = state.grid
    if delta_eps is None:
        delta_eps = config.delta_eps
    if orbits is None:
        orbits = _symmetry_orbits(grid, config, state.emitters)

    # orbits are disjoint, so no orbit's eps moves before its own visit:
    # its headrooms and summed field products are fixed at sweep start;
    # sum() adds an orbit's members one at a time, in ascending order
    s = sum(_by_member(state.s, orbits, 0))
    up = np.minimum(delta_eps, _by_member(grid.eps_max - grid.eps, orbits,
                                          np.inf).min(axis=0))
    down = -np.minimum(delta_eps, _by_member(grid.eps - 1.0, orbits,
                                             np.inf).min(axis=0))
    trials = (up, down) if config.bidirectional else (up,)
    # each trial sign's steps and Delta q of every orbit, as Python
    # floats and complex values: numpy scalars would cost the scorer
    # more than its own arithmetic
    trials = [(t.tolist(), _born_dq(t[:, None], s, grid.voxel_volume).tolist())
              for t in trials]

    q = state.q.tolist()
    current = state.target_value
    pump_ratio, target = config.pump_ratio, config.target
    steps = np.zeros(grid.n_voxels)
    accepted = 0
    rejected_unphysical = 0
    for o, orbit in enumerate(orbits):
        for trial_steps, trial_dq in trials:
            step = trial_steps[o]
            if abs(step) < 1e-15:
                continue
            trial_q = [x + dx for x, dx in zip(q, trial_dq[o])]
            value = score_q(*trial_q, pump_ratio, target)
            if value is None:
                rejected_unphysical += 1
                continue
            if value - current <= config.tol_accept:
                continue
            members = orbit[orbit >= 0]
            steps[members] = step
            accepted += len(members)
            if config.sweep_mode == "sequential":
                q = trial_q
                current = value
            break  # do not also try the opposite sign

    grid.eps += steps
    if rejected_unphysical:
        log.debug("sweep rejected %d candidates whose perturbed couplings "
                  "left the physical manifold", rejected_unphysical)
    return grid, _sum_dq(state, steps), accepted


def _sum_dq(state, steps):
    """Summed first-Born increments of `state.q` for the per-voxel
    permittivity steps `steps` on the map of `state`."""
    changed = np.flatnonzero(steps)
    return _born_dq(steps[changed, None], state.s[changed],
                    state.grid.voxel_volume).sum(axis=0)


def _by_member(values, orbits, fill):
    """Per-voxel values of each orbit's members, shape (width, n_orbits,
    ...); the -1 padding slots read `fill`."""
    return np.concatenate([values, np.full_like(values[:1], fill)])[orbits.T]


def _symmetry_orbits(grid, config, emitters):
    """Ascending member voxels of each orbit without a frozen member, one
    row per orbit (padded with -1) in representative order; raises
    ConfigError when the layout cannot carry the symmetry."""
    nx, ny, nz = grid.dims
    idx = np.arange(grid.n_voxels)
    ix, iy, iz = np.unravel_index(idx, grid.dims)

    def flat(ax, ay, az):
        return np.ravel_multi_index((ax, ay, az), grid.dims)

    if config.symmetry == "none":
        groups = idx[:, None]
    elif config.symmetry == "mirror-z":
        _require_axis_symmetry(grid, emitters, mirror=True)
        groups = np.stack([idx, flat(ix, iy, nz - 1 - iz)], axis=1)
    else:  # z-axis-rotation-4fold
        if nx != ny:
            raise ConfigError("4-fold rotation symmetry requires nx == ny")
        _require_axis_symmetry(grid, emitters, mirror=False)
        g1 = flat(iy, nx - 1 - ix, iz)
        g2 = flat(nx - 1 - ix, ny - 1 - iy, iz)
        g3 = flat(ny - 1 - iy, ix, iz)
        groups = np.stack([idx, g1, g2, g3], axis=1)

    groups = np.sort(groups, axis=1)
    orbits = groups[(groups[:, 0] == idx) & ~grid.frozen[groups].any(axis=1)]
    orbits[:, 1:][orbits[:, 1:] == orbits[:, :-1]] = -1  # repeated members
    return orbits


def _require_axis_symmetry(grid, emitters, mirror):
    """The symmetry constraint only makes sense on a compatible layout."""
    r1, r2 = emitters
    cx = grid.origin[0] + grid.spacing * (grid.dims[0] - 1) / 2.0
    cy = grid.origin[1] + grid.spacing * (grid.dims[1] - 1) / 2.0
    tol = 1e-9
    if abs(r1[0] - cx) > tol or abs(r1[1] - cy) > tol \
            or abs(r2[0] - cx) > tol or abs(r2[1] - cy) > tol:
        raise ConfigError("symmetry constraints require emitters on the "
                          "grid's central z axis")
    if mirror:
        cz = grid.origin[2] + grid.spacing * (grid.dims[2] - 1) / 2.0
        if abs((r1[2] + r2[2]) / 2.0 - cz) > tol:
            raise ConfigError("mirror-z requires emitters placed "
                              "symmetrically about the grid midplane")


def _mismatch(q_old, sum_dq, q_new):
    """Max over the pairs of |q_old + sum_dq - q_new| / |q_new|."""
    return float(np.max(np.abs(q_old + sum_dq - q_new) / np.abs(q_new)))


def verify_convergence(state, sum_dq, grid_next, config):
    """Re-solve at grid_next and measure the accumulated-vs-resolved mismatch.

    Pure measurement: returns the max relative mismatch over the three
    projected scalars of `state`, with `sum_dq` added to them.
    """
    new_state = compute_state(grid_next, state.emitters, config)
    return _mismatch(state.q, sum_dq, new_state.q)


def freeze_exclusion_zone(grid, emitters, exclusion_radius):
    """Freeze (at eps = 1) all voxels within exclusion_radius spacings
    of either emitter; keeps the field solves away from the source
    singularities."""
    pts = grid.centers()
    for r in emitters:
        d = np.linalg.norm(pts - as_position(r)[None, :], axis=1)
        near = d <= exclusion_radius * grid.spacing + 1e-12
        grid.frozen |= near
        grid.eps[near] = 1.0
    return grid


def prepare_design(grid, emitters, config):
    """Freeze the exclusion zone of `grid` and return its symmetry orbits;
    raises ConfigError, before any field solve, when grid.eps_max leaves
    no room for one delta_eps step or the layout cannot carry the symmetry."""
    if grid.eps_max < 1.0 + config.delta_eps:
        raise ConfigError("eps_max must allow at least one increment")
    freeze_exclusion_zone(grid, emitters, config.exclusion_radius)
    return _symmetry_orbits(grid, config, emitters)


def optimize(grid0, emitters, config):
    """Run the greedy design loop; returns the full DesignRecord.

    Starts from grid0 (normally all vacuum), runs `prepare_design` on a
    copy of it, and iterates sweep / re-solve / verify until no voxel
    improves the target, the improvement falls below tol_accept,
    max_iterations is reached, or adaptive halving exhausts delta_eps.
    """
    grid = grid0.copy()
    orbits = prepare_design(grid, emitters, config)

    state = compute_state(grid, emitters, config)
    entries = [IterationEntry(
        n=0, target_value=state.target_value, accepted_count=0,
        couplings=state.couplings, convergence_mismatch=0.0,
        delta_eps_used=config.delta_eps,
    )]

    delta_eps = config.delta_eps
    n = 0
    while n < config.max_iterations:
        eps_backup = grid.eps.copy()
        _, sum_dq, accepted = sweep_once(state, config, delta_eps=delta_eps,
                                         orbits=orbits)
        if accepted == 0:
            break
        new_state = compute_state(grid, emitters, config)
        mismatch = _mismatch(state.q, sum_dq, new_state.q)
        regressed = new_state.target_value < state.target_value
        if regressed or mismatch > config.eta_converge:
            grid.eps[:] = eps_backup
            delta_eps *= 0.5
            log.info("iteration %d rejected (%s); delta_eps halved to %g",
                     n + 1, "target regression" if regressed else
                     f"convergence mismatch {mismatch:.2e}", delta_eps)
            if delta_eps < config.delta_eps_min:
                break
            continue
        n += 1
        gain = new_state.target_value - state.target_value
        state = new_state
        entries.append(IterationEntry(
            n=n, target_value=state.target_value, accepted_count=accepted,
            couplings=state.couplings, convergence_mismatch=mismatch,
            delta_eps_used=delta_eps,
        ))
        log.info("iteration %d: %s=%.6f (+%.2e), %d voxels accepted, "
                 "mismatch %.2e", n, config.target, state.target_value,
                 gain, accepted, mismatch)
        if gain < config.tol_accept:
            break

    return DesignRecord(entries=entries, final_grid=grid,
                        target=config.target)
