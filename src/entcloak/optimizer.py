"""Greedy per-voxel topology optimization of the emitter-pair witness.

One iteration: solve the two emitter field problems on the current
map into an `IterationState`, the one carrier of the loop's state,
visit each symmetry orbit of free voxels once (`prepare_design`, the
one owner of the free set, builds the orbits once per design, before
any solve), score its trial step through the first-Born perturbation
of the three P_HAT-projected Green's scalars

    dq_ij = k^2 dV d_eps (G(r_k, r_i) p) . (G(r_k, r_j) p),

with k = emcore.K0 and p = emcore.P_HAT, keep the step when the
steady-state witness improves, add the kept steps together to a copy
of the map, re-solve it and verify that the accumulated perturbative
estimate matches the re-solved scalars (the convergence identity,
`verify_convergence`).
Only the P_HAT orientation of each emitter is solved: the loop reads
nothing else.
Every witness of the loop, of each trial step and of each re-solved
state, is scored by `score_q`, one function of the three scalars and
the pump ratio on plain Python numbers: emcore's rate conversion and
positivity rule, then quantum's scalar X-block kernels.  It builds no
CouplingSet, MasterEqParams or array.
Each accepted step is folded into the running estimate of the scalars
before later orbits are scored.  The bound eps_max is the grid's own.
The pump is held at a fixed ratio P/gamma11 of the current device decay
rate, so the steady state depends only on the coupling ratios and the
loop effectively shapes (gamma12/gamma, g12/gamma) and the Purcell
factor.

Safeguard: a sweep leaves its state, map included, as it is.  If the
swept map lowers the re-solved target or breaks the convergence
identity beyond eta_converge, it is dropped and the step delta_eps,
DELTA_EPS at the start, halved; the loop stops once delta_eps falls
below DELTA_EPS_MIN.  The recorded per-iteration target is therefore
non-decreasing.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import quantum, vie
from .emcore import (K0, CouplingSet, as_position, couplings_from_q,
                     free_space_green, is_physical, project, rates_from_q,
                     vacuum_self_green)
from .errors import ConfigError
from .vie import SOLVER_METHODS, PermittivityGrid, _fields_and_incident
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
]

log = logging.getLogger(__name__)

#: Witness of each design target, as the closed-form kernel on
#: (rho00, rho33, rho12) of the X-type steady state, for `score_q`.
_WITNESSES = {"concurrence": quantum.concurrence_x,
              "negativity": quantum.negativity_x}
_SYMMETRIES = ("none", "mirror-z")

#: Emitter index pairs (i, j) of the pair axis of `q` and `s`: 11, 22, 12.
_PAIRS = ((0, 0), (1, 1), (0, 1))

#: The permittivity step of a sweep, before any halving.
DELTA_EPS = 0.05
#: Noise floor of the witness: a trial step is kept, and the loop goes
#: on, only while it gains more than this.
TOL_ACCEPT = 1e-9
#: The loop stops once halving takes delta_eps below this.
DELTA_EPS_MIN = 1e-3


@dataclass(frozen=True)
class DesignConfig:
    """Knobs of the greedy design loop (all lengths in lambda units).

    The Krylov tolerance (vie.KRYLOV_RTOL), the permittivity step
    (DELTA_EPS), the accept noise floor (TOL_ACCEPT) and the halving
    floor (DELTA_EPS_MIN) are fixed in code.
    """

    eta_converge: float = 1e-2
    max_iterations: int = 200
    exclusion_radius: float = 2.0  # in voxel spacings
    symmetry: str = "none"
    target: str = "concurrence"
    pump_ratio: float = 5e-3  # P / gamma11, held fixed
    solver_method: str = "iterative"  # or "dense", the LU oracle

    def __post_init__(self):
        # each range test is written so that nan fails it
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
        if self.symmetry not in _SYMMETRIES:
            raise ValueError(f"symmetry must be one of {_SYMMETRIES}")
        if self.solver_method not in SOLVER_METHODS:
            raise ValueError(f"solver_method must be one of {SOLVER_METHODS}")


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
                                            vie.KRYLOV_RTOL)
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


def sweep_once(state, config, orbits, delta_eps):
    """Visit each orbit once; returns (swept_grid, sum_dq, accepted) and
    leaves `state` as it is.

    `orbits` rows (normally `prepare_design`'s) are the visiting order and
    the only voxels the sweep may change.  Each orbit's +delta_eps step,
    clipped so no member's eps passes `grid.eps_max`, is scored once.
    Each accepted step becomes the running (q11, q22, q12) and witness
    that later orbits are scored against.  The loop runs on Python
    numbers: it records each accepted orbit's step in a per-orbit list,
    and when the sweep ends those steps are added to a copy of
    `state.grid`, the swept grid, every member of an orbit getting its
    orbit's step.  sum_dq holds the accumulated first-Born increments of
    `state.q`, consumed by `verify_convergence`; accepted counts the
    changed voxels.
    """
    grid = state.grid

    # orbits are disjoint, so no orbit's eps moves before its own visit:
    # its headroom and summed field products are fixed at sweep start;
    # sum() adds an orbit's members one at a time, in ascending order
    s = sum(_by_member(state.s, orbits, 0))
    up = np.minimum(delta_eps, _by_member(grid.eps_max - grid.eps, orbits,
                                          np.inf).min(axis=0))
    # per orbit, the step and its Delta q as Python floats and complex
    # values: numpy scalars would cost the scorer more than its own
    # arithmetic
    trials = zip(up.tolist(),
                 _born_dq(up[:, None], s, grid.voxel_volume).tolist())

    q11, q22, q12 = state.q.tolist()
    current = state.target_value
    pump_ratio, target = config.pump_ratio, config.target
    tol_accept = TOL_ACCEPT
    chosen = [0.0] * len(orbits)
    rejected_unphysical = 0
    for o, (step, (d11, d22, d12)) in enumerate(trials):
        if abs(step) < 1e-15:
            continue
        t11, t22, t12 = q11 + d11, q22 + d22, q12 + d12
        value = score_q(t11, t22, t12, pump_ratio, target)
        if value is None:
            rejected_unphysical += 1
            continue
        if value - current <= tol_accept:
            continue
        chosen[o] = step
        q11, q22, q12 = t11, t22, t12
        current = value

    members = orbits >= 0
    steps = np.zeros(grid.n_voxels)
    steps[orbits[members]] = np.repeat(chosen, members.sum(axis=1))
    swept = grid.copy()
    swept.eps += steps
    if rejected_unphysical:
        log.debug("sweep rejected %d candidates whose perturbed couplings "
                  "left the physical manifold", rejected_unphysical)
    return swept, _sum_dq(state, steps), int(np.count_nonzero(steps))


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


def _symmetry_orbits(grid, config, emitters, excluded):
    """Ascending member voxels of each orbit without an `excluded` member,
    one row per orbit (padded with -1) in representative order; raises
    ConfigError when the layout cannot carry the symmetry."""
    idx = np.arange(grid.n_voxels)
    if config.symmetry == "none":
        groups = idx[:, None]
    else:  # mirror-z
        _require_axis_symmetry(grid, emitters)
        ix, iy, iz = np.unravel_index(idx, grid.dims)
        mirror = np.ravel_multi_index((ix, iy, grid.dims[2] - 1 - iz), grid.dims)
        groups = np.stack([idx, mirror], axis=1)

    groups = np.sort(groups, axis=1)
    orbits = groups[(groups[:, 0] == idx) & ~excluded[groups].any(axis=1)]
    orbits[:, 1:][orbits[:, 1:] == orbits[:, :-1]] = -1  # repeated members
    return orbits


def _require_axis_symmetry(grid, emitters):
    """The mirror-z constraint only makes sense on a compatible layout:
    both emitters on the grid's central z axis, symmetric about its
    midplane."""
    r1, r2 = emitters
    center = grid.origin + grid.spacing * (np.asarray(grid.dims) - 1) / 2.0
    tol = 1e-9
    if any(abs(r[a] - center[a]) > tol for r in emitters for a in (0, 1)):
        raise ConfigError("mirror-z requires emitters on the grid's "
                          "central z axis")
    if abs((r1[2] + r2[2]) / 2.0 - center[2]) > tol:
        raise ConfigError("mirror-z requires emitters placed "
                          "symmetrically about the grid midplane")


def verify_convergence(state, sum_dq, grid_next, config):
    """Re-solve at grid_next; returns (new_state, mismatch).

    The mismatch is the max over the pairs of |q + sum_dq - q_new| /
    |q_new|, with q the scalars of `state`, sum_dq their accumulated
    first-Born increments and q_new the re-solved scalars.
    """
    new_state = compute_state(grid_next, state.emitters, config)
    mismatch = float(np.max(np.abs(state.q + sum_dq - new_state.q)
                            / np.abs(new_state.q)))
    return new_state, mismatch


def prepare_design(grid, emitters, config):
    """Reset the exclusion zone of `grid` to eps = 1 and return the
    symmetry orbits of the other voxels, the only voxels a sweep visits.

    The zone is every voxel within config.exclusion_radius spacings of
    either emitter; it keeps the field solves away from the source
    singularities.  Raises ConfigError, before any field solve, when
    grid.eps_max leaves no room for one DELTA_EPS step or the layout
    cannot carry the symmetry.
    """
    if grid.eps_max < 1.0 + DELTA_EPS:
        raise ConfigError("eps_max must allow at least one increment")
    pts = grid.centers()
    excluded = np.zeros(grid.n_voxels, dtype=bool)
    for r in emitters:
        excluded |= (np.linalg.norm(pts - as_position(r)[None, :], axis=1)
                     <= config.exclusion_radius * grid.spacing + 1e-12)
    grid.eps[excluded] = 1.0
    return _symmetry_orbits(grid, config, emitters, excluded)


def optimize(grid0, emitters, config):
    """Run the greedy design loop; returns the full DesignRecord.

    Starts from grid0 (normally all vacuum), runs `prepare_design` on a
    copy of it, and iterates sweep / re-solve / verify until no voxel
    improves the target, the improvement falls below TOL_ACCEPT,
    max_iterations is reached, or adaptive halving exhausts delta_eps.
    """
    grid = grid0.copy()
    orbits = prepare_design(grid, emitters, config)

    state = compute_state(grid, emitters, config)
    entries = [IterationEntry(
        n=0, target_value=state.target_value, accepted_count=0,
        couplings=state.couplings, convergence_mismatch=0.0,
        delta_eps_used=DELTA_EPS,
    )]

    delta_eps = DELTA_EPS
    n = 0
    while n < config.max_iterations:
        swept, sum_dq, accepted = sweep_once(state, config, orbits, delta_eps)
        if accepted == 0:
            break
        new_state, mismatch = verify_convergence(state, sum_dq, swept, config)
        regressed = new_state.target_value < state.target_value
        if regressed or mismatch > config.eta_converge:
            delta_eps *= 0.5
            log.info("iteration %d rejected (%s); delta_eps halved to %g",
                     n + 1, "target regression" if regressed else
                     f"convergence mismatch {mismatch:.2e}", delta_eps)
            if delta_eps < DELTA_EPS_MIN:
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
        if gain < TOL_ACCEPT:
            break

    return DesignRecord(entries=entries, final_grid=state.grid)
