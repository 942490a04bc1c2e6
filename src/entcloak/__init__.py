"""Inverse design of dielectric voxel maps for emitter-pair entanglement.

The package couples a volume-integral electromagnetic Green's-function
solver (`vie`) to a two-emitter Lindblad steady-state model (`quantum`)
through a greedy per-voxel Born-update design loop (`optimizer`), with
analytic free-space references in `emcore` and a batch CLI in `cli`.
"""

from .emcore import (
    CouplingSet,
    aligned_g12,
    aligned_gamma12,
    couplings_from_green,
    free_space_green,
)
from .errors import (
    CoincidentPointsError,
    ConfigError,
    ConvergenceError,
    DegenerateSteadyStateError,
    EntcloakError,
    GridTooLargeError,
    SolverInconsistencyError,
)
from .optimizer import (
    DesignConfig,
    DesignRecord,
    born_delta_green,
    optimize,
    sweep_once,
    verify_convergence,
)
from .quantum import (
    MasterEqParams,
    build_liouvillian,
    concurrence,
    concurrence_wootters,
    linear_entropy,
    mems_curve,
    negativity,
    negativity_partial_transpose,
    propagate_to_steady,
    steady_state,
)
from .vie import (
    PermittivityGrid,
    assemble_dense,
    fft_matvec,
    scattered_green_pair,
    self_interaction,
    solve_fields,
    solve_green_block,
)

__version__ = "0.1.0"

__all__ = [
    "CouplingSet",
    "aligned_g12",
    "aligned_gamma12",
    "couplings_from_green",
    "free_space_green",
    "CoincidentPointsError",
    "ConfigError",
    "ConvergenceError",
    "DegenerateSteadyStateError",
    "EntcloakError",
    "GridTooLargeError",
    "SolverInconsistencyError",
    "DesignConfig",
    "DesignRecord",
    "born_delta_green",
    "optimize",
    "sweep_once",
    "verify_convergence",
    "MasterEqParams",
    "build_liouvillian",
    "concurrence",
    "concurrence_wootters",
    "linear_entropy",
    "mems_curve",
    "negativity",
    "negativity_partial_transpose",
    "propagate_to_steady",
    "steady_state",
    "PermittivityGrid",
    "assemble_dense",
    "fft_matvec",
    "scattered_green_pair",
    "self_interaction",
    "solve_fields",
    "solve_green_block",
    "__version__",
]
