"""Exception types shared across the package."""


class EntcloakError(Exception):
    """Base class for all domain errors raised by this package."""


class CoincidentPointsError(EntcloakError):
    """Two evaluation points are too close for the homogeneous Green's tensor.

    From `emcore.free_space_green`, the remedy is the self-term path
    (`vacuum_self_green`); from a VIE solve, a source sits on a voxel
    center, and the remedy is to move the emitter or shift the grid.
    """


class SolverInconsistencyError(EntcloakError):
    """A computed coupling set violates the cross-spectral positivity bound."""


class GridTooLargeError(EntcloakError):
    """Dense assembly was requested for a grid beyond the dense size limit."""


class ConvergenceError(EntcloakError):
    """An iterative solve did not reach the requested residual.

    Attributes
    ----------
    residual : float
        Final relative residual when the iteration stopped.
    """

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


class DegenerateSteadyStateError(EntcloakError):
    """The Liouvillian kernel has dimension > 1; no unique steady state.

    Attributes
    ----------
    kernel_dim : int
        Numerically detected kernel dimension.
    """

    def __init__(self, message, kernel_dim):
        super().__init__(message)
        self.kernel_dim = kernel_dim


class ConfigError(EntcloakError, ValueError):
    """A run configuration is malformed or inconsistent (a ValueError)."""
