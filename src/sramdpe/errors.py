"""Exception types shared across the simulator."""


class SimulationError(Exception):
    """Base class for all simulator errors."""


class InvalidInputError(SimulationError):
    """Bad argument: non-finite value, range violation, dimension mismatch."""


class ConfigError(SimulationError):
    """Experiment configuration failed schema validation."""


class SolverError(SimulationError):
    """An iterative solve failed to converge.

    Newton solves attach their residual history.
    """

    def __init__(self, message, *, residual_history=None):
        super().__init__(message)
        self.residual_history = residual_history


class TopologyError(SolverError):
    """The assembled network is ill-posed (a singular nodal system)."""
