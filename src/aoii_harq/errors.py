"""Failure types raised by the solver and simulation stack."""


class SolverError(RuntimeError):
    """Base class for numerical failures in this package."""


class TruncationError(SolverError):
    """A truncated series or chain failed to meet its cutoff within the cap."""


class DivergenceError(SolverError):
    """A series has a term that is not finite, or does not settle within its cap."""


class ThresholdSearchError(SolverError):
    """Threshold or multiplier bracketing exceeded its configured ceiling."""


class BoundednessError(SolverError):
    """The average-AoII boundedness certificate failed; refusing to solve."""


class DegenerateKernelError(SolverError, ValueError):
    """A transmit coefficient gamma1(r) or gamma2(r) is negative, or their sum
    rounds to 1 or above, so a transmission could never reset the AoII."""


class ConfigError(ValueError):
    """A run configuration failed schema validation.

    ``field`` names the offending entry with dotted-path notation, e.g.
    ``channel.p_e``.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
