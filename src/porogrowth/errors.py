"""Exception hierarchy shared across the simulator."""


class PorogrowthError(Exception):
    """Base class for all simulator errors."""


class InvalidDomainError(PorogrowthError):
    """Mesh construction rejected (nonpositive length, too few nodes)."""


class NonphysicalStateError(PorogrowthError):
    """A state or residual is not physical: not finite, a negative
    concentration or fraction, or a fluid fraction outside (0, 1)."""


class InvalidProblemError(PorogrowthError):
    """An ADR problem definition is inconsistent (mismatched row shapes)."""


class SingularSystemError(PorogrowthError):
    """Direct linear solve hit a (numerically) singular matrix."""


class NonConvergenceError(PorogrowthError):
    """Fixed-point iteration exhausted its budget.

    Carries the iteration report so callers can inspect residual history
    and decide on a time-step bisection retry.
    """

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class ConfigError(PorogrowthError):
    """Configuration text could not be parsed or violates an invariant."""
