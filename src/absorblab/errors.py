"""Exception taxonomy shared by all absorblab modules.

Every failure mode that callers are expected to handle gets its own class so
that the CLI can map errors to exit codes without string matching.
"""

from __future__ import annotations


class AbsorbLabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(AbsorbLabError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(AbsorbLabError):
    """An experiment configuration file is malformed or inconsistent."""


class QuadratureError(AbsorbLabError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Carries the achieved error estimate in ``achieved``.
    """

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class ToleranceError(AbsorbLabError):
    """A root-find or inversion finished above its residual tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class BracketError(AbsorbLabError):
    """A root or shooting parameter could not be bracketed."""


class PreconditionError(AbsorbLabError):
    """A documented mathematical precondition of an operation is violated."""


class OverflowGuardError(AbsorbLabError):
    """A computed quantity exceeded the floating-point safety cap (1e300)."""


class NewtonDivergenceError(AbsorbLabError):
    """The implicit time-stepper's Newton iteration failed to converge.

    Records the time-step index and the final residual norm.
    """

    def __init__(self, message: str, step_index: int, residual: float):
        super().__init__(message)
        self.step_index = step_index
        self.residual = residual


class MonotonicityError(AbsorbLabError):
    """A scheme sequence violated its guaranteed ordering beyond tolerance."""

    def __init__(self, message: str, violation: float):
        super().__init__(message)
        self.violation = violation


class DominationError(PreconditionError):
    """Growth data fails to dominate a stationary profile where required."""


class InsufficientRangeError(PreconditionError):
    """A profile was not computed far enough out for the requested analysis."""


class GridError(AbsorbLabError):
    """A radial or temporal grid is invalid or incompatible."""


class UnsupportedDimensionError(AbsorbLabError):
    """The operation only supports dimension N = 1."""
