"""Exception hierarchy shared across the package.

Every error raised on purpose by this package derives from HdqdaError, so callers
can catch numerical and validation failures without fishing for numpy internals.
"""

from __future__ import annotations

__all__ = [
    "HdqdaError",
    "InsufficientSamplesError",
    "NotSpdError",
    "ConvergenceError",
    "StabilityError",
    "InvalidRegularizerError",
    "DegenerateEstimateError",
    "DegenerateDesignError",
    "TuningError",
    "CsvFormatError",
]


class HdqdaError(Exception):
    """Base class for all errors raised by this package."""


class InsufficientSamplesError(HdqdaError, ValueError):
    """Too few rows to compute the requested statistic."""


class NotSpdError(HdqdaError, ValueError):
    """A matrix required to be symmetric positive definite is not."""


class ConvergenceError(HdqdaError, RuntimeError):
    """A root-find stopped short of convergence.

    The message carries the number of iterations spent.
    """


class StabilityError(HdqdaError, RuntimeError):
    """A deterministic-equivalent stability condition is violated."""


class InvalidRegularizerError(HdqdaError, ValueError):
    """A derived regularization parameter is undefined or nonpositive."""


class DegenerateEstimateError(HdqdaError, RuntimeError):
    """A training-data estimator left its valid regime; refusing to clamp."""


class DegenerateDesignError(HdqdaError, RuntimeError):
    """The bias design is undefined for these inputs."""


class TuningError(HdqdaError, RuntimeError):
    """Every tuning candidate failed.

    ``failures`` maps each candidate to the reason it was rejected.
    """

    def __init__(self, message: str, failures: dict[float, str] | None = None):
        super().__init__(message)
        self.failures = dict(failures) if failures is not None else {}


class CsvFormatError(HdqdaError, ValueError):
    """A data file could not be parsed into a numeric dataset."""
