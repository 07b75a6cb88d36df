"""Exception hierarchy shared across the package."""

__all__ = [
    "DisclabError",
    "DimensionMismatchError",
    "EmptyPointSetError",
    "CoordinateError",
    "GuardError",
    "MonteCarloRequired",
]


class DisclabError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatchError(DisclabError):
    """Point set and test box (or generator) disagree on dimension."""


class EmptyPointSetError(DisclabError):
    """A discrepancy was requested for a point set with no points."""


class CoordinateError(DisclabError, ValueError):
    """A coordinate lies outside [0, 1) or cannot be parsed."""


class GuardError(DisclabError):
    """An enumeration or size guard was exceeded."""


class MonteCarloRequired(DisclabError):
    """No exact evaluator exists for the request and no Monte Carlo
    configuration was given."""
