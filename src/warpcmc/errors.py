"""Exception types shared across the package."""

__all__ = [
    "WarpcmcError",
    "ParameterError",
    "DomainError",
    "HypothesisError",
    "NotApplicableError",
]


class WarpcmcError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(WarpcmcError, ValueError):
    """A model or run parameter is outside its admissible range."""


class DomainError(WarpcmcError, ValueError):
    """A radius or surface leaves the chart the ambient is defined on."""


class HypothesisError(WarpcmcError):
    """A mathematical hypothesis required by an operation fails on the input."""


class NotApplicableError(WarpcmcError):
    """The requested quantity is undefined for this ambient variant."""
