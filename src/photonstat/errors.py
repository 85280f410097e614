"""Exception hierarchy for the photonstat package.

Every error raised by the package derives from PhotonstatError, so callers
can catch one base class. The CLI maps these onto exit codes.
"""

__all__ = [
    "PhotonstatError", "InvalidArgumentError", "SamplingError", "DegenerateInputError",
    "InsufficientDataError", "EstimationError", "ModelDomainError", "OutOfModelError",
    "DivisionDomainError", "ConfigError", "FormatError", "AcceptanceError",
]


class PhotonstatError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(PhotonstatError, ValueError):
    """An argument is outside its documented domain."""


class SamplingError(PhotonstatError):
    """The sample interval cannot resolve the requested spectrum."""


class DegenerateInputError(PhotonstatError):
    """Input data is structurally unusable (zero power, all-zero counts, ...)."""


class InsufficientDataError(PhotonstatError):
    """Not enough data points or events to run the estimator."""


class EstimationError(PhotonstatError):
    """An estimator could not produce a value (e.g. no correlation decay)."""


class ModelDomainError(PhotonstatError):
    """A model precondition does not hold (e.g. absorber linewidth too narrow)."""


class OutOfModelError(PhotonstatError):
    """Measured data lies outside the range the inversion model can represent."""


class DivisionDomainError(PhotonstatError, ZeroDivisionError):
    """A ratio was requested with a non-positive denominator."""


class ConfigError(PhotonstatError):
    """The run configuration is malformed or references unknown presets."""


class FormatError(PhotonstatError):
    """A data file does not match its documented layout."""


class AcceptanceError(PhotonstatError):
    """A result fell outside the configured acceptance band."""
