"""Exception types shared across the package, and its overflow and sensor-index refusals."""

import operator

import numpy as np

__all__ = ["SecestError", "ConfigError", "AnalysisError", "ScenarioError"]


class SecestError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(SecestError):
    """Invalid configuration: bad dimensions, indices, or parameter combos."""


class AnalysisError(SecestError):
    """A numerical procedure failed: non-observable subset, no convergence,
    or a decode with no consistent explanation."""


class ScenarioError(SecestError):
    """A scenario file could not be parsed or fails validation."""


def _finite(values, what: str):
    """``values``, or AnalysisError when one is past the float64 range."""
    if not np.isfinite(values).all():
        raise AnalysisError(f"{what} overflow float64")
    return values


def _sensor_indices(values, what: str) -> tuple[int, ...]:
    """Sorted distinct ``values``; ConfigError unless each is an integer, as numpy's are."""
    try:
        return tuple(sorted({operator.index(i) for i in values}))
    except TypeError:
        raise ConfigError(f"{what} must be integers, got {values!r}") from None
