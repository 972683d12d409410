"""Exception types shared across the package."""

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
