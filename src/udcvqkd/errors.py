"""Exception types shared across the toolkit.

All domain failures derive from ToolkitError so callers (notably the CLI)
can distinguish physics/domain problems from programming errors.
"""


class ToolkitError(Exception):
    """Base class for all domain errors raised by this package."""


class DomainError(ToolkitError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class UnphysicalState(ToolkitError):
    """A covariance matrix violates the uncertainty principle."""


class UnphysicalObservation(ToolkitError):
    """No physical two-mode state is compatible with the observed variances."""


class NoPositiveRate(ToolkitError):
    """A root search was requested where the key rate is not positive."""


class NoRoot(ToolkitError):
    """A bracketing search hit its cap without finding a sign change."""


class ConfigError(ToolkitError, ValueError):
    """Invalid sweep or CLI configuration."""
