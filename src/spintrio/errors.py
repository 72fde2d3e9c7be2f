"""Exception hierarchy shared across the package.

Each class maps to a CLI exit code category (see cli.main).
"""


class SpintrioError(Exception):
    """Base class for package-specific failures."""


class ValidationError(SpintrioError, ValueError):
    """A state or tensor violates a physicality/normalization invariant
    (CLI exit code 2)."""


class ConfigError(SpintrioError, ValueError):
    """Malformed or out-of-range run configuration (CLI exit code 2)."""


class AccuracyError(SpintrioError):
    """An integration failed its a-posteriori accuracy check (exit code 3);
    index is the failing tensor's index when a stack was checked."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index
