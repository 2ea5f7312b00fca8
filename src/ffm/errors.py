"""Exception hierarchy shared by the library and the command line tool.

The command line tool maps these onto distinct exit codes, so raising the
right class matters: configuration problems must not look like data
problems, and numerical failures must not look like either.
"""


class FfmError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(FfmError, ValueError):
    """An option or option combination is invalid.

    Also a ValueError, so callers that catch bad arguments as ValueError
    keep working.
    """


class DataError(FfmError):
    """Input data violates a structural requirement (parsing, shapes, missingness)."""


class NumericError(FfmError):
    """A numerical routine failed (singular design, broken covariance, ...)."""


class NetworkError(FfmError):
    """A remote resource could not be reached."""
