"""Exception taxonomy shared across the package.

ConfigError maps to CLI exit code 2; every other Error (DataError and its
subclasses, ShapeError, ContractError, NumericsError) maps to exit code 1,
as does an OSError. Anything else is a programming bug and propagates.
"""


class Error(Exception):
    """Base class for all package errors."""


class ConfigError(Error):
    """Invalid or contradictory configuration."""


class DataError(Error):
    """Bad input data (files, labels, sequences)."""


class FormatError(DataError):
    """Malformed file content; message carries file and line context."""


class EncodingError(DataError):
    """Sequence cannot be tokenized."""


class TruncationError(EncodingError):
    """Sequence longer than the configured maximum; never truncated silently."""


class ShapeError(Error):
    """Tensor shape/dimension mismatch."""


class ContractError(Error):
    """API precondition violated."""


class NumericsError(Error):
    """Non-finite value produced or training diverged."""
