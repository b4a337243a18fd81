"""Error types shared across file parsing, serialization, and the CLI.

The CLI maps DataError (and subclasses) to exit code 2; anything else that
escapes argument parsing is a usage problem (exit 1).
"""


class DataError(Exception):
    """A data, model, or file-format problem (CLI exit code 2)."""


class BadMagicError(DataError):
    """File does not start with the expected magic bytes / magic number."""


class TruncatedFileError(DataError):
    """File ended before the declared payload was fully read."""


class CountMismatchError(DataError):
    """Two files that must agree on record count do not."""


class ShapeMismatchError(DataError):
    """A stored tensor's shape disagrees with the embedded config."""


class BadConfigError(DataError):
    """Text embedded in a file (config, spec, tensor name) is not valid UTF-8 or not a valid value."""
