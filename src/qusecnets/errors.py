"""Error types shared across file parsing, serialization, and the CLI, and the one rule for numbers.

The CLI maps DataError (and subclasses) and OSError to exit code 2;
anything else that escapes argument parsing is a usage problem (exit 1).
Every scalar number that enters the package passes through checked, the
only code that tells a bool from a number.
"""

import numbers


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


class BadConfigError(DataError, ValueError):
    """A config, spec, tensor name or tensor value is not valid UTF-8 or not a valid value.

    Also a ValueError: ModelConfig and AttackSpec raise it for out-of-range
    values, so the CLI maps bad options to exit code 2.
    """


class BadTypeError(BadConfigError, TypeError):
    """A value of the wrong type, such as a bool where a number belongs; also a TypeError."""


class DivergedError(DataError, RuntimeError):
    """Training or an attack reached a non-finite loss, gradient or objective.

    Also a RuntimeError, so callers that catch a failed run as one still do.
    """


def checked(name: str, value, kind, ok=None, rule: str = ""):
    """value as a plain int or float, once it is of kind and ok(value) holds.

    kind is numbers.Integral or numbers.Real, and a bool is neither (BadTypeError). An int
    stays an int under Real. BadConfigError names the rule unless ok holds; NaN fails every ok.
    """
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an int" if kind is numbers.Integral else "a real number"
        raise BadTypeError(f"{name} must be {what}, got {value!r}")
    value = int(value) if isinstance(value, numbers.Integral) else float(value)
    if ok is not None and (value != value or not ok(value)):
        raise BadConfigError(f"{name} must be {rule}, got {value!r}")
    return value
