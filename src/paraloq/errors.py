"""Exception and warning types shared across the package, and the range
policy for a number where it enters."""

import math
import sys

# A number is finite iff -FLOAT_MAX <= x <= FLOAT_MAX: the comparison is false
# for nan, inf, -inf and an int beyond the float range, and raises nothing for a number.
FLOAT_MAX = sys.float_info.max


class ParaloqError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(ParaloqError, ValueError):
    """An argument violates a precondition (non-finite, out of range, ...)."""


def shown(value) -> str:
    """value as an error message writes it: its str, or "an int of N digits"
    for an int too long for str (past the interpreter's digit limit)."""
    try:
        return str(value)
    except ValueError:
        if not isinstance(value, int):
            raise
        n = abs(value)
        # a bit-length estimate, then the comparisons that make it exact
        digits = int((n.bit_length() - 1) * math.log10(2)) + 1
        digits += (n >= 10**digits) - (n < 10 ** (digits - 1))
        return f"{'a negative' if value < 0 else 'an'} int of {digits} digits"


def require_finite(name: str, value) -> None:
    """Raise InvalidInputError unless value is a finite number; an int beyond
    the float range is not one."""
    if not -FLOAT_MAX <= value <= FLOAT_MAX:
        raise InvalidInputError(f"{name} must be finite, got {shown(value)}")


def require_above(name: str, value, low, *, inclusive: bool = False) -> None:
    """Raise InvalidInputError unless value is finite and > low (>= low if inclusive).

    With require_finite and require_int, the whole check of a config field or
    stimulus parameter; nan, inf, -inf and an int beyond the float range all
    fail it.
    """
    if not (low <= value <= FLOAT_MAX if inclusive else low < value <= FLOAT_MAX):
        raise InvalidInputError(
            f"{name} must be {'>=' if inclusive else '>'} {low} and finite, got {shown(value)}"
        )


def store_floats(obj, *names) -> None:
    """Store each named field of obj as a float, once its checks have passed:
    a config spelt with 5 is then the config spelt with 5.0, repr included."""
    for name in names:
        object.__setattr__(obj, name, float(getattr(obj, name)))


def require_int(name: str, value) -> None:
    """Raise InvalidInputError unless value is an int: a float (1.5, nan) or a
    bool (an int subclass, but not a count or a seed) fails."""
    if type(value) is not int:
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")


class ClockRangeError(ParaloqError):
    """ADC clock frequency outside the converter's valid operating window."""


class DeviceTimeoutError(ParaloqError):
    """The device never asserted end-of-conversion within the poll timeout."""


class InconsistentReadingError(ParaloqError):
    """Wet/dry pair implies a non-physical (negative) vapor pressure."""


class EmptyRunError(ParaloqError):
    """An operation that needs samples was given a run with none."""


class StorageError(ParaloqError):
    """Log file could not be written; carries the destination path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


class CsvParseError(ParaloqError):
    """Input log is unreadable or malformed; carries the 1-based offending line
    number (0 when the file could not be read)."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ConfigError(ParaloqError):
    """Config file or flag set failed schema validation."""


class UndersamplingWarning(UserWarning):
    """A stimulus contains frequency content above half the sample rate."""
