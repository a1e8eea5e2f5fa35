"""Exception hierarchy shared across the package, and the one rule for integer inputs."""

import numpy as np


class SatsynthError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SatsynthError):
    """An input violates a documented precondition or invariant."""


def integer(value, low: int, high: int | None, message: str) -> int:
    """``value`` as a Python int (exact, so a seed or a counter block never wraps) where it is an int or a
    numpy integer, not a bool, in [low, high] (``high=None``: no upper bound); otherwise a ``ValidationError``."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high)):
        raise ValidationError(f"{message}, got {value!r}")
    return int(value)


def integers(values, low: int, high: int, message: str):
    """``values`` as int64, a 0-d one as a scalar, where their dtype is an integer or float one and every value
    is an integer in [low, high], checked before the cast; a bool, str or object dtype is refused.  The bounds
    are compared as ``low - 1 < v < high + 1`` in the values' dtype: a float one rounds them, and at the bounds
    used here (-1, 1 - 2**63 and 2**63) no integral float lies between a bound and its rounding."""
    values = np.asarray(values)
    if values.dtype.kind not in "iuf" or not (
            (values == np.floor(values)) & (values > low - 1) & (values < high + 1)).all():  # False for NaN
        raise ValidationError(message)
    return values.astype(np.int64)[()]


class FormatError(SatsynthError):
    """A file does not conform to the documented format.

    ``line`` is the 1-based line number of the offending row when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InfeasibleError(SatsynthError):
    """A tuning target cannot be met; the message reports the obstruction."""


class ConvergenceError(SatsynthError):
    """An iterative solver did not converge within its iteration budget."""


class UndefinedResultError(SatsynthError):
    """The requested quantity is undefined for the given inputs (e.g. 0/0)."""
