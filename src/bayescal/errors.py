"""Exception types shared across the package, and the three parameter checks
that raise ValidationError, one wording each: ``NAME must be finite, got V``,
``NAME must be finite and > 0, got V`` and ``NAME must be >= K, got V``.
"""

import math

import numpy as np


class BayescalError(Exception):
    """Base class for all errors raised by this package."""


class ScoreFileError(BayescalError):
    """A score CSV could not be parsed; carries the offending line number."""

    def __init__(self, path: str, line: int, message: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{self.path}:{line}: {message}")


class ValidationError(BayescalError, ValueError):
    """A precondition or invariant on inputs was violated."""


def _check(rule: str, low: float, values: dict) -> None:
    """Raise ``NAME must be RULE, got V`` for the first value that is not
    finite and > ``low``. A Python int or float (numpy's float64 is one) is
    checked with one chained comparison, which NaN fails; anything else as
    an array, and V is its first bad element."""
    for name, value in values.items():
        if isinstance(value, (int, float)):
            if low < value < math.inf:
                continue
            shown = float(value) if isinstance(value, float) else value
        else:
            arr = np.asarray(value, dtype=float)
            good = np.isfinite(arr) & (arr > low)
            if good.all():
                continue
            shown = arr.flat[int(np.argmin(good))].item()
        raise ValidationError(f"{name} must be {rule}, got {shown!r}")


def check_finite(**values) -> None:
    """Raise ValidationError unless every value (or array element) is finite."""
    _check("finite", -math.inf, values)


def check_positive(**values) -> None:
    """Raise ValidationError unless every value (or array element) is finite and > 0."""
    _check("finite and > 0", 0.0, values)


def check_at_least(minimum: int, **counts) -> None:
    """Raise ValidationError unless every count (or value, or array element)
    is >= ``minimum``; NaN is not. For an array, V is its first bad element."""
    for name, count in counts.items():
        if isinstance(count, (int, float)):
            if count >= minimum:
                continue
            shown = count
        else:
            arr = np.asarray(count)
            good = arr >= minimum
            if good.all():
                continue
            shown = arr.flat[int(np.argmin(good))].item()
        raise ValidationError(f"{name} must be >= {minimum}, got {shown!r}")
