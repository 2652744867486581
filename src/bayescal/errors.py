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


def _check(rule: str, good, values: dict) -> None:
    """Raise ``NAME must be RULE, got V`` for the first value that ``good``
    rejects. ``good`` maps a value, or an array elementwise, to whether it
    obeys the rule, and NaN fails it. A Python int or float (numpy's float64
    is one) is tested as it is; anything else as an array, and V is its
    first bad element."""
    for name, value in values.items():
        if isinstance(value, (int, float)):
            if good(value):
                continue
            shown = float(value) if isinstance(value, float) else value
        else:
            arr = np.asarray(value)
            ok = good(arr)
            if ok.all():
                continue
            shown = arr.flat[int(np.argmin(ok))].item()
        raise ValidationError(f"{name} must be {rule}, got {shown!r}")


def check_finite(**values) -> None:
    """Raise ValidationError unless every value (or array element) is finite."""
    _check("finite", lambda v: (-math.inf < v) & (v < math.inf), values)


def check_positive(**values) -> None:
    """Raise ValidationError unless every value (or array element) is finite and > 0."""
    _check("finite and > 0", lambda v: (0.0 < v) & (v < math.inf), values)


def check_at_least(minimum: int, **counts) -> None:
    """Raise ValidationError unless every count (or value, or array element)
    is >= ``minimum``; NaN is not."""
    _check(f">= {minimum}", lambda v: v >= minimum, counts)
