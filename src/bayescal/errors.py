"""Exception types shared across the package, the parameter checks that
raise ValidationError, one wording each: ``NAME must be finite, got V``,
``NAME must be finite and > 0, got V``, ``NAME must be >= K, got V`` and, for
a count, ``NAME must be an integer, got V``, and the UTF-8 check of an input
file, which raises ScoreFileError.
"""

import math
from pathlib import Path

from ._numpy import np


class BayescalError(Exception):
    """Base class for all errors raised by this package."""


class ScoreFileError(BayescalError):
    """A score CSV could not be parsed; carries the offending line number."""

    def __init__(self, path: str, line: int, message: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{self.path}:{line}: {message}")


def check_utf8(path) -> None:
    """Raise ScoreFileError unless the file ``path`` is UTF-8, naming the line
    of its first other byte: a line ends at LF, CR or CRLF, as the ``csv``
    module counts them. A reader calls it after its stream failed to decode,
    since the stream's error counts its offset from the last chunk read, not
    from the start of the file."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ScoreFileError(
            path, line, f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        ) from None


class ValidationError(BayescalError, ValueError):
    """A precondition or invariant on inputs was violated."""


class ConvergenceError(BayescalError, ArithmeticError):
    """An iterative solve was still moving when it reached its step cap."""


def _check(rule: str, good, values: dict) -> None:
    """Raise ``NAME must be RULE, got V`` for the first value that ``good``
    rejects. ``good`` maps a value, or an array elementwise, to whether it
    obeys the rule, and NaN fails it. A Python int or float (numpy's float64
    is one) is tested as it is, without numpy; anything else, a sequence
    too, as an array, whose first bad element is V."""
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


def check_not_below(minimum, **values) -> None:
    """Raise ValidationError unless every value (or array element) is >=
    ``minimum``; NaN is not."""
    _check(f">= {minimum}", lambda v: v >= minimum, values)


def _integral(v):
    """Whether a number, or each element of an array, is an integer: 9.0
    is, 9.5 and inf are not."""
    if isinstance(v, int):
        return True
    if isinstance(v, float):
        return v.is_integer()
    return np.isfinite(v) & (v == np.floor(v))


def check_at_least(minimum: int, **counts) -> None:
    """Raise ValidationError unless every count (or array element) is >=
    ``minimum``, as ``check_not_below`` words it, and then an integer, of
    any type: 9, 9.0 and a numpy integer are, 9.5 and inf are not."""
    check_not_below(minimum, **counts)
    _check("an integer", _integral, counts)
