"""Score data types, sufficient statistics, and the plugin Gaussian fit.

Scores are plain floats (real-valued recognizer outputs). All types here are
immutable after construction, all functions are pure, and densities are only
ever produced in the log domain.
"""

from __future__ import annotations

import csv
import enum
from array import array
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ScoreFileError, ValidationError, check_at_least, check_finite, check_positive

_LOG_2PI = math.log(2.0 * math.pi)

#: Lower bound on the per-class ML variance, so constant data cannot produce
#: an infinite precision. CLI-overridable.
DEFAULT_VARIANCE_FLOOR = 1e-12


def _scalar_like(result: np.ndarray, *inputs) -> float | np.ndarray:
    """Return a bare float when every input was scalar, else the array."""
    if all(np.ndim(x) == 0 for x in inputs):
        return float(result)
    return result


class Hypothesis(enum.Enum):
    """The two competing hypotheses a labeled score can carry."""

    H1 = "H1"  # same-source (prosecution / target)
    H2 = "H2"  # different-source (defence / non-target)


_LABEL_ALIASES = {
    "h1": Hypothesis.H1,
    "h2": Hypothesis.H2,
    "tar": Hypothesis.H1,
    "non": Hypothesis.H2,
}


def parse_label(label: str) -> Hypothesis:
    """Map a textual class label onto a Hypothesis.

    Accepts H1/H2 case-insensitively, plus the recognizer-world aliases
    ``tar`` (-> H1) and ``non`` (-> H2).
    """
    key = label.strip().lower()
    try:
        return _LABEL_ALIASES[key]
    except KeyError:
        raise ValidationError(
            f"unknown label {label!r}; expected one of H1, H2, tar, non"
        ) from None


@dataclass(frozen=True)
class BackgroundData:
    """Labeled background scores, one sequence per hypothesis class.

    Either class may be empty (the Bayesian path tolerates n=0); every score
    must be finite. Construction validates each class once and summarizes it
    once into ``h1_stats``/``h2_stats``, which every consumer reads instead of
    recomputing them.
    """

    h1_scores: tuple[float, ...]
    h2_scores: tuple[float, ...]
    h1_stats: SufficientStats = field(init=False, compare=False, repr=False)
    h2_stats: SufficientStats = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for cls in ("h1", "h2"):
            name = f"{cls}_scores"
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise TypeError(f"{name} must be a flat sequence of numbers, got shape {arr.shape}")
            finite = np.isfinite(arr)
            if not finite.all():
                i = int(np.argmin(finite))
                raise ValidationError(f"{name}[{i}] is not finite: {arr[i].item()!r}")
            object.__setattr__(self, name, tuple(arr.tolist()))
            object.__setattr__(self, f"{cls}_stats", collect_stats(arr))

    @property
    def n1(self) -> int:
        return len(self.h1_scores)

    @property
    def n2(self) -> int:
        return len(self.h2_scores)

    def swapped(self) -> "BackgroundData":
        """The same data with the class labels exchanged."""
        return BackgroundData(self.h2_scores, self.h1_scores)


@dataclass(frozen=True)
class SufficientStats:
    """Count, mean and summed squared deviation of one class's scores.

    ``mean`` and ``sum_sq_dev`` may instead be equal-length arrays, one
    element per background of a block that shares the count ``n``.
    """

    n: int
    mean: float
    sum_sq_dev: float

    def __post_init__(self):
        check_finite(mean=self.mean, sum_sq_dev=self.sum_sq_dev)
        check_at_least(0, n=self.n, sum_sq_dev=self.sum_sq_dev)


@dataclass(frozen=True)
class GaussianParams:
    """Point-estimate Gaussian score model: a (mean, precision) pair per class.

    The four fields may instead be equal-length arrays, one parameter value
    per element; each element is checked as a scalar would be.
    """

    mu1: float | np.ndarray
    mu2: float | np.ndarray
    lambda1: float | np.ndarray
    lambda2: float | np.ndarray

    def __post_init__(self):
        if len({np.shape(v) for v in (self.mu1, self.mu2, self.lambda1, self.lambda2)}) > 1:
            raise ValidationError("mu1, mu2, lambda1 and lambda2 must have the same shape")
        check_finite(mu1=self.mu1, mu2=self.mu2)
        check_positive(lambda1=self.lambda1, lambda2=self.lambda2)


def collect_stats(scores) -> SufficientStats:
    """Compress a sequence of scores into (n, mean, sum of squared deviations).

    Uses a two-pass scheme (mean first, then deviations) for numerical
    stability. Rejects non-finite entries, naming the offending index. A
    2-D array is a block of backgrounds, one per row: its stats hold one
    mean and one sum per row, each bit for bit the value of that row alone.
    """
    return _summarize(np.array(scores, dtype=float))


def _summarize(arr: np.ndarray) -> SufficientStats:
    """``collect_stats`` of ``arr``, a float array it overwrites with the
    squared deviations: a caller that owns a large block saves a copy."""
    if arr.ndim != 2:
        arr = arr.reshape(-1)
    n = arr.shape[-1]
    mean = arr.mean(axis=-1) if n else np.zeros(arr.shape[:-1])
    # a non-finite score makes its row's mean non-finite, so the scores are
    # searched only then, without a mask as large as the block
    if not np.isfinite(mean).all():
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            i = np.unravel_index(bad[0], arr.shape)
            raise ValidationError(
                f"score [{', '.join(map(str, i))}] is not finite: {arr[i].item()!r}"
            )
    # a single score deviates from itself by exactly 0.0
    arr -= mean[..., None]
    ssd = np.square(arr, out=arr).sum(axis=-1)
    if arr.ndim == 2:
        return SufficientStats(n, mean, ssd)
    return SufficientStats(n, float(mean), float(ssd))


def fit_plugin(
    data: BackgroundData, variance_floor: float = DEFAULT_VARIANCE_FLOOR
) -> GaussianParams:
    """Maximum-likelihood Gaussian fit per class, with a variance floor.

    Per class: mean is the sample mean, precision is 1 / max(ssd/n, floor).
    The ML (1/n) variance convention is used, not the bias-corrected 1/(n-1).
    Requires at least two scores per class. ``data`` is read through its
    ``h1_stats`` and ``h2_stats``; array-valued stats give array-valued
    parameters, one fit per element.
    """
    check_positive(variance_floor=variance_floor)
    s1, s2 = data.h1_stats, data.h2_stats
    for name, s in (("H1", s1), ("H2", s2)):
        if s.n < 2:
            raise ValidationError(
                f"insufficient data for plugin fit: class {name} has n={s.n} (need >= 2)"
            )
    lam1, lam2 = (1.0 / np.maximum(s.sum_sq_dev / s.n, variance_floor) for s in (s1, s2))
    return GaussianParams(s1.mean, s2.mean, lam1, lam2)


def gaussian_log_density(e, mean, precision):
    """Log of the normal density N(e | mean, 1/precision).

    Arguments broadcast together; scalars in, scalar out. Never exponentiated
    internally, so extreme tail arguments stay representable.
    """
    check_positive(precision=precision)
    prec = np.asarray(precision, dtype=float)
    z = np.asarray(e, dtype=float) - np.asarray(mean, dtype=float)
    out = 0.5 * (np.log(prec) - _LOG_2PI) - 0.5 * prec * np.square(z)
    return _scalar_like(out, e, mean, precision)


def load_background_csv(path) -> BackgroundData:
    """Read labeled scores from a CSV file with header ``label,score``.

    Labels follow :func:`parse_label`. Any malformed row aborts the load with
    a :class:`ScoreFileError` carrying the 1-based line number. A UTF-8
    byte-order mark before the header is skipped.
    """
    path = Path(path)
    # packed doubles, not lists of float objects: BackgroundData makes its own
    h1 = array("d")
    h2 = array("d")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ScoreFileError(path, 1, "empty file; expected header 'label,score'")
        if [c.strip().lower() for c in header] != ["label", "score"]:
            raise ScoreFileError(
                path, reader.line_num, f"expected header 'label,score', got {header!r}"
            )
        for row in reader:
            line = reader.line_num
            if not row:
                continue  # tolerate blank lines
            if len(row) != 2:
                raise ScoreFileError(path, line, f"expected 2 fields, got {len(row)}")
            try:
                label = parse_label(row[0])
            except ValidationError as exc:
                raise ScoreFileError(path, line, str(exc)) from None
            try:
                value = float(row[1])
            except ValueError:
                raise ScoreFileError(path, line, f"invalid score {row[1]!r}") from None
            if not math.isfinite(value):
                raise ScoreFileError(path, line, f"non-finite score {row[1]!r}")
            (h1 if label is Hypothesis.H1 else h2).append(value)
    return BackgroundData(h1, h2)
