"""Score data types, sufficient statistics, and the plugin Gaussian fit.

Scores are plain floats (real-valued recognizer outputs). All types here are
immutable after construction, all functions are pure, and densities are only
ever produced in the log domain.
"""

from __future__ import annotations

import csv
import enum
import math
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from ._numpy import floats, np, plain
from .errors import (
    ScoreFileError,
    ValidationError,
    check_at_least,
    check_finite,
    check_positive,
    check_utf8,
)

_LOG_2PI = math.log(2.0 * math.pi)

#: Lower bound on the per-class ML variance, so constant data cannot produce
#: an infinite precision. CLI-overridable.
DEFAULT_VARIANCE_FLOOR = 1e-12


def _scalar_like(result, *inputs) -> float | np.ndarray:
    """Return a bare float when every input was scalar, else the array."""
    if type(result) is float or all(np.ndim(x) == 0 for x in inputs):
        return float(result)
    return result


def _floats(scores) -> list[float]:
    """The values of a flat sequence of numbers, each as a Python float. A
    container with a ``tolist``, such as an ``array('d')`` or a numpy array,
    hands them over through it, so a nested array is refused, as is a string."""
    if isinstance(scores, (str, bytes)):
        raise TypeError(f"got {type(scores).__name__} {scores!r}")
    return list(map(float, scores.tolist() if hasattr(scores, "tolist") else scores))


def _fsum(values) -> float:
    """The correctly rounded sum of ``values`` (Shewchuk's algorithm, as
    ``math.fsum`` implements it), or inf where ``fsum`` raises, at partial
    sums past the float range or inf + -inf, so a caller refuses it as it
    refuses any sum that is not finite."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return math.inf


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
    recomputing them. Each class may be any flat sequence of numbers; it is
    kept as a tuple of Python floats and summarized by ``collect_stats``.
    """

    h1_scores: tuple[float, ...]
    h2_scores: tuple[float, ...]
    h1_stats: SufficientStats = field(init=False, compare=False, repr=False)
    h2_stats: SufficientStats = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for cls in ("h1", "h2"):
            name = f"{cls}_scores"
            try:
                values = tuple(_floats(getattr(self, name)))
            except TypeError as exc:
                raise TypeError(f"{name} must be a flat sequence of numbers: {exc}") from None
            try:
                stats = collect_stats(values)
            except ValidationError:  # a score that is not finite, or sums that overflow
                raise _class_error(name, values) from None
            object.__setattr__(self, name, values)
            object.__setattr__(self, f"{cls}_stats", stats)

    @property
    def n1(self) -> int:
        return len(self.h1_scores)

    @property
    def n2(self) -> int:
        return len(self.h2_scores)


def _class_error(name: str, scores: tuple[float, ...]) -> ValidationError:
    """Why ``collect_stats`` refused the class ``name``: its first score
    that is not finite or, when every score is finite, the largest in
    magnitude, whose square or sum overflowed."""
    for i, v in enumerate(scores):
        if not math.isfinite(v):
            return ValidationError(f"{name}[{i}] is not finite: {v!r}")
    i = max(range(len(scores)), key=lambda k: abs(scores[k]))
    return ValidationError(
        f"{name} overflow float range when summarized; the largest in "
        f"magnitude is {name}[{i}] = {scores[i]!r}"
    )


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
        fields = (self.mu1, self.mu2, self.lambda1, self.lambda2)
        if not plain(*fields) and len({np.shape(v) for v in fields}) > 1:
            raise ValidationError("mu1, mu2, lambda1 and lambda2 must have the same shape")
        check_finite(mu1=self.mu1, mu2=self.mu2)
        check_positive(lambda1=self.lambda1, lambda2=self.lambda2)


def collect_stats(scores) -> SufficientStats:
    """Compress a flat sequence of scores into (n, mean, sum of squared
    deviations), whatever its container.

    Two passes, each a correctly rounded sum: the mean is the exact sum of
    the scores, rounded once, over n, and ``sum_sq_dev`` the exact sum of
    the float squared deviations from that mean, rounded once. Rejects
    non-finite entries, naming the offending index; sums that overflow are
    refused by ``SufficientStats``.
    """
    values = _floats(scores)
    n = len(values)
    mean = _fsum(values) / n if n else 0.0
    if not math.isfinite(mean):
        for i, v in enumerate(values):
            if not math.isfinite(v):
                raise ValidationError(f"score [{i}] is not finite: {v!r}")
    return SufficientStats(n, mean, _fsum([(v - mean) * (v - mean) for v in values]))


def fit_plugin(
    data: BackgroundData, variance_floor: float = DEFAULT_VARIANCE_FLOOR
) -> GaussianParams:
    """Maximum-likelihood Gaussian fit per class, with a variance floor.

    Per class: mean is the sample mean, precision is 1 / max(ssd/n, floor).
    The ML (1/n) variance convention is used, not the bias-corrected 1/(n-1).
    Requires n1, n2 >= 2, the rule every experiment checks before its first
    draw. ``data`` is read through its ``h1_stats`` and ``h2_stats``;
    array-valued stats give array-valued parameters, one fit per element.
    """
    check_positive(variance_floor=variance_floor)
    s1, s2 = data.h1_stats, data.h2_stats
    check_at_least(2, n1=s1.n, n2=s2.n)
    lam1, lam2 = (
        1.0 / (max if plain(s.sum_sq_dev) else np.maximum)(s.sum_sq_dev / s.n, variance_floor)
        for s in (s1, s2)
    )
    return GaussianParams(s1.mean, s2.mean, lam1, lam2)


def gaussian_log_density(e, mean, precision):
    """Log of the normal density N(e | mean, 1/precision).

    Arguments broadcast together; scalars in, scalar out. Never exponentiated
    internally, so extreme tail arguments stay representable.
    """
    check_positive(precision=precision)
    fn, (x, m, prec) = floats(e, mean, precision)
    z = x - m
    out = 0.5 * (fn.log(prec) - _LOG_2PI) - 0.5 * prec * (z * z)
    return _scalar_like(out, e, mean, precision)


def load_background_csv(path) -> BackgroundData:
    """Read labeled scores from a CSV file with header ``label,score``.

    Labels follow :func:`parse_label`; each distinct label text is parsed
    once, the first time it appears. Any malformed row aborts the load with
    a :class:`ScoreFileError` carrying the 1-based line number, as does a
    byte that is not UTF-8, a field longer than the ``csv`` module's limit
    or a quote left open, each at the line where its record began. A class
    that ``BackgroundData`` refuses raises its ValidationError, prefixed with
    the file. A UTF-8 byte-order mark before the header is skipped.
    """
    path = Path(path)
    # packed doubles, not lists of float objects: BackgroundData makes its own
    h1 = array("d")
    h2 = array("d")
    classes = {}  # each label, exactly as written, -> its class's scores
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh, strict=True)
            line = 0  # the last line of the last record read whole
            header = next(reader, None)
            if header is None:
                raise ScoreFileError(path, 1, "empty file; expected header 'label,score'")
            if [c.strip().lower() for c in header] != ["label", "score"]:
                raise ScoreFileError(
                    path, reader.line_num, f"expected header 'label,score', got {header!r}"
                )
            line = reader.line_num
            for row in reader:
                line = reader.line_num
                if len(row) != 2:
                    if not row:
                        continue  # tolerate blank lines
                    raise ScoreFileError(path, line, f"expected 2 fields, got {len(row)}")
                label, text = row
                try:
                    scores = classes[label]
                except KeyError:
                    try:
                        hypothesis = parse_label(label)
                    except ValidationError as exc:
                        raise ScoreFileError(path, line, str(exc)) from None
                    scores = classes[label] = h1 if hypothesis is Hypothesis.H1 else h2
                try:
                    value = float(text)
                except ValueError:
                    raise ScoreFileError(path, line, f"invalid score {text!r}") from None
                if not math.isfinite(value):
                    raise ScoreFileError(path, line, f"non-finite score {text!r}")
                scores.append(value)
    except csv.Error as exc:  # a field over csv.field_size_limit(), or a quote left open
        raise ScoreFileError(path, line + 1, str(exc)) from None
    except UnicodeDecodeError:
        check_utf8(path)
        raise
    try:
        return BackgroundData(h1, h2)
    except ValidationError as exc:  # a class too large to summarize
        raise ValidationError(f"{path}: {exc}") from None
