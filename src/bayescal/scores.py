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
from functools import reduce
from operator import add
from pathlib import Path

from ._numpy import floats, np, plain, plain_sequence
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


#: numpy sums a float64 run in blocks of at most this many values.
_PAIRWISE_BLOCK = 128

#: The most scores of one class that ``collect_stats`` and ``BackgroundData``
#: sum in Python. Past it, loading numpy and summing there is faster: in a
#: fresh process on a 2-core Xeon VM, ``BackgroundData`` summarizes a class
#: in Python in 0.19 us a score, and through numpy in 34 ms, numpy's load,
#: plus 0.045 us a score. Both routes give the same stats.
_PLAIN_MAX_SCORES = 230_000


def _plain_scores(scores) -> bool:
    """Whether ``scores`` take the plain route: a ``plain_sequence`` of at
    most ``_PLAIN_MAX_SCORES`` values."""
    return plain_sequence(scores) and len(scores) <= _PLAIN_MAX_SCORES


def _float_list(scores) -> list[float]:
    """The values of a ``plain_sequence`` as a list of Python floats."""
    return scores.tolist() if isinstance(scores, array) else list(map(float, scores))


def _pairwise_sum(values, lo: int = 0, n: int | None = None) -> float:
    """The sum of ``values[lo:lo + n]`` as numpy's pairwise summation adds a
    contiguous float64 run, bit for bit: a run of fewer than 8 values in
    order from -0.0; a run of at most ``_PAIRWISE_BLOCK`` in 8 strided
    lanes, combined in pairs, then the rest in order; a longer run as the
    sum of its halves, split at n/2 rounded down to a multiple of 8.
    ``reduce(add, ...)`` adds in order, as ``sum()`` does not from Python
    3.12, which compensates. numpy's reduction adds the whole into its
    identity 0.0, so a run of -0.0 alone sums to +0.0."""
    if n is None:
        return 0.0 + _pairwise_sum(values, 0, len(values))
    if n < 8:
        return reduce(add, values[lo:lo + n], -0.0)
    if n <= _PAIRWISE_BLOCK:
        end = lo + n
        rest = end - n % 8
        r = [reduce(add, values[j:rest:8]) for j in range(lo, lo + 8)]
        lanes = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[rest:end], lanes)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, lo, half) + _pairwise_sum(values, lo + half, n - half)


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
    recomputing them. A class given as an ``array('d')``, or as a tuple or
    list of Python floats and ints, is summarized without numpy.
    """

    h1_scores: tuple[float, ...]
    h2_scores: tuple[float, ...]
    h1_stats: SufficientStats = field(init=False, compare=False, repr=False)
    h2_stats: SufficientStats = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for cls in ("h1", "h2"):
            name = f"{cls}_scores"
            scores = getattr(self, name)
            if _plain_scores(scores):
                values = scores = tuple(_float_list(scores))
            else:
                scores = np.asarray(scores, dtype=float)
                if scores.ndim != 1:
                    raise TypeError(
                        f"{name} must be a flat sequence of numbers, got shape {scores.shape}"
                    )
                values = tuple(scores.tolist())
            try:
                stats = collect_stats(scores)
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
    """Compress a sequence of scores into (n, mean, sum of squared deviations).

    Uses a two-pass scheme (mean first, then deviations) for numerical
    stability. Rejects non-finite entries, naming the offending index. A
    2-D array is a block of backgrounds, one per row: its stats hold one
    mean and one sum per row, each bit for bit the value of that row alone.
    An ``array('d')``, or a tuple or list of Python floats and ints, is
    summed by ``_pairwise_sum`` instead of numpy, to the same bits.
    """
    if _plain_scores(scores):
        values = _float_list(scores)
        n = len(values)
        mean = _pairwise_sum(values) / n if n else 0.0
        if not math.isfinite(mean):
            for i, v in enumerate(values):
                if not math.isfinite(v):
                    raise ValidationError(f"score [{i}] is not finite: {v!r}")
        return SufficientStats(n, mean, _pairwise_sum([(v - mean) * (v - mean) for v in values]))
    arr = np.array(scores, dtype=float)
    if arr.ndim != 2:
        arr = arr.reshape(-1)
    n = arr.shape[-1]
    # a sum that is not finite is refused, here or by SufficientStats, so
    # numpy's warning would only precede the error
    with np.errstate(over="ignore", invalid="ignore"):
        mean = arr.mean(axis=-1) if n else np.zeros(arr.shape[:-1])
        # a non-finite score makes its row's mean non-finite, so the scores
        # are searched only then, without a mask as large as the block
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
