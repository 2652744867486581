"""Resampling experiments: error-rate curves, confidence-vs-data-size tables,
and the spread-summary demo.

Each trial draws a fresh small background database and calibrates it both
ways (``_calibrations``). The curves then score a large fresh test set with
both (``_scored_trials``) and either record the cost-weighted error rate of
the induced decisions over a grid of prior log-odds or average the log-LRs.
Trials come from ``synthetic.resample_backgrounds``: trial t of stream k
draws from a NumPy generator seeded with ``[seed, k, t]``, so runs are
reproducible, trials could be evaluated in any order, and different seeds
share no trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np

from .conjugate import NONINFORMATIVE_PRIOR, NormalGammaParams
from .errors import ValidationError, check_at_least, check_finite, check_positive
from .lr import LrMethod, bayes_log_lr_array, class_predictives, plugin_log_lr_array
from .scores import DEFAULT_VARIANCE_FLOOR, Hypothesis, fit_plugin
from .synthetic import GeneratorConfig, generate_scores, resample_backgrounds

__all__ = [
    "ExperimentConfig",
    "ErrorCurve",
    "ConfidencePoint",
    "run_experiment",
    "confidence_curve",
    "LrDistributionReport",
    "lr_distribution_demo",
    "DEFAULT_PRIOR_GRID",
]

#: 41 prior log-odds points spanning -10..+10 natural-log units.
DEFAULT_PRIOR_GRID = tuple(np.linspace(-10.0, 10.0, 41))


@dataclass(frozen=True)
class ExperimentConfig:
    """Sizes, trial count, prior grid and seeding for one error-curve run."""

    n1: int
    n2: int
    trials: int = 1000
    prior_grid: tuple[float, ...] = DEFAULT_PRIOR_GRID
    n_test_per_class: int = 10_000
    seed: int = 0

    def __post_init__(self):
        check_at_least(0, n1=self.n1, n2=self.n2, seed=self.seed)
        check_at_least(1, trials=self.trials, n_test_per_class=self.n_test_per_class)
        grid = tuple(float(g) for g in self.prior_grid)
        if not grid:
            raise ValidationError("prior_grid must not be empty")
        check_finite(prior_grid=grid)
        object.__setattr__(self, "prior_grid", grid)


@dataclass(frozen=True)
class ErrorCurve:
    """Mean error rates over trials at each prior log-odds grid point.

    ``error_prior_only`` is the exact min(pi1, pi2) baseline of deciding from
    the prior alone; it involves no simulation. Standard errors are over
    trials. A size too small for a plugin fit is rejected before any draw,
    so every trial is used: ``trials_used`` is the trial count and
    ``degenerate_trials`` is 0.
    """

    prior_log_odds: np.ndarray
    error_plugin: np.ndarray
    error_bayes: np.ndarray
    error_prior_only: np.ndarray
    stderr_plugin: np.ndarray
    stderr_bayes: np.ndarray
    trials_used: int
    degenerate_trials: int


@dataclass(frozen=True)
class ConfidencePoint:
    """Mean hypothesis-conditional log-LR for one method at one data size."""

    n1: int
    n2: int
    method: LrMethod
    hypothesis: Hypothesis
    mean_log_lr: float
    stderr: float


def _logistic(grid: np.ndarray) -> np.ndarray:
    """pi1 = 1 / (1 + exp(-g)) at each prior log-odds point.

    Per element through ``math.exp``, the C library's exp: ``np.exp`` has its
    own vectorized routine, which differs by an ulp at some points of
    ``DEFAULT_PRIOR_GRID`` and would move the error curves' last digits.
    """
    return np.array([1.0 / (1.0 + math.exp(-g)) for g in grid])


def _errors_over_grid(llrs_h1, llrs_h2, grid: np.ndarray, pi1: np.ndarray) -> np.ndarray:
    """Cost-weighted error of unit-cost Bayes decisions at every point of ``grid``.

    Decisions compare each log-LR against the threshold -prior_log_odds
    (ties acquit). Returns pi1 * P(miss) + pi2 * P(false alarm), where
    ``pi1`` is ``_logistic(grid)``.
    """
    thresholds = -grid
    sorted_h1 = np.sort(llrs_h1)
    sorted_h2 = np.sort(llrs_h2)
    if sorted_h1.size == 0 or sorted_h2.size == 0:
        raise ValidationError("both llr lists must be nonempty")
    p_miss = np.searchsorted(sorted_h1, thresholds, side="right") / sorted_h1.size
    p_fa = 1.0 - np.searchsorted(sorted_h2, thresholds, side="right") / sorted_h2.size
    return pi1 * p_miss + (1.0 - pi1) * p_fa


def _calibrations(gen, n1, n2, trials, seed, stream, prior, variance_floor):
    """Each resampled background of ``stream`` calibrated both ways: an
    iterator of ``(plugin fit, (pred1, pred2), rng)``, one per trial.

    The size and the floor are checked here, before any draw: every trial at
    one size has the same class counts, so a plugin fit fails for all of them
    or for none. ``rng`` is the trial's generator, for its test sets.
    """
    if n1 < 2 or n2 < 2:
        raise ValidationError(
            f"every trial at size ({n1}, {n2}) is degenerate "
            "(plugin fit needs n1 >= 2 and n2 >= 2)"
        )
    check_positive(variance_floor=variance_floor)
    return (
        (fit_plugin(data, variance_floor), class_predictives(data, prior), rng)
        for data, rng in resample_backgrounds(gen, n1, n2, trials, seed, stream)
    )


def _scored_trials(gen, n_test_per_class, reduce, calibrations):
    """For each calibrated trial, draw the H1 and then the H2 test set from its
    ``rng``, score both with each method and yield ``{method: reduce(log-LRs
    on H1, log-LRs on H2)}``, plugin first. One method's log-LRs are reduced
    before the next method's are made, so a trial holds two such arrays at a
    time, not four."""
    for theta, preds, rng in calibrations:
        h1 = generate_scores(gen, Hypothesis.H1, n_test_per_class, rng, test_set=True)
        h2 = generate_scores(gen, Hypothesis.H2, n_test_per_class, rng, test_set=True)
        yield {
            LrMethod.PLUGIN: reduce(plugin_log_lr_array(h1, theta), plugin_log_lr_array(h2, theta)),
            LrMethod.BAYESIAN: reduce(
                bayes_log_lr_array(h1, *preds), bayes_log_lr_array(h2, *preds)
            ),
        }


def _means(*log_lrs) -> list[float]:
    """The mean of each array: how ``confidence_curve`` reduces test log-LRs."""
    return [llrs.mean() for llrs in log_lrs]


def run_experiment(
    gen: GeneratorConfig,
    exp: ExperimentConfig,
    prior: NormalGammaParams = NONINFORMATIVE_PRIOR,
    variance_floor: float = DEFAULT_VARIANCE_FLOOR,
) -> ErrorCurve:
    """Average both methods' error-rate curves over resampled backgrounds."""
    grid = np.asarray(exp.prior_grid, dtype=float)
    pi1 = _logistic(grid)
    errors = partial(_errors_over_grid, grid=grid, pi1=pi1)
    calibrations = _calibrations(
        gen, exp.n1, exp.n2, exp.trials, exp.seed, 0, prior, variance_floor
    )
    per_trial = list(_scored_trials(gen, exp.n_test_per_class, errors, calibrations))
    plugin_mat, bayes_mat = (
        np.vstack([trial[method] for trial in per_trial]) for method in LrMethod
    )
    se_plugin, se_bayes = (
        mat.std(axis=0, ddof=1) / math.sqrt(exp.trials) if exp.trials > 1 else np.zeros_like(grid)
        for mat in (plugin_mat, bayes_mat)
    )
    return ErrorCurve(
        prior_log_odds=grid,
        error_plugin=plugin_mat.mean(axis=0),
        error_bayes=bayes_mat.mean(axis=0),
        error_prior_only=np.minimum(pi1, 1.0 - pi1),
        stderr_plugin=se_plugin,
        stderr_bayes=se_bayes,
        trials_used=exp.trials,
        degenerate_trials=0,
    )


def confidence_curve(
    gen: GeneratorConfig,
    sizes,
    trials: int,
    seed: int,
    n_test_per_class: int = 2000,
    prior: NormalGammaParams = NONINFORMATIVE_PRIOR,
    variance_floor: float = DEFAULT_VARIANCE_FLOOR,
) -> tuple[ConfidencePoint, ...]:
    """Mean hypothesis-conditional log-LRs per method across background sizes.

    For each (n1, n2) size, averages E[log LR | H1] and E[log LR | H2] over
    ``trials`` resampled backgrounds, each evaluated on a fresh test set.
    Every size is checked before the first draw.
    """
    sizes = [(int(n1), int(n2)) for n1, n2 in sizes]
    if not sizes:
        raise ValidationError("sizes must not be empty")
    check_at_least(2, trials=trials)
    check_at_least(1, n_test_per_class=n_test_per_class)
    runs = [
        _calibrations(gen, n1, n2, trials, seed, k, prior, variance_floor)
        for k, (n1, n2) in enumerate(sizes)
    ]

    points: list[ConfidencePoint] = []
    for (n1, n2), calibrations in zip(sizes, runs):
        # one row per trial, one column per (method, hypothesis)
        trial_means = np.array([
            [*means[LrMethod.PLUGIN], *means[LrMethod.BAYESIAN]]
            for means in _scored_trials(gen, n_test_per_class, _means, calibrations)
        ])
        for (method, hyp), vals in zip(product(LrMethod, Hypothesis), trial_means.T):
            mean, stderr = float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(trials))
            points.append(ConfidencePoint(n1, n2, method, hyp, mean, stderr))
    return tuple(points)


@dataclass(frozen=True)
class LrDistributionReport:
    """Summary of plugin log-LRs over resampled background databases.

    ``mu`` and ``sigma`` are the mean and sample standard deviation of the
    per-database plugin log-LRs, i.e. the "log(LR) = mu +/- sigma" summary a
    practitioner might report. The per-database Bayesian log-LRs are kept
    alongside so the two summaries can be compared.
    """

    mu: float
    sigma: float
    plugin_log_lr_per_trial: np.ndarray
    bayes_log_lr_per_trial: np.ndarray


def lr_distribution_demo(
    e: float,
    world: GeneratorConfig,
    n1: int,
    n2: int,
    trials: int,
    seed: int,
    prior: NormalGammaParams = NONINFORMATIVE_PRIOR,
    variance_floor: float = DEFAULT_VARIANCE_FLOOR,
) -> LrDistributionReport:
    """Resample background databases and tabulate both log-LRs at a fixed score.

    Shows that the spread summary (mu, sigma) of plugin log-LRs is not a
    substitute for the Bayesian log-LR: mu ignores the correction term that
    relates the two, so the summaries disagree in general. Raises
    ValidationError when a log-LR, mu, sigma or the mean Bayesian log-LR is
    not finite, as an extreme score makes them.
    """
    check_at_least(2, trials=trials)
    calibrations = _calibrations(world, n1, n2, trials, seed, 0, prior, variance_floor)
    pairs = [
        (plugin_log_lr_array(e, theta), bayes_log_lr_array(e, *preds))
        for theta, preds, _ in calibrations
    ]
    plugin_vals, bayes_vals = (np.array(vals) for vals in zip(*pairs))
    mu, sigma = float(plugin_vals.mean()), float(plugin_vals.std(ddof=1))
    summary = np.concatenate([plugin_vals, bayes_vals, [mu, sigma, bayes_vals.mean()]])
    if not np.isfinite(summary).all():
        raise ValidationError(f"log-LRs at score {e!r} are not finite: mu={mu!r}, sigma={sigma!r}")
    return LrDistributionReport(
        mu=mu,
        sigma=sigma,
        plugin_log_lr_per_trial=plugin_vals,
        bayes_log_lr_per_trial=bayes_vals,
    )
