"""Resampling experiments: error-rate curves, confidence-vs-data-size tables,
and the spread-summary demo.

Each trial draws a fresh small background database, calibrates both ways,
scores a large fresh test set, and sweeps a grid of prior log-odds recording
the cost-weighted error rate of the induced decisions. Trials come from
``synthetic.resample_backgrounds``: trial t of stream k draws from a NumPy
generator seeded with ``[seed, k, t]``, so runs are reproducible, trials could
be evaluated in any order, and different seeds share no trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conjugate import NONINFORMATIVE_PRIOR, NormalGammaParams
from .errors import ValidationError
from .lr import LrMethod, bayes_log_lr_array, class_predictives, plugin_log_lr_array
from .scores import DEFAULT_VARIANCE_FLOOR, Hypothesis, fit_plugin
from .synthetic import GeneratorConfig, generate_scores, resample_backgrounds

__all__ = [
    "ExperimentConfig",
    "ErrorCurve",
    "ConfidencePoint",
    "weighted_error_rate",
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
        if self.n1 < 0 or self.n2 < 0:
            raise ValidationError("n1 and n2 must be >= 0")
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if self.n_test_per_class < 1:
            raise ValidationError("n_test_per_class must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be a non-negative integer")
        grid = tuple(float(g) for g in self.prior_grid)
        if not grid:
            raise ValidationError("prior_grid must not be empty")
        if not all(math.isfinite(g) for g in grid):
            raise ValidationError("prior_grid values must be finite")
        object.__setattr__(self, "prior_grid", grid)


@dataclass(frozen=True)
class ErrorCurve:
    """Mean error rates over trials at each prior log-odds grid point.

    ``error_prior_only`` is the exact min(pi1, pi2) baseline of deciding from
    the prior alone; it involves no simulation. Standard errors are over
    trials. Trials whose background could not support a plugin fit are
    counted in ``degenerate_trials`` and excluded from the means.
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


def weighted_error_rate(llrs_h1, llrs_h2, prior_log_odds: float) -> float:
    """Cost-weighted error of unit-cost Bayes decisions at one prior point.

    Decisions compare each log-LR against the threshold -prior_log_odds
    (ties acquit). Returns pi1 * P(miss) + pi2 * P(false alarm) with
    pi1 = logistic(prior_log_odds).
    """
    grid = np.array([prior_log_odds], dtype=float)
    return float(_errors_over_grid(llrs_h1, llrs_h2, grid, _logistic(grid))[0])


def _logistic(grid: np.ndarray) -> np.ndarray:
    """pi1 = 1 / (1 + exp(-g)) at each prior log-odds point.

    Per element through ``math.exp``, the C library's exp: ``np.exp`` has its
    own vectorized routine, which differs by an ulp at some points of
    ``DEFAULT_PRIOR_GRID`` and would move the error curves' last digits.
    """
    return np.array([1.0 / (1.0 + math.exp(-g)) for g in grid])


def _errors_over_grid(llrs_h1, llrs_h2, grid: np.ndarray, pi1: np.ndarray) -> np.ndarray:
    """weighted_error_rate at every point of ``grid``; ``pi1`` is ``_logistic(grid)``."""
    thresholds = -grid
    sorted_h1 = np.sort(llrs_h1)
    sorted_h2 = np.sort(llrs_h2)
    if sorted_h1.size == 0 or sorted_h2.size == 0:
        raise ValidationError("both llr lists must be nonempty")
    p_miss = np.searchsorted(sorted_h1, thresholds, side="right") / sorted_h1.size
    p_fa = 1.0 - np.searchsorted(sorted_h2, thresholds, side="right") / sorted_h2.size
    return pi1 * p_miss + (1.0 - pi1) * p_fa


def run_experiment(
    gen: GeneratorConfig,
    exp: ExperimentConfig,
    prior: NormalGammaParams = NONINFORMATIVE_PRIOR,
    variance_floor: float = DEFAULT_VARIANCE_FLOOR,
) -> ErrorCurve:
    """Average both methods' error-rate curves over resampled backgrounds."""
    grid = np.asarray(exp.prior_grid, dtype=float)
    pi1 = _logistic(grid)
    baseline = np.minimum(pi1, 1.0 - pi1)

    per_trial_plugin: list[np.ndarray] = []
    per_trial_bayes: list[np.ndarray] = []
    degenerate = 0
    for data, rng in resample_backgrounds(gen, exp.n1, exp.n2, exp.trials, exp.seed, stream=0):
        try:
            theta = fit_plugin(data, variance_floor)
        except ValidationError:
            degenerate += 1
            continue
        pred1, pred2 = class_predictives(data, prior)
        test_h1 = generate_scores(gen, Hypothesis.H1, exp.n_test_per_class, rng, test_set=True)
        test_h2 = generate_scores(gen, Hypothesis.H2, exp.n_test_per_class, rng, test_set=True)

        per_trial_plugin.append(
            _errors_over_grid(
                plugin_log_lr_array(test_h1, theta),
                plugin_log_lr_array(test_h2, theta),
                grid,
                pi1,
            )
        )
        per_trial_bayes.append(
            _errors_over_grid(
                bayes_log_lr_array(test_h1, pred1, pred2),
                bayes_log_lr_array(test_h2, pred1, pred2),
                grid,
                pi1,
            )
        )

    if not per_trial_plugin:
        raise ValidationError(
            "every trial was degenerate (plugin fit needs n1 >= 2 and n2 >= 2)"
        )
    plugin_mat = np.vstack(per_trial_plugin)
    bayes_mat = np.vstack(per_trial_bayes)
    used = plugin_mat.shape[0]
    if used > 1:
        se_plugin = plugin_mat.std(axis=0, ddof=1) / math.sqrt(used)
        se_bayes = bayes_mat.std(axis=0, ddof=1) / math.sqrt(used)
    else:
        se_plugin = np.zeros_like(grid)
        se_bayes = np.zeros_like(grid)
    return ErrorCurve(
        prior_log_odds=grid,
        error_plugin=plugin_mat.mean(axis=0),
        error_bayes=bayes_mat.mean(axis=0),
        error_prior_only=baseline,
        stderr_plugin=se_plugin,
        stderr_bayes=se_bayes,
        trials_used=used,
        degenerate_trials=degenerate,
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
    """
    sizes = [(int(n1), int(n2)) for n1, n2 in sizes]
    if not sizes:
        raise ValidationError("sizes must not be empty")
    if trials < 2:
        raise ValidationError("trials must be >= 2")

    points: list[ConfidencePoint] = []
    for k, (n1, n2) in enumerate(sizes):
        if n1 < 2 or n2 < 2:
            raise ValidationError(f"size ({n1}, {n2}) cannot support a plugin fit")
        trial_means = {
            (method, hyp): np.empty(trials)
            for method in LrMethod
            for hyp in Hypothesis
        }
        for t, (data, rng) in enumerate(resample_backgrounds(gen, n1, n2, trials, seed, stream=k)):
            theta = fit_plugin(data, variance_floor)
            pred1, pred2 = class_predictives(data, prior)
            test = {
                Hypothesis.H1: generate_scores(gen, Hypothesis.H1, n_test_per_class, rng, test_set=True),
                Hypothesis.H2: generate_scores(gen, Hypothesis.H2, n_test_per_class, rng, test_set=True),
            }
            for hyp, scores in test.items():
                trial_means[(LrMethod.PLUGIN, hyp)][t] = plugin_log_lr_array(scores, theta).mean()
                trial_means[(LrMethod.BAYESIAN, hyp)][t] = bayes_log_lr_array(scores, pred1, pred2).mean()
        for method in (LrMethod.PLUGIN, LrMethod.BAYESIAN):
            for hyp in (Hypothesis.H1, Hypothesis.H2):
                vals = trial_means[(method, hyp)]
                points.append(
                    ConfidencePoint(
                        n1=n1,
                        n2=n2,
                        method=method,
                        hypothesis=hyp,
                        mean_log_lr=float(vals.mean()),
                        stderr=float(vals.std(ddof=1) / math.sqrt(trials)),
                    )
                )
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
    relates the two, so the summaries disagree in general.
    """
    if trials < 2:
        raise ValidationError(f"trials must be >= 2, got {trials}")
    if n1 < 2 or n2 < 2:
        raise ValidationError("n1 and n2 must be >= 2 so each database supports a plugin fit")

    plugin_vals = np.empty(trials)
    bayes_vals = np.empty(trials)
    for t, (data, _) in enumerate(resample_backgrounds(world, n1, n2, trials, seed, stream=0)):
        theta = fit_plugin(data, variance_floor)
        plugin_vals[t] = plugin_log_lr_array(e, theta)
        pred1, pred2 = class_predictives(data, prior)
        bayes_vals[t] = bayes_log_lr_array(e, pred1, pred2)

    return LrDistributionReport(
        mu=float(plugin_vals.mean()),
        sigma=float(plugin_vals.std(ddof=1)),
        plugin_log_lr_per_trial=plugin_vals,
        bayes_log_lr_per_trial=bayes_vals,
    )
