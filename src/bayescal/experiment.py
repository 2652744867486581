"""Resampling experiments: error-rate curves, confidence-vs-data-size tables,
and the spread-summary demo.

Each trial draws a fresh small background database and calibrates it both
ways. The curves then take each trial's exact expectation under the
generator's known test law (``GeneratorConfig.test_law``): the cost-weighted
error rate of the induced decisions over a grid of prior log-odds, or the
mean log-LR. No test set is drawn. Trials come from
``synthetic.resample_backgrounds``: trial t of stream k draws from a NumPy
generator seeded with ``[seed, k, t]``, so runs are reproducible, trials
could be evaluated in any order, and different seeds share no trials. One
loop, ``_block_stats``, draws and summarizes them ``_BLOCK`` at a time, as
arrays with one element per trial. All three experiments here, and the
peak-only pitfall of ``verification``, read it.

Exact rates. Deciding at prior log-odds g convicts iff the log-LR exceeds
c = -g. On [L, R], which holds all but 1e-300 of either test law's mass,
each log-LR splits into at most four monotone pieces: the plugin log-LR is
a quadratic, and the Bayesian one has at most three stationary points, the
real roots of a cubic. A piece whose ends lie on both sides of c crosses it
once, at a root r, so under N(mu, sd^2)

    P(llr > c) = [llr(L) > c] + sum over crossings of +-sf((r - mu) / sd),

with + where the log-LR rises through c and - where it falls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, product
from typing import NamedTuple

import numpy as np

from .conjugate import NONINFORMATIVE_PRIOR, NormalGammaParams, StudentT
from .errors import ValidationError, check_at_least, check_finite, check_positive
from .lr import LrMethod, bayes_log_lr_array, class_predictives, plugin_log_lr_array
from .scores import (
    DEFAULT_VARIANCE_FLOOR,
    Hypothesis,
    SufficientStats,
    _summarize,
    fit_plugin,
)
from .synthetic import GeneratorConfig, resample_backgrounds

__all__ = [
    "ExperimentConfig",
    "ErrorCurve",
    "ConfidencePoint",
    "run_experiment",
    "check_confidence",
    "confidence_curve",
    "LrDistributionReport",
    "lr_distribution_demo",
    "DEFAULT_PRIOR_GRID",
]

#: 41 prior log-odds points spanning -10..+10 natural-log units.
DEFAULT_PRIOR_GRID = tuple(np.linspace(-10.0, 10.0, 41))

#: Trials solved together. Larger blocks spread numpy's per-call cost
#: further but raise the peak memory: fig1 ``simulate`` peaks at 40 MB with
#: 50, 45 MB with 200 and 52 MB with all 1000 trials in one block.
_BLOCK = 50

#: The solved range reaches this many test-law standard deviations past
#: either class mean; the normal mass beyond it, 4e-350, underflows to 0.
_RANGE_SDS = 40.0

#: Bisection steps before Newton's: a piece of width 80 sd shrinks to 0.02 sd.
_BISECTIONS = 12

#: Newton steps at most; each stays inside the bracket, or bisects.
_NEWTON_STEPS = 8

#: Gauss-Hermite nodes for a mean Bayesian log-LR: within 5e-16 of mpmath
#: quadrature on five fig1 trials.
_HERMITE_NODES = 64


@dataclass(frozen=True)
class ExperimentConfig:
    """Sizes, trial count, prior grid and seeding for one error-curve run."""

    n1: int
    n2: int
    trials: int = 1000
    prior_grid: tuple[float, ...] = DEFAULT_PRIOR_GRID
    seed: int = 0

    def __post_init__(self):
        check_at_least(0, n1=self.n1, n2=self.n2, seed=self.seed)
        check_at_least(1, trials=self.trials)
        grid = tuple(float(g) for g in self.prior_grid)
        if not grid:
            raise ValidationError("prior_grid must not be empty")
        check_finite(prior_grid=grid)
        object.__setattr__(self, "prior_grid", grid)


@dataclass(frozen=True)
class ErrorCurve:
    """Mean error rates over trials at each prior log-odds grid point.

    Each trial's rate is exact under the test law, so the standard errors,
    over trials, measure how the rate varies from background to background
    alone. ``error_prior_only`` is the exact min(pi1, pi2) baseline of
    deciding from the prior alone. A size too small for a plugin fit is
    rejected before any draw, so every trial is used: ``trials_used`` is
    the trial count and ``degenerate_trials`` is 0.
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
    return np.array([_logistic_point(g) for g in grid])


def _logistic_point(g: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-g))
    except OverflowError:  # g below about -709.8, where pi1 rounds to exp(g)
        return math.exp(g)


class _BlockStats(NamedTuple):
    """Both classes' stats for a block of backgrounds, one element per trial:
    what ``fit_plugin``, ``class_predictives`` and
    ``verification.approximate_posterior_pitfall`` read of a background."""

    h1_stats: SufficientStats
    h2_stats: SufficientStats


def _check_size(n1: int, n2: int) -> None:
    """Every trial at one size has the same class counts, so a plugin fit
    fails for all of them or for none."""
    if n1 < 2 or n2 < 2:
        raise ValidationError(
            f"every trial at size ({n1}, {n2}) is degenerate "
            "(plugin fit needs n1 >= 2 and n2 >= 2)"
        )


def _block_stats(gen, n1, n2, trials, seed, stream):
    """The resampled backgrounds of ``stream``, a block at a time: yields
    each block's ``_BlockStats``, one element per trial of the block.

    Every block is summarized in place in the same two buffers, so that
    large backgrounds (1.6 MB per 300/4050 block) do not allocate a matrix
    and its deviations per block.
    """
    draws = resample_backgrounds(gen, n1, n2, trials, seed, stream)
    h1, h2 = np.empty((_BLOCK, n1)), np.empty((_BLOCK, n2))
    for start in range(0, trials, _BLOCK):
        size = min(_BLOCK, trials - start)
        for row, (d1, d2) in enumerate(islice(draws, size)):
            h1[row], h2[row] = d1, d2
        yield _BlockStats(_summarize(h1[:size]), _summarize(h2[:size]))


def _calibrated_blocks(gen, n1, n2, trials, seed, stream, prior, variance_floor):
    """``_block_stats`` calibrated both ways: yields ``(plugin fit, (pred1,
    pred2))`` whose parameters are arrays with one element per trial of the
    block. The size and the floor are checked before any draw."""
    _check_size(n1, n2)
    check_positive(variance_floor=variance_floor)
    for stats in _block_stats(gen, n1, n2, trials, seed, stream):
        yield fit_plugin(stats, variance_floor), class_predictives(stats, prior)


def _upper_tail(z: np.ndarray) -> np.ndarray:
    """The standard normal mass beyond |z|, per element, through ``math.erfc``."""
    half = (np.abs(z) * math.sqrt(0.5)).tolist()
    return 0.5 * np.fromiter(map(math.erfc, half), float, len(half))


def _quadratic_roots(a, b, c):
    """The roots (lower, upper) of a x^2 + b x + c, elementwise.

    Cancellation-free: q = -(b + sign(b) sqrt(b^2 - 4ac)) / 2 gives the
    roots q/a and c/q. With a = 0 both are the linear root -c/b; with
    b^2 < 4ac both are the vertex -b/(2a); with a = b = 0 both are NaN.
    """
    disc = b * b - 4.0 * a * c
    q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b))
    r1 = np.divide(q, a, out=np.full(np.shape(q), np.nan), where=a != 0)
    r2 = np.divide(c, q, out=np.full(np.shape(q), np.nan), where=q != 0)
    r2 = np.where(disc < 0, r1, r2)
    return np.fmin(r1, r2), np.fmax(r1, r2)


def _exceedance(llr_at_breaks, thresholds, crossing, laws):
    """P(llr > c) and P(llr <= c) under each test law, for one block.

    ``llr_at_breaks`` (K + 1, trials) is the log-LR at L, at the ends of its
    K monotone pieces and at R; ``thresholds`` (G,) are the values of c.
    ``crossing(g, k, t, up)`` returns, for each index triple, the point
    where piece k of trial t crosses threshold g, rising if ``up``. Returns
    one ``(P(llr > c), P(llr <= c))`` pair of (G, trials) arrays per law.

    Each crossing left of the law's mean enters as 1 - tail, so the
    integers sum apart from the tails and every tail keeps its digits. A
    log-LR that is NaN at a break makes that trial's values NaN.
    """
    above = llr_at_breaks > thresholds[:, None, None]
    steps = np.diff(above.astype(np.int8), axis=1)
    g, k, t = np.nonzero(steps)
    rise = steps[g, k, t]
    roots = crossing(g, k, t, rise > 0)
    broken = np.isnan(llr_at_breaks).any(axis=0)
    out = []
    for mu, sd in laws:
        z = (roots - mu) / sd
        left = z < 0
        jumps = np.zeros(steps.shape, dtype=np.int8)
        jumps[g, k, t] = rise * left
        tails = np.zeros(steps.shape)
        tails[g, k, t] = np.where(left, -rise, rise) * _upper_tail(z)
        above_mean = above[:, 0, :] + jumps.sum(axis=1)
        tail = tails.sum(axis=1)
        p_above = np.where(broken, np.nan, above_mean + tail)
        out.append((p_above, np.where(broken, np.nan, (1 - above_mean) - tail)))
    return out


def _span(laws) -> tuple[float, float]:
    """[L, R]: ``_RANGE_SDS`` standard deviations past both test laws."""
    return (min(mu - _RANGE_SDS * sd for mu, sd in laws),
            max(mu + _RANGE_SDS * sd for mu, sd in laws))


def _plugin_quadratic(theta):
    """(A, B, C) with plugin log-LR = A e^2 + B e + C; C is the log-LR at 0."""
    a = 0.5 * (theta.lambda2 - theta.lambda1)
    b = theta.lambda1 * theta.mu1 - theta.lambda2 * theta.mu2
    return a, b, plugin_log_lr_array(0.0, theta)


def _plugin_exceedance(theta, thresholds, laws):
    """``_exceedance`` of the plugin log-LR: two pieces split at the vertex,
    crossed at the roots of its quadratic."""
    lo, hi = _span(laws)
    a, b, c = _plugin_quadratic(theta)
    vertex = np.divide(-b, 2.0 * a, out=np.full(np.shape(a), hi), where=a != 0)
    breaks = np.stack([np.full(np.shape(a), lo), np.clip(vertex, lo, hi), np.full(np.shape(a), hi)])
    roots = np.stack(_quadratic_roots(a, b, c - thresholds[:, None]))
    return _exceedance(
        plugin_log_lr_array(breaks, theta), thresholds, lambda g, k, t, up: roots[k, g, t], laws
    )


def _log_t_slope(dist: StudentT, e):
    """d/de of ``student_t_log_density``: -(nu + 1) u / (nu scale^2 + u^2), u = e - location."""
    u = e - dist.location
    return -(dist.dof + 1.0) * u / (dist.dof * dist.scale**2 + u * u)


def _stationary_points(pred1: StudentT, pred2: StudentT) -> np.ndarray:
    """The real stationary points of the Bayesian log-LR, (3, trials), NaN
    where there are fewer than three.

    With k = nu + 1, D = nu scale^2 and u, w the score's offsets from the
    two locations, the slope vanishes where k1 u (D2 + w^2) = k2 w (D1 + u^2).
    About the midpoint of the locations, half their gap h apart, that is
    (k1 - k2) x^3 + (k1 + k2) h x^2 + (k1 (D2 - h^2) - k2 (D1 - h^2)) x
    - h (k1 (h^2 + D2) + k2 (h^2 + D1)) = 0, solved here in units of
    S = sqrt(h^2 + scale1^2 + scale2^2), where every coefficient is finite.
    A block shares the dofs, so it is a cubic for all of its trials or for
    none: equal dofs leave a quadratic.
    """
    k1, k2 = pred1.dof + 1.0, pred2.dof + 1.0
    half_gap = 0.5 * pred1.location - 0.5 * pred2.location
    unit = np.hypot(half_gap, np.hypot(pred1.scale, pred2.scale))
    h = half_gap / unit
    d1, d2 = (p.dof * (p.scale / unit) ** 2 for p in (pred1, pred2))
    coeffs = [
        (k1 + k2) * h,
        k1 * (d2 - h * h) - k2 * (d1 - h * h),
        -h * (k1 * (h * h + d2) + k2 * (h * h + d1)),
    ]
    if k1 == k2:
        y = np.stack([*_quadratic_roots(*coeffs), np.full(np.shape(h), np.nan)])
    else:
        companion = np.zeros((np.size(h), 3, 3))
        companion[:, 0, :] = -np.stack(coeffs, axis=1) / (k1 - k2)
        companion[:, 1, 0] = companion[:, 2, 1] = 1.0
        w = np.linalg.eigvals(companion).T
        y = np.where(w.imag == 0, w.real, np.nan)
    return 0.5 * pred1.location + 0.5 * pred2.location + unit * y


def _solve_monotone(f, slope, lo, hi, c, up):
    """x in [lo, hi] with f(x) = c, elementwise, for f monotone on each
    interval and crossing c there (rising if ``up``).

    Bisects ``_BISECTIONS`` times, then takes Newton steps, each replaced by
    the bracket's midpoint when it would leave the bracket. It stops once no
    step moves a point x by more than 1e-10 (1 + |x|): Newton's error after
    such a step is about its square, below the rounding of f itself.
    """
    below, over = np.where(up, lo, hi), np.where(up, hi, lo)  # f <= c, f > c
    for _ in range(_BISECTIONS):
        mid = 0.5 * (below + over)
        hit = f(mid) > c
        below, over = np.where(hit, below, mid), np.where(hit, mid, over)
    x = 0.5 * (below + over)
    for _ in range(_NEWTON_STEPS):
        gap = f(x) - c
        hit = gap > 0
        below, over = np.where(hit, below, x), np.where(hit, x, over)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - gap / slope(x)
        step = np.where((step - below) * (step - over) <= 0, step, 0.5 * (below + over))
        settled = np.all(np.abs(step - x) <= 1e-10 * (1.0 + np.abs(x)))
        x = step
        if settled:
            break
    return x


def _bayes_exceedance(preds, thresholds, laws):
    """``_exceedance`` of the Bayesian log-LR: pieces split at its
    stationary points inside [L, R], crossings solved by ``_solve_monotone``."""
    lo, hi = _span(laws)
    points = _stationary_points(*preds)
    points = np.sort(np.where((points > lo) & (points < hi), points, hi), axis=0)
    trials = points.shape[1]
    breaks = np.vstack([np.full(trials, lo), points, np.full(trials, hi)])

    def crossing(g, k, t, up):
        p1, p2 = (StudentT(p.location[t], p.scale[t], p.dof) for p in preds)
        return _solve_monotone(
            lambda x: bayes_log_lr_array(x, p1, p2),
            lambda x: _log_t_slope(p1, x) - _log_t_slope(p2, x),
            breaks[k, t], breaks[k + 1, t], thresholds[g], up,
        )

    return _exceedance(bayes_log_lr_array(breaks, *preds), thresholds, crossing, laws)


def _hermite_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w with E[f(X)] ~ sum w f(x) for X ~ N(0, 1).

    Imported here, so that the commands that take no mean load no
    ``numpy.polynomial``.
    """
    from numpy.polynomial.hermite_e import hermegauss

    nodes, weights = hermegauss(_HERMITE_NODES)
    return nodes, weights / math.sqrt(2.0 * math.pi)


def _mean_log_lrs(theta, preds, laws, rule) -> np.ndarray:
    """Each trial's mean log-LR per (method, law), (4, trials), plugin first.

    The plugin log-LR is A e^2 + B e + C, so its mean under N(mu, sd^2) is
    its value at mu plus A sd^2; the Bayesian mean is a sum over the
    Gauss-Hermite ``rule``.
    """
    a = _plugin_quadratic(theta)[0]
    nodes, weights = rule
    return np.stack(
        [plugin_log_lr_array(mu, theta) + a * (sd * sd) for mu, sd in laws]
        + [weights @ bayes_log_lr_array(mu + sd * nodes[:, None], *preds) for mu, sd in laws]
    )


def _errors_over_grid(calibration, grid: np.ndarray, laws) -> dict[LrMethod, np.ndarray]:
    """Each method's exact cost-weighted error of unit-cost Bayes decisions,
    pi1 * P(miss) + pi2 * P(false alarm), at every point of ``grid`` (rows)
    for each trial of a calibrated block (columns).

    Decisions compare the log-LR against the threshold -prior_log_odds (ties
    acquit); ``laws`` are the H1 and H2 test laws.
    """
    theta, preds = calibration
    pi1 = _logistic(grid)[:, None]
    errors = {}
    for method, exceedance in (
        (LrMethod.PLUGIN, _plugin_exceedance(theta, -grid, laws)),
        (LrMethod.BAYESIAN, _bayes_exceedance(preds, -grid, laws)),
    ):
        (_, miss), (false_alarm, _) = exceedance
        errors[method] = pi1 * miss + (1.0 - pi1) * false_alarm
    return errors


def run_experiment(
    gen: GeneratorConfig,
    exp: ExperimentConfig,
    prior: NormalGammaParams = NONINFORMATIVE_PRIOR,
    variance_floor: float = DEFAULT_VARIANCE_FLOOR,
) -> ErrorCurve:
    """Average both methods' exact error-rate curves over resampled backgrounds.

    Raises ValidationError if a rate is not finite, as a test law too wide
    for floating point makes it.
    """
    grid = np.asarray(exp.prior_grid, dtype=float)
    laws = [gen.test_law(h) for h in Hypothesis]
    blocks = _calibrated_blocks(gen, exp.n1, exp.n2, exp.trials, exp.seed, 0, prior, variance_floor)
    per_block = {method: [] for method in LrMethod}
    for calibration in blocks:
        for method, errors in _errors_over_grid(calibration, grid, laws).items():
            check_finite(**{f"error_{method.value}": errors})
            per_block[method].append(errors)
    plugin_mat, bayes_mat = (np.hstack(per_block[method]) for method in LrMethod)
    pi1 = _logistic(grid)
    se_plugin, se_bayes = (
        mat.std(axis=1, ddof=1) / math.sqrt(exp.trials) if exp.trials > 1 else np.zeros_like(grid)
        for mat in (plugin_mat, bayes_mat)
    )
    return ErrorCurve(
        prior_log_odds=grid,
        error_plugin=plugin_mat.mean(axis=1),
        error_bayes=bayes_mat.mean(axis=1),
        error_prior_only=np.minimum(pi1, 1.0 - pi1),
        stderr_plugin=se_plugin,
        stderr_bayes=se_bayes,
        trials_used=exp.trials,
        degenerate_trials=0,
    )


def check_confidence(sizes, trials: int, seed: int) -> list[tuple[int, int]]:
    """The checks ``confidence_curve`` makes before its first draw: at least
    one size, each with n1, n2 >= 2, trials >= 2 and seed >= 0. Returns the
    sizes as (int, int) pairs."""
    sizes = [(int(n1), int(n2)) for n1, n2 in sizes]
    if not sizes:
        raise ValidationError("sizes must not be empty")
    check_at_least(2, trials=trials)
    check_at_least(0, seed=seed)
    for n1, n2 in sizes:
        _check_size(n1, n2)
    return sizes


def confidence_curve(
    gen: GeneratorConfig,
    sizes,
    trials: int,
    seed: int,
    prior: NormalGammaParams = NONINFORMATIVE_PRIOR,
    variance_floor: float = DEFAULT_VARIANCE_FLOOR,
) -> tuple[ConfidencePoint, ...]:
    """Mean hypothesis-conditional log-LRs per method across background sizes.

    For each (n1, n2) size, averages each trial's exact E[log LR | H1] and
    E[log LR | H2] under the test law over ``trials`` resampled backgrounds.
    Every argument is checked before the first draw (``check_confidence``).
    Raises ValidationError if a mean or its standard error is not finite.
    """
    sizes = check_confidence(sizes, trials, seed)
    laws = [gen.test_law(h) for h in Hypothesis]
    rule = _hermite_rule()
    points: list[ConfidencePoint] = []
    for k, (n1, n2) in enumerate(sizes):
        blocks = _calibrated_blocks(gen, n1, n2, trials, seed, k, prior, variance_floor)
        # one row per (method, hypothesis), one column per trial
        trial_means = np.hstack([_mean_log_lrs(theta, preds, laws, rule) for theta, preds in blocks])
        for (method, hyp), vals in zip(product(LrMethod, Hypothesis), trial_means):
            mean, stderr = float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(trials))
            check_finite(mean_log_lr=mean, stderr=stderr)
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
    blocks = list(_calibrated_blocks(world, n1, n2, trials, seed, 0, prior, variance_floor))
    plugin_vals = np.concatenate([plugin_log_lr_array(e, theta) for theta, _ in blocks])
    bayes_vals = np.concatenate([bayes_log_lr_array(e, *preds) for _, preds in blocks])
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
