"""Resampling experiments: error-rate curves, confidence-vs-data-size tables,
and the spread-summary demo.

Each trial draws a fresh small background database and calibrates it both
ways, which reads it only through each class's count, mean and summed
squared deviation: ``synthetic.background_stats`` draws those, not scores,
from their exact laws, with trial t of stream k the t-th draw of generators
seeded from ``[seed, k]``. The curves then take each trial's exact
expectation under the generator's known test law (``GeneratorConfig.test_law``):
the cost-weighted error rate of the induced decisions over a grid of prior
log-odds, or the mean log-LR. No test set is drawn. One loop, ``_block_stats``,
hands the trials out ``_BLOCK`` at a time, as arrays with one element per
trial, and a trial's numbers do not depend on its block. All three
experiments here, and the peak-only pitfall of ``verification``, read it.
Each of the three refuses a result that is not finite, so it computes under
``np.errstate(all="ignore")``, whatever its caller's state, and restores it.

Exact rates. Deciding at prior log-odds g convicts iff the log-LR exceeds
c = -g. On [L, R], which holds all but 1e-300 of either test law's mass,
each log-LR splits into at most four monotone pieces: the plugin log-LR is
a quadratic, and the Bayesian one has at most three stationary points, the
real roots of a cubic. A piece whose ends lie on both sides of c crosses it
once, at a root r, so under N(mu, sd^2)

    P(llr > c) = [llr(L) > c] + sum over crossings of +-sf((r - mu) / sd),

with + where the log-LR rises through c and - where it falls. A Bayesian
root is bisected, then finished by bracketed Newton steps; the thresholds
that cross one piece, about 32 of fig1's 41, share its first bisections, so
each of those midpoints' log-LR is evaluated once, and only further levels
run per crossing.
"""

from __future__ import annotations

import math
from itertools import product
from typing import NamedTuple

from ._numpy import np
from ._record import record
from .conjugate import (
    NONINFORMATIVE_PRIOR,
    NormalGammaParams,
    StudentT,
    _t_log_density,
    _t_log_normaliser,
)
from .errors import ConvergenceError, ValidationError, check_at_least, check_finite, check_positive
from .lr import LrMethod, bayes_log_lr_array, class_predictives, plugin_log_lr_array
from .scores import (
    DEFAULT_VARIANCE_FLOOR,
    Hypothesis,
    SufficientStats,
    fit_plugin,
)
from .synthetic import (
    DEFAULT_PRIOR_GRID, ConfidenceConfig, ExperimentConfig, GeneratorConfig, background_stats,
)

#: Trials solved together. Larger blocks spread numpy's per-call cost
#: further but raise the peak memory: fig1 ``simulate`` peaks at 39.1 MB
#: with 50, 39.5 MB with 100, 41.6 MB with 200 and 57.1 MB with all 1000
#: trials in one block.
_BLOCK = 100

#: The solved range reaches this many test-law standard deviations past
#: either class mean; the normal mass beyond it, 4e-350, underflows to 0.
_RANGE_SDS = 40.0

#: Bisection steps before Newton's, at least: fig1's solved range, 84
#: test-law sd wide, shrinks to 1.3 sd, and bracketed Newton does the rest.
#: They are the depth of each crossed piece's shared tree, 63 log-LR
#: evaluations however many thresholds cross it: fig1 makes 135 198 of them,
#: and 266 140 in Newton steps. With none, two fig1 roots still move after 60
#: Newton steps. A wider range bisects further, per crossing (``_bayes_exceedance``).
_BISECTIONS = 6

#: Newton steps at most; each stays inside the bracket, or bisects. The most
#: any root takes is 10 on fig1, 9 on fig2 and 12 on 2 000 two-score
#: backgrounds at 241 thresholds, so a root still moving after 20 is a
#: failed solve, and it raises.
_NEWTON_STEPS = 20

#: Gauss-Hermite nodes for a mean Bayesian log-LR. A narrow H1 predictive
#: puts log1p's branch points near the real axis, where the rule converges
#: slowly: on the worst trial of the fig1 confidence run (seed 42, 9/27,
#: trial 95, H1 law) the error against 30-digit mpmath quadrature is 1.1e-6
#: at 64 nodes, 1.4e-9 at 128 and 2.7e-13 at 256. The tier-1 test checks
#: that trial against a float trapezoid in x whose error is about 1e-13,
#: hence its 1e-12 bound. ``hermegauss(384)`` overflows (its smallest weight
#: is 1e-299 at 360), so 256 is also near the ceiling. The rule is stored in
#: ``_hermite_table``, and a test checks it against ``hermegauss`` bit for bit.
_HERMITE_NODES = 256


@record
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


@record
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


def _block_stats(gen, n1, n2, trials, seed, stream):
    """The resampled backgrounds of ``stream``, a block at a time: yields
    each block's ``_BlockStats``, one element per trial of the block.

    Every trial at one size has the same class counts, so a plugin fit
    fails for all of them or for none: n1 and n2 must be >= 2, checked
    before the first draw.
    """
    check_at_least(2, n1=n1, n2=n2)
    stats = background_stats(gen, n1, n2, trials, seed, stream)
    for start in range(0, trials, _BLOCK):
        rows = slice(start, start + _BLOCK)
        yield _BlockStats(*(SufficientStats(s.n, s.mean[rows], s.sum_sq_dev[rows]) for s in stats))


def _calibrated_blocks(gen, n1, n2, trials, seed, stream, prior, variance_floor):
    """``_block_stats`` calibrated both ways: yields ``(plugin fit, (pred1,
    pred2))`` whose parameters are arrays with one element per trial of the
    block. Checks the floor, as ``_block_stats`` the size, before any draw."""
    check_positive(variance_floor=variance_floor)
    for stats in _block_stats(gen, n1, n2, trials, seed, stream):
        yield fit_plugin(stats, variance_floor), class_predictives(stats, prior)


def _upper_tail(z: np.ndarray) -> np.ndarray:
    """The standard normal mass beyond |z|, per element: erfc(|z| / sqrt(2)) / 2.

    erfc is ``_erfc.erfc``, fdlibm's, which the C library's ``erfc`` is
    built on, vectorized. Against Python's erfc, the C library's, it is
    within 1.7e-15 relative and 5.6e-17 absolute on every tail of a fig1
    run, and within 4e-15 relative on [0, 40] wherever the tail is above
    1e-300; where that erfc underflows to 0 it gives 0. Each element's value
    depends on that element alone.
    """
    from ._erfc import erfc

    return 0.5 * erfc(np.abs(z).ravel() * math.sqrt(0.5)).reshape(np.shape(z))


def _spread(values: np.ndarray) -> np.ndarray:
    """The sample standard deviation (ddof 1) along the last axis, 0 for one
    value. Each row is scaled by the power of two above its largest |value|,
    which is exact, so deviations of order 1e200 square without overflow, and
    the result is the plain one's bit for bit where that does not over- or
    underflow."""
    if values.shape[-1] < 2:
        return np.zeros(values.shape[:-1])
    exponent = np.frexp(np.abs(values).max(axis=-1, keepdims=True))[1]
    return np.ldexp(np.ldexp(values, -exponent).std(axis=-1, ddof=1), exponent[..., 0])


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

    Each crossing adds its jump and its signed tail straight into its
    (threshold, trial) cell, in crossing order, which is piece order within
    a cell. A crossing left of the law's mean enters as 1 - tail, so the
    integers sum apart from the tails and every tail keeps its digits. A
    log-LR that is NaN at a break makes that trial's values NaN, and its
    crossings are not solved. Both laws' tails come from one ``_upper_tail``
    call.
    """
    above = llr_at_breaks > thresholds[:, None, None]
    steps = np.diff(above.astype(np.int8), axis=1)
    broken = np.isnan(llr_at_breaks).any(axis=0)
    steps[:, :, broken] = 0
    g, k, t = np.nonzero(steps)
    rise = steps[g, k, t]
    roots = crossing(g, k, t, rise > 0)
    n_thresholds, _, trials = steps.shape
    cells = g * trials + t
    mus, sds = np.array(laws, dtype=float).T[:, :, None]
    offsets = (roots - mus) / sds  # one row per law
    out = []
    for z, upper_tail in zip(offsets, _upper_tail(offsets)):
        left = z < 0
        jumps, tail = (
            np.bincount(cells, w, n_thresholds * trials).reshape(n_thresholds, trials)
            for w in (rise * left, np.where(left, -rise, rise) * upper_tail)
        )
        above_mean = above[:, 0, :] + jumps
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


def _t_slope(u, nu, spread):
    """d/de of ``student_t_log_density`` at offsets u = e - location, given
    spread = nu scale^2: -(nu + 1) u / (spread + u^2)."""
    return -(nu + 1.0) * u / (spread + u * u)


def _half_gap_and_unit(pred1: StudentT, pred2: StudentT):
    """Per trial, half the gap h of the locations and S = sqrt(h^2 + scale1^2
    + scale2^2), the unit in which the Bayesian log-LR bends."""
    half_gap = 0.5 * pred1.location - 0.5 * pred2.location
    return half_gap, np.hypot(half_gap, np.hypot(pred1.scale, pred2.scale))


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
    half_gap, unit = _half_gap_and_unit(pred1, pred2)
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


def _tree_brackets(f, params, lo, hi, piece, c, up):
    """Each crossing's bracket (below, over), f <= c at below and f > c at
    over, after ``_BISECTIONS`` bisections of piece p = ``piece[j]``, [lo[p],
    hi[p]]: ``params`` hold one element per piece, ``c`` and ``up`` one per
    crossing. The midpoints, each 0.5 * (left + right) as a crossing's own
    bisection forms it (IEEE addition commutes), are evaluated once per piece,
    and each crossing walks down them to its own bisections' bracket, bit for bit."""
    leaves = 2**_BISECTIONS
    edges = np.empty((lo.size, leaves + 1))  # level d fills every 2^(B - d)-th column
    edges[:, 0], edges[:, -1] = lo, hi
    for level in range(_BISECTIONS):
        gap = leaves >> level
        edges[:, gap // 2::gap] = 0.5 * (edges[:, :-1:gap] + edges[:, gap::gap])
    values = np.empty_like(edges)  # f at each midpoint, under it in edges
    values[:, 1:-1] = f(edges[:, 1:-1], *(p[:, None] for p in params))
    at = piece * (leaves + 1)  # each bracket's left end, a flat index of edges
    for level in range(_BISECTIONS):
        half = leaves >> (level + 1)
        at += half * ((values.ravel()[at + half] > c) != up)
    return edges.ravel()[at + ~up], edges.ravel()[at + up]


def _solve_monotone(f, slope, params, below, over, c, bisections):
    """x with f(x) = c, elementwise, for f monotone between below, where
    f <= c, and over, where f > c, as ``_tree_brackets`` leaves them.

    ``f(x, *params)`` and ``slope(x, *params)`` evaluate at x, where each
    of the arrays ``params`` holds one element per point. Bisects
    ``bisections`` times, then takes Newton steps, each replaced by the
    bracket's midpoint when it would leave the bracket. A point stays where
    its first step of at most 1e-10 (1 + |x|) put it: Newton's error after
    such a step is about its square, below the rounding of f itself. A NaN
    point, from a NaN log-LR, stays NaN. Only the points still moving take
    the next step, gathered by their indices when some have stopped, so no
    point depends on the others. Raises ConvergenceError, with their count,
    if points are still moving after ``_NEWTON_STEPS`` steps.
    """
    for _ in range(bisections):
        mid = 0.5 * (below + over)
        hit = f(mid, *params) > c
        np.putmask(over, hit, mid)
        np.putmask(below, ~hit, mid)
    x = 0.5 * (below + over)
    rows, now = np.arange(x.size), x
    for _ in range(_NEWTON_STEPS):
        gap = f(now, *params) - c
        hit = gap > 0
        below, over = np.where(hit, below, now), np.where(hit, now, over)
        step = now - gap / slope(now, *params)
        step = np.where((step - below) * (step - over) <= 0, step, 0.5 * (below + over))
        moving = np.flatnonzero(np.abs(step - now) > 1e-10 * (1.0 + np.abs(now)))
        x[rows] = step
        if not moving.size:
            return x
        if moving.size < rows.size:
            rows, step, c, below, over = (a[moving] for a in (rows, step, c, below, over))
            params = [p[moving] for p in params]
        now = step
    raise ConvergenceError(
        f"{rows.size} crossing(s) still moving after {_NEWTON_STEPS} Newton steps"
    )


def _bayes_exceedance(preds, thresholds, laws):
    """``_exceedance`` of the Bayesian log-LR: pieces split at its
    stationary points inside [L, R], crossings bracketed by their piece's
    shared tree (``_tree_brackets``) and solved by ``_solve_monotone``.
    The crossings lie within a few units S of the locations however wide the
    test law, so the brackets are bisected to below the block's least S:
    e bisections, for ``frexp``'s least e with ratio < 2^e (0 if the ratio is
    not finite), and at least ``_BISECTIONS``. fig1 and fig2 take 6, all in
    the tree; fig1 with ``--shift-scale 1e7`` 29, 23 of them per crossing."""
    lo, hi = _span(laws)
    ratio = (hi - lo) / _half_gap_and_unit(*preds)[1].min()
    bisections = max(_BISECTIONS, math.frexp(ratio)[1])
    points = _stationary_points(*preds)
    points = np.sort(np.where((points > lo) & (points < hi), points, hi), axis=0)
    trials = points.shape[1]
    breaks = np.vstack([np.full(trials, lo), points, np.full(trials, hi)])
    nu1, nu2 = (p.dof for p in preds)
    # per trial, each predictive's location, scale, log normaliser and nu scale^2
    constants = [
        a for p in preds for a in (p.location, p.scale, _t_log_normaliser(p), p.dof * p.scale**2)
    ]

    def log_lr(x, loc1, scale1, norm1, spread1, loc2, scale2, norm2, spread2):
        d1 = _t_log_density((x - loc1) / scale1, norm1, nu1)
        return d1 - _t_log_density((x - loc2) / scale2, norm2, nu2)

    def slope(x, loc1, scale1, norm1, spread1, loc2, scale2, norm2, spread2):
        return _t_slope(x - loc1, nu1, spread1) - _t_slope(x - loc2, nu2, spread2)

    def crossing(g, k, t, up):
        cell, crossed = k * trials + t, np.zeros(breaks.size, dtype=bool)  # pieces by left end
        crossed[cell] = True
        pieces, ends, c = np.flatnonzero(crossed), breaks.ravel(), thresholds[g]
        below, over = _tree_brackets(
            log_lr, [a[pieces % trials] for a in constants], ends[pieces],
            ends[pieces + trials], np.cumsum(crossed)[cell] - 1, c, up,
        )
        return _solve_monotone(
            log_lr, slope, [a[t] for a in constants], below, over, c, bisections - _BISECTIONS
        )

    return _exceedance(bayes_log_lr_array(breaks, *preds), thresholds, crossing, laws)


def _hermite_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w with E[f(X)] ~ sum w f(x) for X ~ N(0, 1): the
    stored ``_HERMITE_NODES``-node rule, mirrored from its positive half."""
    from ._hermite_table import NODES, WEIGHTS

    nodes, weights = np.array(NODES), np.array(WEIGHTS)
    return np.concatenate([-nodes[::-1], nodes]), np.concatenate([weights[::-1], weights])


def _mean_log_lrs(theta, preds, laws, rule) -> np.ndarray:
    """Each trial's mean log-LR per (method, law), (4, trials), plugin first.

    The plugin log-LR is A e^2 + B e + C, so its mean under N(mu, sd^2) is
    its value at mu plus A sd^2; the Bayesian mean is a sum over the
    Gauss-Hermite ``rule``, summed along one contiguous row per trial: in
    the same order whatever the block, as a BLAS product's is not.
    """
    a = _plugin_quadratic(theta)[0]
    nodes, weights = rule
    rows = [StudentT(p.location[:, None], p.scale[:, None], p.dof) for p in preds]
    return np.stack(
        [plugin_log_lr_array(mu, theta) + a * (sd * sd) for mu, sd in laws]
        + [(bayes_log_lr_array(mu + sd * nodes, *rows) * weights).sum(axis=1) for mu, sd in laws]
    )


def _errors_over_grid(calibration, grid: np.ndarray, laws) -> np.ndarray:
    """Both methods' exact cost-weighted error of unit-cost Bayes decisions,
    pi1 * P(miss) + pi2 * P(false alarm), (2, len(grid), trials): plugin
    first, in ``LrMethod`` order, then one row per point of ``grid`` and one
    column per trial of a calibrated block.

    Decisions compare the log-LR against the threshold -prior_log_odds (ties
    acquit); ``laws`` are the H1 and H2 test laws.
    """
    theta, preds = calibration
    pi1 = _logistic(grid)[:, None]
    exceedances = (_plugin_exceedance(theta, -grid, laws), _bayes_exceedance(preds, -grid, laws))
    rates = [pi1 * miss + (1.0 - pi1) * false_alarm for (_, miss), (false_alarm, _) in exceedances]
    return np.stack(rates)


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
    with np.errstate(all="ignore"):
        errors = np.concatenate([_errors_over_grid(c, grid, laws) for c in blocks], axis=-1)
        check_finite(error_plugin=errors[0], error_bayes=errors[1])
        # _spread per method: one call over both raises fig1 simulate's peak RSS by 0.6 MB
        means, stderrs = errors.mean(axis=-1), [_spread(m) / math.sqrt(exp.trials) for m in errors]
        pi1 = _logistic(grid)
    return ErrorCurve(
        prior_log_odds=grid,
        error_plugin=means[0],
        error_bayes=means[1],
        error_prior_only=np.minimum(pi1, 1.0 - pi1),
        stderr_plugin=stderrs[0],
        stderr_bayes=stderrs[1],
        trials_used=exp.trials,
        degenerate_trials=0,
    )


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
    ``sizes``, ``trials`` and ``seed`` are checked as a ``ConfidenceConfig``
    before the first draw. Raises ValidationError if a mean or its standard
    error is not finite.
    """
    sizes = ConfidenceConfig(sizes, trials, seed).sizes
    laws = [gen.test_law(h) for h in Hypothesis]
    rule = _hermite_rule()
    points: list[ConfidencePoint] = []
    with np.errstate(all="ignore"):
        for k, (n1, n2) in enumerate(sizes):
            blocks = _calibrated_blocks(gen, n1, n2, trials, seed, k, prior, variance_floor)
            # one row per (method, hypothesis), one column per trial
            trial_means = np.hstack([_mean_log_lrs(*calibration, laws, rule) for calibration in blocks])
            means, stderrs = trial_means.mean(axis=-1), _spread(trial_means) / math.sqrt(trials)
            check_finite(mean_log_lr=means, stderr=stderrs)
            for (method, hyp), mean, stderr in zip(product(LrMethod, Hypothesis), means, stderrs):
                points.append(ConfidencePoint(n1, n2, method, hyp, float(mean), float(stderr)))
    return tuple(points)


@record
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
    with np.errstate(all="ignore"):
        blocks = _calibrated_blocks(world, n1, n2, trials, seed, 0, prior, variance_floor)
        plugin_vals, bayes_vals = np.hstack(
            [(plugin_log_lr_array(e, theta), bayes_log_lr_array(e, *preds)) for theta, preds in blocks]
        )
        mu, sigma = float(plugin_vals.mean()), float(_spread(plugin_vals))
        summary = (mu, sigma, float(bayes_vals.mean()))
    if not all(map(math.isfinite, summary)):
        raise ValidationError(f"log-LRs at score {e!r} are not finite: mu={mu!r}, sigma={sigma!r}")
    return LrDistributionReport(mu, sigma, plugin_vals, bayes_vals)
