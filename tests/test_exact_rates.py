"""The exact error rates and mean log-LRs of the resampling experiments:
checked against a million sampled test scores, against independent root
finding, and for the shape every probability must have."""

import math

import numpy as np
import pytest
import scipy.optimize
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from bayescal import (
    BackgroundData,
    ExperimentConfig,
    GaussianParams,
    GeneratorConfig,
    Hypothesis,
    StudentT,
    bayes_log_lr_array,
    class_predictives,
    collect_stats,
    fit_plugin,
    generate_scores,
    plugin_log_lr_array,
    resample_backgrounds,
    run_experiment,
)
from bayescal.conjugate import NONINFORMATIVE_PRIOR
from bayescal.experiment import (
    DEFAULT_PRIOR_GRID,
    _bayes_exceedance,
    _calibrated_blocks,
    _hermite_rule,
    _log_t_slope,
    _mean_log_lrs,
    _plugin_exceedance,
    _span,
    _stationary_points,
)
from bayescal.scores import DEFAULT_VARIANCE_FLOOR

GRID = np.asarray(DEFAULT_PRIOR_GRID)
DEFAULT_LAWS = [GeneratorConfig().test_law(h) for h in Hypothesis]

#: (world, n1, n2): the fig1 and fig2 sizes, and fig1 under a shifted test law
WORLDS = {
    "fig1": (GeneratorConfig(), 9, 27),
    "fig2": (GeneratorConfig(), 30, 405),
    "shifted": (GeneratorConfig(shift_location=0.5, shift_scale=1.3), 9, 27),
}
N_SAMPLED = 10**6


def _one(value):
    return np.array([float(value)])


def _single_trial(world, n1, n2, seed):
    """Trial 0 of ``[seed, 0, 0]``, as run_experiment draws it: its background
    and its calibration as a one-trial block."""
    [(h1, h2)] = resample_backgrounds(world, n1, n2, 1, seed, 0)
    calibration = next(
        _calibrated_blocks(world, n1, n2, 1, seed, 0, NONINFORMATIVE_PRIOR, DEFAULT_VARIANCE_FLOOR)
    )
    return BackgroundData(h1, h2), calibration


class TestSamplingOracle:
    """At a fixed seed, the exact values sit within 4 standard errors of
    estimates from a million test scores per class."""

    @pytest.fixture(scope="class", params=sorted(WORLDS))
    def sampled(self, request):
        world, n1, n2 = WORLDS[request.param]
        seed = 17
        data, calibration = _single_trial(world, n1, n2, seed)
        rng = np.random.default_rng([seed, 99])
        tests = [
            generate_scores(world, hyp, N_SAMPLED, rng, test_set=True) for hyp in Hypothesis
        ]
        theta = fit_plugin(data)
        preds = class_predictives(data, NONINFORMATIVE_PRIOR)
        llrs = {
            "plugin": [plugin_log_lr_array(t, theta) for t in tests],
            "bayes": [bayes_log_lr_array(t, *preds) for t in tests],
        }
        laws = [world.test_law(h) for h in Hypothesis]
        return world, n1, n2, seed, calibration, llrs, laws

    def test_rates(self, sampled):
        world, n1, n2, seed, (theta, preds), llrs, laws = sampled
        exact = {
            "plugin": _plugin_exceedance(theta, -GRID, laws),
            "bayes": _bayes_exceedance(preds, -GRID, laws),
        }
        curve = run_experiment(world, ExperimentConfig(n1, n2, trials=1, seed=seed))
        pi1 = expit(GRID)
        for method, ((_, miss), (false_alarm, _)) in exact.items():
            for p_exact, scores, above in ((miss, llrs[method][0], False),
                                           (false_alarm, llrs[method][1], True)):
                p_exact = p_exact[:, 0]
                below = np.searchsorted(np.sort(scores), -GRID, side="right") / N_SAMPLED
                p_sampled = 1.0 - below if above else below
                se = np.sqrt(p_exact * (1.0 - p_exact) / N_SAMPLED)
                assert np.all(np.abs(p_sampled - p_exact) <= 4.0 * se), method
            # the curve of one trial is that trial's exact rate
            errors = pi1 * miss[:, 0] + (1.0 - pi1) * false_alarm[:, 0]
            np.testing.assert_allclose(
                getattr(curve, f"error_{method}"), errors, rtol=1e-12, atol=1e-300
            )

    def test_means(self, sampled):
        *_, (theta, preds), llrs, laws = sampled
        exact = _mean_log_lrs(theta, preds, laws, _hermite_rule())[:, 0]
        samples = [*llrs["plugin"], *llrs["bayes"]]
        for mean, scores in zip(exact, samples):
            se = scores.std() / math.sqrt(N_SAMPLED)
            assert abs(scores.mean() - mean) <= 4.0 * se


def _brute_force_exceedance(llr, c, laws, points=200_001):
    """P(llr > c) under each law from every sign change of llr - c on a dense
    grid over the solved range, each refined by scipy's brentq."""
    xs = np.linspace(*_span(laws), points)
    above = llr(xs) > c
    flips = np.flatnonzero(np.diff(above.astype(int)))
    roots = [scipy.optimize.brentq(lambda x: llr(x) - c, xs[i], xs[i + 1], xtol=1e-15)
             for i in flips]
    rising = [above[i + 1] for i in flips]
    return [
        float(above[0]) + sum((1 if up else -1) * scipy.stats.norm.sf(r, mu, sd)
                              for r, up in zip(roots, rising))
        for mu, sd in laws
    ]


class TestCrossingSolver:
    def test_linear_plugin_case(self):
        # equal precisions: llr = 0.5 * 2 * ((e + 1)^2 - (e - 1)^2) = 4e, one rising crossing
        theta = GaussianParams(_one(1.0), _one(-1.0), _one(2.0), _one(2.0))
        laws = [(0.3, 1.7), (-2.0, 0.4)]
        for (p_above, p_below), (mu, sd) in zip(_plugin_exceedance(theta, -GRID, laws), laws):
            expected = scipy.stats.norm.sf(-GRID / 4.0, mu, sd)
            np.testing.assert_allclose(p_above[:, 0], expected, rtol=1e-13, atol=1e-300)
            np.testing.assert_allclose(
                p_below[:, 0], scipy.stats.norm.cdf(-GRID / 4.0, mu, sd), rtol=1e-13, atol=1e-300
            )

    def test_no_crossing(self):
        # equal dofs bound the Bayesian log-LR; a narrower H1 bounds the plugin one above
        preds = (StudentT(_one(1.0), _one(1.0), 5.0), StudentT(_one(-1.0), _one(1.5), 5.0))
        theta = GaussianParams(_one(1.0), _one(-1.0), _one(2.0), _one(0.5))
        xs = np.linspace(*_span(DEFAULT_LAWS), 100_001)
        top = max(bayes_log_lr_array(xs, *preds).max(), plugin_log_lr_array(xs, theta).max())
        bottom = bayes_log_lr_array(xs, *preds).min()
        for result in (_bayes_exceedance(preds, np.array([top + 1.0]), DEFAULT_LAWS),
                       _plugin_exceedance(theta, np.array([top + 1.0]), DEFAULT_LAWS)):
            for p_above, p_below in result:
                assert (p_above[0, 0], p_below[0, 0]) == (0.0, 1.0)
        for p_above, p_below in _bayes_exceedance(preds, np.array([bottom - 1.0]), DEFAULT_LAWS):
            assert (p_above[0, 0], p_below[0, 0]) == (1.0, 0.0)

    def test_three_stationary_points(self):
        scalar = StudentT(2.0, 0.8, 11.0), StudentT(-2.0, 1.5, 29.0)
        pred1, pred2 = (StudentT(_one(p.location), _one(p.scale), p.dof) for p in scalar)
        points = _stationary_points(pred1, pred2)[:, 0]
        lo, hi = _span(DEFAULT_LAWS)
        assert np.all(np.isfinite(points)) and np.all((lo < points) & (points < hi))
        np.testing.assert_allclose(
            _log_t_slope(pred1, points) - _log_t_slope(pred2, points), 0.0, atol=1e-14
        )
        thresholds = np.linspace(-8.0, 8.0, 33)
        exact = _bayes_exceedance((pred1, pred2), thresholds, DEFAULT_LAWS)
        for i, c in enumerate(thresholds):
            expected = _brute_force_exceedance(
                lambda x: bayes_log_lr_array(x, *scalar), c, DEFAULT_LAWS
            )
            for (p_above, _), p in zip(exact, expected):
                assert abs(p_above[i, 0] - p) <= 1e-14


@settings(max_examples=40, deadline=None)
@given(
    n1=st.integers(2, 40),
    n2=st.integers(2, 40),
    seed=st.integers(0, 2**31),
    shift_location=st.floats(-3.0, 3.0),
    shift_scale=st.floats(0.2, 5.0),
)
def test_probability_below_is_a_cdf_in_the_threshold(n1, n2, seed, shift_location, shift_scale):
    """P(llr <= c) lies in [0, 1] and never decreases as c grows, for both
    methods under both test laws."""
    world = GeneratorConfig(shift_location=shift_location, shift_scale=shift_scale)
    laws = [world.test_law(h) for h in Hypothesis]
    thresholds = np.linspace(-30.0, 30.0, 241)
    theta, preds = next(
        _calibrated_blocks(world, n1, n2, 4, seed, 0, NONINFORMATIVE_PRIOR, DEFAULT_VARIANCE_FLOOR)
    )
    for result in (_plugin_exceedance(theta, thresholds, laws),
                   _bayes_exceedance(preds, thresholds, laws)):
        for _, p_below in result:
            assert np.all((0.0 <= p_below) & (p_below <= 1.0))
            assert np.all(np.diff(p_below, axis=0) >= 0.0)


class TestBlockSummary:
    def test_block_stats_are_collect_stats_of_each_trial(self):
        draws = list(resample_backgrounds(GeneratorConfig(), 9, 4050, 7, 3, 1))
        for cls, rows in enumerate(zip(*draws)):
            block = collect_stats(np.array(rows))
            assert block.n == len(rows[0])
            for t, row in enumerate(rows):
                one = collect_stats(row)
                assert (block.mean[t], block.sum_sq_dev[t]) == (one.mean, one.sum_sq_dev), (cls, t)

    def test_block_calibration_is_each_trial_calibration(self):
        world = GeneratorConfig(mu2_true=-1.0, sigma1_true=2.0)
        draws = list(resample_backgrounds(world, 6, 11, 5, 21, 0))
        theta, (pred1, pred2) = next(
            _calibrated_blocks(world, 6, 11, 5, 21, 0, NONINFORMATIVE_PRIOR, 1e-3)
        )
        for t, (h1, h2) in enumerate(draws):
            data = BackgroundData(h1, h2)
            one_theta = fit_plugin(data, 1e-3)
            for field in ("mu1", "mu2", "lambda1", "lambda2"):
                assert getattr(theta, field)[t] == getattr(one_theta, field)
            for block, one in zip((pred1, pred2), class_predictives(data, NONINFORMATIVE_PRIOR)):
                assert (block.location[t], block.scale[t], block.dof) == (
                    one.location, one.scale, one.dof
                )
