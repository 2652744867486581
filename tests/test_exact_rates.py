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
from numpy.polynomial.hermite_e import hermegauss
from scipy.special import expit

from bayescal import (
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
    run_experiment,
)
from bayescal import _erfc, experiment
from bayescal.conjugate import NONINFORMATIVE_PRIOR
from bayescal.errors import ConvergenceError
from bayescal.experiment import (
    DEFAULT_PRIOR_GRID,
    _BlockStats,
    _bayes_exceedance,
    _block_stats,
    _calibrated_blocks,
    _hermite_rule,
    _mean_log_lrs,
    _plugin_exceedance,
    _span,
    _stationary_points,
    _t_slope,
    _upper_tail,
)
from bayescal.scores import DEFAULT_VARIANCE_FLOOR, SufficientStats
from bayescal.synthetic import background_stats

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
    """Trial 0 of stream 0, as run_experiment draws it: its calibration as a
    one-trial block."""
    return next(
        _calibrated_blocks(world, n1, n2, 1, seed, 0, NONINFORMATIVE_PRIOR, DEFAULT_VARIANCE_FLOOR)
    )


class TestSamplingOracle:
    """At a fixed seed, the exact values sit within 4 standard errors of
    estimates from a million test scores per class."""

    @pytest.fixture(scope="class", params=sorted(WORLDS))
    def sampled(self, request):
        world, n1, n2 = WORLDS[request.param]
        seed = 17
        calibration = theta, preds = _single_trial(world, n1, n2, seed)
        rng = np.random.default_rng([seed, 99])
        tests = [
            generate_scores(world, hyp, N_SAMPLED, rng) * world.shift_scale + world.shift_location
            for hyp in Hypothesis
        ]
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


class TestHermiteRule:
    """The Gauss-Hermite mean against a trapezoid in x on the worst trial of
    the fig1 confidence run: seed 42, the 9/27 size (stream 0), trial 95,
    whose narrow H1 predictive puts log1p's branch points near the real axis."""

    TRIAL = 95

    @pytest.fixture(scope="class")
    def trial(self):
        world = GeneratorConfig()
        blocks = _calibrated_blocks(
            world, 9, 27, 200, 42, 0, NONINFORMATIVE_PRIOR, DEFAULT_VARIANCE_FLOOR
        )
        block, i = divmod(self.TRIAL, experiment._BLOCK)
        theta, preds = list(blocks)[block]
        laws = [world.test_law(h) for h in Hypothesis]
        # the trapezoid over +-40 test-law SDs: its error falls like
        # exp(-2 pi d / step), d ~ 1 the branch points' distance, so rounding is all
        mu, sd = laws[0]
        x = np.linspace(mu - 40.0 * sd, mu + 40.0 * sd, 2_001)
        p1, p2 = (StudentT(p.location[i], p.scale[i], p.dof) for p in preds)
        density = np.exp(-0.5 * ((x - mu) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
        weights = np.full(x.size, x[1] - x[0])
        weights[[0, -1]] *= 0.5
        reference = float(weights @ (bayes_log_lr_array(x, p1, p2) * density))
        return theta, preds, laws, i, reference

    @staticmethod
    def _bayes_h1_error(trial, rule):
        theta, preds, laws, i, reference = trial
        # rows: plugin H1, plugin H2, bayes H1, bayes H2
        return abs(_mean_log_lrs(theta, preds, laws, rule)[2, i] - reference)

    def test_matches_trapezoid(self, trial):
        assert self._bayes_h1_error(trial, _hermite_rule()) <= 1e-12

    def test_64_nodes_fail(self, trial):
        nodes, weights = hermegauss(64)
        assert self._bayes_h1_error(trial, (nodes, weights / math.sqrt(2.0 * math.pi))) > 1e-12

    def test_stored_rule_is_hermegauss(self):
        nodes, weights = hermegauss(experiment._HERMITE_NODES)
        stored_nodes, stored_weights = _hermite_rule()
        assert stored_nodes.size == experiment._HERMITE_NODES
        assert np.array_equal(stored_nodes, nodes)
        assert np.array_equal(stored_weights, weights / math.sqrt(2.0 * math.pi))


def _brute_force_exceedance(llr, c, laws, points=200_001, core=None):
    """P(llr > c) under each law from every sign change of llr - c on a dense
    grid over the solved range, and over the interval ``core`` too when one
    is given, each refined by scipy's brentq."""
    xs = np.linspace(*_span(laws), points)
    if core is not None:
        xs = np.union1d(xs, np.linspace(*core, points))
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
        slope1, slope2 = (
            _t_slope(points - p.location, p.dof, p.dof * p.scale**2) for p in (pred1, pred2)
        )
        np.testing.assert_allclose(slope1 - slope2, 0.0, atol=1e-14)
        thresholds = np.linspace(-8.0, 8.0, 33)
        exact = _bayes_exceedance((pred1, pred2), thresholds, DEFAULT_LAWS)
        for i, c in enumerate(thresholds):
            expected = _brute_force_exceedance(
                lambda x: bayes_log_lr_array(x, *scalar), c, DEFAULT_LAWS
            )
            for (p_above, _), p in zip(exact, expected):
                assert abs(p_above[i, 0] - p) <= 1e-14

    def test_small_dof_far_tail_crossings(self):
        # two scores per class, dof 2.02 each: a tight H1 class and a spread H2
        # class bound the log-LR below near -10.5 on the solved range, so at
        # c = -8, -9 and -10 it is crossed more than a hundred H1 scales out,
        # where Newton starts furthest from its root; wide test laws give
        # those crossings most of the mass
        stats = _BlockStats(collect_stats([0.2, 0.2002]), collect_stats([-20.0, 16.0]))
        scalar = class_predictives(stats, NONINFORMATIVE_PRIOR)
        preds = tuple(StudentT(_one(p.location), _one(p.scale), p.dof) for p in scalar)
        laws = [(0.0, 8.0), (-2.0, 12.0)]
        assert np.all(bayes_log_lr_array(np.array(_span(laws)), *scalar) < -10.0)
        thresholds = np.linspace(-12.0, 12.0, 25)
        exact = _bayes_exceedance(preds, thresholds, laws)
        for i, c in enumerate(thresholds):
            expected = _brute_force_exceedance(lambda x: bayes_log_lr_array(x, *scalar), c, laws)
            for (p_above, _), p in zip(exact, expected):
                assert abs(p_above[i, 0] - p) <= 1e-14

    @pytest.mark.parametrize("shift_scale", [1e5, 1e7])
    def test_test_law_far_wider_than_the_backgrounds(self, shift_scale):
        # fig1's backgrounds under a test law 1e5 or 1e7 times wider: the
        # solved range spans +-40 of its sd, but the crossings lie within a
        # few units of the origin, where six bisections would leave brackets
        # 1e4 wide and more; trials 0 and 3 have such crossings at 1e5
        world = GeneratorConfig(shift_scale=shift_scale)
        laws = [world.test_law(h) for h in Hypothesis]
        stats = next(_block_stats(world, 9, 27, 4, 0, 0))
        preds = class_predictives(stats, NONINFORMATIVE_PRIOR)
        exact = _bayes_exceedance(preds, -GRID, laws)
        for t in range(4):
            scalar = [StudentT(p.location[t].item(), p.scale[t].item(), p.dof) for p in preds]
            for i, c in enumerate(-GRID):
                expected = _brute_force_exceedance(
                    lambda x: bayes_log_lr_array(x, *scalar), c, laws, 50_001, (-100.0, 100.0)
                )
                for (p_above, _), p in zip(exact, expected):
                    assert abs(p_above[i, t] - p) <= 1e-14

    def test_unsettled_roots_raise(self, monkeypatch):
        # no root settles on its first Newton step
        monkeypatch.setattr(experiment, "_NEWTON_STEPS", 1)
        unsettled = r"^[1-9]\d* crossing\(s\) still moving after 1 Newton steps$"
        with pytest.raises(ConvergenceError, match=unsettled):
            run_experiment(GeneratorConfig(), ExperimentConfig(n1=9, n2=27, trials=5, seed=101))


class TestUpperTail:
    """``_upper_tail`` against ``math.erfc``, the C library's erfc, which is
    built on the same fdlibm approximations."""

    #: fdlibm's range boundaries in erfc's argument: 1/4 splits its first range
    BOUNDARIES = (0.25, 0.84375, 1.25, 1.0 / 0.35, _erfc.ONE_OVER_035, 28.0)

    @staticmethod
    def _reference(z):
        # at the argument _upper_tail rounds to: near z = 40, rounding
        # |z| / sqrt(2) apart moves the tail by up to 4e-13 relative
        return np.array([0.5 * math.erfc(x) for x in (np.abs(z) * math.sqrt(0.5)).tolist()])

    @classmethod
    def _check(cls, z):
        expected, got = cls._reference(z), _upper_tail(z)
        normal = expected > 1e-300
        np.testing.assert_allclose(got[normal], expected[normal], rtol=4e-15, atol=0.0)
        assert np.all(got[expected == 0.0] == 0.0)

    def test_dense_grid(self):
        z = np.linspace(0.0, 40.0, 400_001)
        self._check(z)
        self._check(-z[::97])

    def test_range_boundaries(self):
        z = np.array(self.BOUNDARIES) * math.sqrt(2.0)
        self._check(np.concatenate([z, np.nextafter(z, 0.0), np.nextafter(z, np.inf)]))

    def test_infinities_and_nan(self):
        got = _upper_tail(np.array([[np.inf, -np.inf], [np.nan, 0.0]]))
        assert got.shape == (2, 2)
        assert got[0].tolist() == [0.0, 0.0] and np.isnan(got[1, 0]) and got[1, 1] == 0.5


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


def _one_trial(stats, t):
    """Trial ``t`` of ``(h1_stats, h2_stats)`` with one element per trial,
    as a background of scalar stats."""
    h1, h2 = (SufficientStats(s.n, float(s.mean[t]), float(s.sum_sq_dev[t])) for s in stats)
    return _BlockStats(h1, h2)


class TestBlockSummary:
    def test_blocks_are_background_stats_in_trial_order(self):
        world = GeneratorConfig()
        whole = background_stats(world, 9, 4050, 137, 3, 1)
        blocks = list(_block_stats(world, 9, 4050, 137, 3, 1))
        sizes = [min(experiment._BLOCK, 137 - start) for start in range(0, 137, experiment._BLOCK)]
        assert [np.size(b.h1_stats.mean) for b in blocks] == sizes
        for block_field, whole_stats in zip(("h1_stats", "h2_stats"), whole):
            parts = [getattr(b, block_field) for b in blocks]
            assert {p.n for p in parts} == {whole_stats.n}
            for name in ("mean", "sum_sq_dev"):
                joined = np.concatenate([getattr(p, name) for p in parts])
                assert joined.tolist() == getattr(whole_stats, name).tolist()

    def test_block_calibration_is_each_trial_calibration(self):
        world = GeneratorConfig(mu2_true=-1.0, sigma1_true=2.0)
        stats = background_stats(world, 6, 11, 5, 21, 0)
        theta, (pred1, pred2) = next(
            _calibrated_blocks(world, 6, 11, 5, 21, 0, NONINFORMATIVE_PRIOR, 1e-3)
        )
        for t in range(5):
            trial = _one_trial(stats, t)
            one_theta = fit_plugin(trial, 1e-3)
            for field in ("mu1", "mu2", "lambda1", "lambda2"):
                assert getattr(theta, field)[t] == getattr(one_theta, field)
            for block, one in zip((pred1, pred2), class_predictives(trial, NONINFORMATIVE_PRIOR)):
                assert (block.location[t], block.scale[t], block.dof) == (
                    one.location, one.scale, one.dof
                )
