"""Likelihood-ratio operations, decisions, and the decomposition identity."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayescal import (
    BackgroundData,
    Decision,
    DecisionPolicy,
    GaussianParams,
    GeneratorConfig,
    Hypothesis,
    LogLR,
    LrMethod,
    StudentT,
    TrialPrior,
    ValidationError,
    bayes_log_lr,
    bayes_log_lr_array,
    class_predictives,
    decide,
    decomposition_residual,
    fit_plugin,
    generate_scores,
    lr_distribution_demo,
    plugin_log_lr,
    plugin_log_lr_array,
    posterior_log_odds,
    sample_params,
    posterior_update,
    collect_stats,
    replace,
)
from bayescal.conjugate import NONINFORMATIVE_PRIOR
from bayescal.scores import DEFAULT_VARIANCE_FLOOR

MIRROR_DATA = BackgroundData((1.0, 2.0, 3.0), (-3.0, -2.0, -1.0))

# Bayesian log-LR at e=2 for MIRROR_DATA under the default prior; frozen from
# the quadrature oracle (the same number is re-derived independently in the
# verification tests).
MIRROR_BAYES_LLR_AT_2 = 3.8562625009049327

small_datasets = st.builds(
    BackgroundData,
    st.lists(st.floats(min_value=-50, max_value=50), min_size=0, max_size=10).map(tuple),
    st.lists(st.floats(min_value=-50, max_value=50), min_size=0, max_size=10).map(tuple),
)


class TestPluginLogLr:
    def test_symmetric_midpoint_is_zero(self):
        llr = plugin_log_lr(0.0, GaussianParams(1.0, -1.0, 1.0, 1.0))
        assert llr.value == 0.0
        assert llr.method is LrMethod.PLUGIN

    def test_hand_evaluated(self):
        assert plugin_log_lr(1.0, GaussianParams(1.0, -1.0, 1.0, 1.0)).value == 2.0

    def test_equal_precisions_make_llr_linear(self):
        theta = GaussianParams(1.5, -0.5, 2.0, 2.0)
        slope = theta.lambda1 * (theta.mu1 - theta.mu2)
        e = np.array([-1.0, 0.0, 3.0])
        values = plugin_log_lr_array(e, theta)
        diffs = np.diff(values) / np.diff(e)
        np.testing.assert_allclose(diffs, slope, rtol=1e-12)


class TestBayesLogLr:
    def test_identical_training_lists_give_zero(self):
        data = BackgroundData((0.3, 1.2, -0.5), (0.3, 1.2, -0.5))
        assert bayes_log_lr(4.2, data).value == 0.0

    def test_mirror_symmetry_at_zero(self):
        assert bayes_log_lr(0.0, MIRROR_DATA).value == 0.0

    def test_frozen_value_and_plugin_bound(self):
        value = bayes_log_lr(2.0, MIRROR_DATA).value
        assert math.isclose(value, MIRROR_BAYES_LLR_AT_2, rel_tol=1e-12)
        plugin = plugin_log_lr(2.0, fit_plugin(MIRROR_DATA)).value
        assert 0.0 < value < plugin

    def test_tolerates_empty_classes(self):
        data = BackgroundData((), ())
        assert bayes_log_lr(1.0, data).value == 0.0

    @given(small_datasets, st.floats(min_value=-20, max_value=20))
    @settings(max_examples=50)
    def test_antisymmetric_under_class_swap(self, data, e):
        forward = bayes_log_lr(e, data).value
        backward = bayes_log_lr(e, BackgroundData(data.h2_scores, data.h1_scores)).value
        assert abs(forward + backward) < 1e-10

    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=10),
        st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=10),
        st.floats(min_value=-1e6, max_value=1e6),
    )
    @settings(max_examples=100)
    def test_class_swap_negates_both_log_lrs_exactly(self, h1, h2, e):
        """Each log-LR is a difference of two per-class terms, and IEEE
        subtraction is antisymmetric: a - b == -(b - a) bit for bit."""
        data = BackgroundData(tuple(h1), tuple(h2))
        swapped = BackgroundData(data.h2_scores, data.h1_scores)
        assert bayes_log_lr(e, swapped).value == -bayes_log_lr(e, data).value
        plugin = plugin_log_lr(e, fit_plugin(data)).value
        assert plugin_log_lr(e, fit_plugin(swapped)).value == -plugin

    def test_monotone_where_curvatures_allow(self):
        """With equal dof and scale, the log-LR rises in e near the locations.

        The t-ratio is only monotone while (e-l1)(e-l2) <= dof*scale^2;
        beyond that the heavy tails bend it back toward zero, so the check
        stays inside the analytic region.
        """
        pred1 = StudentT(2.0, 1.1, 24.0)
        pred2 = StudentT(-2.0, 1.1, 24.0)
        mid = 0.5 * (pred1.location + pred2.location)
        half_gap = 0.5 * (pred1.location - pred2.location)
        radius = 0.98 * math.sqrt(pred1.dof * pred1.scale**2 + half_gap**2)
        e = np.linspace(mid - radius, mid + radius, 301)
        values = bayes_log_lr_array(e, pred1, pred2)
        assert np.all(np.diff(values) > 0)

    def test_tail_moderation_versus_plugin(self):
        rng = np.random.default_rng(3)
        world = GeneratorConfig()
        data = BackgroundData(rng.normal(2, 1, 200), rng.normal(-2, 1, 200))
        theta = fit_plugin(data)
        pred1, pred2 = class_predictives(data, NONINFORMATIVE_PRIOR)
        pooled = np.concatenate([data.h1_scores, data.h2_scores])
        std = pooled.std()
        hi, lo = pooled.max() + 5 * std, pooled.min() - 5 * std
        e = np.concatenate([np.linspace(lo - 3 * std, lo, 25), np.linspace(hi, hi + 3 * std, 25)])
        assert np.all(
            np.abs(bayes_log_lr_array(e, pred1, pred2))
            < np.abs(plugin_log_lr_array(e, theta))
        )


def test_each_background_is_summarized_once(monkeypatch):
    """Construction computes both classes' stats; fitting and scoring reuse them."""
    calls = []

    def recording(scores):
        calls.append(len(scores))
        return collect_stats(scores)

    for name, module in list(sys.modules.items()):
        if name.startswith("bayescal") and vars(module).get("collect_stats") is collect_stats:
            monkeypatch.setattr(module, "collect_stats", recording)
    data = BackgroundData((1.0, 2.5, 3.0), (-3.0, -2.0, -1.0, 0.5))
    fit_plugin(data)
    class_predictives(data, NONINFORMATIVE_PRIOR)
    bayes_log_lr(0.5, data)
    assert calls == [3, 4]


def _background(seed, n1, n2):
    """n1 H1 and n2 H2 scores of the default world, drawn in that order
    from one generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    world = GeneratorConfig()
    return (generate_scores(world, Hypothesis.H1, n1, rng),
            generate_scores(world, Hypothesis.H2, n2, rng))


def _log_lrs(h1, h2, e, mu0=NONINFORMATIVE_PRIOR.mu0, b=NONINFORMATIVE_PRIOR.b,
             floor=DEFAULT_VARIANCE_FLOOR):
    """(Bayesian, plugin) log-LR of ``e``; the default prior with ``mu0`` and ``b``."""
    data = BackgroundData(h1, h2)
    prior = replace(NONINFORMATIVE_PRIOR, mu0=mu0, b=b)
    return np.array(
        [bayes_log_lr(e, data, prior).value, plugin_log_lr(e, fit_plugin(data, floor)).value]
    )


def _rounding_bound(h1, h2, e, c=0.0):
    """Per method, how far rounding alone may move ``_log_lrs`` when every
    position p (each score, e and mu0) becomes p + c, or p s with b s^2.

    Both maps leave the log-LR unchanged in exact arithmetic. The shifted
    position is stored within eps (|p| + |c|), a scaled one within eps |p|,
    and each value the calibration forms from positions (a class mean, a
    deviation, e's offset from a predictive location) adds a few roundings
    of that size. To first order they move the log-LR f by at most eps
    times sum_p |df/dp| (|p| + |c|), the rounding of b s^2 by eps |b df/db|,
    and f's own arithmetic by eps (1 + |f|). The partial derivatives are
    central differences on the unmoved background. 16 covers the handful of
    roundings per position: over 3,000 random draws the worst gap was 1.9
    eps times that sum.
    """
    n1, b = len(h1), NONINFORMATIVE_PRIOR.b
    points = np.concatenate([h1, h2, [e, NONINFORMATIVE_PRIOR.mu0]])

    def at(p, b=b):
        return _log_lrs(p[:n1], p[n1:-2], p[-2], p[-1], b)

    total = 1.0 + np.abs(at(points))
    for i, p in enumerate(points):
        step = 1e-6 * max(1.0, abs(p))
        up, down = points.copy(), points.copy()
        up[i] += step
        down[i] -= step
        total += np.abs(at(up) - at(down)) / (2.0 * step) * (abs(p) + abs(c))
    total += np.abs(at(points, (1.0 + 1e-6) * b) - at(points, (1.0 - 1e-6) * b)) / 2e-6
    return 16.0 * sys.float_info.epsilon * total


#: a seeded background of 2 to 30 scores per class and a score within it
SEEDED_CASE = dict(
    seed=st.integers(0, 2**32 - 1), n1=st.integers(2, 30), n2=st.integers(2, 30),
    e=st.floats(-6.0, 6.0),
)


class TestScoreOriginAndUnit:
    """Both log-LRs are equivariant when the prior moves with the scores:
    shifting scores, e and mu0 by c, or scaling them by s and b by s^2,
    leaves them unchanged up to rounding. The default prior holds mu0 at 0,
    so on its own it pulls a shifted background's Bayesian log-LR."""

    @settings(max_examples=50, deadline=None)
    @given(**SEEDED_CASE, c=st.floats(-1e6, 1e6))
    def test_shift_of_scores_e_and_mu0(self, seed, n1, n2, e, c):
        h1, h2 = _background(seed, n1, n2)
        moved = _log_lrs(h1 + c, h2 + c, e + c, mu0=NONINFORMATIVE_PRIOR.mu0 + c)
        gap = np.abs(moved - _log_lrs(h1, h2, e))
        assert (gap <= _rounding_bound(h1, h2, e, c)).all()

    @settings(max_examples=50, deadline=None)
    @given(**SEEDED_CASE, log10_s=st.floats(-3.0, 3.0))
    def test_scale_of_scores_e_mu0_and_b(self, seed, n1, n2, e, log10_s):
        """The variance floor, a variance, scales with b."""
        h1, h2 = _background(seed, n1, n2)
        s = 10.0**log10_s
        prior = NONINFORMATIVE_PRIOR
        moved = _log_lrs(
            h1 * s, h2 * s, e * s, mu0=prior.mu0 * s, b=prior.b * s * s,
            floor=DEFAULT_VARIANCE_FLOOR * s * s,
        )
        gap = np.abs(moved - _log_lrs(h1, h2, e))
        assert (gap <= _rounding_bound(h1, h2, e)).all()

    def test_fixed_default_prior_pulls_shifted_scores(self):
        """mu0 held at 0: the Bayesian log-LR of a 9/27 background at e = 1.3
        falls as background and score move away from it; the plugin's stays."""
        h1, h2 = _background(0, 9, 27)
        shifts = (0.0, 10.0, 100.0, 1e3)
        bayes, plugin = np.array([_log_lrs(h1 + c, h2 + c, 1.3 + c) for c in shifts]).T
        assert bayes.tolist() == pytest.approx([6.840, 6.789, 0.840, -0.584], abs=5e-4)
        assert np.abs(plugin - plugin[0]).max() <= _rounding_bound(h1, h2, 1.3, 1e3)[1]


class TestPosteriorOddsAndDecision:
    def test_even_prior_passes_llr_through(self):
        prior = TrialPrior(0.5)
        assert posterior_log_odds(LogLR(0.0, LrMethod.PLUGIN), prior) == 0.0
        assert posterior_log_odds(LogLR(2.0, LrMethod.PLUGIN), prior) == 2.0

    def test_prior_log_odds_of_one(self):
        prior = TrialPrior(math.e / (1 + math.e))
        assert math.isclose(
            posterior_log_odds(LogLR(0.0, LrMethod.BAYESIAN), prior), 1.0, rel_tol=1e-12
        )

    def test_posterior_odds_just_over_high_threshold_convicts(self):
        policy = DecisionPolicy(cost_false_convict=10_000.0, cost_false_acquit=1.0)
        assert decide(math.log(10_001.0), policy) is Decision.CONVICT
        assert decide(math.log(9_999.0), policy) is Decision.ACQUIT

    def test_tie_acquits(self):
        assert decide(0.0, DecisionPolicy(1.0, 1.0)) is Decision.ACQUIT

    def test_negative_odds_acquit(self):
        assert decide(-5.0, DecisionPolicy(1.0, 1.0)) is Decision.ACQUIT

    @given(
        st.floats(min_value=-30, max_value=30),
        st.floats(min_value=0.01, max_value=100),
        st.floats(min_value=0.01, max_value=100),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_decision_depends_only_on_cost_ratio(self, odds, cfc, cfa, scale):
        base = decide(odds, DecisionPolicy(cfc, cfa))
        scaled = decide(odds, DecisionPolicy(cfc * scale, cfa * scale))
        assert base is scaled

    def test_pi1_validation(self):
        for bad in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValidationError):
                TrialPrior(bad)

    def test_cost_validation(self):
        with pytest.raises(ValidationError):
            DecisionPolicy(0.0, 1.0)

    def test_log_lr_must_be_finite(self):
        with pytest.raises(ValidationError):
            LogLR(float("inf"), LrMethod.PLUGIN)


class TestDecompositionResidual:
    def test_single_theta_is_exact(self):
        theta = GaussianParams(1.4, -2.2, 0.8, 2.5)
        residual = decomposition_residual(1.0, MIRROR_DATA, NONINFORMATIVE_PRIOR, theta)
        assert abs(residual) < 1e-9

    def test_posterior_sampled_sweep(self):
        prior = NONINFORMATIVE_PRIOR
        post1 = posterior_update(prior, collect_stats(MIRROR_DATA.h1_scores))
        post2 = posterior_update(prior, collect_stats(MIRROR_DATA.h2_scores))
        draws1 = sample_params(post1, rng_seed=11, count=500)
        draws2 = sample_params(post2, rng_seed=12, count=500)
        residuals = [
            decomposition_residual(
                -1.5, MIRROR_DATA, prior, GaussianParams(m1, m2, l1, l2)
            )
            for (m1, l1), (m2, l2) in zip(draws1, draws2)
        ]
        assert max(abs(r) for r in residuals) < 1e-9

    def test_mean_of_decomposition_recovers_bayes_llr(self):
        """Averaging plugin-plus-correction over any theta sample gives the
        Bayesian value, because the identity already holds pointwise."""
        prior = NONINFORMATIVE_PRIOR
        e = 2.0
        log_rb = bayes_log_lr(e, MIRROR_DATA, prior).value
        post1 = posterior_update(prior, collect_stats(MIRROR_DATA.h1_scores))
        post2 = posterior_update(prior, collect_stats(MIRROR_DATA.h2_scores))
        draws1 = sample_params(post1, rng_seed=21, count=100)
        draws2 = sample_params(post2, rng_seed=22, count=100)
        reconstructed = [
            log_rb
            - decomposition_residual(e, MIRROR_DATA, prior, GaussianParams(m1, m2, l1, l2))
            for (m1, l1), (m2, l2) in zip(draws1, draws2)
        ]
        assert abs(np.mean(reconstructed) - log_rb) < 1e-9

    @pytest.mark.parametrize("e", [-7.5, 0.0, 2.0, 6.0])
    def test_array_thetas_equal_scalar_calls_bit_for_bit(self, e):
        prior = NONINFORMATIVE_PRIOR
        post1 = posterior_update(prior, collect_stats(MIRROR_DATA.h1_scores))
        post2 = posterior_update(prior, collect_stats(MIRROR_DATA.h2_scores))
        draws1 = sample_params(post1, rng_seed=31, count=300)
        draws2 = sample_params(post2, rng_seed=32, count=300)
        theta = GaussianParams(draws1[:, 0], draws2[:, 0], draws1[:, 1], draws2[:, 1])
        together = decomposition_residual(e, MIRROR_DATA, prior, theta)
        one_by_one = [
            decomposition_residual(e, MIRROR_DATA, prior, GaussianParams(m1, m2, l1, l2))
            for (m1, l1), (m2, l2) in zip(draws1, draws2)
        ]
        assert together.shape == (300,)
        assert together.tolist() == one_by_one
        assert all(isinstance(r, float) for r in one_by_one)


class TestLrDistributionDemo:
    def test_requires_at_least_two_trials(self):
        with pytest.raises(ValidationError):
            lr_distribution_demo(1.0, GeneratorConfig(), 9, 27, trials=1, seed=0)

    def test_zero_within_class_variance_is_rejected(self):
        with pytest.raises(ValidationError):
            GeneratorConfig(sigma1_true=0.0)

    def test_spread_summary_disagrees_with_bayes_mean(self):
        report = lr_distribution_demo(6.0, GeneratorConfig(), 9, 27, trials=1000, seed=3)
        sem = report.sigma / math.sqrt(1000)
        gap = abs(report.mu - report.bayes_log_lr_per_trial.mean())
        assert gap > 3 * sem

    def test_sigma_shrinks_with_ten_times_the_data(self):
        small = lr_distribution_demo(6.0, GeneratorConfig(), 9, 27, trials=300, seed=5)
        large = lr_distribution_demo(6.0, GeneratorConfig(), 90, 270, trials=300, seed=5)
        assert large.sigma < small.sigma

    def test_deterministic(self):
        a = lr_distribution_demo(4.0, GeneratorConfig(), 9, 27, trials=5, seed=8)
        b = lr_distribution_demo(4.0, GeneratorConfig(), 9, 27, trials=5, seed=8)
        np.testing.assert_array_equal(a.plugin_log_lr_per_trial, b.plugin_log_lr_per_trial)
        np.testing.assert_array_equal(a.bayes_log_lr_per_trial, b.bayes_log_lr_per_trial)

    def test_adjacent_seeds_draw_different_backgrounds(self):
        # seeds differing only in bits below `trials` must not share trials
        a, b = (
            lr_distribution_demo(4.0, GeneratorConfig(), 9, 27, trials=16, seed=s) for s in (0, 1)
        )
        assert not np.array_equal(
            np.sort(a.plugin_log_lr_per_trial), np.sort(b.plugin_log_lr_per_trial)
        )
