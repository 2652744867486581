"""Synthetic generator, the exact error-rate grid, and the resampling experiments."""

import math
from itertools import product

import numpy as np
import pytest
import scipy.stats
from scipy.special import expit

import bayescal.experiment
from bayescal import (
    ExperimentConfig,
    GaussianParams,
    GeneratorConfig,
    Hypothesis,
    LrMethod,
    StudentT,
    ValidationError,
    bayes_log_lr_array,
    class_predictives,
    collect_stats,
    confidence_curve,
    fit_plugin,
    generate_scores,
    lr_distribution_demo,
    plugin_log_lr_array,
    run_experiment,
)
from bayescal.conjugate import NONINFORMATIVE_PRIOR
from bayescal.experiment import (
    DEFAULT_PRIOR_GRID,
    _BlockStats,
    _calibrated_blocks,
    _errors_over_grid,
)
from bayescal.scores import DEFAULT_VARIANCE_FLOOR, SufficientStats
from bayescal.synthetic import background_stats
from bayescal.verification import pitfall_divergence

#: The default world's test laws, N(2, 1) for H1 and N(-2, 1) for H2.
LAWS = [GeneratorConfig().test_law(h) for h in Hypothesis]


def _stacked(rows):
    """The stats of each row of scores, stacked into a block of one element
    per row; the rows share a count."""
    stats = [collect_stats(row) for row in rows]
    return SufficientStats(
        stats[0].n, np.array([s.mean for s in stats]), np.array([s.sum_sq_dev for s in stats])
    )


def _errors(h1, h2, grid, laws=LAWS):
    """Both methods' exact error rates, calibrated on one background, at
    each point of ``grid``."""
    stats = _BlockStats(_stacked([h1]), _stacked([h2]))
    calibration = (
        fit_plugin(stats, DEFAULT_VARIANCE_FLOOR), class_predictives(stats, NONINFORMATIVE_PRIOR)
    )
    errors = _errors_over_grid(calibration, np.asarray(grid, dtype=float), laws)
    return {method: rates[:, 0] for method, rates in errors.items()}


class TestGenerateScores:
    def test_zero_count(self):
        out = generate_scores(GeneratorConfig(), Hypothesis.H1, 0, seed=0)
        assert out.shape == (0,)

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            generate_scores(GeneratorConfig(), Hypothesis.H1, -1, seed=0)

    def test_monte_carlo_mean(self):
        cfg = GeneratorConfig(mu1_true=2.0, sigma1_true=1.0)
        draws = generate_scores(cfg, Hypothesis.H1, 10**6, seed=123)
        se = cfg.sigma1_true / math.sqrt(draws.size)
        assert abs(draws.mean() - cfg.mu1_true) < 3 * se

    def test_identity_shift_leaves_test_distribution_alone(self):
        cfg = GeneratorConfig(shift_scale=1.0, shift_location=0.0)
        assert [cfg.test_law(h) for h in Hypothesis] == [(2.0, 1.0), (-2.0, 1.0)]

    def test_shift_applies_to_test_draws_only(self):
        cfg = GeneratorConfig(shift_location=5.0, shift_scale=2.0)
        assert cfg.test_law(Hypothesis.H1) == (9.0, 2.0)
        plain = generate_scores(GeneratorConfig(), Hypothesis.H1, 1000, seed=3)
        np.testing.assert_array_equal(generate_scores(cfg, Hypothesis.H1, 1000, seed=3), plain)

    def test_deterministic_given_seed(self):
        a = generate_scores(GeneratorConfig(), Hypothesis.H1, 50, seed=9)
        b = generate_scores(GeneratorConfig(), Hypothesis.H1, 50, seed=9)
        np.testing.assert_array_equal(a, b)


class TestBackgroundStats:
    """``background_stats`` draws each trial's mean and summed squared
    deviation from their exact laws, N(mu, sigma^2 / n) and sigma^2
    chi^2_{n-1}, with a stream of their own per trial."""

    WORLD = GeneratorConfig(mu1_true=1.5, mu2_true=-3.0, sigma1_true=0.7, sigma2_true=2.5)

    @pytest.mark.parametrize("n", [2, 9, 4050])
    def test_law(self, n):
        for stats, hyp in zip(background_stats(self.WORLD, n, n, 20_000, 5, 0), Hypothesis):
            mu, sigma = self.WORLD._class_law(hyp)
            assert stats.n == n
            standardized = (stats.mean - mu) * math.sqrt(n) / sigma
            assert scipy.stats.kstest(standardized, "norm").pvalue > 1e-3, hyp
            scaled = stats.sum_sq_dev / sigma**2
            assert scipy.stats.kstest(scaled, "chi2", args=(n - 1,)).pvalue > 1e-3, hyp

    @pytest.mark.parametrize("n", [2, 9])
    def test_matches_summarized_scores(self, n):
        trials = 5_000
        drawn, _ = background_stats(self.WORLD, n, 2, trials, 6, 0)
        scores = generate_scores(self.WORLD, Hypothesis.H1, n * trials, seed=7)
        summarized = _stacked(scores.reshape(trials, n))
        assert scipy.stats.ks_2samp(drawn.mean, summarized.mean).pvalue > 1e-3
        assert scipy.stats.ks_2samp(drawn.sum_sq_dev, summarized.sum_sq_dev).pvalue > 1e-3

    def test_trial_t_does_not_depend_on_the_trial_count(self):
        few, many = (background_stats(GeneratorConfig(), 9, 27, trials, 7, 2) for trials in (3, 120))
        for short, long in zip(few, many):
            assert short.mean.tolist() == long.mean[:3].tolist()
            assert short.sum_sq_dev.tolist() == long.sum_sq_dev[:3].tolist()

    def test_seeds_and_streams_share_no_value(self):
        values = [
            value
            for seed, stream in product([0, 1, 100, 101], [0, 1, 2])
            for stats in background_stats(GeneratorConfig(), 9, 9, 50, seed, stream)
            for value in (*stats.mean.tolist(), *stats.sum_sq_dev.tolist())
        ]
        assert len(set(values)) == len(values) == 4 * 3 * 2 * 2 * 50


class TestWeightedErrorRate:
    """``_errors_over_grid``: exact rates at one prior point, and over the default grid."""

    def test_perfect_separation(self):
        # test laws far narrower than the gap between the classes
        errors = _errors([5.0, 8.0], [-6.0, -9.0], [0.0], laws=[(6.5, 1e-3), (-7.5, 1e-3)])
        assert errors[LrMethod.PLUGIN][0] == errors[LrMethod.BAYESIAN][0] == 0.0

    @pytest.mark.parametrize("plo", [-6.0, -1.0, 1.0, 6.0])
    def test_uninformative_llrs_give_prior_only_error(self, plo):
        # identical classes: both log-LRs are 0 at every score
        scores = [0.3, 1.2, -0.5]
        pi1 = expit(plo)
        for rates in _errors(scores, scores, [plo]).values():
            assert math.isclose(rates[0], min(pi1, 1 - pi1), rel_tol=1e-12)

    def test_true_model_llrs_reach_bayes_error(self):
        # two unit-variance classes 4 apart: the true model's error at every
        # prior point is the closed-form two-Gaussian curve, Phi(-2) at even odds
        grid = np.asarray(DEFAULT_PRIOR_GRID)
        truth = GaussianParams(*(np.array([v]) for v in (2.0, -2.0, 1.0, 1.0)))
        # a Student-t of dof 1e15 is the unit Gaussian to rounding
        t_truth = tuple(StudentT(np.array([m]), np.array([1.0]), 1e15) for m in (2.0, -2.0))
        tau = -grid / 4.0
        pi1 = expit(grid)
        analytic = pi1 * scipy.stats.norm.cdf(tau - 2.0) + (1 - pi1) * scipy.stats.norm.sf(tau + 2.0)
        for rates in _errors_over_grid((truth, t_truth), grid, LAWS).values():
            np.testing.assert_allclose(rates[:, 0], analytic, rtol=1e-12)
        assert math.isclose(analytic[20], scipy.stats.norm.cdf(-2.0), rel_tol=1e-12)

    def test_non_finite_rate_rejected(self):
        # a test law too wide for floating point: the log-LRs at its range ends are NaN
        exp = ExperimentConfig(n1=9, n2=27, trials=2, seed=0)
        with np.errstate(all="ignore"), pytest.raises(
            ValidationError, match=r"^error_plugin must be finite, got nan$"
        ):
            run_experiment(GeneratorConfig(shift_scale=1e300), exp)

    def test_vectorized_grid_matches_scalar_op(self):
        rng = np.random.default_rng(0)
        h1, h2 = rng.normal(2, 3, 7), rng.normal(-2, 3, 11)
        grid = np.asarray(DEFAULT_PRIOR_GRID)
        vectorized = _errors(h1, h2, grid)
        for method, rates in vectorized.items():
            one_at_a_time = [_errors(h1, h2, [g])[method][0] for g in grid]
            np.testing.assert_allclose(rates, one_at_a_time, rtol=1e-12, atol=1e-300)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(n1=9, n2=27, trials=0)
        with pytest.raises(ValidationError):
            ExperimentConfig(n1=9, n2=27, prior_grid=())
        with pytest.raises(ValidationError):
            ExperimentConfig(n1=9, n2=27, prior_grid=(float("inf"),))
        with pytest.raises(ValidationError):
            ExperimentConfig(n1=9, n2=27, seed=-1)

    def test_default_grid(self):
        cfg = ExperimentConfig(n1=9, n2=27)
        assert len(cfg.prior_grid) == 41
        assert cfg.prior_grid[0] == -10.0 and cfg.prior_grid[-1] == 10.0


class TestRunExperiment:
    def test_deterministic_rerun(self):
        gen = GeneratorConfig()
        exp = ExperimentConfig(n1=9, n2=27, trials=3, seed=5)
        a = run_experiment(gen, exp)
        b = run_experiment(gen, exp)
        np.testing.assert_array_equal(a.error_plugin, b.error_plugin)
        np.testing.assert_array_equal(a.error_bayes, b.error_bayes)

    def test_adjacent_seeds_draw_different_backgrounds(self):
        # seeds differing only in bits below `trials` must not share trials
        a, b = (
            run_experiment(
                GeneratorConfig(),
                ExperimentConfig(n1=9, n2=27, trials=64, seed=s),
            )
            for s in (100, 101)
        )
        assert np.max(np.abs(a.error_bayes - b.error_bayes)) > 1e-6

    def test_single_trial_reruns_bit_identical(self):
        gen = GeneratorConfig()
        exp = ExperimentConfig(n1=4, n2=4, trials=1, seed=0)
        a = run_experiment(gen, exp)
        b = run_experiment(gen, exp)
        np.testing.assert_array_equal(a.error_plugin, b.error_plugin)
        np.testing.assert_array_equal(a.error_bayes, b.error_bayes)
        assert np.all(a.stderr_plugin == 0.0)  # no spread estimate from one trial

    def test_error_bounds_and_exact_baseline(self):
        curve = run_experiment(
            GeneratorConfig(),
            ExperimentConfig(n1=5, n2=7, trials=8, seed=2),
        )
        for arr in (curve.error_plugin, curve.error_bayes):
            assert np.all(arr >= 0.0) and np.all(arr <= 1.0)
        pi1 = expit(curve.prior_log_odds)
        np.testing.assert_array_equal(curve.error_prior_only, np.minimum(pi1, 1 - pi1))
        assert curve.trials_used == 8
        assert curve.degenerate_trials == 0

    def test_degenerate_trials_are_counted_not_dropped_silently(self):
        exp = ExperimentConfig(n1=1, n2=5, trials=4, seed=0)
        with pytest.raises(ValidationError, match=r"^n1 must be >= 2, got 1$"):
            run_experiment(GeneratorConfig(), exp)

    def test_large_background_reaches_analytic_bayes_error(self):
        """With the generator inside the fitted family, both methods approach
        the closed-form two-Gaussian error curve."""
        gen = GeneratorConfig()
        exp = ExperimentConfig(n1=10_000, n2=10_000, trials=3, seed=11)
        curve = run_experiment(gen, exp)
        delta = gen.mu1_true - gen.mu2_true
        mid = 0.5 * (gen.mu1_true + gen.mu2_true)
        tau = mid - curve.prior_log_odds * gen.sigma1_true**2 / delta
        pi1 = expit(curve.prior_log_odds)
        analytic = pi1 * scipy.stats.norm.cdf(
            (tau - gen.mu1_true) / gen.sigma1_true
        ) + (1 - pi1) * scipy.stats.norm.sf((tau - gen.mu2_true) / gen.sigma2_true)
        assert np.max(np.abs(curve.error_plugin - analytic)) < 0.005
        assert np.max(np.abs(curve.error_bayes - analytic)) < 0.005

    def test_resample_stability_across_seeds(self):
        gen = GeneratorConfig()
        a = run_experiment(gen, ExperimentConfig(n1=9, n2=27, trials=300, seed=100))
        b = run_experiment(gen, ExperimentConfig(n1=9, n2=27, trials=300, seed=200))
        for err_a, err_b, se_a, se_b in (
            (a.error_plugin, b.error_plugin, a.stderr_plugin, b.stderr_plugin),
            (a.error_bayes, b.error_bayes, a.stderr_bayes, b.stderr_bayes),
        ):
            pooled = np.sqrt(se_a**2 + se_b**2)
            assert np.all(np.abs(err_a - err_b) <= 4 * pooled + 1e-12)


class TestConfidenceCurve:
    def test_rows_and_methods(self):
        pts = confidence_curve(GeneratorConfig(), [(9, 27)], trials=3, seed=1)
        assert len(pts) == 4
        assert {p.method for p in pts} == {LrMethod.PLUGIN, LrMethod.BAYESIAN}
        assert {p.hypothesis for p in pts} == {Hypothesis.H1, Hypothesis.H2}

    def test_methods_agree_at_very_large_background(self):
        pts = confidence_curve(
            GeneratorConfig(), [(10_000, 10_000)], trials=3, seed=4
        )
        by_key = {(p.method, p.hypothesis): p.mean_log_lr for p in pts}
        for hyp in Hypothesis:
            gap = abs(
                by_key[(LrMethod.PLUGIN, hyp)] - by_key[(LrMethod.BAYESIAN, hyp)]
            )
            assert gap < 0.05

    @pytest.mark.parametrize(
        "shift_scale, message",
        [(1e150, r"^stderr must be finite, got inf$"), (1e300, r"^mean_log_lr must be finite, got nan$")],
    )
    def test_non_finite_result_rejected(self, shift_scale, message):
        # log-LRs of order 1e300 are finite, but their spread is not
        with np.errstate(all="ignore"), pytest.raises(ValidationError, match=message):
            confidence_curve(GeneratorConfig(shift_scale=shift_scale), [(9, 27)], trials=3, seed=0)

    def test_size_validation(self):
        with pytest.raises(ValidationError):
            confidence_curve(GeneratorConfig(), [], trials=3, seed=0)
        with pytest.raises(ValidationError):
            confidence_curve(GeneratorConfig(), [(1, 9)], trials=3, seed=0)


class TestGoldenValues:
    """Outputs pinned at rtol 1e-12: a change in the draws (each class's mean
    and summed squared deviation from generators of their own), in the order
    of the methods and hypotheses, or in the exact rates and means moves
    these values by far more. All three were captured when each trial's
    stats came to be drawn directly instead of summarized from its scores."""

    def test_run_experiment(self):
        curve = run_experiment(
            GeneratorConfig(),
            ExperimentConfig(
                n1=9, n2=27, trials=5, seed=3, prior_grid=(-4.0, -1.0, 0.0, 0.5, 3.0),
            ),
        )
        expected = {
            "error_plugin": [0.004317498390807343, 0.020164332555150547, 0.024288811816754942,
                             0.02416917191151473, 0.011615601931343108],
            "error_bayes": [0.004383147378898856, 0.019921966155162375, 0.023198011602404926,
                            0.022585590390166627, 0.009330864887944027],
            "stderr_plugin": [8.670324299398989e-05, 0.000239005186255667, 0.0009394733360875013,
                              0.0013988112793551681, 0.002459912366755887],
            "stderr_bayes": [8.009458635302729e-05, 7.786022722806043e-05, 0.0002444560822020431,
                             0.0003334555250290625, 0.0006396785775257325],
        }
        for field, values in expected.items():
            np.testing.assert_allclose(getattr(curve, field), values, rtol=1e-12, err_msg=field)
        assert (curve.trials_used, curve.degenerate_trials) == (5, 0)

    def test_confidence_curve(self):
        pts = confidence_curve(GeneratorConfig(), [(4, 6), (12, 30)], trials=3, seed=8)
        expected = [
            (4, 6, "plugin", "H1", 14.833613499117076, 3.432156819685537),
            (4, 6, "plugin", "H2", -18.121396335882324, 9.535650061086839),
            (4, 6, "bayes", "H1", 4.727209122645932, 0.4897885211161952),
            (4, 6, "bayes", "H2", -3.909275347609686, 0.7328462583905568),
            (12, 30, "plugin", "H1", 9.512761605357833, 1.2998017001627566),
            (12, 30, "plugin", "H2", -10.59606035788306, 1.6126933304278859),
            (12, 30, "bayes", "H1", 6.896898286940058, 0.7476316869717387),
            (12, 30, "bayes", "H2", -5.55375806006628, 0.4452295129659191),
        ]
        assert [(p.n1, p.n2, p.method.value, p.hypothesis.value) for p in pts] == [
            row[:4] for row in expected
        ]
        np.testing.assert_allclose(
            [(p.mean_log_lr, p.stderr) for p in pts], [row[4:] for row in expected], rtol=1e-12
        )

    def test_lr_distribution_demo(self):
        report = lr_distribution_demo(
            1.25, GeneratorConfig(mu2_true=-1.0), 6, 11, trials=5, seed=21
        )
        np.testing.assert_allclose(
            [report.mu, report.sigma], [3.025654875038061, 3.787159854930883], rtol=1e-12
        )
        np.testing.assert_allclose(
            report.plugin_log_lr_per_trial,
            [1.41784476197489, 8.303105346953917, 2.9098068929494896, -1.9610420346100348,
             4.458559407922042],
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            report.bayes_log_lr_per_trial,
            [1.1512349244948878, 4.57661376499905, 2.3381053724769227, -0.4124876376424602,
             2.99071037078868],
            rtol=1e-12,
        )


def _one_trial(calibration, t):
    """Trial ``t`` of a calibrated block, as numpy scalar parameters, which
    take the numpy route as the block does. Python floats would take the
    ``math`` route, whose ``log1p`` can differ from numpy's by an ulp; that
    route is bounded against numpy's in ``tests/test_scores.py``."""
    theta, preds = calibration
    fields = (theta.mu1, theta.mu2, theta.lambda1, theta.lambda2)
    return (
        GaussianParams(*(v[t] for v in fields)),
        tuple(StudentT(p.location[t], p.scale[t], p.dof) for p in preds),
    )


class TestLrDistributionDemoPerTrial:
    """Each block's log-LRs are those of its trials' calibrations alone."""

    @pytest.mark.parametrize(
        "n1, n2, trials, seed",
        [
            *(
                pytest.param(n1, n2, t, 13, id=f"{n1}-{n2}-{t}")
                for n1, n2 in [(9, 27), (2, 3)]
                for t in [2, 49, 50, 51, 137]
            ),
            pytest.param(2, 3, 137, 2, id="2-3-137-seed2"),
            pytest.param(2, 3, 137, 11, id="2-3-137-seed11"),
        ],
    )
    def test_equals_one_trial_at_a_time(self, n1, n2, trials, seed):
        world, e = GeneratorConfig(mu2_true=-1.0), 3.5
        report = lr_distribution_demo(e, world, n1, n2, trials, seed=seed)
        blocks = _calibrated_blocks(
            world, n1, n2, trials, seed, 0, NONINFORMATIVE_PRIOR, DEFAULT_VARIANCE_FLOOR
        )
        plugin, bayes = [], []
        for calibration in blocks:
            for t in range(np.size(calibration[0].mu1)):
                theta, preds = _one_trial(calibration, t)
                plugin.append(float(plugin_log_lr_array(e, theta)))
                bayes.append(float(bayes_log_lr_array(e, *preds)))
        assert len(plugin) == trials
        assert report.plugin_log_lr_per_trial.tolist() == plugin
        assert report.mu == float(np.mean(plugin))
        assert report.sigma == float(np.std(plugin, ddof=1))
        assert report.bayes_log_lr_per_trial.tolist() == bayes


# each experiment called at one (n1, n2) size with ``variance_floor``
EXPERIMENTS = {
    "run_experiment": lambda n1, n2, floor: run_experiment(
        GeneratorConfig(), ExperimentConfig(n1=n1, n2=n2, trials=4),
        variance_floor=floor,
    ),
    "confidence_curve": lambda n1, n2, floor: confidence_curve(
        GeneratorConfig(), [(9, 27), (n1, n2)], trials=3, seed=0,
        variance_floor=floor,
    ),
    "lr_distribution_demo": lambda n1, n2, floor: lr_distribution_demo(
        1.0, GeneratorConfig(), n1, n2, trials=3, seed=0, variance_floor=floor
    ),
}


class TestOneSizeCheck:
    """Every experiment rejects a size or a floor no plugin fit accepts before
    it draws a single background."""

    @pytest.fixture
    def draws(self, monkeypatch):
        calls = []
        real = bayescal.experiment.background_stats

        def recorder(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(bayescal.experiment, "background_stats", recorder)
        return calls

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS) + ["pitfall_divergence"])
    def test_valid_size_is_drawn(self, name, draws):
        if name == "pitfall_divergence":
            pitfall_divergence(5, 1, sizes=((2, 5),))
        else:
            EXPERIMENTS[name](2, 5, 1e-12)
        assert draws

    # the pitfall sweep takes no floor, so it joins the size test only
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS) + ["pitfall_divergence"])
    def test_size_below_two_rejected_before_drawing(self, name, draws):
        with pytest.raises(ValidationError, match=r"^n1 must be >= 2, got 1$"):
            if name == "pitfall_divergence":
                pitfall_divergence(5, 1, sizes=((1, 5),))
            else:
                EXPERIMENTS[name](1, 5, 1e-12)
        assert draws == []

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_bad_variance_floor_rejected_before_drawing(self, name, draws):
        with pytest.raises(ValidationError, match=r"^variance_floor must be finite and > 0, got -1.0$"):
            EXPERIMENTS[name](9, 27, -1.0)
        assert draws == []



class TestBlockSizeInvariance:
    """A trial's numbers do not depend on which trials share its block: every
    output is bit-identical whatever ``_BLOCK`` is."""

    #: more trials than the default block holds, so that it splits them too
    TRIALS = 123

    @classmethod
    def _outputs(cls):
        world = GeneratorConfig(shift_location=0.3, shift_scale=1.2)
        curve = run_experiment(world, ExperimentConfig(n1=9, n2=27, trials=cls.TRIALS, seed=3))
        demo = lr_distribution_demo(3.5, world, 6, 11, trials=cls.TRIALS, seed=5)
        return (
            [getattr(curve, f"{kind}_{method.value}").tobytes()
             for kind, method in product(("error", "stderr"), LrMethod)],
            confidence_curve(world, [(9, 27), (300, 4050)], trials=cls.TRIALS, seed=42),
            demo.plugin_log_lr_per_trial.tobytes(),
            demo.bayes_log_lr_per_trial.tobytes(),
            (demo.mu, demo.sigma),
            pitfall_divergence(cls.TRIALS, 11, sizes=((9, 27), (2, 3))),
        )

    def test_block_sizes_agree(self, monkeypatch):
        """Blocks of 1, 7 and 50, the default, and one block of every trial."""
        outputs = []
        for block in (1, 7, 50, bayescal.experiment._BLOCK, self.TRIALS):
            monkeypatch.setattr(bayescal.experiment, "_BLOCK", block)
            outputs.append(self._outputs())
        assert all(out == outputs[0] for out in outputs[1:])
