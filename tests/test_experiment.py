"""Synthetic generator, the exact error-rate grid, and the resampling experiments."""

import math

import numpy as np
import pytest
import scipy.stats
from scipy.special import expit

import bayescal.experiment
import bayescal.synthetic
from bayescal import (
    BackgroundData,
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
    resample_backgrounds,
    run_experiment,
)
from bayescal.conjugate import NONINFORMATIVE_PRIOR
from bayescal.experiment import DEFAULT_PRIOR_GRID, _BlockStats, _errors_over_grid
from bayescal.scores import DEFAULT_VARIANCE_FLOOR
from bayescal.verification import pitfall_divergence

#: The default world's test laws, N(2, 1) for H1 and N(-2, 1) for H2.
LAWS = [GeneratorConfig().test_law(h) for h in Hypothesis]


def _errors(h1, h2, grid, laws=LAWS):
    """Both methods' exact error rates, calibrated on one background, at
    each point of ``grid``."""
    stats = _BlockStats(collect_stats([h1]), collect_stats([h2]))
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


class TestResampleBackgrounds:
    def test_trial_t_draws_from_seed_stream_t(self):
        cfg = GeneratorConfig()
        trials = list(resample_backgrounds(cfg, 3, 4, trials=3, seed=7, stream=2))
        assert len(trials) == 3
        for t, (h1, h2) in enumerate(trials):
            rng = np.random.default_rng([7, 2, t])
            np.testing.assert_array_equal(h1, rng.normal(2.0, 1.0, 3))
            np.testing.assert_array_equal(h2, rng.normal(-2.0, 1.0, 4))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError):
            next(resample_backgrounds(GeneratorConfig(), 3, 3, trials=1, seed=-1, stream=0))


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
    """Outputs pinned at rtol 1e-12: a change in the draw order (background H1,
    then H2), in the order of the methods and hypotheses, or in the exact
    rates and means moves these values by far more. The error curve and the
    confidence table were captured once, when exact expectations replaced
    sampled test sets."""

    def test_run_experiment(self):
        curve = run_experiment(
            GeneratorConfig(),
            ExperimentConfig(
                n1=9, n2=27, trials=5, seed=3, prior_grid=(-4.0, -1.0, 0.0, 0.5, 3.0),
            ),
        )
        expected = {
            "error_plugin": [0.004264143632455029, 0.020317445793191297, 0.024075689860519275,
                             0.02365636414502561, 0.009863691222231803],
            "error_bayes": [0.004380681956817963, 0.020115503539792405, 0.023737817781771607,
                            0.02335228450262692, 0.01112085006690455],
            "stderr_plugin": [6.136277669217119e-05, 0.0002148511020567626, 0.0005461012976122937,
                              0.0007772856250854042, 0.0010467465417242211],
            "stderr_bayes": [8.464062995255938e-05, 8.564634862522912e-05, 0.0005931216794952202,
                             0.0009925376461059137, 0.002543276390867645],
        }
        for field, values in expected.items():
            np.testing.assert_allclose(getattr(curve, field), values, rtol=1e-12, err_msg=field)
        assert (curve.trials_used, curve.degenerate_trials) == (5, 0)

    def test_confidence_curve(self):
        pts = confidence_curve(GeneratorConfig(), [(4, 6), (12, 30)], trials=3, seed=8)
        expected = [
            (4, 6, "plugin", "H1", 3.3183849876677107, 1.4826592326159598),
            (4, 6, "plugin", "H2", -25.575043733464458, 5.141964803317878),
            (4, 6, "bayes", "H1", 2.348763650355892, 0.43583174550174314),
            (4, 6, "bayes", "H2", -4.601435764208808, 0.5663297498293809),
            (12, 30, "plugin", "H1", 12.022605568015607, 1.0613173021849482),
            (12, 30, "plugin", "H2", -7.180102350552134, 1.2138843158964197),
            (12, 30, "bayes", "H1", 8.191683341541731, 0.5161667282848446),
            (12, 30, "bayes", "H2", -4.3474334361636995, 0.5370647325820036),
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
            [report.mu, report.sigma], [3.162940606791318, 1.7381484506519989], rtol=1e-12
        )
        np.testing.assert_allclose(
            report.plugin_log_lr_per_trial,
            [1.226964903921961, 3.620560968795038, 4.160500822337598, 1.5303040709508267,
             5.276372267951167],
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            report.bayes_log_lr_per_trial,
            [1.0252283856632318, 2.460457674059337, 2.8889452923100305, 1.2494178377306824,
             3.543068056525783],
            rtol=1e-12,
        )


class TestLrDistributionDemoPerTrial:
    """Each block's log-LRs are those of its trials' backgrounds alone."""

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
        plugin, bayes = [], []
        for h1, h2 in resample_backgrounds(world, n1, n2, trials, seed, 0):
            data = BackgroundData(h1, h2)
            plugin.append(float(plugin_log_lr_array(e, fit_plugin(data))))
            bayes.append(float(bayes_log_lr_array(e, *class_predictives(data, NONINFORMATIVE_PRIOR))))
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
    it draws a single score."""

    @pytest.fixture
    def draws(self, monkeypatch):
        calls = []
        real = bayescal.synthetic.generate_scores

        def recorder(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(bayescal.synthetic, "generate_scores", recorder)
        return calls

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

