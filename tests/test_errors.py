"""The three parameter checks, and the one wording each record and function
gets from them: ``NAME must be finite, got V``, ``NAME must be finite and > 0,
got V`` and ``NAME must be >= K, got V``."""

import math

import numpy as np
import pytest

import bayescal.cli
import bayescal.errors
from bayescal import (
    BackgroundData,
    ExperimentConfig,
    GaussianParams,
    GeneratorConfig,
    Hypothesis,
    NormalGammaParams,
    QuadratureSpec,
    SufficientStats,
    ValidationError,
    approximate_posterior_pitfall,
    confidence_curve,
    fit_plugin,
    gaussian_log_density,
    generate_scores,
    lr_distribution_demo,
    resample_backgrounds,
    run_experiment,
)
from bayescal.conjugate import StudentT, normal_gamma_log_density, sample_params
from bayescal.errors import check_at_least, check_finite, check_positive
from bayescal.lr import DecisionPolicy, LogLR, LrMethod
from bayescal.verification import pitfall_divergence, run_verification_suite

PRIOR = NormalGammaParams(0.0, 1.0, 2.0, 1.0)
BACKGROUND = BackgroundData((0.0, 1.0, 2.0), (-1.0, 0.5, -2.0))
WORLD = GeneratorConfig()

# (record.field, call that puts the value into that field, name in the message)
FINITE = [
    ("SufficientStats.mean", lambda v: SufficientStats(3, v, 1.0), "mean"),
    ("SufficientStats.sum_sq_dev", lambda v: SufficientStats(3, 0.0, v), "sum_sq_dev"),
    ("GaussianParams.mu1", lambda v: GaussianParams(v, 0.0, 1.0, 1.0), "mu1"),
    ("GaussianParams.mu2", lambda v: GaussianParams(0.0, v, 1.0, 1.0), "mu2"),
    (
        "GaussianParams.mu2[array]",
        lambda v: GaussianParams(np.zeros(3), np.array([0.0, 1.0, v]), np.ones(3), np.ones(3)),
        "mu2",
    ),
    ("NormalGammaParams.mu0", lambda v: NormalGammaParams(v, 1.0, 1.0, 1.0), "mu0"),
    ("StudentT.location", lambda v: StudentT(v, 1.0, 3.0), "location"),
    ("GeneratorConfig.mu1_true", lambda v: GeneratorConfig(mu1_true=v), "mu1_true"),
    ("GeneratorConfig.mu2_true", lambda v: GeneratorConfig(mu2_true=v), "mu2_true"),
    ("GeneratorConfig.shift_location", lambda v: GeneratorConfig(shift_location=v), "shift_location"),
    ("LogLR.value", lambda v: LogLR(v, LrMethod.BAYESIAN), "log-LR"),
    (
        "ExperimentConfig.prior_grid[array]",
        lambda v: ExperimentConfig(9, 27, prior_grid=(0.0, v, 1.0)),
        "prior_grid",
    ),
]

POSITIVE = [
    ("GaussianParams.lambda1", lambda v: GaussianParams(0.0, 0.0, v, 1.0), "lambda1"),
    ("GaussianParams.lambda2", lambda v: GaussianParams(0.0, 0.0, 1.0, v), "lambda2"),
    (
        "GaussianParams.lambda1[array]",
        lambda v: GaussianParams(np.zeros(3), np.zeros(3), np.array([1.0, v, -5.0]), np.ones(3)),
        "lambda1",
    ),
    ("gaussian_log_density.precision", lambda v: gaussian_log_density(0.0, 0.0, v), "precision"),
    (
        "gaussian_log_density.precision[array]",
        lambda v: gaussian_log_density(0.0, 0.0, np.array([[1.0, 2.0], [v, 0.0]])),
        "precision",
    ),
    ("fit_plugin.variance_floor", lambda v: fit_plugin(BACKGROUND, v), "variance_floor"),
    ("NormalGammaParams.beta", lambda v: NormalGammaParams(0.0, v, 1.0, 1.0), "beta"),
    ("NormalGammaParams.a", lambda v: NormalGammaParams(0.0, 1.0, v, 1.0), "a"),
    ("NormalGammaParams.b", lambda v: NormalGammaParams(0.0, 1.0, 1.0, v), "b"),
    ("StudentT.scale", lambda v: StudentT(0.0, v, 3.0), "scale"),
    ("StudentT.dof", lambda v: StudentT(0.0, 1.0, v), "dof"),
    ("normal_gamma_log_density.precision", lambda v: normal_gamma_log_density(0.0, v, PRIOR), "precision"),
    ("GeneratorConfig.sigma1_true", lambda v: GeneratorConfig(sigma1_true=v), "sigma1_true"),
    ("GeneratorConfig.sigma2_true", lambda v: GeneratorConfig(sigma2_true=v), "sigma2_true"),
    ("GeneratorConfig.shift_scale", lambda v: GeneratorConfig(shift_scale=v), "shift_scale"),
    ("DecisionPolicy.cost_false_convict", lambda v: DecisionPolicy(v, 1.0), "cost_false_convict"),
    ("DecisionPolicy.cost_false_acquit", lambda v: DecisionPolicy(1.0, v), "cost_false_acquit"),
    (
        "run_experiment.variance_floor",
        lambda v: run_experiment(WORLD, ExperimentConfig(9, 27, trials=1), variance_floor=v),
        "variance_floor",
    ),
    (
        "confidence_curve.variance_floor",
        lambda v: confidence_curve(WORLD, [(9, 27)], 2, 0, 10, variance_floor=v),
        "variance_floor",
    ),
    (
        "lr_distribution_demo.variance_floor",
        lambda v: lr_distribution_demo(0.0, WORLD, 9, 27, 2, 0, variance_floor=v),
        "variance_floor",
    ),
    ("QuadratureSpec.mu_halfwidth_sds", lambda v: QuadratureSpec(mu_halfwidth_sds=v), "mu_halfwidth_sds"),
]

# (function.count, call that puts the count in, name in the message, minimum)
AT_LEAST = [
    ("SufficientStats.n", lambda k: SufficientStats(k, 0.0, 0.0), "n", 0),
    ("SufficientStats.sum_sq_dev", lambda k: SufficientStats(3, 0.0, float(k)), "sum_sq_dev", 0),
    ("sample_params.count", lambda k: sample_params(PRIOR, 0, k), "count", 1),
    ("generate_scores.count", lambda k: generate_scores(WORLD, Hypothesis.H1, k, 0), "count", 0),
    ("resample_backgrounds.seed", lambda k: next(resample_backgrounds(WORLD, 9, 27, 1, k, 0)), "seed", 0),
    ("ExperimentConfig.n1", lambda k: ExperimentConfig(k, 27), "n1", 0),
    ("ExperimentConfig.n2", lambda k: ExperimentConfig(9, k), "n2", 0),
    ("ExperimentConfig.seed", lambda k: ExperimentConfig(9, 27, seed=k), "seed", 0),
    ("ExperimentConfig.trials", lambda k: ExperimentConfig(9, 27, trials=k), "trials", 1),
    *(
        (
            f"simulate.{section}.n_test_per_class",
            lambda k, section=section: bayescal.cli._without_ignored_key(
                section, {"n_test_per_class": k}, ""
            ),
            "n_test_per_class",
            1,
        )
        for section in ("experiment", "confidence")
    ),
    ("confidence_curve.trials", lambda k: confidence_curve(WORLD, [(9, 27)], k, 0), "trials", 2),
    ("confidence_curve.seed", lambda k: confidence_curve(WORLD, [(9, 27)], 2, k), "seed", 0),
    ("lr_distribution_demo.trials", lambda k: lr_distribution_demo(0.0, WORLD, 9, 27, k, 0), "trials", 2),
    (
        "approximate_posterior_pitfall.n1",
        lambda k: approximate_posterior_pitfall(
            BackgroundData(np.arange(k, dtype=float), (0.0, 1.0)), PRIOR, [0.0]
        ),
        "n1",
        2,
    ),
    ("pitfall_divergence.n_trials", pitfall_divergence, "n_trials", 1),
    *(
        (f"run_verification_suite.{name}", lambda k, name=name: run_verification_suite(**{name: k}), name, 1)
        for name in (
            "n_posteriors", "n_e", "n_joint_cases", "n_theta_samples", "n_theta_datasets",
            "n_pitfall_trials",
        )
    ),
]


def _cases(table, values):
    return [
        pytest.param(call, name, value, id=f"{label}-{value!r}")
        for label, call, name in table
        for value in values
    ]


class TestEveryRecordUsesTheOneWording:
    @pytest.mark.parametrize("call, name, value", _cases(FINITE, [math.nan, math.inf]))
    def test_finite(self, call, name, value):
        with pytest.raises(ValidationError) as info:
            call(value)
        assert str(info.value) == f"{name} must be finite, got {value!r}"

    @pytest.mark.parametrize(
        "call, name, value", _cases(POSITIVE, [math.nan, math.inf, 0.0, -1.0])
    )
    def test_positive(self, call, name, value):
        with pytest.raises(ValidationError) as info:
            call(value)
        assert str(info.value) == f"{name} must be finite and > 0, got {value!r}"

    @pytest.mark.parametrize(
        "call, name, minimum, count",
        [
            pytest.param(call, name, minimum, count, id=f"{label}-{count}")
            for label, call, name, minimum in AT_LEAST
            for count in (minimum - 1, minimum - 2)
        ],
    )
    def test_at_least(self, call, name, minimum, count):
        with pytest.raises(ValidationError) as info:
            call(count)
        shown = float(count) if name == "sum_sq_dev" else count
        assert str(info.value) == f"{name} must be >= {minimum}, got {shown!r}"


class TestChecks:
    def test_valid_values_pass(self):
        check_finite(a=0.0, b=-3, c=np.array([]), d=np.array([[1.0, -2.0]]), e=10**400)
        check_positive(a=1e-300, b=2, c=np.float64(0.5), d=np.array([1.0, 3.0]))
        check_at_least(1, a=1, b=5)

    def test_first_bad_value_is_named(self):
        with pytest.raises(ValidationError, match=r"^b must be finite, got inf$"):
            check_finite(a=1.0, b=math.inf, c=math.nan)

    def test_array_shows_its_first_bad_element(self):
        with pytest.raises(ValidationError, match=r"^x must be finite and > 0, got -0.0$"):
            check_positive(x=np.array([[1.0, 2.0], [-0.0, math.nan]]))

    def test_numpy_float_shown_as_a_plain_float(self):
        with pytest.raises(ValidationError, match=r"^x must be finite, got nan$"):
            check_finite(x=np.float64("nan"))

    def test_array_count_shows_its_first_bad_element(self):
        check_at_least(0, n=np.array([0.0, 3.0]))
        with pytest.raises(ValidationError, match=r"^n must be >= 0, got -2.5$"):
            check_at_least(0, n=np.array([[1.0, -2.5], [math.nan, 4.0]]))

    def test_nan_count_is_rejected(self):
        with pytest.raises(ValidationError, match=r"^n must be >= 0, got nan$"):
            check_at_least(0, n=math.nan)

    def test_python_scalars_make_no_numpy_call(self, monkeypatch):
        monkeypatch.setattr(bayescal.errors, "np", None)
        check_finite(a=1.0, b=np.float64(2.0), c=3)
        check_positive(a=1.0, b=np.float64(2.0), c=3)
        with pytest.raises(ValidationError, match=r"^a must be finite and > 0, got 0$"):
            check_positive(a=0)
