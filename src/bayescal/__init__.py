"""Likelihood-ratio calibration for recognizer scores.

Computes plugin (point-estimate) and fully Bayesian log likelihood-ratios
from small labeled score databases under a Gaussian score model with a
Normal-Gamma conjugate prior, turns them into minimum-expected-cost
decisions, verifies the closed forms against brute-force quadrature, and
reproduces small-data calibration experiments on synthetic scores.
"""

__version__ = "0.1.0"

from .conjugate import (
    NONINFORMATIVE_WEIGHT,
    NormalGammaParams,
    StudentT,
    default_noninformative_prior,
    normal_gamma_log_density,
    posterior_update,
    predictive,
    sample_params,
    student_t_log_density,
)
from .errors import BayescalError, ScoreFileError, ValidationError
from .experiment import (
    DEFAULT_PRIOR_GRID,
    ConfidencePoint,
    ErrorCurve,
    ExperimentConfig,
    LrDistributionReport,
    confidence_curve,
    lr_distribution_demo,
    run_experiment,
)
from .lr import (
    Decision,
    DecisionPolicy,
    LogLR,
    LrMethod,
    TrialPrior,
    bayes_log_lr,
    bayes_log_lr_array,
    class_predictives,
    decide,
    decomposition_residual,
    plugin_log_lr,
    plugin_log_lr_array,
    posterior_log_odds,
)
from .scores import (
    DEFAULT_VARIANCE_FLOOR,
    BackgroundData,
    GaussianParams,
    Hypothesis,
    SufficientStats,
    collect_stats,
    fit_plugin,
    gaussian_log_density,
    load_background_csv,
    parse_label,
)
from .synthetic import GeneratorConfig, generate_scores, resample_backgrounds
from .verification import (
    PitfallReport,
    QuadratureSpec,
    VerificationReport,
    approximate_posterior_pitfall,
    joint_evidence_log_lr,
    quadrature_joint_evidence,
    quadrature_predictive,
    run_verification_suite,
)

__all__ = [
    "__version__",
    "BayescalError",
    "ScoreFileError",
    "ValidationError",
    "Hypothesis",
    "BackgroundData",
    "SufficientStats",
    "GaussianParams",
    "collect_stats",
    "fit_plugin",
    "gaussian_log_density",
    "load_background_csv",
    "parse_label",
    "DEFAULT_VARIANCE_FLOOR",
    "NormalGammaParams",
    "StudentT",
    "NONINFORMATIVE_WEIGHT",
    "default_noninformative_prior",
    "posterior_update",
    "predictive",
    "student_t_log_density",
    "normal_gamma_log_density",
    "sample_params",
    "LogLR",
    "LrMethod",
    "Decision",
    "TrialPrior",
    "DecisionPolicy",
    "plugin_log_lr",
    "plugin_log_lr_array",
    "bayes_log_lr",
    "bayes_log_lr_array",
    "class_predictives",
    "posterior_log_odds",
    "decide",
    "decomposition_residual",
    "lr_distribution_demo",
    "LrDistributionReport",
    "GeneratorConfig",
    "generate_scores",
    "resample_backgrounds",
    "ExperimentConfig",
    "ErrorCurve",
    "ConfidencePoint",
    "run_experiment",
    "confidence_curve",
    "DEFAULT_PRIOR_GRID",
    "QuadratureSpec",
    "quadrature_predictive",
    "quadrature_joint_evidence",
    "joint_evidence_log_lr",
    "approximate_posterior_pitfall",
    "PitfallReport",
    "run_verification_suite",
    "VerificationReport",
]
