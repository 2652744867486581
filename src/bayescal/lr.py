"""Log likelihood-ratios, posterior odds, and minimum-expected-cost decisions.

Two routes to a log-LR are provided. The plugin route evaluates the Gaussian
class densities at a point estimate of the model parameters. The Bayesian
route evaluates the ratio of the two classes' posterior-predictive Student-t
densities, which averages the parameters out against their Normal-Gamma
posterior instead of committing to an estimate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .conjugate import (
    NONINFORMATIVE_PRIOR,
    NormalGammaParams,
    StudentT,
    normal_gamma_log_density,
    posterior_update,
    predictive,
    student_t_log_density,
)
from .errors import ValidationError, check_finite, check_positive
from .scores import BackgroundData, GaussianParams, collect_stats, gaussian_log_density


class LrMethod(enum.Enum):
    PLUGIN = "plugin"
    BAYESIAN = "bayes"


class Decision(enum.Enum):
    CONVICT = "convict"
    ACQUIT = "acquit"


@dataclass(frozen=True)
class LogLR:
    """A natural-log likelihood-ratio tagged with the method that produced it."""

    value: float
    method: LrMethod

    def __post_init__(self):
        check_finite(**{"log-LR": self.value})

    @property
    def log10(self) -> float:
        return self.value / math.log(10.0)


@dataclass(frozen=True)
class TrialPrior:
    """Probability of the same-source hypothesis before the score is seen."""

    pi1: float

    def __post_init__(self):
        if not 0.0 < self.pi1 < 1.0:
            raise ValidationError(f"pi1 must lie strictly inside (0, 1), got {self.pi1!r}")

    @property
    def pi2(self) -> float:
        return 1.0 - self.pi1

    @property
    def log_odds(self) -> float:
        return math.log(self.pi1) - math.log1p(-self.pi1)


@dataclass(frozen=True)
class DecisionPolicy:
    """Relative costs of the two possible wrong decisions."""

    cost_false_convict: float = 1.0
    cost_false_acquit: float = 1.0

    def __post_init__(self):
        check_positive(
            cost_false_convict=self.cost_false_convict, cost_false_acquit=self.cost_false_acquit
        )

    @property
    def log_threshold(self) -> float:
        """Posterior log-odds above which conviction has lower expected cost."""
        return math.log(self.cost_false_convict / self.cost_false_acquit)


def plugin_log_lr_array(e, theta: GaussianParams):
    """Plugin log-LR at one or many scores; vectorized over ``e``."""
    return gaussian_log_density(e, theta.mu1, theta.lambda1) - gaussian_log_density(
        e, theta.mu2, theta.lambda2
    )


def plugin_log_lr(e: float, theta: GaussianParams) -> LogLR:
    """Log-LR with the point-estimate Gaussian model plugged in."""
    return LogLR(float(plugin_log_lr_array(e, theta)), LrMethod.PLUGIN)


def class_predictives(
    data: BackgroundData, prior: NormalGammaParams
) -> tuple[StudentT, StudentT]:
    """Posterior-predictive Student-t for each class given shared prior.

    ``data`` is read through its ``h1_stats`` and ``h2_stats``; array-valued
    stats give array-valued predictives, one per element.
    """
    post1 = posterior_update(prior, data.h1_stats)
    post2 = posterior_update(prior, data.h2_stats)
    return predictive(post1), predictive(post2)


def bayes_log_lr_array(e, pred1: StudentT, pred2: StudentT):
    """Bayesian log-LR from two class predictives; vectorized over ``e``."""
    return student_t_log_density(pred1, e) - student_t_log_density(pred2, e)


def bayes_log_lr(
    e: float, data: BackgroundData, prior: NormalGammaParams = NONINFORMATIVE_PRIOR
) -> LogLR:
    """Bayesian log-LR: ratio of the class posterior-predictive densities.

    Either class may be empty, in which case its prior predictive is used.
    """
    pred1, pred2 = class_predictives(data, prior)
    return LogLR(float(bayes_log_lr_array(e, pred1, pred2)), LrMethod.BAYESIAN)


def posterior_log_odds(llr: LogLR, prior: TrialPrior) -> float:
    """Posterior log-odds: prior log-odds plus the log likelihood-ratio."""
    return llr.value + prior.log_odds


def decide(post_log_odds: float, policy: DecisionPolicy) -> Decision:
    """Convict iff the posterior log-odds strictly exceed the cost threshold.

    Exact ties resolve to acquittal.
    """
    if post_log_odds > policy.log_threshold:
        return Decision.CONVICT
    return Decision.ACQUIT


def decomposition_residual(
    e: float,
    data: BackgroundData,
    prior: NormalGammaParams,
    theta_sample: GaussianParams,
):
    """Pointwise check that the Bayesian log-LR splits into plugin + correction.

    For any parameter value theta, the Bayesian log-LR equals the plugin
    log-LR at theta plus the log-ratio of the two augmented parameter
    posteriors (the posterior re-conditioned on the trial score under each
    assumed label, H2 over H1). This function evaluates both sides through
    independent code paths (predictive densities on one side, Normal-Gamma
    densities at theta on the other) and returns the difference, which must
    vanish to float precision for every theta with positive precisions.

    A ``theta_sample`` of equal-length arrays gives one residual per element,
    each equal to the scalar call's bit for bit; scalars give a float.
    """
    stats_e = collect_stats([e])
    post1 = posterior_update(prior, data.h1_stats)
    post2 = posterior_update(prior, data.h2_stats)
    post1_aug = posterior_update(post1, stats_e)
    post2_aug = posterior_update(post2, stats_e)

    log_rb = float(bayes_log_lr_array(e, predictive(post1), predictive(post2)))
    log_rplug = plugin_log_lr_array(e, theta_sample)
    augmented_log_ratio = (
        normal_gamma_log_density(theta_sample.mu1, theta_sample.lambda1, post1)
        + normal_gamma_log_density(theta_sample.mu2, theta_sample.lambda2, post2_aug)
        - normal_gamma_log_density(theta_sample.mu1, theta_sample.lambda1, post1_aug)
        - normal_gamma_log_density(theta_sample.mu2, theta_sample.lambda2, post2)
    )
    return log_rb - (log_rplug + augmented_log_ratio)
