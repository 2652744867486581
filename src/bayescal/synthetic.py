"""Synthetic two-class Gaussian score worlds for simulation studies."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_at_least, check_finite, check_positive
from .scores import Hypothesis, SufficientStats


@dataclass(frozen=True)
class GeneratorConfig:
    """True score distributions for a synthetic world.

    Background scores are drawn straight from the class Gaussians. The
    shift lives in ``test_law`` alone: test scores follow the class Gaussian
    passed through the affine shift ``shift_scale * score + shift_location``,
    an optional stressor modelling a mismatch between background and trial
    conditions. The identity shift (1, 0) leaves both laws equal.
    """

    mu1_true: float = 2.0
    mu2_true: float = -2.0
    sigma1_true: float = 1.0
    sigma2_true: float = 1.0
    shift_location: float = 0.0
    shift_scale: float = 1.0

    def __post_init__(self):
        check_finite(
            mu1_true=self.mu1_true, mu2_true=self.mu2_true, shift_location=self.shift_location
        )
        check_positive(
            sigma1_true=self.sigma1_true, sigma2_true=self.sigma2_true, shift_scale=self.shift_scale
        )

    def _class_law(self, hypothesis: Hypothesis) -> tuple[float, float]:
        """Mean and standard deviation of one class's background scores."""
        if hypothesis is Hypothesis.H1:
            return self.mu1_true, self.sigma1_true
        return self.mu2_true, self.sigma2_true

    def test_law(self, hypothesis: Hypothesis) -> tuple[float, float]:
        """Mean and standard deviation of one class's test scores: the class
        Gaussian passed through the shift, N(shift_scale * mu + shift_location,
        (shift_scale * sigma)^2)."""
        mu, sigma = self._class_law(hypothesis)
        return self.shift_scale * mu + self.shift_location, self.shift_scale * sigma


def generate_scores(
    config: GeneratorConfig, hypothesis: Hypothesis, count: int, seed
) -> np.ndarray:
    """Draw iid background scores for one class; deterministic given the seed.

    ``seed`` may be an integer or an existing ``numpy.random.Generator``
    (callers running several draws per trial pass one generator through).
    The draws are unshifted; the shifted test law is ``config.test_law``.
    """
    check_at_least(0, count=count)
    rng = np.random.default_rng(seed)
    mu, sigma = config._class_law(hypothesis)
    return rng.normal(mu, sigma, size=count)


def background_stats(
    config: GeneratorConfig, n1: int, n2: int, trials: int, seed: int, stream: int
) -> tuple[SufficientStats, SufficientStats]:
    """The H1 and H2 stats of ``trials`` backgrounds of n1 and n2 scores, one
    element per trial, drawn exactly without the scores: the mean of n iid
    N(mu, sigma^2) scores ~ N(mu, sigma^2 / n) and their summed squared
    deviation ~ sigma^2 chi^2_{n-1} = 2 sigma^2 Gamma((n - 1) / 2), independently.

    ``SeedSequence([seed, stream]).spawn(4)`` seeds the H1 mean, H1
    deviation, H2 mean and H2 deviation, and trial t takes the t-th draw of
    each: a trial's stats do not depend on ``trials``, and different seeds
    or streams share no trials.
    """
    check_at_least(0, seed=seed)
    check_at_least(1, n1=n1, n2=n2)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence([seed, stream]).spawn(4)]
    stats = []
    for hypothesis, n, means, devs in zip(Hypothesis, (n1, n2), rngs[::2], rngs[1::2]):
        mu, sigma = config._class_law(hypothesis)
        stats.append(SufficientStats(
            n,
            mu + sigma / math.sqrt(n) * means.standard_normal(trials),
            2.0 * sigma * sigma * devs.standard_gamma(0.5 * (n - 1), trials),
        ))
    return stats[0], stats[1]
