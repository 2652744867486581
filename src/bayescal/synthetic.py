"""Synthetic two-class Gaussian score worlds for simulation studies."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import check_at_least, check_finite, check_positive
from .scores import Hypothesis


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


def resample_backgrounds(
    config: GeneratorConfig, n1: int, n2: int, trials: int, seed: int, stream: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the H1 and H2 background draws of each of ``trials`` resamplings.

    Trial ``t`` draws its H1 and then its H2 scores from a NumPy generator
    seeded with ``[seed, stream, t]``. Every (seed, stream, t) key gets its
    own independent stream, so adjacent seeds share no trials and one seed
    can drive several experiments through distinct ``stream`` values.
    """
    check_at_least(0, seed=seed)
    for t in range(trials):
        rng = np.random.default_rng([seed, stream, t])
        yield generate_scores(config, Hypothesis.H1, n1, rng), generate_scores(
            config, Hypothesis.H2, n2, rng
        )
