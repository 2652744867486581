"""Synthetic two-class Gaussian score worlds for simulation studies."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import check_at_least, check_finite, check_positive
from .scores import BackgroundData, Hypothesis


@dataclass(frozen=True)
class GeneratorConfig:
    """True score distributions for a synthetic world.

    Background scores are drawn straight from the class Gaussians. Test-set
    scores additionally pass through the affine shift
    ``shift_scale * score + shift_location``, an optional stressor modelling
    a mismatch between background and trial conditions. The identity shift
    (1, 0) leaves both sets identically distributed.
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


def generate_scores(
    config: GeneratorConfig,
    hypothesis: Hypothesis,
    count: int,
    seed,
    *,
    test_set: bool = False,
) -> np.ndarray:
    """Draw iid scores for one class; deterministic given the seed.

    ``seed`` may be an integer or an existing ``numpy.random.Generator``
    (callers running several draws per trial pass one generator through).
    Only test-set draws receive the shift transform.
    """
    check_at_least(0, count=count)
    rng = np.random.default_rng(seed)
    if hypothesis is Hypothesis.H1:
        mu, sigma = config.mu1_true, config.sigma1_true
    else:
        mu, sigma = config.mu2_true, config.sigma2_true
    draws = rng.normal(mu, sigma, size=count)
    if test_set:
        draws *= config.shift_scale
        draws += config.shift_location
    return draws


def resample_backgrounds(
    config: GeneratorConfig, n1: int, n2: int, trials: int, seed: int, stream: int
) -> Iterator[tuple[BackgroundData, np.random.Generator]]:
    """Yield ``(BackgroundData, rng)`` for each of ``trials`` resampled backgrounds.

    Trial ``t`` draws its H1 and then its H2 scores from a NumPy generator
    seeded with ``[seed, stream, t]`` and hands that generator on for the
    caller's further draws (test sets). Every (seed, stream, t) key gets its
    own independent stream, so adjacent seeds share no trials and one seed
    can drive several experiments through distinct ``stream`` values.
    """
    check_at_least(0, seed=seed)
    for t in range(trials):
        rng = np.random.default_rng([seed, stream, t])
        data = BackgroundData(
            generate_scores(config, Hypothesis.H1, n1, rng),
            generate_scores(config, Hypothesis.H2, n2, rng),
        )
        yield data, rng
