"""Synthetic two-class Gaussian score worlds, and the sizes and seeding of
the experiments run on them."""

from __future__ import annotations

import math

from ._numpy import np
from ._record import record
from .errors import ValidationError, check_at_least, check_finite, check_positive
from .scores import Hypothesis, SufficientStats

#: 41 prior log-odds points spanning -10..+10 natural-log units, 0.5 apart:
#: ``numpy.linspace(-10.0, 10.0, 41)``, each value exact.
DEFAULT_PRIOR_GRID = tuple(-10.0 + 0.5 * i for i in range(41))


@record
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


@record
class ExperimentConfig:
    """Sizes, trial count, prior grid and seeding for one error-curve run
    (``experiment.run_experiment``)."""

    n1: int = 9
    n2: int = 27
    trials: int = 1000
    prior_grid: tuple[float, ...] = DEFAULT_PRIOR_GRID
    seed: int = 0

    def __post_init__(self):
        check_at_least(0, n1=self.n1, n2=self.n2, seed=self.seed)
        check_at_least(1, trials=self.trials)
        grid = tuple(float(g) for g in self.prior_grid)
        if not grid:
            raise ValidationError("prior_grid must not be empty")
        for g in grid:  # each a Python float, so the check loads no numpy
            check_finite(prior_grid=g)
        object.__setattr__(self, "prior_grid", grid)


@record
class ConfidenceConfig:
    """Background sizes, trial count and seeding for one confidence table
    (``experiment.confidence_curve``): at least one (n1, n2) size, each with
    n1, n2 >= 2, held as a pair of ints, trials >= 2 and seed >= 0."""

    sizes: tuple[tuple[int, int], ...] = ((9, 27), (30, 405), (300, 4050))
    trials: int = 200
    seed: int = 1

    def __post_init__(self):
        sizes = [(n1, n2) for n1, n2 in self.sizes]
        if not sizes:
            raise ValidationError("sizes must not be empty")
        check_at_least(2, trials=self.trials)
        check_at_least(0, seed=self.seed)
        for n1, n2 in sizes:
            check_at_least(2, n1=n1, n2=n2)
        object.__setattr__(self, "sizes", tuple((int(n1), int(n2)) for n1, n2 in sizes))


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
