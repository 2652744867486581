"""Normal-Gamma conjugate machinery and its Student-t posterior predictive.

Each hypothesis class gets a Gaussian score model with unknown mean and
precision. The conjugate prior used throughout is

    mean | precision ~ Normal(mu0, 1 / (beta * precision))
    precision        ~ Gamma(a, rate=b)

Note the gamma is parametrized by shape and *rate* (not scale); the update
formulas below depend on that convention and libraries disagree, so it is
fixed here once. Conditioning on data keeps the posterior in the family, and
the predictive density of a single new score has a closed Student-t form.
"""

from __future__ import annotations

import math

from ._numpy import floats, np, xp
from ._record import record
from .errors import check_at_least, check_finite, check_positive
from .scores import SufficientStats, _LOG_2PI

#: The "much smaller than one" default used for beta, a and b in the
#: non-informative prior. Small enough to stay diffuse at single-digit n
#: while keeping every integral proper.
NONINFORMATIVE_WEIGHT = 0.01


@record
class NormalGammaParams:
    """Normal-Gamma hyperparameters (gamma in shape/rate form).

    Any field may be an array, one law per element of a block. A block of
    backgrounds shares its count, so only ``mu0`` and ``b`` vary in its
    posterior; the quadrature oracle's block of posteriors may also hold a
    ``beta`` and an ``a`` per row.
    """

    mu0: float
    beta: float
    a: float
    b: float

    def __post_init__(self):
        check_finite(mu0=self.mu0)
        check_positive(beta=self.beta, a=self.a, b=self.b)


@record
class StudentT:
    """Location / scale / degrees-of-freedom triple (scale, not variance).

    ``location`` and ``scale`` may be arrays, one predictive per background
    of a block; the dof is shared.
    """

    location: float
    scale: float
    dof: float

    def __post_init__(self):
        check_finite(location=self.location)
        check_positive(scale=self.scale, dof=self.dof)


#: Weak shared prior: zero location, NONINFORMATIVE_WEIGHT for each of beta,
#: a, b. With a = b the precision has prior mean 1; at 0.01 its prior variance
#: is 100, and the conditional prior on the mean is equally diffuse. This is
#: the default ``prior`` of every function that takes one.
NONINFORMATIVE_PRIOR = NormalGammaParams(
    0.0, NONINFORMATIVE_WEIGHT, NONINFORMATIVE_WEIGHT, NONINFORMATIVE_WEIGHT
)


def posterior_update(
    prior: NormalGammaParams, stats: SufficientStats
) -> NormalGammaParams:
    """Condition a Normal-Gamma law on one class's sufficient statistics.

    With n observations of mean m and summed squared deviation S:

        beta' = beta + n
        mu0'  = (beta*mu0 + n*m) / beta'
        a'    = a + n/2
        b'    = b + S/2 + beta*n*(m - mu0)^2 / (2*beta')

    For n = 0 the prior is returned unchanged. Array-valued stats (a block
    of backgrounds) give an array-valued posterior, each element equal to
    the scalar update bit for bit.
    """
    if stats.n == 0:
        return prior
    n = stats.n
    beta_n = prior.beta + n
    mu_n = (prior.beta * prior.mu0 + n * stats.mean) / beta_n
    a_n = prior.a + 0.5 * n
    # shift * shift, not shift ** 2: a float's ** 2 is libm pow, which can
    # round differently from the product that an array's ** 2 computes
    shift = stats.mean - prior.mu0
    b_n = prior.b + 0.5 * stats.sum_sq_dev + prior.beta * n * (shift * shift) / (2.0 * beta_n)
    return NormalGammaParams(mu_n, beta_n, a_n, b_n)


def predictive(posterior: NormalGammaParams) -> StudentT:
    """Closed-form predictive density of one new score, parameters averaged out.

    Student-t with location mu0', scale sqrt(b'(beta'+1) / (a' beta')) and
    2a' degrees of freedom. Returned as a distribution object so callers can
    evaluate it at many points cheaply. An array-valued posterior gives an
    array-valued predictive.
    """
    var = posterior.b * (posterior.beta + 1.0) / (posterior.a * posterior.beta)
    return StudentT(posterior.mu0, xp(var).sqrt(var), 2.0 * posterior.a)


#: Stirling-series coefficients B_2k / (2k (2k - 1)) of log-gamma, k = 1..5.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)


def _log_gamma_half_ratio(x: float) -> float:
    """log Gamma(x + 1/2) - log Gamma(x), accurate for every x > 0.

    The two log-gammas grow like x log x while their difference grows like
    (1/2) log x, so subtracting them loses all precision as x grows (3 nats
    of error at x = 5e14). Above 12 the Stirling series is differenced term
    by term instead, which stays within 4e-15 nats of the exact value.
    """
    if x < 12.0:
        return math.lgamma(x + 0.5) - math.lgamma(x)
    y = x + 0.5
    series = sum(c * (y ** -(2 * k + 1) - x ** -(2 * k + 1)) for k, c in enumerate(_STIRLING))
    return 0.5 * math.log(x) + (x * math.log1p(0.5 / x) - 0.5) + series


def student_t_log_density(dist: StudentT, e):
    """Log density of a location-scale Student-t; vectorized over ``e``.

    An array-valued ``dist``, one predictive per trial of a block,
    broadcasts against ``e``. A plain ``e`` and ``dist`` give a float
    computed with ``math``.
    """
    _, (x,) = floats(e)
    z = (x - dist.location) / dist.scale
    return _t_log_density(z, _t_log_normaliser(dist), dist.dof)


def _t_log_normaliser(dist: StudentT):
    """log Gamma((nu + 1)/2) - log Gamma(nu/2) - log(nu pi)/2 - log(scale)."""
    nu = dist.dof
    log_scale = xp(dist.scale).log(dist.scale)
    return _log_gamma_half_ratio(0.5 * nu) - 0.5 * math.log(nu * math.pi) - log_scale


def _t_log_density(z, log_normaliser, nu):
    """The Student-t log density at standardized offsets z, given its
    ``_t_log_normaliser``: the one expression behind ``student_t_log_density``
    and the exact-rate engine's crossings, so both round alike on arrays."""
    return log_normaliser - 0.5 * (nu + 1.0) * xp(z).log1p(z * z / nu)


def _gamma_log_pdf(lam: np.ndarray, a: float, b: float) -> np.ndarray:
    """Gamma(a, rate=b) log density, the Normal-Gamma's precision marginal."""
    return a * math.log(b) - math.lgamma(a) + (a - 1.0) * np.log(lam) - b * lam


def normal_gamma_log_density(mean, precision, params: NormalGammaParams):
    """Joint log density of (mean, precision) under a Normal-Gamma law.

    Arguments broadcast together. Precisions must be strictly positive; the
    law has no mass at or below zero.
    """
    check_positive(precision=precision)
    lam = np.asarray(precision, dtype=float)
    mu = np.asarray(mean, dtype=float)
    log_normal_part = (
        0.5 * (math.log(params.beta) + np.log(lam) - _LOG_2PI)
        - 0.5 * params.beta * lam * np.square(mu - params.mu0)
    )
    return _gamma_log_pdf(lam, params.a, params.b) + log_normal_part


def sample_params(
    posterior: NormalGammaParams, rng_seed: int, count: int
) -> np.ndarray:
    """Draw (mean, precision) pairs from a Normal-Gamma law.

    Draws precision ~ Gamma(a, rate=b) then mean ~ Normal(mu0, 1/(beta*prec)).
    Returns an array of shape (count, 2): column 0 means, column 1 precisions.
    Deterministic for a given seed.
    """
    check_at_least(1, count=count)
    rng = np.random.default_rng(rng_seed)
    tiny = np.finfo(float).tiny
    lam = rng.gamma(shape=posterior.a, scale=1.0 / posterior.b, size=count)
    # gamma draws with shape << 1 can underflow to exactly 0; clamp so the
    # conditional standard deviation of the mean draw stays finite
    np.maximum(lam, tiny, out=lam)
    sd = np.sqrt(1.0 / np.maximum(posterior.beta * lam, tiny))
    mu = rng.normal(posterior.mu0, sd)
    return np.column_stack([mu, lam])
