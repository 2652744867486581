"""Brute-force quadrature oracles for the closed-form conjugate results.

The production path never integrates anything: predictive densities come from
the closed Student-t form. This module re-derives those quantities by direct
2-D trapezoid quadrature over (mean, precision) so the closed forms can be
checked against an independent numerical route, and it reproduces the failure
mode of replacing the exact parameter posterior with a peak-only
approximation.

Grid construction. The integrands here all factor as
(Gaussian likelihood terms) x (Normal-Gamma density), whose product is
proportional to another Normal-Gamma, the "profile", obtained by the
conjugate update with every Gaussian factor's point. The quadrature grid is
therefore laid out against that profile:

* precision nodes sit at equally spaced quantiles of the profile's gamma
  marginal between ``lambda_quantile_eps`` and its complement, with the
  inverse-CDF Jacobian applied, so the truncated mass is ~2*eps of the
  integral regardless of where the evaluation point lies;
* mean nodes span ``mu_halfwidth_sds`` conditional standard deviations of
  the profile on each side, via the standardized variable
  u = sqrt(beta*precision) * (mean - location), whose law under the profile
  is standard normal.

Integrand. ``_log_joint_coefficients`` writes the log joint density out once,
at nodes mean = m0 + u/r with r = sqrt(beta*precision) of the profile, as a
quadratic in u per precision row: every Gaussian factor (center c, weight w)
contributes -precision/2 * w * (u/r + d)^2 with d = m0 - c, expanded, and the
gamma marginal and every normalizer go into the constant. Sum(w*d) is
computed, never assumed zero, so the quadratic is the model's joint density
whatever center and scale the nodes have. It never forms the completed
square about the profile's mean, which is ``posterior_update``, under test,
so the warping only places nodes and cannot inject the closed-form answer.
Carrying d rather than forming m0 + u/r avoids rounding each node's mean at
eps*|m0|, which matters when |m0| dwarfs the profile's spread. Accuracy is
established by the grid-convergence and quantile-eps-convergence checks in
the suite rather than asserted.

Reduction. The grid is never held whole. It is evaluated in blocks of
precision rows, about ``_BLOCK_NODES`` nodes each, into one buffer allocated
once per call, so that a block's work stays in cache. Each block is one
matrix product of its rows' coefficients with the fixed (u^2, u, 1) basis,
shifted by its own peak, exponentiated in place and reduced by a product
with the mean-axis trapezoid weights; the block sums are combined by a
log-sum-exp over the block peaks with ``math.fsum``. The result is
bit-reproducible for a given grid and within a few ulps of a single-block
evaluation. The precision nodes' gamma quantiles depend only on the
profile's shape, so they are computed once per shape.

Sweeps. Each sweep reports its largest absolute discrepancy. A NaN
discrepancy is not dropped: it makes the sweep's result NaN, which fails
its check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .conjugate import (
    NONINFORMATIVE_PRIOR,
    NormalGammaParams,
    _gamma_log_pdf,
    posterior_update,
    predictive,
    sample_params,
    student_t_log_density,
)
from .errors import ValidationError, check_at_least, check_positive
from .experiment import _block_stats
from .lr import (
    bayes_log_lr,
    bayes_log_lr_array,
    decomposition_residual,
    plugin_log_lr_array,
)
from .scores import (
    BackgroundData,
    GaussianParams,
    _LOG_2PI,
    collect_stats,
)
from .synthetic import GeneratorConfig

#: Seed of every randomized sweep in the suite, unless one is passed.
SUITE_SEED = 20260810


@dataclass(frozen=True)
class QuadratureSpec:
    """Discretization of the (mean, precision) integration domain."""

    mu_halfwidth_sds: float = 12.0
    lambda_quantile_eps: float = 1e-8
    grid_mu: int = 2001
    grid_lambda: int = 2001

    def __post_init__(self):
        check_positive(mu_halfwidth_sds=self.mu_halfwidth_sds)
        eps = self.lambda_quantile_eps
        if not (0.0 < eps < 0.5):
            raise ValidationError(f"lambda_quantile_eps must lie in (0, 0.5), got {eps!r}")
        if 1.0 - eps == 1.0:
            raise ValidationError("lambda_quantile_eps is below float resolution")
        for name in ("grid_mu", "grid_lambda"):
            g = getattr(self, name)
            if g < 101 or g % 2 == 0:
                raise ValidationError(f"{name} must be odd and >= 101, got {g}")

    def doubled(self) -> "QuadratureSpec":
        """The same spec at twice the resolution in both directions."""
        return replace(self, grid_mu=2 * self.grid_mu - 1, grid_lambda=2 * self.grid_lambda - 1)


def _trapezoid_weights(step: float, count: int) -> np.ndarray:
    w = np.full(count, step)
    w[0] = w[-1] = 0.5 * step
    return w


#: Quadrature nodes evaluated at a time. The integrand is computed over a
#: block of whole precision rows, ``max(1, _BLOCK_NODES // grid_mu)`` of them.
#: At 128 KiB, the block's one float64 buffer stays in a 1-2 MiB L2 cache
#: instead of streaming a grid-sized array through memory once per step.
#: 16k to 64k measured alike at 401^2 and 1201^2; 8k and below were slower.
_BLOCK_NODES = 16_384


@functools.lru_cache(maxsize=256)
def _gamma_quantiles(a: float, eps: float, count: int) -> np.ndarray:
    """Read-only Gamma(a, rate=1) quantiles at ``count`` equally spaced
    probabilities from eps to 1 - eps: one array per profile shape."""
    # the one use of scipy: imported here so that only the oracles load it
    from scipy.special import gammaincinv

    q = gammaincinv(a, np.linspace(eps, 1.0 - eps, count))
    q.flags.writeable = False
    return q


def _profile_nodes(profile: NormalGammaParams, spec: QuadratureSpec):
    """Quadrature nodes, Jacobians and weights laid out against a profile.

    Returns the precision nodes, the per-row log scale (inverse-CDF and
    standardization Jacobians plus the precision-axis trapezoid weights, all
    independent of the mean direction), the standardized mean offsets u, and
    the mean-axis trapezoid weights kept linear for the final reduction.
    """
    eps = spec.lambda_quantile_eps
    v = np.linspace(eps, 1.0 - eps, spec.grid_lambda)
    lam = _gamma_quantiles(profile.a, eps, spec.grid_lambda) / profile.b
    if not (np.all(np.isfinite(lam)) and lam[0] > 0.0):
        raise ValidationError(
            "degenerate precision grid; the integrand's effective gamma shape "
            "is too small for quadrature (need roughly >= 0.5)"
        )
    u = np.linspace(-spec.mu_halfwidth_sds, spec.mu_halfwidth_sds, spec.grid_mu)
    log_row_scale = (
        -_gamma_log_pdf(lam, profile.a, profile.b)
        - 0.5 * np.log(profile.beta * lam)
        + np.log(_trapezoid_weights(v[1] - v[0], v.size))
    )
    return lam, log_row_scale, u, _trapezoid_weights(u[1] - u[0], u.size)


def _log_joint_coefficients(lam, root, center, prior: NormalGammaParams, stats, e):
    """The oracles' log joint density of (mean, lam) at mean = center + u/root,
    as one row of (u^2, u, 1) coefficients per entry of ``lam`` and ``root``.
    Each Gaussian factor (beta at mu0, n at the scores' mean, 1 at ``e``)
    adds -lam/2 * weight * (u/root + d)^2, d = center - its own center."""
    factors = [(prior.mu0, prior.beta)]
    if stats.n > 0:
        factors.append((stats.mean, stats.n))
    if e is not None:
        factors.append((float(e), 1.0))
    d = np.array([center - c for c, _ in factors])
    w = np.array([weight for _, weight in factors])
    coef = np.empty((lam.size, 3))
    coef[:, 0] = -0.5 * lam * w.sum() / root**2
    coef[:, 1] = -lam * (w @ d) / root
    coef[:, 2] = (
        _gamma_log_pdf(lam, prior.a, prior.b)
        + 0.5 * (1 + stats.n + (e is not None)) * (np.log(lam) - _LOG_2PI)
        + 0.5 * math.log(prior.beta)
        - 0.5 * lam * (stats.sum_sq_dev + w @ d**2)
    )
    return coef


def quadrature_predictive(
    posterior: NormalGammaParams, e: float, spec: QuadratureSpec = QuadratureSpec()
) -> float:
    """Log predictive density of ``e`` by direct integration.

    Integrates Normal(e | mean, 1/precision) against the Normal-Gamma
    ``posterior`` over (mean, precision), accumulating in the log domain:
    the joint evidence of ``e`` alone under ``posterior``. The closed-form
    counterpart is ``student_t_log_density(predictive(p), e)``.
    """
    return _log_evidence(posterior, (), e, spec)


def quadrature_joint_evidence(
    prior: NormalGammaParams,
    class_scores,
    e: float | None = None,
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Log marginal likelihood of one class's scores (plus optionally ``e``).

    Integrates the product of the class Gaussian likelihood at every score,
    optionally the trial score's likelihood, and the Normal-Gamma prior
    density. These are the normalizers that an exact Bayesian log-LR can be
    assembled from without ever forming a parameter posterior.
    """
    return _log_evidence(prior, class_scores, e, spec)


def _log_evidence(prior, class_scores, e, spec) -> float:
    """The log integral behind both oracles above: the prior density times
    the class scores' likelihood (through their sufficient statistics) and,
    unless ``e`` is None, the Gaussian likelihood of ``e``. Neither oracle
    calls the other, so each can be replaced on its own."""
    stats = collect_stats(class_scores)
    points = list(np.asarray(class_scores, dtype=float).ravel())
    if e is not None:
        points.append(float(e))
    profile = posterior_update(prior, collect_stats(points))
    lam, log_row_scale, u, w_u = _profile_nodes(profile, spec)
    root = np.sqrt(profile.beta * lam)
    coef = _log_joint_coefficients(lam, root, profile.mu0, prior, stats, e)
    coef[:, 2] += log_row_scale
    basis = np.stack((u * u, u, np.ones_like(u)))
    rows = max(1, _BLOCK_NODES // spec.grid_mu)
    buffer = np.empty((min(rows, lam.size), u.size))
    peaks, sums = [], []
    for start in range(0, lam.size, rows):
        block = coef[start : start + rows]
        log_f = np.matmul(block, basis, out=buffer[: len(block)])
        peak = float(log_f.max())
        log_f -= peak
        np.exp(log_f, out=log_f)
        peaks.append(peak)
        sums.append(float(np.sum(log_f @ w_u)))
    top = max(peaks)
    return top + math.log(math.fsum(s * math.exp(p - top) for p, s in zip(peaks, sums)))


def joint_evidence_log_lr(
    data: BackgroundData,
    prior: NormalGammaParams,
    e: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Bayesian log-LR assembled purely from quadrature evidence terms.

    log P(e | H1 data) - log P(e | H2 data), each obtained as the difference
    between the class evidence with and without the trial score appended.
    Must agree with the closed-form predictive-ratio route.
    """
    gain_h1 = quadrature_joint_evidence(prior, data.h1_scores, e, spec) - (
        quadrature_joint_evidence(prior, data.h1_scores, None, spec)
    )
    gain_h2 = quadrature_joint_evidence(prior, data.h2_scores, e, spec) - (
        quadrature_joint_evidence(prior, data.h2_scores, None, spec)
    )
    return gain_h1 - gain_h2


@dataclass(frozen=True)
class PitfallReport:
    """Exact vs point-mass-approximated Bayesian log-LR across a score grid."""

    e_grid: np.ndarray
    exact_log_lr: np.ndarray
    approx_log_lr: np.ndarray

    @property
    def abs_divergence(self) -> np.ndarray:
        return np.abs(self.exact_log_lr - self.approx_log_lr)

    @property
    def max_divergence(self) -> float:
        return float(self.abs_divergence.max())


def approximate_posterior_pitfall(
    data: BackgroundData,
    prior: NormalGammaParams,
    e_grid,
) -> PitfallReport:
    """Show what breaks when the parameter posterior is collapsed to its peak.

    Replaces each class's Normal-Gamma posterior with a point mass at its
    joint mode and recomputes the log-LR. The approximation is faithful near
    the posterior peak but ignores the tails, which is exactly where the
    likelihood of an outlying trial score puts its weight, so the divergence
    from the exact ratio grows in the tails and shrinks with more data.

    ``data`` is read through its ``h1_stats`` and ``h2_stats``, as
    ``fit_plugin`` reads it: array-valued stats, a block of backgrounds,
    with a scalar ``e_grid`` give one value per trial.
    """
    e_grid = np.asarray(e_grid, dtype=float)
    stats1, stats2 = data.h1_stats, data.h2_stats
    check_at_least(2, n1=stats1.n, n2=stats2.n)
    post1 = posterior_update(prior, stats1)
    post2 = posterior_update(prior, stats2)
    # Joint mode of a Normal-Gamma: mean at mu0, precision at (a - 1/2) / b.
    theta_mode = GaussianParams(
        post1.mu0,
        post2.mu0,
        (post1.a - 0.5) / post1.b,
        (post2.a - 0.5) / post2.b,
    )
    exact = bayes_log_lr_array(e_grid, predictive(post1), predictive(post2))
    approx = plugin_log_lr_array(e_grid, theta_mode)
    return PitfallReport(e_grid=e_grid, exact_log_lr=exact, approx_log_lr=approx)


# ---------------------------------------------------------------------------
# Randomized sweeps used by both the test suite and the `verify` subcommand.
# ---------------------------------------------------------------------------


def _random_posteriors(rng: np.random.Generator, count: int) -> list[NormalGammaParams]:
    """Posterior-like Normal-Gamma draws spanning realistic fitted ranges."""
    out = []
    for _ in range(count):
        a = rng.uniform(1.2, 30.0)
        out.append(
            NormalGammaParams(
                mu0=rng.uniform(-3.0, 3.0),
                beta=rng.uniform(1.5, 60.0),
                a=a,
                b=a * rng.uniform(0.05, 20.0),
            )
        )
    return out


def _random_dataset(rng: np.random.Generator) -> BackgroundData:
    n1 = int(rng.integers(2, 13))
    n2 = int(rng.integers(2, 13))
    mu1, mu2 = rng.uniform(-4.0, 4.0, size=2)
    sd1, sd2 = rng.uniform(0.3, 3.0, size=2)
    return BackgroundData(
        rng.normal(mu1, sd1, size=n1),
        rng.normal(mu2, sd2, size=n2),
    )


def _max_abs(gaps) -> float:
    """Largest |gap|; NaN if any gap is NaN, so a broken evaluation fails its check."""
    return float(np.max(np.abs(gaps), initial=0.0))


def predictive_oracle_sweep(
    n_posteriors: int = 50,
    n_e: int = 17,
    seed: int = SUITE_SEED,
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Max |closed-form - quadrature| log predictive density over a sweep.

    Each posterior is probed on an e-grid spanning 8 predictive scales each
    side of the predictive location.
    """
    rng = np.random.default_rng(seed)
    gaps = []
    for post in _random_posteriors(rng, n_posteriors):
        pred = predictive(post)
        e_grid = np.linspace(
            pred.location - 8.0 * pred.scale, pred.location + 8.0 * pred.scale, n_e
        )
        for e in e_grid:
            closed = student_t_log_density(pred, float(e))
            gaps.append(closed - quadrature_predictive(post, float(e), spec))
    return _max_abs(gaps)


def joint_evidence_sweep(
    n_cases: int = 20,
    seed: int = SUITE_SEED,
    spec: QuadratureSpec = QuadratureSpec(),
    prior: NormalGammaParams = NONINFORMATIVE_PRIOR,
) -> float:
    """Max |predictive-ratio route - joint-evidence route| log-LR discrepancy."""
    rng = np.random.default_rng(seed)
    gaps = []
    for _ in range(n_cases):
        data = _random_dataset(rng)
        pred1 = predictive(posterior_update(prior, data.h1_stats))
        e = float(rng.uniform(pred1.location - 8.0 * pred1.scale, pred1.location + 8.0 * pred1.scale))
        via_joint = joint_evidence_log_lr(data, prior, e, spec)
        via_predictive = bayes_log_lr(e, data, prior).value
        gaps.append(via_joint - via_predictive)
    return _max_abs(gaps)


def single_score_consistency(
    n_cases: int = 5,
    seed: int = SUITE_SEED,
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Max gap between one-score evidence and the prior predictive density."""
    rng = np.random.default_rng(seed)
    gaps = []
    for post in _random_posteriors(rng, n_cases):
        s = float(rng.uniform(post.mu0 - 4.0, post.mu0 + 4.0))
        joint = quadrature_joint_evidence(post, [s], None, spec)
        gaps.append(joint - quadrature_predictive(post, s, spec))
    return _max_abs(gaps)


def empty_evidence_normalization(
    spec: QuadratureSpec = QuadratureSpec(),
    prior: NormalGammaParams = NormalGammaParams(0.0, 1.0, 2.0, 1.0),
) -> float:
    """|log integral of the bare prior|, which must vanish.

    The residual is dominated by the deliberate 2*eps quantile truncation of
    the precision axis, so it sits near 2 * lambda_quantile_eps, not at zero.
    """
    return abs(quadrature_joint_evidence(prior, [], None, spec))


def _spec_shift(
    n_posteriors: int,
    seed: int,
    spec: QuadratureSpec,
    other: QuadratureSpec,
    offsets: tuple[float, ...],
) -> float:
    """Max |quadrature_predictive under ``spec`` minus under ``other``|.

    Probed at e = location + k * scale of each random posterior's predictive,
    for k in ``offsets``.
    """
    rng = np.random.default_rng(seed)
    gaps = []
    for post in _random_posteriors(rng, n_posteriors):
        pred = predictive(post)
        for k in offsets:
            e = pred.location + k * pred.scale
            gaps.append(quadrature_predictive(post, e, spec) - quadrature_predictive(post, e, other))
    return _max_abs(gaps)


def grid_convergence(
    n_posteriors: int = 2,
    seed: int = SUITE_SEED,
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Max |result shift| when both grid resolutions are doubled."""
    return _spec_shift(n_posteriors, seed, spec, spec.doubled(), (-6.0, 0.5, 6.0))


def quantile_eps_convergence(
    n_posteriors: int = 2,
    seed: int = SUITE_SEED,
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Max |result shift| when the precision-grid tail cutoff is tightened 100x."""
    tightened = replace(spec, lambda_quantile_eps=spec.lambda_quantile_eps * 1e-2)
    return _spec_shift(n_posteriors, seed, spec, tightened, (-7.0, 1.0))


def decomposition_sweep(
    n_samples: int = 10_000,
    n_datasets: int = 5,
    seed: int = SUITE_SEED,
    prior: NormalGammaParams = NONINFORMATIVE_PRIOR,
) -> float:
    """Max |plugin-plus-correction minus Bayesian| residual over sampled thetas.

    Each dataset's thetas go to ``decomposition_residual`` in one array call.
    """
    rng = np.random.default_rng(seed)
    per_dataset = max(1, n_samples // n_datasets)
    per_dataset_worst = []
    for _ in range(n_datasets):
        data = _random_dataset(rng)
        post1 = posterior_update(prior, data.h1_stats)
        post2 = posterior_update(prior, data.h2_stats)
        e = float(rng.uniform(-8.0, 8.0))
        draws1 = sample_params(post1, int(rng.integers(2**31)), per_dataset)
        draws2 = sample_params(post2, int(rng.integers(2**31)), per_dataset)
        theta = GaussianParams(draws1[:, 0], draws2[:, 0], draws1[:, 1], draws2[:, 1])
        per_dataset_worst.append(_max_abs(decomposition_residual(e, data, prior, theta)))
    return _max_abs(per_dataset_worst)


def pitfall_divergence(
    n_trials: int = 200,
    seed: int = SUITE_SEED,
    prior: NormalGammaParams = NONINFORMATIVE_PRIOR,
    sizes: tuple[tuple[int, int], ...] = ((9, 27), (90, 270)),
) -> tuple[float, ...]:
    """Median tail divergence of the peak-only approximation per data size."""
    check_at_least(1, n_trials=n_trials)
    world = GeneratorConfig()
    e_tail = world.mu1_true + 4.0 * world.sigma1_true
    medians = []
    for k, (n1, n2) in enumerate(sizes):
        divs = [
            approximate_posterior_pitfall(stats, prior, e_tail).abs_divergence
            for stats in _block_stats(world, n1, n2, n_trials, seed, k)
        ]
        medians.append(float(np.median(np.concatenate(divs))))
    return tuple(medians)


# ---------------------------------------------------------------------------
# Suite runner.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    comparison: str  # "<=" or ">="
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]
    config: dict

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        """The report as strict JSON data: a non-finite check value becomes None."""
        checks = [asdict(c) for c in self.checks]
        for c in checks:
            if not math.isfinite(c["value"]):
                c["value"] = None
        return {"ok": self.ok, "checks": checks, "config": self.config}


def _check(name: str, value: float, threshold: float, comparison: str) -> CheckResult:
    passed = value <= threshold if comparison == "<=" else value >= threshold
    return CheckResult(name, float(value), float(threshold), comparison, bool(passed))


def run_verification_suite(
    seed: int = SUITE_SEED,
    n_posteriors: int = 50,
    n_e: int = 17,
    n_joint_cases: int = 20,
    n_theta_samples: int = 10_000,
    n_theta_datasets: int = 5,
    n_pitfall_trials: int = 200,
    spec: QuadratureSpec = QuadratureSpec(),
) -> VerificationReport:
    """Check every sweep count (each must be >= 1) before any sweep runs, then
    run every oracle check at its stated tolerance and collect the results."""
    check_at_least(
        1, n_posteriors=n_posteriors, n_e=n_e, n_joint_cases=n_joint_cases,
        n_theta_samples=n_theta_samples, n_theta_datasets=n_theta_datasets,
        n_pitfall_trials=n_pitfall_trials,
    )
    pitfall_small, pitfall_large = pitfall_divergence(n_pitfall_trials, seed)
    checks = (
        _check(
            "predictive_closed_form_vs_quadrature",
            predictive_oracle_sweep(n_posteriors, n_e, seed, spec),
            1e-6,
            "<=",
        ),
        _check(
            "joint_evidence_route_vs_predictive_route",
            joint_evidence_sweep(n_joint_cases, seed, spec),
            1e-6,
            "<=",
        ),
        _check(
            "single_score_evidence_vs_prior_predictive",
            single_score_consistency(5, seed, spec),
            1e-8,
            "<=",
        ),
        _check("empty_evidence_normalization", empty_evidence_normalization(spec), 1e-7, "<="),
        _check("grid_convergence", grid_convergence(2, seed, spec), 1e-8, "<="),
        _check(
            "quantile_eps_convergence",
            quantile_eps_convergence(2, seed, spec),
            1e-7,
            "<=",
        ),
        _check(
            "plugin_plus_correction_identity",
            decomposition_sweep(n_theta_samples, n_theta_datasets, seed),
            1e-9,
            "<=",
        ),
        _check("peak_only_posterior_tail_divergence", pitfall_small, 0.5, ">="),
        _check(
            "peak_only_posterior_divergence_shrinks",
            pitfall_small - pitfall_large,
            0.0,
            ">=",
        ),
    )
    config = {
        "seed": seed,
        "n_posteriors": n_posteriors,
        "n_e": n_e,
        "n_joint_cases": n_joint_cases,
        "n_theta_samples": n_theta_samples,
        "n_theta_datasets": n_theta_datasets,
        "n_pitfall_trials": n_pitfall_trials,
        "quadrature": asdict(spec),
    }
    return VerificationReport(checks=checks, config=config)
