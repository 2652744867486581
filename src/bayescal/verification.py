"""Brute-force quadrature oracles for the closed-form conjugate results.

The production path never integrates anything: predictive densities come from
the closed Student-t form. This module re-derives those quantities by
integrating the Normal-Gamma joint density over (mean, precision), the mean
in closed form and the precision by a trapezoid rule in log-precision, so the
closed forms can be checked against an independent numerical route, and it
reproduces the failure mode of replacing the exact parameter posterior with a
peak-only approximation.

Grid construction. Each oracle integrates one thing: the Normal-Gamma prior
density times the Gaussian likelihood of a list of scores. A predictive
density is a ratio of two such evidences, p(e | D) = p(D + [e]) / p(D), so a
trial score is just one more score. The integrand is proportional to another
Normal-Gamma, the "profile", obtained by the conjugate update with the
scores. The precision nodes are therefore laid out against that profile:
they sit at t = log(precision) = log(a/b) + w*sinh(s), with a and b the
profile's gamma shape and rate, w = 1/sqrt(a) and s equally spaced: the
double-exponential substitution of Takahasi and Mori (1974), on which the
trapezoid rule converges exponentially for an analytic integrand. The span
of s ends where the profile's log-density in t has fallen by
``lambda_tail_nats`` on each side of its mode, so the truncated mass is about
exp(-lambda_tail_nats) of the integral. Scores enter only through their
sufficient statistics. Stats with array means and sums that share a count,
such as one posterior's e-grid, each e's stats (1, e, 0), share the profile's
shape a, so one s-grid; each element's rate b places its own precision row.

Integrand. ``_log_joint_coefficients`` writes the log joint density out once,
at mean = m0 + u/r with r = sqrt(beta*precision) of the profile, as a
quadratic in u per precision node. It has two Gaussian factors in the mean,
the prior's (weight beta at mu0) and the scores' mean (weight n); each
(center c, weight w) contributes -precision/2 * w * (u/r + d)^2 with
d = m0 - c, expanded, and the gamma marginal, the scores' spread and every
normalizer go into the constant. Sum(w*d) is computed, never assumed zero,
so the quadratic is the model's joint density whatever center and scale the
profile gives u. It never forms the completed square about the profile's
mean, which is ``posterior_update``, under test, so the profile only places
the precision nodes and cannot inject the closed-form answer. Carrying d
rather than forming m0 + u/r avoids rounding the mean at eps*|m0|, which
matters when |m0| dwarfs the profile's spread. Accuracy is established by the
grid-convergence and lambda-tail-convergence checks in the suite rather
than asserted.

Mean integral. A precision node's row c0*u^2 + c1*u + c2 has c0 < 0, so its
integral over the whole mean line is the Gaussian one,
log = c2 - c1^2/(4*c0) + log(pi/(-c0))/2, to which the row's log scale (the
Jacobians and the trapezoid weight in s) is added; one log-sum-exp over the
precision nodes finishes the integral. The formula holds whatever center and
scale the profile gives u, so a wrong profile moves the result only by
rounding. ``QuadratureSpec.grid_mu`` places no node.

Sweeps. Each sweep reports its largest absolute discrepancy. A NaN
discrepancy is not dropped: it makes the sweep's result NaN, which fails
its check.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

from ._numpy import np
from .conjugate import (
    NONINFORMATIVE_PRIOR,
    NormalGammaParams,
    _gamma_log_pdf,
    posterior_update,
    predictive,
    sample_params,
    student_t_log_density,
)
from .errors import check_at_least, check_finite, check_positive
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
    Hypothesis,
    SufficientStats,
    _LOG_2PI,
    collect_stats,
)
from .synthetic import GeneratorConfig, generate_scores

#: Seed of every randomized sweep in the suite, unless one is passed.
SUITE_SEED = 20260810


@dataclass(frozen=True)
class QuadratureSpec:
    """Discretization of the precision integration domain.

    The mean is integrated in closed form: ``grid_mu`` is checked and echoed
    but places no node.
    """

    lambda_tail_nats: float = 40.0
    grid_mu: int = 101
    grid_lambda: int = 101

    def __post_init__(self):
        check_positive(lambda_tail_nats=self.lambda_tail_nats)
        check_at_least(101, grid_mu=self.grid_mu, grid_lambda=self.grid_lambda)

    def doubled(self) -> "QuadratureSpec":
        """The same spec with each grid's spacing halved."""
        return replace(self, grid_mu=2 * self.grid_mu - 1, grid_lambda=2 * self.grid_lambda - 1)

    def tightened(self) -> "QuadratureSpec":
        """The same spec with the precision span's tails twice as deep."""
        return replace(self, lambda_tail_nats=2.0 * self.lambda_tail_nats)


def _trapezoid_weights(step: float, count: int) -> np.ndarray:
    w = np.full(count, step)
    w[0] = w[-1] = 0.5 * step
    return w


#: Newton steps for each end of the precision span.
_TAIL_NEWTON_STEPS = 8


def _tail_ends(a: float, nats: float) -> tuple[float, float]:
    """The offsets d from the mode of log-precision, one each side, where a
    shape-``a`` profile's log-density a*d - a*(e^d - 1) has fallen by ``nats``.

    Both solve e^d - 1 - d = nats / a, the right one written as
    d = log(1 + d + nats / a). Newton starts outside each root of a convex
    function, so no step crosses it and a short run only widens the span."""
    c = nats / a
    lo = -1.0 - c if 2.0 * math.e * c > 1.0 else -math.sqrt(2.0 * math.e * c)
    hi = math.sqrt(2.0 * c)
    for _ in range(_TAIL_NEWTON_STEPS):
        lo -= (math.expm1(lo) - lo - c) / math.expm1(lo)
        hi -= (hi - math.log1p(hi + c)) * (1.0 + hi + c) / (hi + c)
    return lo, hi


def _profile_nodes(profile: NormalGammaParams, spec: QuadratureSpec):
    """Precision nodes and their log scales, laid out against a profile.

    Returns the precision nodes and the per-node log scale: the Jacobians of
    lam = exp(t), of t = log(a/b) + w*sinh(s) and of the mean's
    standardization, plus the trapezoid weights in s.
    """
    a = profile.a
    w = 1.0 / math.sqrt(a)
    lo, hi = (math.asinh(d / w) for d in _tail_ends(a, spec.lambda_tail_nats))
    s = np.linspace(lo, hi, spec.grid_lambda)
    # math.log of each rate, as a lone list takes it; np.log can differ by an ulp
    log_b = np.array([math.log(b) for b in np.ravel(profile.b).tolist()])
    t = (math.log(a) - log_b.reshape(np.shape(profile.b)))[..., None] + w * np.sinh(s)
    with np.errstate(over="ignore"):  # refused just below, without a warning
        lam = np.exp(t)
    # a small shape's tail can reach past float range, where no node is usable
    check_positive(**{f"precision node for gamma shape {a!r}": lam[..., [0, -1]]})
    log_row_scale = (
        t
        + np.log(w * np.cosh(s))
        - 0.5 * np.log(profile.beta * lam)
        + np.log(_trapezoid_weights(s[1] - s[0], s.size))
    )
    return lam, log_row_scale


def _log_joint_coefficients(lam, root, center, prior: NormalGammaParams, stats):
    """The oracles' log joint density of (mean, lam) at mean = center + u/root,
    as one row of (u^2, u, 1) coefficients per entry of ``lam`` and ``root``.
    Each Gaussian factor in the mean (beta at mu0, n at the scores' mean)
    adds -lam/2 * weight * (u/root + d)^2, d = center - its own center.
    A block's ``center`` and ``stats`` hold one value per row of ``lam``."""
    factors = [(prior.mu0, prior.beta)]
    if stats.n > 0:
        factors.append((stats.mean, stats.n))
    # vecdot takes each list's sums as a lone list's 1-D product; a matmul would not
    d = np.array([center - c for c, _ in factors]).T
    w = np.array([weight for _, weight in factors])
    coef = np.empty(lam.shape + (3,))
    coef[..., 0] = -0.5 * lam * w.sum() / root**2
    coef[..., 1] = -lam * np.vecdot(w, d)[..., None] / root
    coef[..., 2] = (
        _gamma_log_pdf(lam, prior.a, prior.b)
        + 0.5 * (1 + stats.n) * (np.log(lam) - _LOG_2PI)
        + 0.5 * math.log(prior.beta)
        - 0.5 * lam * (stats.sum_sq_dev + np.vecdot(w, d**2))[..., None]
    )
    return coef


def quadrature_predictive(
    posterior: NormalGammaParams, e, spec: QuadratureSpec = QuadratureSpec()
) -> float | np.ndarray:
    """Log predictive density of ``e`` by direct integration.

    Integrates Normal(e | mean, 1/precision) against the Normal-Gamma
    ``posterior`` over (mean, precision), accumulating in the log domain:
    the evidence of the one score ``e`` under ``posterior``, whose stats are
    (1, e, 0). The closed-form counterpart is
    ``student_t_log_density(predictive(p), e)``. An array ``e`` is one
    integration over a block of such stats, giving one value per element,
    each equal to its float call bit for bit.
    """
    e = np.asarray(e, dtype=float)
    check_finite(e=e)
    if e.ndim == 0:
        return _log_evidence(posterior, SufficientStats(1, float(e), 0.0), spec)
    flat = e.reshape(-1)
    stats = SufficientStats(1, flat, np.zeros_like(flat))
    return _log_evidence(posterior, stats, spec).reshape(e.shape)


def quadrature_joint_evidence(
    prior: NormalGammaParams, scores, spec: QuadratureSpec = QuadratureSpec()
) -> float:
    """Log marginal likelihood of ``scores`` under ``prior``.

    Integrates the Gaussian likelihood of every score times the Normal-Gamma
    prior density. A class's evidence with and without a trial score appended
    gives that score's predictive density, so an exact Bayesian log-LR can be
    assembled from these without ever forming a parameter posterior.
    """
    return _log_evidence(prior, collect_stats(scores), spec)


def _log_evidence(prior, stats, spec) -> float | np.ndarray:
    """The log integral behind both oracles above: the prior density times
    the likelihood of scores with sufficient statistics ``stats``; stats
    whose mean and sum are arrays, a block of score lists that share a
    count, give one value per element."""
    profile = posterior_update(prior, stats)
    lam, log_row_scale = _profile_nodes(profile, spec)
    root = np.sqrt(profile.beta * lam)
    coef = _log_joint_coefficients(lam, root, profile.mu0, prior, stats)
    c0, c1, c2 = np.moveaxis(coef, -1, 0)
    # each row's Gaussian integral over the whole mean line
    rows = c2 - c1 * c1 / (4.0 * c0) + 0.5 * np.log(math.pi / -c0) + log_row_scale
    top = rows.max(axis=-1)
    logs = top + np.log(np.sum(np.exp(rows - top[..., None]), axis=-1))
    return float(logs) if lam.ndim == 1 else logs


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

    def gain(scores):
        return quadrature_joint_evidence(prior, [*scores, e], spec) - (
            quadrature_joint_evidence(prior, scores, spec)
        )

    return gain(data.h1_scores) - gain(data.h2_scores)


@dataclass(frozen=True)
class PitfallReport:
    """Exact vs point-mass-approximated Bayesian log-LR across a score grid."""

    e_grid: np.ndarray
    exact_log_lr: np.ndarray
    approx_log_lr: np.ndarray

    @property
    def abs_divergence(self) -> np.ndarray:
        return np.abs(self.exact_log_lr - self.approx_log_lr)


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
    counts = [int(rng.integers(2, 13)) for _ in Hypothesis]
    world = GeneratorConfig(*rng.uniform(-4.0, 4.0, size=2), *rng.uniform(0.3, 3.0, size=2))
    return BackgroundData(*(generate_scores(world, h, n, rng) for h, n in zip(Hypothesis, counts)))


def _max_abs(gaps) -> float:
    """Largest |gap|; NaN if any gap is NaN, so a broken evaluation fails its check."""
    return float(np.max(np.abs(gaps), initial=0.0))


def predictive_oracle_sweep(
    n_posteriors: int,
    n_e: int,
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
        closed = student_t_log_density(pred, e_grid)
        gaps.append(closed - quadrature_predictive(post, e_grid, spec))
    return _max_abs(gaps)


def joint_evidence_sweep(
    n_cases: int,
    seed: int = SUITE_SEED,
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Max |predictive-ratio route - joint-evidence route| log-LR discrepancy,
    under the fixed ``NONINFORMATIVE_PRIOR``."""
    rng = np.random.default_rng(seed)
    gaps = []
    for _ in range(n_cases):
        data = _random_dataset(rng)
        pred1 = predictive(posterior_update(NONINFORMATIVE_PRIOR, data.h1_stats))
        e = float(rng.uniform(pred1.location - 8.0 * pred1.scale, pred1.location + 8.0 * pred1.scale))
        via_joint = joint_evidence_log_lr(data, NONINFORMATIVE_PRIOR, e, spec)
        via_predictive = bayes_log_lr(e, data, NONINFORMATIVE_PRIOR).value
        gaps.append(via_joint - via_predictive)
    return _max_abs(gaps)


def empty_evidence_normalization(spec: QuadratureSpec = QuadratureSpec()) -> float:
    """|log integral of the bare prior|, which must vanish, for the fixed
    prior NormalGammaParams(0, 1, 2, 1).

    The tails left outside the span hold about exp(-lambda_tail_nats) of the
    integral, so the residual is rounding: a few 1e-15 at the default spec.
    """
    return abs(quadrature_joint_evidence(NormalGammaParams(0.0, 1.0, 2.0, 1.0), [], spec))


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
        e = pred.location + np.array(offsets) * pred.scale
        gaps.append(quadrature_predictive(post, e, spec) - quadrature_predictive(post, e, other))
    return _max_abs(gaps)


def grid_convergence(seed: int = SUITE_SEED, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Max |result shift| on 2 random posteriors when the precision spacing halves."""
    return _spec_shift(2, seed, spec, spec.doubled(), (-6.0, 0.5, 6.0))


def lambda_tail_convergence(
    seed: int = SUITE_SEED, spec: QuadratureSpec = QuadratureSpec()
) -> float:
    """Max |result shift| on 2 random posteriors under ``spec.tightened()``."""
    return _spec_shift(2, seed, spec, spec.tightened(), (-7.0, 1.0))


def decomposition_sweep(n_samples: int, n_datasets: int, seed: int = SUITE_SEED) -> float:
    """Max |plugin-plus-correction minus Bayesian| residual over sampled thetas,
    under the fixed ``NONINFORMATIVE_PRIOR``.

    Each dataset's thetas go to ``decomposition_residual`` in one array call.
    """
    rng = np.random.default_rng(seed)
    per_dataset = max(1, n_samples // n_datasets)
    per_dataset_worst = []
    for _ in range(n_datasets):
        data = _random_dataset(rng)
        post1 = posterior_update(NONINFORMATIVE_PRIOR, data.h1_stats)
        post2 = posterior_update(NONINFORMATIVE_PRIOR, data.h2_stats)
        e = float(rng.uniform(-8.0, 8.0))
        draws1 = sample_params(post1, int(rng.integers(2**31)), per_dataset)
        draws2 = sample_params(post2, int(rng.integers(2**31)), per_dataset)
        theta = GaussianParams(draws1[:, 0], draws2[:, 0], draws1[:, 1], draws2[:, 1])
        residuals = decomposition_residual(e, data, NONINFORMATIVE_PRIOR, theta)
        per_dataset_worst.append(_max_abs(residuals))
    return _max_abs(per_dataset_worst)


def pitfall_divergence(
    n_trials: int,
    seed: int = SUITE_SEED,
    sizes: tuple[tuple[int, int], ...] = ((9, 27), (90, 270)),
) -> tuple[float, ...]:
    """Median tail divergence of the peak-only approximation per data size,
    under the fixed ``NONINFORMATIVE_PRIOR``."""
    check_at_least(1, n_trials=n_trials)
    world = GeneratorConfig()
    e_tail = world.mu1_true + 4.0 * world.sigma1_true
    medians = []
    for k, (n1, n2) in enumerate(sizes):
        divs = [
            approximate_posterior_pitfall(stats, NONINFORMATIVE_PRIOR, e_tail).abs_divergence
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
    """Check every sweep count (each >= 1) before any sweep runs, then run
    every oracle check at its stated tolerance and collect the results. The
    other sweeps run at their own fixed sizes."""
    # the six sizes as the signature names them, for the check and the echo
    counts = {k: v for k, v in locals().items() if k.startswith("n_")}
    check_at_least(1, **counts)
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
        _check("empty_evidence_normalization", empty_evidence_normalization(spec), 1e-7, "<="),
        _check("grid_convergence", grid_convergence(seed, spec), 1e-8, "<="),
        _check("lambda_tail_convergence", lambda_tail_convergence(seed, spec), 1e-7, "<="),
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
    config = {"seed": seed, **counts, "quadrature": asdict(spec)}
    return VerificationReport(checks=checks, config=config)
