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
sufficient statistics, and every call integrates one block of them, stats
of shape (rows, elements) that share a count, such as a posterior's e-grid,
each e's stats (1, e, 0); a lone call is a one-row block. Each law (the
prior, or a posterior per row) has its own shape a, so its own s-grid, and
each element's rate b places its own precision row. numpy gives an element
the same bits in a block as alone, so a block's values equal its lone calls
bit for bit. Only each law's scalar steps run in ``math``: the span's Newton
steps, and lgamma and log(b) in the gamma density.

Integrand. ``_log_joint_coefficients`` writes the log joint density out once,
at mean = m0 + u/r with r = sqrt(beta*precision) of the profile, as a
quadratic in u per precision node. Its two Gaussian factors in the mean, the
prior's (weight beta, offset d0 = m0 - mu0) and the scores' (weight n, offset
d1 = m0 - their mean; n = 0 adds zeros), each contribute
-precision/2 * weight * (u/r + d)^2, expanded; the gamma marginal, the
scores' spread and every normalizer go into the constant, all from one log
of each precision node. beta*d0 + n*d1 is computed, never assumed zero, so
the quadratic is the model's joint density whatever center and scale the
profile gives u. It never forms the completed square about the profile's
mean, which is ``posterior_update``, under test, so the profile only places
the precision nodes and cannot inject the closed-form answer. Carrying d0
and d1 rather than forming m0 + u/r avoids rounding the mean at eps*|m0|,
which matters when |m0| dwarfs the profile's spread. Accuracy is established
by the grid-convergence and lambda-tail-convergence checks in the suite
rather than asserted.

Mean integral. A precision node's row c0*u^2 + c1*u + c2 has c0 < 0, so its
integral over the whole mean line is the Gaussian one,
log = c2 - c1^2/(4*c0) + log(pi/(-c0))/2, to which the row's log scale (the
Jacobians and the trapezoid weight in s) is added; one log-sum-exp over the
precision nodes finishes the integral. The formula holds whatever center and
scale the profile gives u, so a wrong profile moves the result only by
rounding. ``QuadratureSpec.grid_mu`` places no node.

Sweeps. Each sweep reports its largest absolute discrepancy; a NaN one makes
the result NaN, which fails its check. Oracle calls integrate at most
``_BLOCK_NODES`` nodes: ``_posterior_blocks`` hands the predictive sweep and
the two convergence checks a few posteriors per ``quadrature_predictive``
call, and ``joint_evidence_log_lr`` makes one ``quadrature_joint_evidence``
call per list length. The pitfall sweep takes its medians by sorting,
numpy's median bit for bit without the NaN check by which numpy's median
imports ``numpy.ma``.
"""

from __future__ import annotations

import math

from ._numpy import np
from ._record import asdict, record, replace
from .conjugate import (
    NONINFORMATIVE_PRIOR,
    NormalGammaParams,
    _gamma_log_pdf,
    posterior_update,
    predictive,
    sample_params,
    student_t_log_density,
)
from .errors import ValidationError, check_at_least, check_finite, check_positive
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


@record
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


#: Newton steps for each end of the precision span.
_TAIL_NEWTON_STEPS = 8


def _span(a: float, nats: float) -> tuple[float, float, float, float]:
    """log(a), w = 1/sqrt(a) and the ends of the s-span of a shape-``a`` profile.

    The span ends at s = asinh(d / w), d the offsets from the mode of
    log-precision where the profile's log-density a*d - a*(e^d - 1) has
    fallen by ``nats``. Both solve e^d - 1 - d = nats / a, the right one
    written as d = log(1 + d + nats / a). Newton starts outside each root of
    a convex function, so no step crosses it and a short run only widens it."""
    c = nats / a
    lo = -1.0 - c if 2.0 * math.e * c > 1.0 else -math.sqrt(2.0 * math.e * c)
    hi = math.sqrt(2.0 * c)
    for _ in range(_TAIL_NEWTON_STEPS):
        lo -= (math.expm1(lo) - lo - c) / math.expm1(lo)
        hi -= (hi - math.log1p(hi + c)) * (1.0 + hi + c) / (hi + c)
    w = 1.0 / math.sqrt(a)
    return math.log(a), w, math.asinh(lo / w), math.asinh(hi / w)


def _col(x) -> np.ndarray:
    """``x`` with a last axis of length 1, so it broadcasts against nodes."""
    return np.asarray(x)[..., None]


def _profile_nodes(profile: NormalGammaParams, spec: QuadratureSpec, out):
    """Precision nodes and their log scales, laid out against a profile.

    Returns the precision nodes and the per-node log scale: the Jacobians of
    lam = exp(t), of t = log(a/b) + w*sinh(s) and of the mean's
    standardization, plus the trapezoid weights in s. The nodes run along a
    last axis. The shape ``a`` holds one value per leading row (a block of
    posteriors) or one for all, and each value its own s-grid. ``out``, two
    arrays of the block's shape and then the nodes, receives both results.
    """
    shapes = np.ravel(profile.a).tolist()
    spans = np.array([_span(a, spec.lambda_tail_nats) for a in shapes])
    log_a, w, lo, hi = spans.T.reshape((4, *np.shape(profile.a)))
    # np.linspace(lo, hi, ...) along a last axis, by its own arithmetic
    # without its overhead: lo + k * step, then hi as the last node
    s = np.arange(spec.grid_lambda) * _col((hi - lo) / (spec.grid_lambda - 1))
    s += _col(lo)
    s[..., -1] = hi
    lam, t = out
    np.add(_col(log_a - np.log(profile.b)), _col(w) * np.sinh(s), out=t)
    with np.errstate(over="ignore"):  # refused just below, without a warning
        np.exp(t, out=lam)
    # a small shape's tail can reach past float range, where no node is usable
    for a, ends in zip(shapes, lam[..., [0, -1]].reshape(len(shapes), -1)):
        check_positive(**{f"precision node for gamma shape {a!r}": ends})
    # the log scale, its terms added to t in place, in the order written above
    t += np.log(_col(w) * np.cosh(s))
    term = np.multiply(_col(profile.beta), lam)
    np.log(term, out=term)
    term *= 0.5
    t -= term
    step = s[..., 1] - s[..., 0]  # the trapezoid weights: step, halved at each end
    weights = np.full(np.shape(step) + (spec.grid_lambda,), _col(step))
    weights[..., 0] = weights[..., -1] = 0.5 * step
    t += np.log(weights)
    return lam, t


def _log_joint_coefficients(lam, root, center, prior: NormalGammaParams, stats, out):
    """The oracles' log joint density of (mean, lam) at mean = center + u/root,
    as the (u^2, u, 1) coefficients c0, c1, c2, each an array shaped like
    ``lam`` and ``root``, written into ``out`` stacked first and returned.
    The prior's Gaussian factor in the mean (weight beta, offset
    d0 = center - mu0) and the scores' (weight n, offset d1 = center - their
    mean) each add -lam/2 * weight * (u/root + d)^2; n = 0 adds zeros.
    A block's ``center`` and ``stats`` hold one value per row of ``lam``, and
    ``prior`` one law for all rows or one per leading row."""
    d0, d1 = center - prior.mu0, center - stats.mean
    c0, c1, c2 = out
    # each coefficient computed in place, its products and terms in the order of
    # -0.5*lam*(beta + n)/root**2, -lam*(beta*d0 + n*d1)/root and, S the scores' spread,
    # gamma + 0.5*(1+n)*(log(lam) - log(2 pi)) + 0.5*log(beta) - 0.5*lam*(S + beta*d0^2 + n*d1^2)
    np.multiply(-0.5, lam, out=c0)
    c0 *= _col(prior.beta + stats.n)
    term = np.square(root)
    c0 /= term
    np.negative(lam, out=c1)
    c1 *= _col(prior.beta * d0 + stats.n * d1)
    c1 /= root
    # log(lam) once, in term; each law's gamma density over its rows of lam
    np.log(lam, out=term)
    laws = np.broadcast(prior.a, prior.b)
    rows = zip(*(x.reshape(laws.size, -1) for x in (lam, term, c2)))
    for (lam_rows, log_rows, c2_rows), (a, b) in zip(rows, laws):
        c2_rows[...] = _gamma_log_pdf(lam_rows, log_rows, float(a), float(b))
    term -= _LOG_2PI
    term *= 0.5 * (1 + stats.n)
    c2 += term
    c2 += 0.5 * _col(np.log(prior.beta))
    np.multiply(0.5, lam, out=term)
    term *= _col(stats.sum_sq_dev + (prior.beta * (d0 * d0) + stats.n * (d1 * d1)))
    c2 -= term
    return out


def quadrature_predictive(
    posterior: NormalGammaParams, e, spec: QuadratureSpec = QuadratureSpec()
) -> float | np.ndarray:
    """Log predictive density of ``e`` by direct integration.

    Integrates Normal(e | mean, 1/precision) against the Normal-Gamma
    ``posterior`` over (mean, precision), accumulating in the log domain:
    the evidence of the one score ``e`` under ``posterior``, whose stats are
    (1, e, 0). The closed-form counterpart is
    ``student_t_log_density(predictive(p), e)``. Every call is one
    integration over a block of such stats, its rows along the first axis
    of ``e``: a float ``e`` is a one-row block and gives a float, an array
    gives one value per element, each equal to its float call bit for bit.
    A ``posterior`` whose fields are arrays, one value per row of ``e`` as
    a vector or a column (a float is shared), is a block of posteriors:
    each row of ``e`` is probed under its own, again bit for bit as its
    float calls; a block of another row count raises ValidationError.
    """
    e = np.asarray(e, dtype=float)
    check_finite(e=e)
    # the rows are e's first axis; a lone e is one row
    rows = len(e) if e.ndim else 1
    flat = e.reshape(rows, math.prod(e.shape[1:]))
    laws = (posterior.mu0, posterior.beta, posterior.a, posterior.b)
    for shape in map(np.shape, laws):
        if shape not in ((), (rows,), (rows, 1)):
            raise ValidationError(
                f"posterior fields need one law per row of e, of shape {e.shape}, got shape {shape}"
            )
    if any(np.ndim(v) == 1 for v in laws):  # a block's vectors become columns
        posterior = NormalGammaParams(*(_col(v) if np.ndim(v) == 1 else v for v in laws))
    logs = _log_evidence(posterior, SufficientStats(1, flat, 0.0), spec)
    return logs.reshape(e.shape) if e.ndim else logs.item()


def quadrature_joint_evidence(
    prior: NormalGammaParams, scores, spec: QuadratureSpec = QuadratureSpec()
) -> float | np.ndarray:
    """Log marginal likelihood of ``scores`` under ``prior``.

    Integrates the Gaussian likelihood of every score times the Normal-Gamma
    prior density. A class's evidence with and without a trial score appended
    gives that score's predictive density, so an exact Bayesian log-LR can be
    assembled from these without ever forming a parameter posterior. A block
    of equal-length score lists (a 2-D ``scores``) is one integration, giving
    one value per list, each equal to that list's own call bit for bit; a
    lone list is a block of one and gives a float, and a block of no lists
    an empty array. Any other shape, a ragged block among them, raises
    ValidationError.
    """
    try:
        shape = np.shape(scores)
    except ValueError:  # numpy refuses lists of unequal lengths: name each one's shape
        shape = [np.shape(s) for s in scores]
    if not isinstance(shape, tuple) or len(shape) not in (1, 2):
        raise ValidationError(
            f"scores must be a list or a block of equal-length lists, got shape {shape}"
        )
    block = len(shape) == 2
    lists = [collect_stats(s) for s in (scores if block else [scores])]
    means = np.array([[s.mean for s in lists]])
    spreads = np.array([[s.sum_sq_dev for s in lists]])
    logs = _log_evidence(prior, SufficientStats(shape[-1], means, spreads), spec)
    return logs[0] if block else logs.item()


def _log_evidence(prior, stats, spec) -> np.ndarray:
    """The log integral behind both oracles above: the prior density times
    the likelihood of scores with sufficient statistics ``stats``, whose
    mean has the shape (rows, elements) of a block of score lists that
    share a count, one value per element in that shape. ``prior`` holds
    one law for all rows, or fields of shape (rows, 1), one law per row.

    A call's six node arrays (lam, the log scale, root and the three
    coefficients) are one allocation, and each step works in place, each
    product and sum in the order of the formulas. So the largest block of
    memory that a call frees is most of what it used, and the C library
    keeps it for the next call rather than returning it to the system:
    with six separate arrays, at 401 nodes, every call of the predictive
    sweep faulted its memory back in, about 5,800 page faults per ``verify``.
    """
    profile = posterior_update(prior, stats)
    nodes = np.empty((6, *np.shape(stats.mean), spec.grid_lambda))
    lam, log_row_scale = _profile_nodes(profile, spec, out=nodes[:2])
    root = np.multiply(_col(profile.beta), lam, out=nodes[2])
    np.sqrt(root, out=root)
    c0, c1, c2 = _log_joint_coefficients(lam, root, profile.mu0, prior, stats, out=nodes[3:])
    # each row's Gaussian integral over the whole mean line,
    # c2 - c1*c1/(4*c0) + 0.5*log(pi/-c0) + log scale, in the arrays of lam
    # and root, which are read no more
    rows, term = nodes[0], nodes[2]
    np.multiply(c1, c1, out=rows)
    np.multiply(4.0, c0, out=term)
    rows /= term
    np.subtract(c2, rows, out=rows)
    np.negative(c0, out=term)
    np.divide(math.pi, term, out=term)
    np.log(term, out=term)
    term *= 0.5
    rows += term
    rows += log_row_scale
    top = rows.max(axis=-1)
    rows -= top[..., None]
    np.exp(rows, out=rows)
    return top + np.log(np.sum(rows, axis=-1))


def joint_evidence_log_lr(
    cases: list[tuple[BackgroundData, float]],
    prior: NormalGammaParams,
    spec: QuadratureSpec = QuadratureSpec(),
) -> np.ndarray:
    """Bayesian log-LRs assembled purely from quadrature evidence terms, one
    per ``(data, e)`` case: log P(e | H1 data) - log P(e | H2 data), each the
    difference between the class evidence with and without e appended. Must
    agree with the closed-form predictive-ratio route. The score lists of one
    length, over all cases, are integrated in blocks."""
    lists = [
        scores
        for data, e in cases
        for cls in (data.h1_scores, data.h2_scores)
        for scores in ([*cls, e], cls)
    ]
    by_length = {}
    for i, scores in enumerate(lists):
        by_length.setdefault(len(scores), []).append(i)
    evidence = np.empty(len(lists))
    for same_length in by_length.values():
        for index in _blocks(same_length, 1, spec):
            evidence[index] = quadrature_joint_evidence(prior, [lists[i] for i in index], spec)
    gain = evidence[0::2] - evidence[1::2]  # per case and class: with e minus without
    return gain[0::2] - gain[1::2]  # per case: H1's minus H2's


@record
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
        a, mu0, beta = rng.uniform(1.2, 30.0), rng.uniform(-3.0, 3.0), rng.uniform(1.5, 60.0)
        out.append(NormalGammaParams(mu0, beta, a, a * rng.uniform(0.05, 20.0)))
    return out


def _random_dataset(rng: np.random.Generator) -> BackgroundData:
    counts = [int(rng.integers(2, 13)) for _ in Hypothesis]
    world = GeneratorConfig(*rng.uniform(-4.0, 4.0, size=2), *rng.uniform(0.3, 3.0, size=2))
    return BackgroundData(*(generate_scores(world, h, n, rng) for h, n in zip(Hypothesis, counts)))


#: Nodes that one block call of an oracle integrates at most: 64 KiB per
#: float64 node array. Measured on ``verify`` at 401 nodes per row, two of
#: the predictive sweep's posteriors per call took the same time as one
#: (6,817 nodes) and raised peak RSS by 0.25 MB.
_BLOCK_NODES = 2**13


def _blocks(items: list, rows_each: int, spec: QuadratureSpec) -> list[list]:
    """``items`` in runs of at most ``_BLOCK_NODES`` nodes, ``rows_each`` rows each."""
    size = max(1, _BLOCK_NODES // (rows_each * spec.grid_lambda))
    return [items[i : i + size] for i in range(0, len(items), size)]


def _block_posterior(run: list[NormalGammaParams]) -> NormalGammaParams:
    """The posteriors of ``run`` as one, a law per row, each field a column."""
    return NormalGammaParams(*_col(np.array([[p.mu0, p.beta, p.a, p.b] for p in run]).T))


def _posterior_blocks(n_posteriors: int, seed: int, rows_each: int, spec: QuadratureSpec):
    """``n_posteriors`` random posteriors drawn from ``seed``, in ``_blocks``:
    per block, the posteriors as one and each one's predictive."""
    rng = np.random.default_rng(seed)
    for run in _blocks(_random_posteriors(rng, n_posteriors), rows_each, spec):
        yield _block_posterior(run), [predictive(post) for post in run]


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
    side of the predictive location, a few posteriors per oracle call.
    """
    gaps = []
    for block, preds in _posterior_blocks(n_posteriors, seed, n_e, spec):
        e_grids = np.array([
            np.linspace(pred.location - 8.0 * pred.scale, pred.location + 8.0 * pred.scale, n_e)
            for pred in preds
        ])
        closed = [student_t_log_density(pred, e_grid) for pred, e_grid in zip(preds, e_grids)]
        gaps.append(np.ravel(closed - quadrature_predictive(block, e_grids, spec)))
    return _max_abs(np.concatenate(gaps))


def joint_evidence_sweep(
    n_cases: int,
    seed: int = SUITE_SEED,
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Max |predictive-ratio route - joint-evidence route| log-LR discrepancy,
    under the fixed ``NONINFORMATIVE_PRIOR``, every case drawn first."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n_cases):
        data = _random_dataset(rng)
        pred1 = predictive(posterior_update(NONINFORMATIVE_PRIOR, data.h1_stats))
        e = float(rng.uniform(pred1.location - 8.0 * pred1.scale, pred1.location + 8.0 * pred1.scale))
        cases.append((data, e))
    via_joint = joint_evidence_log_lr(cases, NONINFORMATIVE_PRIOR, spec)
    via_predictive = [bayes_log_lr(e, data, NONINFORMATIVE_PRIOR).value for data, e in cases]
    return _max_abs(via_joint - via_predictive)


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
    for k in ``offsets``, a few posteriors per call.
    """
    finer = max(spec, other, key=lambda q: q.grid_lambda)
    gaps = []
    for block, preds in _posterior_blocks(n_posteriors, seed, len(offsets), finer):
        e = np.array([pred.location + np.array(offsets) * pred.scale for pred in preds])
        shift = quadrature_predictive(block, e, spec) - quadrature_predictive(block, e, other)
        gaps.append(np.ravel(shift))
    return _max_abs(np.concatenate(gaps))


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
        medians.append(_median(np.concatenate(divs)))
    return tuple(medians)


def _median(values: np.ndarray) -> float:
    """The median of a nonempty array, numpy's median bit for bit without
    its NaN check, which imports ``numpy.ma``: a NaN anywhere gives NaN."""
    x = np.sort(values)  # NaN sorts last
    n = x.size
    if math.isnan(x[-1]):
        return math.nan
    return float(x[n // 2] if n % 2 else 0.5 * (x[(n - 1) // 2] + x[n // 2]))


# ---------------------------------------------------------------------------
# Suite runner.
# ---------------------------------------------------------------------------


@record
class CheckResult:
    name: str
    value: float
    threshold: float
    comparison: str  # "<=" or ">="
    passed: bool


@record
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
