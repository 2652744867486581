"""Quadrature oracles versus the closed forms, and the peak-only pitfall."""

import hashlib
import json
import math
import platform
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from bayescal import cli, conjugate, verification
from bayescal import (
    BackgroundData,
    GeneratorConfig,
    Hypothesis,
    NormalGammaParams,
    QuadratureSpec,
    ValidationError,
    approximate_posterior_pitfall,
    bayes_log_lr,
    generate_scores,
    joint_evidence_log_lr,
    predictive,
    quadrature_joint_evidence,
    quadrature_predictive,
    replace,
    student_t_log_density,
)
from bayescal.conjugate import NONINFORMATIVE_PRIOR, StudentT, posterior_update
from bayescal.scores import _LOG_2PI, SufficientStats, collect_stats, gaussian_log_density
from bayescal.synthetic import background_stats
from bayescal.verification import (
    decomposition_sweep,
    grid_convergence,
    joint_evidence_sweep,
    pitfall_divergence,
    predictive_oracle_sweep,
    lambda_tail_convergence,
    run_verification_suite,
)

# A finer grid than the default, so that these tests reach a second
# resolution at a fraction of a second per call.
FAST = QuadratureSpec(grid_mu=601, grid_lambda=601)

MIRROR_DATA = BackgroundData((1.0, 2.0, 3.0), (-3.0, -2.0, -1.0))


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.lambda_tail_nats == 40.0
        assert spec.grid_mu == spec.grid_lambda == 101

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grid_mu": 99},           # too small
            {"lambda_tail_nats": 0.0},
            {"lambda_tail_nats": math.inf},
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValidationError):
            QuadratureSpec(**kwargs)

    def test_tightened_doubles_the_tail(self):
        assert QuadratureSpec().tightened() == QuadratureSpec(lambda_tail_nats=80.0)

    def test_default_spec_is_exact_to_rounding(self):
        # the suite's own sweep sizes and seed, at the 101^2 default
        assert predictive_oracle_sweep(50, 17) <= 1e-12
        assert joint_evidence_sweep(20) <= 1e-12

    @pytest.mark.parametrize("grid_mu, grid_lambda", [(101, 102), (101, 200)])
    def test_even_grids_are_exact_to_rounding(self, grid_mu, grid_lambda):
        # no rule needs a centre node, so an even size is as exact as an odd
        # one; grid_mu places no node, so only grid_lambda is varied
        spec = QuadratureSpec(grid_mu=grid_mu, grid_lambda=grid_lambda)
        assert predictive_oracle_sweep(50, 17, spec=spec) <= 1e-12
        assert joint_evidence_sweep(20, spec=spec) <= 1e-12

    def test_doubled_halves_the_spacing(self):
        spec = QuadratureSpec(grid_mu=600, grid_lambda=301).doubled()
        assert spec.grid_mu == 1199 and spec.grid_lambda == 601

    def test_grid_mu_places_no_node(self):
        # the mean is integrated in closed form; grid_mu is only validated
        post = NormalGammaParams(-1.2, 12.0, 6.5, 9.0)
        e = np.array([-3.0, 0.5, 4.0])
        values = [
            quadrature_predictive(post, e, QuadratureSpec(grid_mu=grid_mu, grid_lambda=201))
            for grid_mu in (101, 1201)
        ]
        assert values[0].tolist() == values[1].tolist()


class TestPredictiveOracle:
    def test_unit_posterior_cross_check(self):
        # predictive is St(0, sqrt(2), 2), whose mode density is exactly 1/4
        post = NormalGammaParams(0.0, 1.0, 1.0, 1.0)
        closed = student_t_log_density(predictive(post), 0.0)
        assert math.isclose(closed, -math.log(4.0), rel_tol=1e-12)
        assert abs(quadrature_predictive(post, 0.0, FAST) - closed) < 1e-6

    def test_diffuse_prior_predictive_still_accurate(self):
        # profile shape a + 1/2 is 0.51 for the weak prior, where the sinh map
        # still puts enough nodes on the left tail of the precision
        prior = NONINFORMATIVE_PRIOR
        pred = predictive(prior)
        for e in (0.5, 3.0, 1e3):
            closed = student_t_log_density(pred, e)
            assert abs(quadrature_predictive(prior, e, FAST) - closed) < 1e-6

    @pytest.mark.parametrize(
        "post",
        [
            NormalGammaParams(0.0, 3.01, 1.51, 1.03),   # small-n posterior
            NormalGammaParams(-1.2, 12.0, 6.5, 9.0),
            NormalGammaParams(2.0, 40.0, 21.0, 4.2),    # tight precision
        ],
    )
    def test_matches_closed_form_across_e_grid(self, post):
        pred = predictive(post)
        e_grid = pred.location + pred.scale * np.linspace(-8, 8, 9)
        for e in e_grid:
            closed = student_t_log_density(pred, float(e))
            quad = quadrature_predictive(post, float(e), FAST)
            assert abs(quad - closed) < 1e-6

    def test_grid_convergence_below_tolerance(self):
        assert grid_convergence(spec=FAST) < 1e-8

    def test_lambda_tail_convergence(self):
        # tails of 40 and 80 nats both hold all but e^-40 of the integral
        assert lambda_tail_convergence(spec=FAST) < 1e-7

    def test_lambda_tail_convergence_fails_a_short_tail(self):
        # 10 nats leave about e^-10 of the integral outside the span
        assert lambda_tail_convergence(spec=QuadratureSpec(lambda_tail_nats=10.0)) > 1e-7

    def test_rejects_degenerate_precision_grid(self):
        # integrating the bare noninformative prior alone: gamma shape 0.01
        # puts the span's left end near precision e^-4000, below float range,
        # which the oracle refuses rather than mis-integrating
        with pytest.raises(ValidationError, match="gamma shape"):
            quadrature_joint_evidence(NONINFORMATIVE_PRIOR, [], FAST)

    def test_rejects_precision_beyond_float_range(self):
        # rate 1e-308 puts the profile's mode at precision 2.5e308
        with pytest.raises(
            ValidationError,
            match=r"^precision node for gamma shape 2\.5 must be finite and > 0, got inf$",
        ):
            quadrature_predictive(NormalGammaParams(0.0, 1.0, 2.0, 1e-308), 0.0)


class TestJointEvidenceOracle:
    def test_empty_scores_normalize(self):
        prior = NormalGammaParams(0.0, 1.0, 2.0, 1.0)
        assert abs(quadrature_joint_evidence(prior, [], FAST)) < 1e-7

    @pytest.mark.parametrize("scores", [[1.0, 2.0], []])
    def test_returns_a_python_float(self, scores):
        prior = NormalGammaParams(0.0, 1.0, 2.0, 1.0)
        assert type(quadrature_joint_evidence(prior, scores)) is float

    @pytest.mark.parametrize("e", [-3.0, 0.5, 4.0])
    def test_predictive_is_the_evidence_of_one_score(self, e):
        post = NormalGammaParams(-1.2, 12.0, 6.5, 9.0)
        assert quadrature_predictive(post, e, FAST) == quadrature_joint_evidence(post, [e], FAST)

    def test_route_equivalence_on_mirror_data(self):
        prior = NONINFORMATIVE_PRIOR
        for e in (-2.0, 0.0, 2.0, 5.0):
            via_joint = joint_evidence_log_lr(MIRROR_DATA, prior, e, FAST)
            via_predictive = bayes_log_lr(e, MIRROR_DATA, prior).value
            assert abs(via_joint - via_predictive) < 1e-6

    def test_route_equivalence_randomized(self):
        rng = np.random.default_rng(17)
        prior = NONINFORMATIVE_PRIOR
        for _ in range(5):
            data = BackgroundData(
                rng.normal(rng.uniform(-3, 3), rng.uniform(0.5, 2), rng.integers(2, 10)),
                rng.normal(rng.uniform(-3, 3), rng.uniform(0.5, 2), rng.integers(2, 10)),
            )
            e = float(rng.uniform(-6, 6))
            assert abs(
                joint_evidence_log_lr(data, prior, e, FAST)
                - bayes_log_lr(e, data, prior).value
            ) < 1e-6


class TestIntegrand:
    """The oracles write their log joint density out; it must be the model's."""

    @pytest.mark.parametrize("n", [0, 1, 12, 13])
    def test_equals_library_densities(self, n):
        # nodes centered and scaled off the profile, where the coefficient
        # of u is far from zero and a wrong one shows
        rng = np.random.default_rng(n)
        prior = NormalGammaParams(0.4, 2.5, 3.0, 1.5)
        scores = rng.normal(-0.5, 1.3, size=n)
        lam = rng.gamma(2.0, 1.0, size=7)
        root = np.sqrt(3.7 * lam)
        u = rng.normal(0.0, 4.0, size=5)
        coef = verification._log_joint_coefficients(
            lam, root, 2.3, prior, collect_stats(scores), np.empty((3, 7))
        )
        got = np.moveaxis(coef, 0, -1) @ np.stack((u * u, u, np.ones_like(u)))
        mu = 2.3 + u / root[:, None]
        lam = lam[:, None]
        ref = conjugate.normal_gamma_log_density(mu, lam, prior)
        for x in scores:
            ref = ref + gaussian_log_density(x, mu, lam)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def _student_t_log_pdf(params, e):
    """Log predictive density of ``e`` under NormalGamma(mu0, beta, a, b): a
    Student t on 2a degrees of freedom with scale^2 = b (beta + 1) / (a beta)."""
    mu0, beta, a, b = params
    z2 = beta * (e - mu0) ** 2 / (2.0 * b * (beta + 1.0))
    return (
        math.lgamma(a + 0.5) - math.lgamma(a)
        - 0.5 * math.log(2.0 * math.pi * b * (beta + 1.0) / beta)
        - (a + 0.5) * math.log1p(z2)
    )


def _log_marginal_likelihood(params, xs):
    """Log Normal-Gamma(mu0, beta, a, b) marginal likelihood of the points ``xs``."""
    mu0, beta, a, b = params
    n = len(xs)
    if n == 0:
        return 0.0
    mean = math.fsum(xs) / n
    beta_n, a_n = beta + n, a + 0.5 * n
    b_n = (
        b + 0.5 * math.fsum((x - mean) ** 2 for x in xs)
        + 0.5 * beta * n * (mean - mu0) ** 2 / beta_n
    )
    return (
        math.lgamma(a_n) - math.lgamma(a) + a * math.log(b) - a_n * math.log(b_n)
        + 0.5 * math.log(beta / beta_n) - 0.5 * n * math.log(2.0 * math.pi)
    )


#: quadrature_predictive (posterior, e) and quadrature_joint_evidence
#: (prior, scores) at 401^2, each against its closed form written above
#: with nothing from bayescal.
PIN_SPEC = QuadratureSpec(grid_mu=401, grid_lambda=401)
PIN_PREDICTIVE = [
    ((-1.2, 12.0, 6.5, 9.0), -3.0),
    ((-1.2, 12.0, 6.5, 9.0), 4.0),
    ((0.0, 1.0, 1.0, 1.0), 0.5),
    ((2.5, 1.5, 29.0, 3.0), -3.0),
    ((2.5, 1.5, 29.0, 3.0), 4.0),
    ((-2.9, 55.0, 1.3, 25.0), 0.5),
]
PIN_SCORES = (-0.3, 1.9, 0.4, 2.2, -1.1, 0.8, 1.5, 0.2, 1.1)
PIN_JOINT = [
    ((0.01, 0.01, 0.01), (0.7,)),
    ((0.01, 0.01, 0.01), (0.7, 2.5)),
    ((0.01, 0.01, 0.01), PIN_SCORES),
    ((0.01, 0.01, 0.01), (*PIN_SCORES, 2.5)),
    ((1.0, 2.0, 1.0), ()),
    ((1.0, 2.0, 1.0), (2.5,)),
    ((1.0, 2.0, 1.0), (1.0, 2.0, 3.0, 2.5)),
]


class TestKernelRegression:
    @pytest.mark.parametrize("params, e", PIN_PREDICTIVE)
    def test_predictive_pinned(self, params, e):
        post = NormalGammaParams(*params)
        expected = _student_t_log_pdf(params, e)
        assert abs(quadrature_predictive(post, e, PIN_SPEC) - expected) <= 1e-12

    @pytest.mark.parametrize("params, scores", PIN_JOINT)
    def test_joint_evidence_pinned(self, params, scores):
        prior = NormalGammaParams(0.0, *params)
        expected = _log_marginal_likelihood((0.0, *params), scores)
        assert abs(quadrature_joint_evidence(prior, scores, PIN_SPEC) - expected) <= 1e-12

    def test_values_keep_their_bits(self):
        # numpy's exp and log round per build and per SIMD path, so the
        # digest holds where it was taken
        if _bits_environment() != BITS_ENVIRONMENT:
            pytest.skip(f"oracle digest taken under {BITS_ENVIRONMENT}")
        values = []
        for grid in (101, 401):
            spec = QuadratureSpec(grid_mu=grid, grid_lambda=grid)
            rng = np.random.default_rng(37)
            posteriors = verification._random_posteriors(rng, 5)
            e = np.array([
                np.linspace(pred.location - 8.0 * pred.scale, pred.location + 8.0 * pred.scale, 17)
                for pred in map(predictive, posteriors)
            ])
            values += [quadrature_predictive(p, row[3], spec) for p, row in zip(posteriors, e)]
            values += [quadrature_predictive(posteriors[0], e[0], spec)]
            values += [quadrature_predictive(verification._block_posterior(posteriors), e, spec)]
            # the weak prior alone puts precision nodes past float range
            for prior, counts in [
                (NONINFORMATIVE_PRIOR, (1, 2, 5, 13)),
                (NormalGammaParams(0.0, 1.0, 2.0, 1.0), (0, 1, 2, 5, 13)),
            ]:
                for n in counts:
                    lists = rng.normal(0.7, 1.9, size=(3, n))
                    values += [quadrature_joint_evidence(prior, lists[0], spec)]
                    values += [quadrature_joint_evidence(prior, lists, spec)]
        bits = np.concatenate([np.ravel(v) for v in values]).astype(np.float64).tobytes()
        assert hashlib.sha256(bits).hexdigest() == BITS_SHA256


def _bits_environment():
    """What an oracle value's bits depend on besides the code: numpy's
    version, the machine, and whether numpy's exp and log take their
    AVX-512 paths."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as cpu
    except ImportError:
        cpu = {}
    return np.__version__, platform.machine(), bool(cpu.get("AVX512F"))


#: ``test_values_keep_their_bits``: the environment of its digest, and the digest
BITS_ENVIRONMENT = ("2.4.6", "x86_64", True)
BITS_SHA256 = "3c5608c80e6c7ade3bb41069f631ae4119ea6c274f36122de02a0390aa6d976b"


class TestExtremeLocations:
    """Far from zero a node's mean would round at eps * |mu0|, coarse against
    a predictive scale of about 1.4e-3; the oracle still holds its tolerance."""

    @pytest.mark.parametrize("mu0", [-1e8, 1e6])
    @pytest.mark.parametrize("k", [-8.0, -1.0, 0.0, 3.0, 8.0])
    def test_predictive_matches_closed_form(self, mu0, k):
        post = NormalGammaParams(mu0, 1e4, 5e3, 1e-2)
        pred = predictive(post)
        e = pred.location + k * pred.scale
        closed = student_t_log_density(pred, e)
        assert abs(quadrature_predictive(post, e, PIN_SPEC) - closed) < 1e-6


class TestApproximatePosteriorPitfall:
    def test_symmetric_midpoint_agrees_exactly(self):
        report = approximate_posterior_pitfall(
            MIRROR_DATA, NONINFORMATIVE_PRIOR, [0.0]
        )
        assert report.exact_log_lr[0] == 0.0
        assert report.approx_log_lr[0] == 0.0

    def test_tail_divergence_exceeds_half_nat(self):
        world = GeneratorConfig()
        prior = NONINFORMATIVE_PRIOR
        e_tail = world.mu1_true + 4.0 * world.sigma1_true
        divergences = []
        for t in range(50):
            rng = np.random.default_rng([99, t])
            data = BackgroundData(
                generate_scores(world, Hypothesis.H1, 9, rng),
                generate_scores(world, Hypothesis.H2, 27, rng),
            )
            report = approximate_posterior_pitfall(data, prior, [e_tail])
            divergences.append(report.abs_divergence[0])
        assert float(np.median(divergences)) > 0.5

    def test_divergence_shrinks_with_ten_times_the_data(self):
        world = GeneratorConfig()
        prior = NONINFORMATIVE_PRIOR
        e_tail = world.mu1_true + 4.0 * world.sigma1_true

        def median_div(n1, n2):
            out = []
            for t in range(50):
                rng = np.random.default_rng([7, n1, t])
                data = BackgroundData(
                    generate_scores(world, Hypothesis.H1, n1, rng),
                    generate_scores(world, Hypothesis.H2, n2, rng),
                )
                out.append(
                    approximate_posterior_pitfall(data, prior, [e_tail]).abs_divergence[0]
                )
            return float(np.median(out))

        assert median_div(90, 270) < median_div(9, 27)

    def test_requires_two_scores_per_class(self):
        with pytest.raises(ValidationError):
            approximate_posterior_pitfall(
                BackgroundData((1.0,), (0.0, 1.0)), NONINFORMATIVE_PRIOR, [0.0]
            )

    def test_divergence_grows_into_the_tail(self):
        report = approximate_posterior_pitfall(
            MIRROR_DATA, NONINFORMATIVE_PRIOR, np.linspace(0, 10, 11)
        )
        assert report.abs_divergence[-1] > report.abs_divergence[0]


def _trials(stats):
    """Each trial of ``(h1_stats, h2_stats)`` with one element per trial, as a
    background of scalar stats."""
    return [
        SimpleNamespace(**{
            f"h{cls}_stats": SufficientStats(s.n, float(s.mean[t]), float(s.sum_sq_dev[t]))
            for cls, s in enumerate(stats, start=1)
        })
        for t in range(np.size(stats[0].mean))
    ]


def _pitfall_one_trial_at_a_time(n_trials, seed, sizes):
    """``pitfall_divergence`` written as a loop over single backgrounds."""
    world = GeneratorConfig()
    e_tail = world.mu1_true + 4.0 * world.sigma1_true
    prior = NONINFORMATIVE_PRIOR
    return tuple(
        float(np.median([
            approximate_posterior_pitfall(trial, prior, [e_tail]).abs_divergence[0]
            for trial in _trials(background_stats(world, n1, n2, n_trials, seed, k))
        ]))
        for k, (n1, n2) in enumerate(sizes)
    )


class TestPitfallDivergence:
    def test_verify_values(self):
        assert pitfall_divergence(200, verification.SUITE_SEED) == (
            11.581612512926384, 2.5798888407686373
        )

    @pytest.mark.parametrize("n_trials", [2, 49, 50, 51, 137])
    def test_equals_one_trial_at_a_time(self, n_trials):
        sizes = ((9, 27), (90, 270), (2, 3))
        assert pitfall_divergence(n_trials, 11, sizes=sizes) == _pitfall_one_trial_at_a_time(
            n_trials, 11, sizes
        )

    def test_array_stats_give_one_report_value_per_trial(self):
        h1_stats, h2_stats = background_stats(GeneratorConfig(), 5, 8, 4, 3, 0)
        block = SimpleNamespace(h1_stats=h1_stats, h2_stats=h2_stats)
        prior = NONINFORMATIVE_PRIOR
        report = approximate_posterior_pitfall(block, prior, 6.0)
        assert report.approx_log_lr.shape == report.exact_log_lr.shape == (4,)
        for t, trial in enumerate(_trials((h1_stats, h2_stats))):
            one = approximate_posterior_pitfall(trial, prior, 6.0)
            assert report.approx_log_lr[t] == one.approx_log_lr
            assert report.exact_log_lr[t] == one.exact_log_lr


class TestMedian:
    """``verification._median`` sorts: ``np.median``'s bits without ``numpy.ma``."""

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 199, 200, 400, 401])
    def test_equals_np_median_bit_for_bit(self, size):
        rng = np.random.default_rng(size)
        for values in (rng.lognormal(0.0, 3.0, size), rng.integers(0, 3, size) * 0.1):
            assert verification._median(values) == float(np.median(values))
            assert type(verification._median(values)) is float

    @pytest.mark.parametrize("where", [0, 3, 6])
    def test_nan_anywhere_gives_nan(self, where):
        values = np.arange(7.0)
        values[where] = np.nan
        assert math.isnan(verification._median(values))
        assert math.isnan(verification._median(np.append(values, 7.0)))


class TestSuiteRunner:
    def test_small_scale_suite_is_green(self):
        report = run_verification_suite(
            seed=1,
            n_posteriors=2,
            n_e=3,
            n_joint_cases=2,
            n_theta_samples=100,
            n_theta_datasets=2,
            n_pitfall_trials=10,
            spec=FAST,
        )
        assert report.ok
        names = {c.name for c in report.checks}
        assert "predictive_closed_form_vs_quadrature" in names
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["config"]["n_posteriors"] == 2


# A grid small enough for many sweeps in a test, and the suite's smallest sizes.
SMALL = QuadratureSpec(grid_mu=101, grid_lambda=101)
SMALL_SUITE = dict(
    n_posteriors=2, n_e=3, n_joint_cases=2, n_theta_samples=100, n_theta_datasets=2,
    n_pitfall_trials=10,
)


class TestFarCenteredProfile:
    """The mean integral holds wherever the profile centers u: its c1 term
    carries the offset, which is near zero on a correct profile."""

    @pytest.mark.parametrize("shift, tol", [(1.0, 1e-12), (1000.0, 1e-6)])
    def test_predictive_matches_closed_form(self, monkeypatch, shift, tol):
        def far_update(prior, stats):
            good = posterior_update(prior, stats)
            return replace(good, mu0=good.mu0 + shift)

        monkeypatch.setattr(verification, "posterior_update", far_update)
        post, e = NormalGammaParams(-1.2, 12.0, 6.5, 9.0), 0.5
        closed = student_t_log_density(predictive(post), e)
        assert abs(quadrature_predictive(post, e, SMALL) - closed) <= tol


class TestMeanIntegral:
    """Each precision row's mean integral is one formula: it equals a dense
    trapezoid over the row's Gaussian, and grid_mu places no node."""

    POST = NormalGammaParams(-1.2, 12.0, 6.5, 9.0)

    @staticmethod
    def _dense_reference(prior, scores, spec, update=posterior_update):
        """The oracle's value with each row's mean integral taken numerically:
        801 nodes over +-12 SDs about the row's vertex, outside which lies
        about exp(-72) of the row."""
        stats = collect_stats(scores)
        profile = update(prior, stats)
        nodes = np.empty((5, spec.grid_lambda))
        lam, log_row_scale = verification._profile_nodes(profile, spec, nodes[:2])
        root = np.sqrt(profile.beta * lam)
        c0, c1, c2 = verification._log_joint_coefficients(
            lam, root, profile.mu0, prior, stats, nodes[2:]
        )
        z = np.linspace(-12.0, 12.0, 801)
        sd = 1.0 / np.sqrt(-2.0 * c0)
        u = (-c1 / (2.0 * c0))[:, None] + sd[:, None] * z
        log_f = c0[:, None] * u * u + c1[:, None] * u + c2[:, None]
        rows = np.logaddexp.reduce(log_f, axis=1) + np.log(sd * (z[1] - z[0]))
        return np.logaddexp.reduce(rows + log_row_scale)

    @pytest.mark.parametrize("shift", [0.0, 1.0])
    def test_predictive_rows_match_a_dense_trapezoid(self, monkeypatch, shift):
        def shifted_update(prior, stats):
            good = posterior_update(prior, stats)
            return replace(good, mu0=good.mu0 + shift)

        monkeypatch.setattr(verification, "posterior_update", shifted_update)
        e = 0.5
        ref = self._dense_reference(self.POST, [e], SMALL, shifted_update)
        got = quadrature_predictive(self.POST, e, SMALL)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize(
        "prior, scores",
        [
            (NONINFORMATIVE_PRIOR, MIRROR_DATA.h1_scores),
            (NormalGammaParams(-1.2, 12.0, 6.5, 9.0), (0.3, -2.0, 1.5, 4.0, 0.0)),
        ],
        ids=["noninformative", "informative"],
    )
    def test_joint_evidence_rows_match_a_dense_trapezoid(self, prior, scores):
        ref = self._dense_reference(prior, scores, SMALL)
        got = quadrature_joint_evidence(prior, scores, SMALL)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    @staticmethod
    def _at_grid_mu_101_and_1201(evaluate):
        return [
            evaluate(QuadratureSpec(grid_mu=grid_mu, grid_lambda=201))
            for grid_mu in (101, 1201)
        ]

    @pytest.mark.parametrize("k", [-8.0, 0.0, 3.0])
    def test_grid_mu_leaves_predictive_bit_equal(self, k):
        pred = predictive(self.POST)
        e = pred.location + k * pred.scale
        coarse, fine = self._at_grid_mu_101_and_1201(
            lambda spec: quadrature_predictive(self.POST, e, spec)
        )
        assert coarse == fine

    @pytest.mark.parametrize("e", [None, -4.0, 2.5])
    def test_grid_mu_leaves_joint_evidence_bit_equal(self, e):
        scores = [*MIRROR_DATA.h1_scores, *([] if e is None else [e])]
        coarse, fine = self._at_grid_mu_101_and_1201(
            lambda spec: quadrature_joint_evidence(NONINFORMATIVE_PRIOR, scores, spec)
        )
        assert coarse == fine

    def test_short_precision_span_fails_the_predictive_check(self):
        # 5 nats leaves about exp(-5) of each integral outside the span;
        # the closed-form identity of the decomposition check never integrates
        report = run_verification_suite(
            spec=QuadratureSpec(lambda_tail_nats=5.0), **SMALL_SUITE
        )
        passed = {c.name: c.passed for c in report.checks}
        assert passed["predictive_closed_form_vs_quadrature"] is False
        assert passed["plugin_plus_correction_identity"] is True


class TestPredictiveBatch:
    """An array of e is one integration, each value its float call's bit for bit."""

    # the posteriors of the suite's predictive sweep
    @pytest.mark.parametrize("grid, n_posteriors", [(101, 50), (401, 10)])
    def test_equals_float_calls(self, grid, n_posteriors):
        spec = QuadratureSpec(grid_mu=grid, grid_lambda=grid)
        rng = np.random.default_rng(verification.SUITE_SEED)
        for post in verification._random_posteriors(rng, n_posteriors):
            pred = predictive(post)
            e_grid = np.linspace(
                pred.location - 8.0 * pred.scale, pred.location + 8.0 * pred.scale, 17
            )
            batch = quadrature_predictive(post, e_grid, spec)
            assert batch.shape == e_grid.shape
            for i, e in enumerate(e_grid.tolist()):
                single = quadrature_predictive(post, e, spec)
                assert type(single) is float
                assert batch[i] == single

    def test_keeps_the_shape_of_e(self):
        post = NormalGammaParams(-1.2, 12.0, 6.5, 9.0)
        e = np.array([[-3.0, 0.5, 4.0], [1.0, 2.0, -0.5]])
        got = quadrature_predictive(post, e, SMALL)
        assert got.shape == (2, 3)
        assert got.ravel().tolist() == quadrature_predictive(post, e.ravel(), SMALL).tolist()

    # the predictive sweep's first posteriors, a block per call: 5, and 1 as
    # the sweep passes each at 401^2
    @pytest.mark.parametrize("grid", [101, 401])
    def test_posterior_block_equals_float_calls(self, grid):
        spec = QuadratureSpec(grid_mu=grid, grid_lambda=grid)
        rng = np.random.default_rng(verification.SUITE_SEED)
        five = verification._random_posteriors(rng, 5)
        for posteriors in (five, five[:1]):
            e = np.array([
                np.linspace(pred.location - 8.0 * pred.scale, pred.location + 8.0 * pred.scale, 17)
                for pred in map(predictive, posteriors)
            ])
            vectors = np.array([[p.mu0, p.beta, p.a, p.b] for p in posteriors]).T
            for block in (NormalGammaParams(*vectors), verification._block_posterior(posteriors)):
                got = quadrature_predictive(block, e, spec)
                assert got.shape == e.shape
                for post, row, e_row in zip(posteriors, got.tolist(), e.tolist()):
                    assert row == [quadrature_predictive(post, x, spec) for x in e_row]

    def test_posterior_block_shares_its_float_fields(self):
        # mu0 and a per row, beta and b shared; one e per row
        block = NormalGammaParams(np.array([-1.0, 0.5, 2.0]), 12.0, np.array([1.5, 6.5, 30.0]), 9.0)
        e = np.array([0.3, -2.0, 4.0])
        got = quadrature_predictive(block, e, SMALL)
        assert got.shape == (3,)
        for i, (mu0, a) in enumerate([(-1.0, 1.5), (0.5, 6.5), (2.0, 30.0)]):
            post = NormalGammaParams(mu0, 12.0, a, 9.0)
            assert got[i] == quadrature_predictive(post, e[i], SMALL)

    def test_posterior_block_refuses_another_row_count(self):
        block = NormalGammaParams(np.zeros(2), np.ones(2), np.full(2, 2.0), np.ones(2))
        with pytest.raises(ValueError):
            quadrature_predictive(block, np.zeros((3, 4)), SMALL)

    @pytest.mark.parametrize("grid", [101, 401])
    @pytest.mark.parametrize("length", [0, 1, 2, 13])
    def test_joint_evidence_block_equals_float_calls(self, grid, length):
        spec = QuadratureSpec(grid_mu=grid, grid_lambda=grid)
        rng = np.random.default_rng(length)
        lists = rng.normal(1.5, 2.0, size=(6, length)).tolist()
        # the weak prior alone puts precision nodes past float range
        prior = NONINFORMATIVE_PRIOR if length else NormalGammaParams(0.0, 1.0, 2.0, 1.0)
        got = quadrature_joint_evidence(prior, lists, spec)
        assert type(got) is np.ndarray and got.shape == (6,)
        singles = [quadrature_joint_evidence(prior, scores, spec) for scores in lists]
        assert all(type(single) is float for single in singles)
        assert got.tolist() == singles

    @pytest.mark.parametrize("length", [0, 3])
    def test_joint_evidence_block_of_no_lists_is_empty(self, length):
        got = quadrature_joint_evidence(NONINFORMATIVE_PRIOR, np.zeros((0, length)), SMALL)
        assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == (0,)

    @pytest.mark.parametrize(
        "scores, shape",
        [([[1.0, 2.0], [1.0]], r"\[\(2,\), \(1,\)\]"), (np.zeros((2, 3, 4)), r"\(2, 3, 4\)")],
        ids=["ragged", "3-D"],
    )
    def test_joint_evidence_refuses_a_block_of_another_shape(self, scores, shape):
        with pytest.raises(ValidationError, match=f"equal-length lists, got shape {shape}$"):
            quadrature_joint_evidence(NONINFORMATIVE_PRIOR, scores, SMALL)

    @pytest.mark.parametrize(
        "params, bad, good",
        [
            # shape 0.52: a rate near 1e300 puts the left tail below float range
            ((0.0, 1.0, 0.02, 1.0), 1e150, (1.0, 2.0)),
            # shape 2.5: a rate of 1e-308 puts the right tail above it
            ((0.0, 1.0, 2.0, 1e-308), 0.0, (1.0, -1.0)),
            ((0.0, 1.0, 2.0, 1.0), math.nan, (1.0, -1.0)),
        ],
        ids=["underflow", "overflow", "nan"],
    )
    def test_refuses_as_its_float_call(self, params, bad, good):
        post = NormalGammaParams(*params)
        for e in good:
            quadrature_predictive(post, e, SMALL)
        with pytest.raises(ValidationError) as single:
            quadrature_predictive(post, bad, SMALL)
        # the refused e is neither the batch's first nor its last: every list's nodes are checked
        with pytest.raises(ValidationError) as batch:
            quadrature_predictive(post, [good[0], bad, good[1]], SMALL)
        assert str(batch.value) == str(single.value)


def _poison_one_value(monkeypatch, name):
    """Make ``verification.<name>`` return NaN in place of its second value;
    for ``<name>.<field>``, in the field of the record that it returns.

    Counts values, not calls, so one NaN lands in an array result too.
    """
    name, _, field = name.partition(".")
    original = getattr(verification, name)
    seen = [0]

    def poison(values):
        out = np.array(values, dtype=float)
        if seen[0] <= 1 < seen[0] + out.size:
            out.flat[1 - seen[0]] = np.nan
        seen[0] += out.size
        return out if out.ndim else float(out)

    def poisoned(*args, **kwargs):
        result = original(*args, **kwargs)
        if not field:
            return poison(result)
        return replace(result, **{field: poison(getattr(result, field))})

    monkeypatch.setattr(verification, name, poisoned)


class TestNonFiniteDiscrepancies:
    """One NaN in a sweep makes its result NaN and its check fail."""

    @pytest.mark.parametrize(
        "poisoned, sweep",
        [
            ("quadrature_predictive", lambda: predictive_oracle_sweep(2, 3, spec=SMALL)),
            ("quadrature_joint_evidence", lambda: joint_evidence_sweep(2, spec=SMALL)),
            ("quadrature_predictive", lambda: grid_convergence(1, spec=SMALL)),
            ("quadrature_predictive", lambda: lambda_tail_convergence(1, spec=SMALL)),
            ("decomposition_residual", lambda: decomposition_sweep(100, 2)),
            ("approximate_posterior_pitfall.exact_log_lr", lambda: pitfall_divergence(10, 1)[0]),
        ],
        ids=["predictive", "joint", "grid", "lambda_tail", "decomposition", "pitfall"],
    )
    def test_sweep_propagates_nan(self, monkeypatch, poisoned, sweep):
        _poison_one_value(monkeypatch, poisoned)
        assert math.isnan(sweep())

    @pytest.mark.parametrize(
        "poisoned, check",
        [
            ("quadrature_predictive", "predictive_closed_form_vs_quadrature"),
            ("quadrature_joint_evidence", "joint_evidence_route_vs_predictive_route"),
            ("decomposition_residual", "plugin_plus_correction_identity"),
            ("approximate_posterior_pitfall.exact_log_lr", "peak_only_posterior_tail_divergence"),
        ],
    )
    def test_verify_exits_5(self, monkeypatch, capsys, tmp_path, poisoned, check):
        _poison_one_value(monkeypatch, poisoned)
        report = tmp_path / "report.json"
        argv = ["verify", "--grid-mu", "101", "--grid-lambda", "101", "--posteriors", "2",
                "--e-points", "3", "--joint-cases", "2", "--theta-samples", "100",
                "--theta-datasets", "2", "--pitfall-trials", "10", "--report", str(report)]
        assert cli.main(argv) == 5
        stdout = capsys.readouterr().out
        assert report.read_text() == stdout
        payload = json.loads(stdout, parse_constant=_reject_constant)
        result = next(c for c in payload["checks"] if c["name"] == check)
        assert result["value"] is None and result["passed"] is False
        assert payload["ok"] is False


def _reject_constant(name):
    """``parse_constant`` hook of a strict parser: NaN and Infinity are not JSON."""
    raise ValueError(f"not JSON: {name}")


def _everywhere(monkeypatch, original, replacement):
    """Rebind ``original`` to ``replacement`` in every bayescal module holding it."""
    for name, module in list(sys.modules.items()):
        if name == "bayescal" or name.startswith("bayescal."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


# each mutant calls the unpatched function imported above, never the rebinding
def _scale_as_variance(posterior):
    good = predictive(posterior)
    return StudentT(good.location, good.scale**2, good.dof)


def _dof_a(posterior):
    good = predictive(posterior)
    return StudentT(good.location, good.scale, posterior.a)


def _update_without_mean_shift(prior, stats):
    if stats.n == 0:
        return prior
    good = posterior_update(prior, stats)
    return replace(good, b=prior.b + 0.5 * stats.sum_sq_dev)


def _beta_one_too_many(prior, stats):
    good = posterior_update(prior, stats)
    return replace(good, beta=good.beta + 1.0)


def _gamma_rate_as_scale(lam, log_lam, a, b):
    return -a * math.log(b) - math.lgamma(a) + (a - 1.0) * log_lam - lam / b


_PROFILE_NODES = verification._profile_nodes


def _without_sinh_jacobian(profile, spec, out=None):
    """The node layout with log(w cosh s) left out of each row's scale; with
    w = 1/sqrt(a) and d = w sinh s, w cosh s = sqrt(1/a + d^2). The rate b
    may hold one value per list of a block, each with its row of nodes, and
    the shape a one value per posterior of a block, each with its rows."""
    lam, log_row_scale = _PROFILE_NODES(profile, spec, out)
    d = np.log(lam) - np.log(profile.a / profile.b)[..., None]
    return lam, log_row_scale - 0.5 * np.log(1.0 / np.expand_dims(profile.a, -1) + d * d)


_PREDICTIVE, _JOINT, _DECOMPOSITION = (
    "predictive_closed_form_vs_quadrature",
    "joint_evidence_route_vs_predictive_route",
    "plugin_plus_correction_identity",
)


class TestMutations:
    """Plausible bugs in the closed forms turn the oracle checks red at 401^2."""

    @pytest.mark.parametrize(
        "name, mutant, red",
        [
            ("predictive", _scale_as_variance, {_PREDICTIVE, _JOINT, _DECOMPOSITION}),
            ("predictive", _dof_a, {_PREDICTIVE, _JOINT, _DECOMPOSITION}),
            # the predictive closed form never calls posterior_update, and a
            # misplaced profile only moves the nodes, which keep their accuracy
            ("posterior_update", _update_without_mean_shift, {_JOINT, _DECOMPOSITION}),
            # the completed square's weight: the oracle integrates the mean
            # exactly for any profile, so only the posterior's users go red
            ("posterior_update", _beta_one_too_many, {_JOINT, _DECOMPOSITION}),
            ("_gamma_log_pdf", _gamma_rate_as_scale, {_PREDICTIVE, _JOINT, _DECOMPOSITION}),
            (None, None, set()),  # control: the unmutated code passes at the same sizes
        ],
        ids=[
            "scale_as_variance", "dof_a", "no_mean_shift_term", "beta_one_too_many",
            "gamma_rate_as_scale", "none",
        ],
    )
    def test_closed_form_checks_fail(self, monkeypatch, name, mutant, red):
        if name is not None:
            _everywhere(monkeypatch, getattr(conjugate, name), mutant)
        report = run_verification_suite(
            spec=QuadratureSpec(grid_mu=401, grid_lambda=401), **SMALL_SUITE
        )
        passed = {c.name: c.passed for c in report.checks}
        assert {c for c in (_PREDICTIVE, _JOINT, _DECOMPOSITION) if not passed[c]} == red

    def test_predictive_check_fails_without_sinh_jacobian(self, monkeypatch):
        monkeypatch.setattr(verification, "_profile_nodes", _without_sinh_jacobian)
        report = run_verification_suite(
            spec=QuadratureSpec(grid_mu=401, grid_lambda=401), **SMALL_SUITE
        )
        passed = {c.name: c.passed for c in report.checks}
        assert passed[_PREDICTIVE] is False
        assert passed[_DECOMPOSITION] is True

    def test_oracle_checks_fail_without_score_normalizers(self, monkeypatch):
        # the scores lose their Gaussian normalizers, a trial score among them
        original = verification._log_joint_coefficients

        def unnormalized_scores(lam, root, center, prior, stats, out=None):
            coef = original(lam, root, center, prior, stats, out)
            coef[2] -= 0.5 * stats.n * (np.log(lam) - _LOG_2PI)
            return coef

        monkeypatch.setattr(verification, "_log_joint_coefficients", unnormalized_scores)
        report = run_verification_suite(
            spec=QuadratureSpec(grid_mu=401, grid_lambda=401), **SMALL_SUITE
        )
        passed = {c.name: c.passed for c in report.checks}
        assert {c for c in (_PREDICTIVE, _JOINT, _DECOMPOSITION) if not passed[c]} == {
            _PREDICTIVE, _JOINT
        }
