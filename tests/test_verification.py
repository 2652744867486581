"""Quadrature oracles versus the closed forms, and the peak-only pitfall."""

import json
import math
import sys
from dataclasses import replace
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
    default_noninformative_prior,
    generate_scores,
    joint_evidence_log_lr,
    predictive,
    quadrature_joint_evidence,
    quadrature_predictive,
    resample_backgrounds,
    student_t_log_density,
)
from bayescal.conjugate import StudentT, posterior_update
from bayescal.scores import collect_stats, gaussian_log_density
from bayescal.verification import (
    decomposition_sweep,
    grid_convergence,
    joint_evidence_sweep,
    pitfall_divergence,
    predictive_oracle_sweep,
    quantile_eps_convergence,
    run_verification_suite,
    single_score_consistency,
)

# Same oracle accuracy as the full-resolution default at a fraction of the
# cost: the truncation term (~2 * lambda_quantile_eps) dominates either way.
FAST = QuadratureSpec(grid_mu=601, grid_lambda=601)

MIRROR_DATA = BackgroundData((1.0, 2.0, 3.0), (-3.0, -2.0, -1.0))

EPS = np.finfo(float).eps


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.mu_halfwidth_sds == 12.0
        assert spec.lambda_quantile_eps == 1e-8
        assert spec.grid_mu == spec.grid_lambda == 2001

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grid_mu": 100},          # even
            {"grid_mu": 99},           # too small
            {"grid_lambda": 1000},     # even
            {"mu_halfwidth_sds": 0.0},
            {"lambda_quantile_eps": 0.0},
            {"lambda_quantile_eps": 0.6},
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValidationError):
            QuadratureSpec(**kwargs)

    def test_doubled_keeps_grids_odd(self):
        spec = QuadratureSpec(grid_mu=601, grid_lambda=301).doubled()
        assert spec.grid_mu == 1201 and spec.grid_lambda == 601


class TestPredictiveOracle:
    def test_unit_posterior_cross_check(self):
        # predictive is St(0, sqrt(2), 2), whose mode density is exactly 1/4
        post = NormalGammaParams(0.0, 1.0, 1.0, 1.0)
        closed = student_t_log_density(predictive(post), 0.0)
        assert math.isclose(closed, -math.log(4.0), rel_tol=1e-12)
        assert abs(quadrature_predictive(post, 0.0, FAST) - closed) < 1e-6

    def test_diffuse_prior_predictive_still_accurate(self):
        # profile shape a + 1/2 stays above 1/2 even for the weak prior, and
        # the quantile-spaced grid keeps the error at the truncation floor
        prior = default_noninformative_prior()
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
        assert grid_convergence(n_posteriors=1, spec=FAST) < 1e-8

    def test_quantile_eps_convergence(self):
        # tightening the tail cutoff 100x moves results by ~2*eps only
        assert quantile_eps_convergence(n_posteriors=1, spec=FAST) < 1e-7

    def test_rejects_degenerate_precision_grid(self):
        # integrating the bare noninformative prior alone: gamma shape 0.01
        # puts the eps quantile below float range, which the oracle refuses
        # rather than mis-integrating
        with pytest.raises(ValidationError, match="gamma shape"):
            quadrature_joint_evidence(default_noninformative_prior(), [], None, FAST)


class TestJointEvidenceOracle:
    def test_empty_scores_no_trial_score_normalizes(self):
        prior = NormalGammaParams(0.0, 1.0, 2.0, 1.0)
        assert abs(quadrature_joint_evidence(prior, [], None, FAST)) < 1e-7

    def test_single_score_equals_prior_predictive(self):
        assert single_score_consistency(n_cases=3, spec=FAST) < 1e-8

    def test_route_equivalence_on_mirror_data(self):
        prior = default_noninformative_prior()
        for e in (-2.0, 0.0, 2.0, 5.0):
            via_joint = joint_evidence_log_lr(MIRROR_DATA, prior, e, FAST)
            via_predictive = bayes_log_lr(e, MIRROR_DATA, prior).value
            assert abs(via_joint - via_predictive) < 1e-6

    def test_route_equivalence_randomized(self):
        rng = np.random.default_rng(17)
        prior = default_noninformative_prior()
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

    @pytest.mark.parametrize("n", [0, 1, 12])
    @pytest.mark.parametrize("e", [None, 1.7])
    def test_equals_library_densities(self, n, e):
        # nodes centered and scaled off the profile, where the coefficient
        # of u is far from zero and a wrong one shows
        rng = np.random.default_rng([n, e is None])
        prior = NormalGammaParams(0.4, 2.5, 3.0, 1.5)
        scores = rng.normal(-0.5, 1.3, size=n)
        lam = rng.gamma(2.0, 1.0, size=7)
        root = np.sqrt(3.7 * lam)
        u = rng.normal(0.0, 4.0, size=5)
        coef = verification._log_joint_coefficients(
            lam, root, 2.3, prior, collect_stats(scores), e
        )
        got = coef @ np.stack((u * u, u, np.ones_like(u)))
        mu = 2.3 + u / root[:, None]
        lam = lam[:, None]
        ref = conjugate.normal_gamma_log_density(mu, lam, prior)
        for x in [*scores, *([] if e is None else [e])]:
            ref = ref + gaussian_log_density(x, mu, lam)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


#: quadrature_predictive (posterior, e) and quadrature_joint_evidence
#: (prior, scores, e) at 401^2, as computed by the kernel that called
#: normal_gamma_log_density and gaussian_log_density on every node.
PIN_SPEC = QuadratureSpec(grid_mu=401, grid_lambda=401)
PIN_PREDICTIVE = [
    ((-1.2, 12.0, 6.5, 9.0), -3.0, -2.216860202825397),
    ((-1.2, 12.0, 6.5, 9.0), 4.0, -7.23016688968769),
    ((0.0, 1.0, 1.0, 1.0), 0.5, -1.477231313844535),
    ((2.5, 1.5, 29.0, 3.0), -3.0, -41.12380459646015),
    ((2.5, 1.5, 29.0, 3.0), 4.0, -6.031074623681983),
    ((-2.9, 55.0, 1.3, 25.0), 0.5, -2.868629462248907),
]
PIN_SCORES = (-0.3, 1.9, 0.4, 2.2, -1.1, 0.8, 1.5, 0.2, 1.1)
PIN_JOINT = [
    ((0.01, 0.01, 0.01), (0.7,), None, -5.081184252026065),
    ((0.01, 0.01, 0.01), (0.7,), 2.5, -8.955882814517956),
    ((0.01, 0.01, 0.01), PIN_SCORES, None, -20.677245891537176),
    ((0.01, 0.01, 0.01), PIN_SCORES, 2.5, -23.015971358480492),
    ((1.0, 2.0, 1.0), (), None, -1.9999991884844803e-08),
    ((1.0, 2.0, 1.0), (), 2.5, -3.3332876341730344),
    ((1.0, 2.0, 1.0), (1.0, 2.0, 3.0), 2.5, -8.13261985235008),
]


class TestKernelRegression:
    @pytest.mark.parametrize("params, e, expected", PIN_PREDICTIVE)
    def test_predictive_pinned(self, params, e, expected):
        post = NormalGammaParams(*params)
        assert abs(quadrature_predictive(post, e, PIN_SPEC) - expected) <= 1e-12

    @pytest.mark.parametrize("params, scores, e, expected", PIN_JOINT)
    def test_joint_evidence_pinned(self, params, scores, e, expected):
        prior = NormalGammaParams(0.0, *params)
        assert abs(quadrature_joint_evidence(prior, scores, e, PIN_SPEC) - expected) <= 1e-12

    def test_cached_quantiles_read_only_and_exact(self):
        from scipy.special import gammaincinv

        q = verification._gamma_quantiles(7.25, 1e-8, 401)
        assert verification._gamma_quantiles(7.25, 1e-8, 401) is q
        with pytest.raises(ValueError):
            q[0] = 1.0
        fresh = gammaincinv(7.25, np.linspace(1e-8, 1.0 - 1e-8, 401))
        assert np.array_equal(q, fresh)


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
            MIRROR_DATA, default_noninformative_prior(), [0.0]
        )
        assert report.exact_log_lr[0] == 0.0
        assert report.approx_log_lr[0] == 0.0

    def test_tail_divergence_exceeds_half_nat(self):
        world = GeneratorConfig()
        prior = default_noninformative_prior()
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
        prior = default_noninformative_prior()
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
                BackgroundData((1.0,), (0.0, 1.0)), default_noninformative_prior(), [0.0]
            )

    def test_divergence_grows_into_the_tail(self):
        report = approximate_posterior_pitfall(
            MIRROR_DATA, default_noninformative_prior(), np.linspace(0, 10, 11)
        )
        assert report.abs_divergence[-1] > report.abs_divergence[0]
        assert report.max_divergence == report.abs_divergence.max()


def _pitfall_one_trial_at_a_time(n_trials, seed, sizes):
    """``pitfall_divergence`` written as a loop over single backgrounds."""
    world = GeneratorConfig()
    e_tail = world.mu1_true + 4.0 * world.sigma1_true
    prior = default_noninformative_prior()
    return tuple(
        float(np.median([
            approximate_posterior_pitfall(BackgroundData(h1, h2), prior, [e_tail]).abs_divergence[0]
            for h1, h2 in resample_backgrounds(world, n1, n2, n_trials, seed, k)
        ]))
        for k, (n1, n2) in enumerate(sizes)
    )


class TestPitfallDivergence:
    def test_verify_values(self):
        assert pitfall_divergence(200, verification.SUITE_SEED) == (
            11.350643574411228, 2.642753840354416
        )

    @pytest.mark.parametrize("n_trials", [2, 49, 50, 51, 137])
    def test_equals_one_trial_at_a_time(self, n_trials):
        sizes = ((9, 27), (90, 270), (2, 3))
        assert pitfall_divergence(n_trials, 11, sizes=sizes) == _pitfall_one_trial_at_a_time(
            n_trials, 11, sizes
        )

    def test_array_stats_give_one_report_value_per_trial(self):
        draws = list(resample_backgrounds(GeneratorConfig(), 5, 8, 4, 3, 0))
        h1_stats, h2_stats = (collect_stats(np.array(rows)) for rows in zip(*draws))
        block = SimpleNamespace(h1_stats=h1_stats, h2_stats=h2_stats)
        prior = default_noninformative_prior()
        report = approximate_posterior_pitfall(block, prior, 6.0)
        assert report.approx_log_lr.shape == report.exact_log_lr.shape == (4,)
        for t, (h1, h2) in enumerate(draws):
            one = approximate_posterior_pitfall(BackgroundData(h1, h2), prior, 6.0)
            assert report.approx_log_lr[t] == one.approx_log_lr
            # np.log of the predictive scales, where one trial takes math.log
            exact = float(one.exact_log_lr)
            assert abs(report.exact_log_lr[t] - exact) <= 4 * EPS * max(1.0, abs(exact))


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


class TestBlockedQuadrature:
    """The row-blocked reduction equals a single-block evaluation."""

    @pytest.fixture(params=[(101, 1201), (1201, 101)], ids=["101x1201", "1201x101"])
    def spec(self, request):
        grid_mu, grid_lambda = request.param
        spec = QuadratureSpec(grid_mu=grid_mu, grid_lambda=grid_lambda)
        rows = verification._BLOCK_NODES // spec.grid_mu
        # several blocks, the last one short
        assert 1 <= rows < spec.grid_lambda and spec.grid_lambda % rows
        return spec

    def _blocked_and_single(self, monkeypatch, evaluate):
        blocked = evaluate()
        monkeypatch.setattr(verification, "_BLOCK_NODES", 10**9)
        return blocked, evaluate()

    @pytest.mark.parametrize("k", [-8.0, 0.0, 3.0])
    def test_predictive(self, monkeypatch, spec, k):
        post = NormalGammaParams(-1.2, 12.0, 6.5, 9.0)
        pred = predictive(post)
        e = pred.location + k * pred.scale
        blocked, single = self._blocked_and_single(
            monkeypatch, lambda: quadrature_predictive(post, e, spec)
        )
        assert abs(blocked - single) <= 1e-13

    @pytest.mark.parametrize("e", [None, -4.0, 2.5])
    def test_joint_evidence(self, monkeypatch, spec, e):
        prior = default_noninformative_prior()
        scores = MIRROR_DATA.h1_scores
        blocked, single = self._blocked_and_single(
            monkeypatch, lambda: quadrature_joint_evidence(prior, scores, e, spec)
        )
        assert abs(blocked - single) <= 1e-13


# A grid small enough for many sweeps in a test, and the suite's smallest sizes.
SMALL = QuadratureSpec(grid_mu=101, grid_lambda=101)
SMALL_SUITE = dict(
    n_posteriors=2, n_e=3, n_joint_cases=2, n_theta_samples=100, n_theta_datasets=2,
    n_pitfall_trials=10,
)


def _poison_one_value(monkeypatch, name):
    """Make ``verification.<name>`` return NaN in place of its second value.

    Counts values, not calls, so one NaN lands in an array result too.
    """
    original = getattr(verification, name)
    seen = [0]

    def poisoned(*args, **kwargs):
        out = np.array(original(*args, **kwargs), dtype=float)
        if seen[0] <= 1 < seen[0] + out.size:
            out.flat[1 - seen[0]] = np.nan
        seen[0] += out.size
        return out if out.ndim else float(out)

    monkeypatch.setattr(verification, name, poisoned)


class TestNonFiniteDiscrepancies:
    """One NaN in a sweep makes its result NaN and its check fail."""

    @pytest.mark.parametrize(
        "poisoned, sweep",
        [
            ("quadrature_predictive", lambda: predictive_oracle_sweep(2, 3, spec=SMALL)),
            ("quadrature_joint_evidence", lambda: joint_evidence_sweep(2, spec=SMALL)),
            ("quadrature_predictive", lambda: single_score_consistency(2, spec=SMALL)),
            ("quadrature_predictive", lambda: grid_convergence(1, spec=SMALL)),
            ("quadrature_predictive", lambda: quantile_eps_convergence(1, spec=SMALL)),
            ("decomposition_residual", lambda: decomposition_sweep(100, 2)),
        ],
        ids=["predictive", "joint", "single_score", "grid", "quantile_eps", "decomposition"],
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


def _gamma_rate_as_scale(lam, a, b):
    return -a * math.log(b) - math.lgamma(a) + (a - 1.0) * np.log(lam) - lam / b


class TestMutations:
    """Plausible bugs in the closed forms turn the oracle checks red at 401^2."""

    @pytest.mark.parametrize(
        "name, mutant",
        [
            ("predictive", _scale_as_variance),
            ("predictive", _dof_a),
            ("posterior_update", _update_without_mean_shift),
            ("_gamma_log_pdf", _gamma_rate_as_scale),
            (None, None),  # control: the unmutated code passes at the same sizes
        ],
        ids=["scale_as_variance", "dof_a", "no_mean_shift_term", "gamma_rate_as_scale", "none"],
    )
    def test_predictive_and_decomposition_checks_fail(self, monkeypatch, name, mutant):
        if name is not None:
            _everywhere(monkeypatch, getattr(conjugate, name), mutant)
        report = run_verification_suite(
            spec=QuadratureSpec(grid_mu=401, grid_lambda=401), **SMALL_SUITE
        )
        passed = {c.name: c.passed for c in report.checks}
        expected = name is None
        assert passed["predictive_closed_form_vs_quadrature"] is expected
        assert passed["plugin_plus_correction_identity"] is expected
