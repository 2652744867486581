"""Normal-Gamma updates, Student-t predictive, and the parameter sampler."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given
from hypothesis import strategies as st

from bayescal import (
    NormalGammaParams,
    StudentT,
    ValidationError,
    collect_stats,
    default_noninformative_prior,
    gaussian_log_density,
    normal_gamma_log_density,
    posterior_update,
    predictive,
    sample_params,
    student_t_log_density,
)

finite_scores = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
    max_size=20,
)
prior_params = st.builds(
    NormalGammaParams,
    mu0=st.floats(min_value=-5, max_value=5),
    beta=st.floats(min_value=0.01, max_value=10),
    a=st.floats(min_value=0.01, max_value=10),
    b=st.floats(min_value=0.01, max_value=10),
)


class TestDefaultPrior:
    def test_values(self):
        prior = default_noninformative_prior()
        assert (prior.mu0, prior.beta, prior.a, prior.b) == (0.0, 0.01, 0.01, 0.01)

    def test_precision_prior_moments(self):
        # gamma mean a/b = 1, variance a/b^2 = 100: diffuse around unit precision
        prior = default_noninformative_prior()
        assert prior.a / prior.b == 1.0
        assert prior.a / prior.b**2 == 100.0

    @pytest.mark.parametrize("field", ["beta", "a", "b"])
    def test_positivity_enforced(self, field):
        kwargs = {"mu0": 0.0, "beta": 1.0, "a": 1.0, "b": 1.0}
        kwargs[field] = 0.0
        with pytest.raises(ValidationError):
            NormalGammaParams(**kwargs)


class TestPosteriorUpdate:
    def test_no_data_returns_prior_verbatim(self):
        prior = default_noninformative_prior()
        assert posterior_update(prior, collect_stats([])) is prior

    def test_hand_evaluated_example(self):
        post = posterior_update(default_noninformative_prior(), collect_stats([1, 2, 3]))
        assert math.isclose(post.mu0, 6 / 3.01, rel_tol=1e-15)
        assert post.beta == 3.01
        assert post.a == 1.51
        expected_b = 0.01 + 1.0 + (0.01 * 3 * 4.0) / (2 * 3.01)
        assert math.isclose(post.b, expected_b, rel_tol=1e-15)

    @given(prior_params, finite_scores, finite_scores)
    def test_sequential_equals_batched(self, prior, first, second):
        sequential = posterior_update(
            posterior_update(prior, collect_stats(first)), collect_stats(second)
        )
        batched = posterior_update(prior, collect_stats(first + second))
        for field in ("mu0", "beta", "a", "b"):
            assert math.isclose(
                getattr(sequential, field), getattr(batched, field),
                rel_tol=1e-10, abs_tol=1e-10,
            )


class TestPredictive:
    def test_unit_posterior_example(self):
        pred = predictive(NormalGammaParams(0.0, 1.0, 1.0, 1.0))
        assert pred.location == 0.0
        assert math.isclose(pred.scale, math.sqrt(2.0), rel_tol=1e-15)
        assert pred.dof == 2.0

    @given(prior_params)
    def test_dof_is_twice_shape(self, posterior):
        assert predictive(posterior).dof == 2.0 * posterior.a

    def test_large_n_recovers_generating_parameters(self):
        rng = np.random.default_rng(5)
        mu_true, sigma_true = 1.7, 0.8
        stats = collect_stats(rng.normal(mu_true, sigma_true, 10**5))
        pred = predictive(posterior_update(default_noninformative_prior(), stats))
        assert abs(pred.location - mu_true) / abs(mu_true) < 0.01
        assert abs(pred.scale - sigma_true) / sigma_true < 0.01
        assert pred.dof > 1e4


class TestBlockOfTrials:
    """A block of backgrounds as arrays, one element per trial, against each
    trial on its own."""

    @given(prior_params, st.integers(1, 30), st.integers(0, 2**31))
    # row 0's (mean - mu0) ** 2 by libm pow is an ulp above the product
    @example(NormalGammaParams(2.251187326723537, 5.205078125, 1.0, 1.0), 17, 2**31)
    def test_update_and_predictive_match_each_trial_bit_for_bit(self, prior, n, seed):
        rows = np.random.default_rng(seed).normal(1.0, 3.0, size=(6, n))
        block = predictive(posterior_update(prior, collect_stats(rows)))
        for t, row in enumerate(rows):
            post = posterior_update(prior, collect_stats(row))
            one = predictive(post)
            assert (block.location[t], block.scale[t], block.dof) == (
                one.location, one.scale, one.dof
            )
            assert type(one.scale) is float

    def test_log_density_broadcasts_trials_on_the_last_axis(self):
        locations, scales = np.array([0.5, -2.0, 3.0]), np.array([1.0, 0.3, 7.0])
        block = StudentT(locations, scales, 4.5)
        e = np.linspace(-6.0, 6.0, 5)[:, None]
        out = student_t_log_density(block, e)
        assert out.shape == (5, 3)
        for t in range(3):
            one = StudentT(float(locations[t]), float(scales[t]), 4.5)
            # numpy's log of the scale may differ from the C library's by an ulp
            np.testing.assert_allclose(out[:, t], student_t_log_density(one, e[:, 0]), rtol=1e-15)


class TestStudentTLogDensity:
    def test_cauchy_mode(self):
        # dof 1 is a Cauchy, whose density at the mode is 1/pi
        value = student_t_log_density(StudentT(0.0, 1.0, 1.0), 0.0)
        assert math.isclose(value, math.log(1 / math.pi), rel_tol=1e-12)

    @pytest.mark.parametrize("d", [0.3, 1.0, 12.0])
    def test_symmetry(self, d):
        t = StudentT(2.5, 1.3, 4.0)
        left = student_t_log_density(t, t.location - d)
        right = student_t_log_density(t, t.location + d)
        assert left == right

    @pytest.mark.parametrize("nu", [1.0, 2.5, 7.0])
    def test_normalization_with_tail_correction(self, nu):
        t = StudentT(0.7, 1.3, nu)
        z_max = 200.0
        z = np.linspace(-z_max, z_max, 400001)
        body = np.trapezoid(
            np.exp(student_t_log_density(t, t.location + z * t.scale)) * t.scale, z
        )
        # power-law tails: the density falls like C * (z/sqrt(nu))^-(nu+1)
        c = math.exp(
            math.lgamma((nu + 1) / 2) - math.lgamma(nu / 2) - 0.5 * math.log(nu * math.pi)
        )
        tails = 2.0 * c * nu ** ((nu - 1) / 2) * z_max ** (-nu)
        assert abs(body + tails - 1.0) < 1e-4

    @pytest.mark.parametrize("nu", [2.5, 5.0, 20.0, 100.0])
    def test_tails_dominate_matched_moment_gaussian(self, nu):
        t = StudentT(1.0, 2.0, nu)
        gauss_precision = 1.0 / (t.scale**2 * nu / (nu - 2.0))
        for k in (12.0, 30.0):
            e = t.location + k * t.scale
            assert student_t_log_density(t, e) > gaussian_log_density(
                e, t.location, gauss_precision
            )

    def test_matches_scipy(self):
        t = StudentT(0.4, 2.2, 6.5)
        e = np.linspace(-20, 20, 41)
        expected = scipy.stats.t.logpdf(e, df=t.dof, loc=t.location, scale=t.scale)
        np.testing.assert_allclose(student_t_log_density(t, e), expected, rtol=1e-12)

    def test_matches_scipy_up_to_huge_dof(self):
        # the normalizer log Gamma((nu+1)/2) - log Gamma(nu/2) must not come from
        # subtracting two log-gammas: that is 3 nats off at nu = 1e15. The
        # bound is 1e-10 because scipy's own value is off by up to 1.5e-11
        # near nu = 1.6e4.
        z = np.linspace(-30.0, 30.0, 61)
        for nu in np.geomspace(0.02, 1e15, 80):
            t = StudentT(0.3, 1.7, float(nu))
            e = t.location + z * t.scale
            ref = scipy.stats.t.logpdf(e, df=t.dof, loc=t.location, scale=t.scale)
            err = np.abs(student_t_log_density(t, e) - ref)
            assert np.all(err <= 1e-10 * np.maximum(1.0, np.abs(ref))), (nu, err.max())

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            StudentT(0.0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            StudentT(0.0, 1.0, -1.0)


class TestNormalGammaLogDensity:
    def test_matches_scipy_factorization(self):
        params = NormalGammaParams(0.7, 2.0, 3.0, 1.5)
        for mu, lam in [(0.5, 1.0), (-2.0, 0.2), (3.0, 4.0)]:
            expected = scipy.stats.gamma.logpdf(lam, a=params.a, scale=1 / params.b)
            expected += scipy.stats.norm.logpdf(
                mu, loc=params.mu0, scale=1 / math.sqrt(params.beta * lam)
            )
            assert math.isclose(
                normal_gamma_log_density(mu, lam, params), expected, rel_tol=1e-12
            )

    def test_rejects_nonpositive_precision(self):
        with pytest.raises(ValidationError):
            normal_gamma_log_density(0.0, 0.0, NormalGammaParams(0, 1, 1, 1))


class TestSampleParams:
    def test_monte_carlo_moments(self):
        post = NormalGammaParams(1.5, 4.0, 3.0, 2.0)
        draws = sample_params(post, rng_seed=99, count=10**6)
        lam_mean = draws[:, 1].mean()
        assert abs(lam_mean - post.a / post.b) / (post.a / post.b) < 0.01
        # mean of mu is mu0 within 3 standard errors of the t-like marginal
        mu_se = draws[:, 0].std(ddof=1) / math.sqrt(draws.shape[0])
        assert abs(draws[:, 0].mean() - post.mu0) < 3 * mu_se

    def test_deterministic_given_seed(self):
        post = NormalGammaParams(0.0, 1.0, 2.0, 2.0)
        a = sample_params(post, rng_seed=7, count=100)
        b = sample_params(post, rng_seed=7, count=100)
        np.testing.assert_array_equal(a, b)

    def test_count_validation(self):
        with pytest.raises(ValidationError):
            sample_params(NormalGammaParams(0, 1, 1, 1), rng_seed=0, count=0)

    def test_all_draws_finite_and_positive_even_for_diffuse_prior(self):
        # shape 0.01 gamma draws underflow roughly once per 2000 samples;
        # the sampler must still hand back finite, positive pairs
        draws = sample_params(default_noninformative_prior(), rng_seed=1, count=5000)
        assert np.all(draws[:, 1] > 0)
        assert np.all(np.isfinite(draws))
