"""Heteroskedastic GP reference: exact posteriors and the InD/OOD bin split."""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from ensdiag.errors import ValidationError
from ensdiag.gp import (
    N_TRAIN,
    SIGNAL_VARIANCE,
    default_noise_variance,
    generate_dataset,
    likelihood_bins,
    posterior,
    rbf_kernel,
    run_default_experiment,
)

HALF_PI = np.pi / 2.0


class TestNoiseFunction:
    def test_known_values(self):
        x = np.array([0.0, HALF_PI, np.pi])
        np.testing.assert_allclose(default_noise_variance(x), [0.01, 1.01, 0.01], atol=1e-12)

    def test_floor(self):
        x = np.linspace(-5.0, 5.0, 512)
        assert default_noise_variance(x).min() >= 0.01


class TestGenerateDataset:
    def test_deterministic(self):
        a = generate_dataset(seed=11)
        b = generate_dataset(seed=11)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_inside_domain_and_sorted(self):
        train_x, train_y = generate_dataset(seed=2)
        assert train_x.shape == train_y.shape == (N_TRAIN,)
        assert train_x.min() >= 0.0
        assert train_x.max() <= 5.0
        assert np.all(np.diff(train_x) >= 0.0)

    def test_marginal_variance_at_half_pi(self):
        # Var(y) at x is prior 1 + noise sin^2(x) + 0.01 (1 + 1.01 at x = pi/2), so
        # y / sqrt(1 + sin^2(x) + 0.01) is standard normal at every training input.
        sets = [generate_dataset(seed=s) for s in range(1000)]
        z = np.concatenate([y / np.sqrt(1.0 + default_noise_variance(x)) for x, y in sets])
        assert abs(z.mean()) < 0.1
        assert abs(z.var() - 1.0) < 0.1


class TestGpFit:
    def test_single_point_system(self):
        # One training point at 0: K + sigma^2 = 1.01, so the mean there is y / 1.01.
        mean, _ = posterior(np.array([0.0]), np.array([1.0]), np.array([0.0]))
        assert 1.0 / mean[0] == pytest.approx(1.01, abs=1e-12)

    def test_duplicate_inputs_factor_under_the_noise_floor(self):
        # K is singular at repeated inputs; diag(sigma^2) >= 0.01 keeps K + diag(sigma^2) definite.
        mean, var = posterior(np.array([1.0, 1.0, 1.0, 2.0]), np.array([0.5, 0.5, 0.4, -0.2]),
                              np.array([1.0, 2.0]))
        assert np.all(np.isfinite(mean))
        assert np.all(var > 0.0)

    def test_kernel_psd(self, rng):
        for n in (3, 6, 10):
            x = rng.uniform(0.0, 5.0, n)
            k = rbf_kernel(x, x)
            np.testing.assert_allclose(k, k.T, atol=1e-15)
            assert np.linalg.eigvalsh(k).min() >= -1e-10


class TestGpPredict:
    def test_single_point_closed_form(self):
        _, var = posterior(np.array([0.0]), np.array([0.0]), np.array([0.0]))
        assert abs(var[0] - (1.0 - 1.0 / 1.01)) < 1e-9

    def test_far_query_returns_to_prior(self):
        _, var = posterior(*generate_dataset(seed=3), np.array([40.0]))
        assert abs(var[0] - 1.0) < 1e-6

    def test_variance_bounds(self):
        var = run_default_experiment(seed=1).posterior_variance
        assert var.min() >= 0.0
        assert var.max() <= 1.0 + 1e-9

    def test_likelihood_variance_reported(self):
        exp = run_default_experiment(seed=0)
        np.testing.assert_array_equal(exp.likelihood_variance, default_noise_variance(exp.x))


def scipy_posterior(train_x, train_y, x_star):
    """Reference posterior from scipy's cho_factor/cho_solve."""
    chol = cho_factor(rbf_kernel(train_x, train_x) + np.diag(default_noise_variance(train_x)), lower=True)
    k_star = rbf_kernel(train_x, x_star)
    mean = k_star.T @ cho_solve(chol, train_y)
    var = SIGNAL_VARIANCE - np.einsum("ij,ij->j", k_star, cho_solve(chol, k_star))
    return mean, var


class TestScipyOracle:
    # The numpy.linalg solve path against scipy's Cholesky solve, to 1e-12 relative.
    @pytest.mark.parametrize("seed", range(5))
    def test_default_experiment(self, seed):
        exp = run_default_experiment(seed=seed)
        mean, var = scipy_posterior(exp.train_x, exp.train_y, exp.x)
        np.testing.assert_allclose(exp.mean, mean, rtol=1e-12, atol=0)
        np.testing.assert_allclose(exp.posterior_variance, var, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 21, 40])
    def test_random_training_sets(self, n):
        # Unsorted inputs with ties, and queries on, between and far from them. A mean
        # that cancels to near zero is held to 1e-12 of the sum of its terms' sizes.
        rng = np.random.default_rng(n)
        train_x = rng.uniform(-3.0, 6.0, n)
        train_x[rng.integers(0, n, n // 3)] = train_x[0]
        train_y = rng.normal(size=n)
        x_star = np.concatenate([train_x[:3], rng.uniform(-8.0, 8.0, 30), [-40.0, 25.0]])
        mean, var = posterior(train_x, train_y, x_star)
        ref_mean, ref_var = scipy_posterior(train_x, train_y, x_star)
        chol = cho_factor(rbf_kernel(train_x, train_x) + np.diag(default_noise_variance(train_x)), lower=True)
        terms = rbf_kernel(train_x, x_star).T @ np.abs(cho_solve(chol, train_y))
        assert np.all(np.abs(mean - ref_mean) <= 1e-12 * terms)
        np.testing.assert_allclose(var, ref_var, rtol=1e-12, atol=0)


class TestConditionalPosteriorVariance:
    def test_identical_predictions(self):
        # sin^2 is equal at +-2 and +-(pi - 2): one likelihood bin per split.
        x = np.array([-2.0, 2.0 - np.pi, np.pi - 2.0, 2.0])
        _, counts, means = likelihood_bins(x, np.full(4, 0.3), 20)
        for row in range(2):
            populated = counts[row] > 0
            assert populated.sum() == 1
            assert means[row][populated][0] == pytest.approx(0.3)

    def test_empty_ood_split(self):
        _, counts, means = likelihood_bins(np.array([0.5, 1.5]), np.array([0.2, 0.4]), 20)
        assert counts[1].sum() == 0
        assert np.isnan(means[1]).all()

    def test_top_edge_lands_in_last_bin(self):
        # The likelihood variance at pi/2 is 1.01, the top of the range.
        _, counts, _ = likelihood_bins(np.array([HALF_PI]), np.array([0.2]), n_bins=20)
        assert counts[0, -1] == 1

    def test_bin_count_validation(self):
        with pytest.raises(ValidationError):
            likelihood_bins(np.array([0.0]), np.zeros(1), n_bins=0)

    def test_default_experiment_bin_ordering(self):
        exp = run_default_experiment(seed=0)
        both = (exp.counts > 0).all(axis=0)
        assert both.any()
        assert np.all(exp.means[1, both] > exp.means[0, both])


class TestDefaultExperiment:
    def test_region_means_across_seeds(self):
        # OOD half of the eval grid carries more epistemic uncertainty, always.
        for seed in range(20):
            exp = run_default_experiment(seed=seed)
            left = exp.posterior_variance[exp.x < 0].mean()
            right = exp.posterior_variance[exp.x >= 0].mean()
            assert left > right

    def test_shapes(self):
        exp = run_default_experiment(seed=4, n_bins=10)
        assert exp.x.shape == (512,)
        assert exp.counts.shape == exp.means.shape == (2, 10)
        assert exp.edges.shape == (11,)
