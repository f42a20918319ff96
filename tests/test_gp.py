"""Heteroskedastic GP reference: exact posteriors and the InD/OOD bin split."""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from ensdiag.errors import ValidationError
from ensdiag.gp import (
    N_TRAIN,
    SIGNAL_VARIANCE,
    GpModel,
    GpPrediction,
    conditional_posterior_variance,
    default_noise_variance,
    generate_dataset,
    gp_fit,
    gp_predict,
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
        np.testing.assert_array_equal(a.train_x, b.train_x)
        np.testing.assert_array_equal(a.train_y, b.train_y)

    def test_inside_domain_and_sorted(self):
        model = generate_dataset(seed=2)
        assert model.train_x.shape == model.train_y.shape == (N_TRAIN,)
        assert model.train_x.min() >= 0.0
        assert model.train_x.max() <= 5.0
        assert np.all(np.diff(model.train_x) >= 0.0)

    def test_marginal_variance_at_half_pi(self):
        # Var(y) at x is prior 1 + noise sin^2(x) + 0.01 (1 + 1.01 at x = pi/2), so
        # y / sqrt(1 + sin^2(x) + 0.01) is standard normal at every training input.
        models = [generate_dataset(seed=s) for s in range(1000)]
        z = np.concatenate([m.train_y / np.sqrt(1.0 + default_noise_variance(m.train_x))
                            for m in models])
        assert abs(z.mean()) < 0.1
        assert abs(z.var() - 1.0) < 0.1


class TestGpFit:
    def test_single_point_system(self):
        state = gp_fit(GpModel(np.array([0.0]), np.array([0.0])))
        assert state.factor[0, 0] ** 2 == pytest.approx(1.01, abs=1e-12)

    def test_duplicate_inputs_factor_under_the_noise_floor(self):
        # K is singular at repeated inputs; diag(sigma^2) >= 0.01 keeps K + diag(sigma^2) definite.
        model = GpModel(np.array([1.0, 1.0, 1.0, 2.0]), np.array([0.5, 0.5, 0.4, -0.2]))
        pred = gp_predict(gp_fit(model), np.array([1.0, 2.0]))
        assert np.all(np.isfinite(pred.mean))
        assert np.all(pred.posterior_variance > 0.0)

    def test_kernel_psd(self, rng):
        for n in (3, 6, 10):
            x = rng.uniform(0.0, 5.0, n)
            k = rbf_kernel(x, x)
            np.testing.assert_allclose(k, k.T, atol=1e-15)
            assert np.linalg.eigvalsh(k).min() >= -1e-10

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            GpModel(np.zeros(3), np.zeros(4))


class TestGpPredict:
    def test_single_point_closed_form(self):
        state = gp_fit(GpModel(np.array([0.0]), np.array([0.0])))
        pred = gp_predict(state, np.array([0.0]))
        assert abs(pred.posterior_variance[0] - (1.0 - 1.0 / 1.01)) < 1e-9

    def test_far_query_returns_to_prior(self):
        state = gp_fit(generate_dataset(seed=3))
        pred = gp_predict(state, np.array([40.0]))
        assert abs(pred.posterior_variance[0] - 1.0) < 1e-6

    def test_variance_bounds(self):
        exp = run_default_experiment(seed=1)
        var = exp.prediction.posterior_variance
        assert var.min() >= 0.0
        assert var.max() <= 1.0 + 1e-9

    def test_likelihood_variance_reported(self):
        state = gp_fit(GpModel(np.array([0.0]), np.array([0.0])))
        pred = gp_predict(state, np.array([HALF_PI]))
        assert pred.likelihood_variance[0] == pytest.approx(1.01)


def scipy_posterior(model, x_star):
    """Reference posterior from scipy's cho_factor/cho_solve."""
    x = model.train_x
    chol = cho_factor(rbf_kernel(x, x) + np.diag(default_noise_variance(x)), lower=True)
    k_star = rbf_kernel(x, x_star)
    mean = k_star.T @ cho_solve(chol, model.train_y)
    var = SIGNAL_VARIANCE - np.einsum("ij,ij->j", k_star, cho_solve(chol, k_star))
    return mean, var


class TestScipyOracle:
    # The numpy.linalg solve path against scipy's Cholesky solve, to 1e-12 relative.
    @pytest.mark.parametrize("seed", range(5))
    def test_default_experiment(self, seed):
        exp = run_default_experiment(seed=seed)
        mean, var = scipy_posterior(exp.model, exp.prediction.x)
        np.testing.assert_allclose(exp.prediction.mean, mean, rtol=1e-12, atol=0)
        np.testing.assert_allclose(exp.prediction.posterior_variance, var, rtol=1e-12, atol=0)


class TestConditionalPosteriorVariance:
    def test_identical_predictions(self):
        pred = GpPrediction(
            x=np.array([-2.0, -1.0, 1.0, 2.0]),
            mean=np.zeros(4),
            posterior_variance=np.full(4, 0.3),
            likelihood_variance=np.full(4, 0.5),
        )
        tables = conditional_posterior_variance(pred)
        for name in ("ind", "ood"):
            populated = tables[name].counts > 0
            assert populated.sum() == 1
            assert tables[name].mean_posterior_variance[populated][0] == pytest.approx(0.3)

    def test_empty_ood_split(self):
        pred = GpPrediction(
            x=np.array([0.5, 1.5]),
            mean=np.zeros(2),
            posterior_variance=np.array([0.2, 0.4]),
            likelihood_variance=np.array([0.3, 0.6]),
        )
        tables = conditional_posterior_variance(pred)
        assert tables["ood"].counts.sum() == 0
        assert np.isnan(tables["ood"].mean_posterior_variance).all()

    def test_top_edge_lands_in_last_bin(self):
        pred = GpPrediction(
            x=np.array([1.0]),
            mean=np.zeros(1),
            posterior_variance=np.array([0.2]),
            likelihood_variance=np.array([1.01]),
        )
        tables = conditional_posterior_variance(pred, n_bins=20)
        assert tables["ind"].counts[-1] == 1

    def test_bin_count_validation(self):
        pred = GpPrediction(np.array([0.0]), np.zeros(1), np.zeros(1), np.full(1, 0.01))
        with pytest.raises(ValidationError):
            conditional_posterior_variance(pred, n_bins=0)

    def test_default_experiment_bin_ordering(self):
        exp = run_default_experiment(seed=0)
        ind, ood = exp.tables["ind"], exp.tables["ood"]
        both = (ind.counts > 0) & (ood.counts > 0)
        assert both.any()
        assert np.all(
            ood.mean_posterior_variance[both] > ind.mean_posterior_variance[both]
        )


class TestDefaultExperiment:
    def test_region_means_across_seeds(self):
        # OOD half of the eval grid carries more epistemic uncertainty, always.
        for seed in range(20):
            pred = run_default_experiment(seed=seed).prediction
            left = pred.posterior_variance[pred.x < 0].mean()
            right = pred.posterior_variance[pred.x >= 0].mean()
            assert left > right

    def test_shapes(self):
        exp = run_default_experiment(seed=4, n_bins=10)
        assert exp.prediction.x.shape == (512,)
        assert exp.tables["ind"].counts.shape == (10,)
        assert exp.tables["ind"].edges.shape == (11,)
