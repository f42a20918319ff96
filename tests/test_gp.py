"""Heteroskedastic GP reference: exact posteriors and the InD/OOD bin split."""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from ensdiag.errors import ValidationError
from ensdiag.gp import (
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
    def test_empty(self):
        model = generate_dataset(n=0)
        assert model.train_x.shape == (0,)
        assert model.train_y.shape == (0,)

    def test_deterministic(self):
        a = generate_dataset(n=25, seed=11)
        b = generate_dataset(n=25, seed=11)
        np.testing.assert_array_equal(a.train_x, b.train_x)
        np.testing.assert_array_equal(a.train_y, b.train_y)

    def test_inside_domain_and_sorted(self):
        model = generate_dataset(n=40, domain=(0.0, 5.0), seed=2)
        assert model.train_x.min() >= 0.0
        assert model.train_x.max() <= 5.0
        assert np.all(np.diff(model.train_x) >= 0.0)

    def test_negative_n_rejected(self):
        with pytest.raises(ValidationError):
            generate_dataset(n=-1)

    def test_marginal_variance_at_half_pi(self):
        # Degenerate domain pins x = pi/2, where Var(y) = prior 1 + noise 1.01.
        ys = [generate_dataset(n=1, domain=(HALF_PI, HALF_PI), seed=s).train_y[0]
              for s in range(1000)]
        assert abs(np.var(ys) - 2.01) / 2.01 < 0.10


class TestGpFit:
    def test_single_point_system(self):
        state = gp_fit(GpModel(np.array([0.0]), np.array([0.0])))
        assert state.factor[0, 0] ** 2 == pytest.approx(1.01, abs=1e-12)
        assert state.jitter == 0.0

    def test_duplicate_inputs_jittered(self):
        model = GpModel(
            np.array([1.0, 1.0]), np.array([0.5, 0.5]), noise_fn=lambda x: np.zeros_like(x)
        )
        state = gp_fit(model)
        assert state.jitter > 0.0
        pred = gp_predict(state, np.array([1.0, 2.0]))
        assert np.all(np.isfinite(pred.mean))
        assert np.all(np.isfinite(pred.posterior_variance))

    def test_kernel_psd(self, rng):
        for n in (3, 6, 10):
            x = rng.uniform(0.0, 5.0, n)
            k = rbf_kernel(x, x, 1.0, 1.0)
            np.testing.assert_allclose(k, k.T, atol=1e-15)
            assert np.linalg.eigvalsh(k).min() >= -1e-10

    def test_negative_noise_rejected(self):
        model = GpModel(np.array([0.0]), np.array([0.0]), noise_fn=lambda x: np.full_like(x, -1.0))
        with pytest.raises(ValidationError):
            gp_fit(model)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            GpModel(np.zeros(3), np.zeros(4))

    def test_nonpositive_lengthscale(self):
        with pytest.raises(ValidationError):
            GpModel(np.zeros(2), np.zeros(2), lengthscale=0.0)


class TestGpPredict:
    def test_prior_without_data(self):
        state = gp_fit(GpModel(np.empty(0), np.empty(0)))
        pred = gp_predict(state, np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(pred.mean, np.zeros(3))
        np.testing.assert_array_equal(pred.posterior_variance, np.ones(3))

    def test_single_point_closed_form(self):
        state = gp_fit(GpModel(np.array([0.0]), np.array([0.0])))
        pred = gp_predict(state, np.array([0.0]))
        assert abs(pred.posterior_variance[0] - (1.0 - 1.0 / 1.01)) < 1e-9

    def test_far_query_returns_to_prior(self):
        state = gp_fit(generate_dataset(n=25, seed=3))
        pred = gp_predict(state, np.array([40.0]))
        assert abs(pred.posterior_variance[0] - 1.0) < 1e-6

    def test_variance_bounds(self):
        exp = run_default_experiment(seed=1)
        var = exp.prediction.posterior_variance
        assert var.min() >= 0.0
        assert var.max() <= 1.0 + 1e-9

    def test_training_noise_controls_variance(self):
        # One observation with constant noise c: posterior var = c/(1+c) <= c.
        for c in (1.0, 0.1, 1e-4, 1e-10):
            model = GpModel(
                np.array([0.0]), np.array([0.3]), noise_fn=lambda x, c=c: np.full_like(x, c)
            )
            var = gp_predict(gp_fit(model), np.array([0.0])).posterior_variance[0]
            assert var == pytest.approx(c / (1.0 + c), rel=1e-9)
            assert var <= c + 1e-12

    def test_likelihood_variance_reported(self):
        state = gp_fit(GpModel(np.array([0.0]), np.array([0.0])))
        pred = gp_predict(state, np.array([HALF_PI]))
        assert pred.likelihood_variance[0] == pytest.approx(1.01)


def scipy_posterior(model, x_star, jitter):
    """Reference posterior from scipy's cho_factor/cho_solve at the same jitter."""
    k = rbf_kernel(model.train_x, model.train_x, model.lengthscale, model.signal_variance)
    n = model.train_x.shape[0]
    chol = cho_factor(k + np.diag(model.noise_fn(model.train_x)) + jitter * np.eye(n), lower=True)
    k_star = rbf_kernel(model.train_x, x_star, model.lengthscale, model.signal_variance)
    mean = k_star.T @ cho_solve(chol, model.train_y)
    var = model.signal_variance - np.einsum("ij,ij->j", k_star, cho_solve(chol, k_star))
    return mean, var


class TestScipyOracle:
    # The numpy.linalg solve path against scipy's Cholesky solve, to 1e-12 relative.
    @pytest.mark.parametrize("seed", range(5))
    def test_default_experiment(self, seed):
        exp = run_default_experiment(seed=seed)
        mean, var = scipy_posterior(exp.model, exp.prediction.x, exp.jitter)
        np.testing.assert_allclose(exp.prediction.mean, mean, rtol=1e-12, atol=0)
        np.testing.assert_allclose(exp.prediction.posterior_variance, var, rtol=1e-12, atol=0)

    def test_jittered_system(self):
        model = GpModel(np.array([1.0, 1.0, 2.0]), np.array([0.5, 0.5, -0.2]),
                        noise_fn=lambda x: np.zeros_like(x))
        state = gp_fit(model)
        assert state.jitter > 0.0
        x_star = np.linspace(-1.0, 4.0, 11)
        pred = gp_predict(state, x_star)
        mean, var = scipy_posterior(model, x_star, state.jitter)
        np.testing.assert_allclose(pred.mean, mean, rtol=1e-12, atol=0)
        np.testing.assert_allclose(pred.posterior_variance, var, rtol=1e-12, atol=0)


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
