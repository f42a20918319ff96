"""Heteroskedastic 1-d Gaussian process oracle.

One fixed known-noise problem where epistemic and aleatoric uncertainty are
exact rather than estimated: a zero-mean GP with an RBF kernel (lengthscale
1, signal variance 1) is trained on N_TRAIN = 25 points drawn on [0, 5].
The posterior variance is epistemic, the likelihood variance sigma^2(x) =
sin^2(x) + 0.01 is aleatoric, and anything at x < 0 is out of distribution
by construction. Binning posterior variance by likelihood variance shows
how the epistemic level conditioned on aleatoric level separates the two.
The posterior is one Cholesky factorization of K + diag(sigma^2), whose
smallest eigenvalue is at least 0.01, so it needs no jitter
(Rasmussen & Williams, GPML 2006, Algorithm 2.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from . import stream
from .errors import NumericalError, ValidationError

# Added to the prior covariance K alone when drawing the training targets.
BASE_JITTER = 1e-8
N_TRAIN = 25
LENGTHSCALE = 1.0
SIGNAL_VARIANCE = 1.0
LIK_VAR_RANGE = (0.01, 1.01)
TRAIN_DOMAIN = (0.0, 5.0)
DEFAULT_EVAL_DOMAIN = (-5.0, 5.0)
DEFAULT_EVAL_POINTS = 512


def default_noise_variance(x: np.ndarray) -> np.ndarray:
    """Known aleatoric noise level: sin^2(x) + 0.01."""
    x = np.asarray(x, dtype=np.float64)
    return np.sin(x) ** 2 + 0.01


def rbf_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = np.asarray(a, dtype=np.float64)[:, None] - np.asarray(b, dtype=np.float64)[None, :]
    return SIGNAL_VARIANCE * np.exp(-(d * d) / (2.0 * LENGTHSCALE * LENGTHSCALE))


def generate_dataset(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw a training set ``(train_x, train_y)`` from the prior: N_TRAIN
    sorted uniform inputs on TRAIN_DOMAIN, latent values sampled jointly
    from the GP (jitter BASE_JITTER), observations with Normal(0, sigma^2(x))
    noise added. Deterministic per seed."""
    rng = stream(seed)
    x = np.sort(rng.uniform(TRAIN_DOMAIN[0], TRAIN_DOMAIN[1], size=N_TRAIN))
    chol = np.linalg.cholesky(rbf_kernel(x, x) + BASE_JITTER * np.eye(N_TRAIN))
    latent = chol @ rng.standard_normal(N_TRAIN)
    return x, latent + rng.standard_normal(N_TRAIN) * np.sqrt(default_noise_variance(x))


def posterior(train_x: np.ndarray, train_y: np.ndarray, x_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at the query points, from the lower
    Cholesky factor L of K + diag(sigma^2) and alpha = (L L^T)^-1 y.

    Tiny negative variances (above -1e-9) are clamped to zero; anything
    more negative indicates a broken factorization and raises.
    """
    x = np.asarray(train_x, dtype=np.float64)
    x_star = np.atleast_1d(np.asarray(x_star, dtype=np.float64))
    try:
        factor = np.linalg.cholesky(rbf_kernel(x, x) + np.diag(default_noise_variance(x)))
    except LinAlgError as exc:
        raise NumericalError("GP covariance K + diag(sigma^2) is not positive definite") from exc
    alpha = np.linalg.solve(factor.T, np.linalg.solve(factor, np.asarray(train_y, dtype=np.float64)))
    k_star = rbf_kernel(x, x_star)
    v = np.linalg.solve(factor, k_star)
    var = SIGNAL_VARIANCE - np.einsum("ij,ij->j", v, v)
    if (var < -1e-9).any():
        raise NumericalError(f"posterior variance fell to {var.min():.3e}")
    return k_star.T @ alpha, np.maximum(var, 0.0)


def likelihood_bins(x: np.ndarray, posterior_variance: np.ndarray,
                    n_bins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bin points by likelihood variance over LIK_VAR_RANGE and average
    posterior variance within each bin, for InD (x >= 0) and OOD (x < 0).

    Returns the n_bins + 1 edges, and (2, n_bins) counts and mean posterior
    variances, the InD row first. Empty bins get count 0 and NaN mean.
    Values at the top of the range land in the last bin.
    """
    if n_bins < 1:
        raise ValidationError("n_bins must be >= 1")
    lo, hi = LIK_VAR_RANGE
    idx = np.clip(((default_noise_variance(x) - lo) / (hi - lo) * n_bins).astype(np.int64), 0, n_bins - 1)
    cell = idx + n_bins * (x < 0.0)  # OOD points count in the second row
    counts = np.bincount(cell, minlength=2 * n_bins).reshape(2, n_bins).astype(np.int64)
    sums = np.bincount(cell, weights=posterior_variance, minlength=2 * n_bins).reshape(2, n_bins)
    return np.linspace(lo, hi, n_bins + 1), counts, np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


@dataclass
class GpExperiment:
    """The default experiment: training set, grid posterior with the exact aleatoric
    level alongside, and likelihood_bins' edges, counts and means (rows InD, OOD)."""

    train_x: np.ndarray
    train_y: np.ndarray
    x: np.ndarray
    mean: np.ndarray
    posterior_variance: np.ndarray
    likelihood_variance: np.ndarray
    edges: np.ndarray
    counts: np.ndarray
    means: np.ndarray


def run_default_experiment(seed: int = 0, n_bins: int = 20) -> GpExperiment:
    """Train on N_TRAIN points in [0, 5], predict on DEFAULT_EVAL_POINTS equispaced
    points over [-5, 5], and bin posterior variance by likelihood variance."""
    train_x, train_y = generate_dataset(seed)
    grid = np.linspace(DEFAULT_EVAL_DOMAIN[0], DEFAULT_EVAL_DOMAIN[1], DEFAULT_EVAL_POINTS)
    mean, var = posterior(train_x, train_y, grid)
    return GpExperiment(train_x, train_y, grid, mean, var, default_noise_variance(grid),
                        *likelihood_bins(grid, var, n_bins))
