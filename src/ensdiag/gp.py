"""Heteroskedastic 1-d Gaussian process oracle.

A known-noise regression problem where epistemic and aleatoric uncertainty
are exact rather than estimated: the posterior variance is epistemic, the
likelihood variance sigma^2(x) = sin^2(x) + 0.01 is aleatoric. Training
inputs live on [0, 5]; anything at x < 0 is out of distribution by
construction. Binning posterior variance by likelihood variance shows how
the epistemic level conditioned on aleatoric level separates the two
regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.linalg import LinAlgError
from numpy.random import default_rng

from .errors import NumericalError, ValidationError

BASE_JITTER = 1e-8
MAX_JITTER_ESCALATIONS = 3
LIK_VAR_RANGE = (0.01, 1.01)
TRAIN_DOMAIN = (0.0, 5.0)
DEFAULT_EVAL_DOMAIN = (-5.0, 5.0)
DEFAULT_EVAL_POINTS = 512


def default_noise_variance(x: np.ndarray) -> np.ndarray:
    """Known aleatoric noise level: sin^2(x) + 0.01."""
    x = np.asarray(x, dtype=np.float64)
    return np.sin(x) ** 2 + 0.01


def rbf_kernel(a: np.ndarray, b: np.ndarray, lengthscale: float, signal_variance: float) -> np.ndarray:
    d = np.asarray(a, dtype=np.float64)[:, None] - np.asarray(b, dtype=np.float64)[None, :]
    return signal_variance * np.exp(-(d * d) / (2.0 * lengthscale * lengthscale))


@dataclass
class GpModel:
    """Zero-mean GP regression problem with known input-dependent noise."""

    train_x: np.ndarray
    train_y: np.ndarray
    lengthscale: float = 1.0
    signal_variance: float = 1.0
    noise_fn: Callable[[np.ndarray], np.ndarray] = field(default=default_noise_variance)

    def __post_init__(self) -> None:
        self.train_x = np.asarray(self.train_x, dtype=np.float64).ravel()
        self.train_y = np.asarray(self.train_y, dtype=np.float64).ravel()
        if self.train_x.shape != self.train_y.shape:
            raise ValidationError("train_x and train_y must have equal length")
        if self.lengthscale <= 0 or self.signal_variance <= 0:
            raise ValidationError("lengthscale and signal_variance must be positive")


def _chol_with_jitter(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of matrix + jitter * I, with the smallest jitter that factors."""
    jitter = 0.0
    n = matrix.shape[0]
    for step in range(MAX_JITTER_ESCALATIONS + 2):
        try:
            return np.linalg.cholesky(matrix + jitter * np.eye(n)), jitter
        except LinAlgError:
            jitter = BASE_JITTER * 10.0**step
    raise NumericalError(
        f"covariance not positive definite after {MAX_JITTER_ESCALATIONS} jitter escalations"
    )


def generate_dataset(
    n: int = 25,
    domain: tuple[float, float] = TRAIN_DOMAIN,
    seed: int = 0,
    lengthscale: float = 1.0,
    signal_variance: float = 1.0,
    noise_fn: Callable[[np.ndarray], np.ndarray] = default_noise_variance,
) -> GpModel:
    """Draw a training set from the prior: uniform inputs on the domain,
    latent values sampled jointly from the GP (jitter 1e-8), observations
    with Normal(0, sigma^2(x)) noise added. Deterministic per seed."""
    if n < 0:
        raise ValidationError("n must be nonnegative")
    rng = default_rng(seed)
    x = np.sort(rng.uniform(domain[0], domain[1], size=n))
    if n == 0:
        return GpModel(x, np.empty(0), lengthscale, signal_variance, noise_fn)
    k = rbf_kernel(x, x, lengthscale, signal_variance)
    chol = np.linalg.cholesky(k + BASE_JITTER * np.eye(n))
    latent = chol @ rng.standard_normal(n)
    y = latent + rng.standard_normal(n) * np.sqrt(noise_fn(x))
    return GpModel(x, y, lengthscale, signal_variance, noise_fn)


@dataclass
class GpState:
    """Factorized posterior: lower Cholesky factor L of K + diag(sigma^2) and
    alpha = (L L^T)^-1 y."""

    model: GpModel
    factor: np.ndarray | None
    alpha: np.ndarray
    jitter: float


def gp_fit(model: GpModel) -> GpState:
    n = model.train_x.shape[0]
    if n == 0:
        return GpState(model, None, np.empty(0), 0.0)
    k = rbf_kernel(model.train_x, model.train_x, model.lengthscale, model.signal_variance)
    noise = model.noise_fn(model.train_x)
    if (np.asarray(noise) < 0).any():
        raise ValidationError("noise variance must be nonnegative")
    factor, jitter = _chol_with_jitter(k + np.diag(noise))
    alpha = np.linalg.solve(factor.T, np.linalg.solve(factor, model.train_y))
    return GpState(model, factor, alpha, jitter)


@dataclass
class GpPrediction:
    """Posterior summary on a grid, with the exact aleatoric level alongside."""

    x: np.ndarray
    mean: np.ndarray
    posterior_variance: np.ndarray
    likelihood_variance: np.ndarray


def gp_predict(state: GpState, x_star: np.ndarray) -> GpPrediction:
    """Posterior mean and variance at the query points.

    Tiny negative variances (above -1e-9) are clamped to zero; anything
    more negative indicates a broken factorization and raises.
    """
    x_star = np.atleast_1d(np.asarray(x_star, dtype=np.float64))
    model = state.model
    lik = model.noise_fn(x_star)
    if model.train_x.shape[0] == 0:
        prior = np.full(x_star.shape, model.signal_variance)
        return GpPrediction(x_star, np.zeros_like(x_star), prior, lik)
    k_star = rbf_kernel(model.train_x, x_star, model.lengthscale, model.signal_variance)
    mean = k_star.T @ state.alpha
    v = np.linalg.solve(state.factor, k_star)
    var = model.signal_variance - np.einsum("ij,ij->j", v, v)
    if (var < -1e-9).any():
        raise NumericalError(f"posterior variance fell to {var.min():.3e}")
    var = np.maximum(var, 0.0)
    return GpPrediction(x_star, mean, var, lik)


@dataclass
class BinTable:
    """Mean posterior variance grouped by likelihood-variance bin."""

    edges: np.ndarray
    counts: np.ndarray
    mean_posterior_variance: np.ndarray


def conditional_posterior_variance(pred: GpPrediction, n_bins: int = 20) -> dict[str, BinTable]:
    """Bin predictions by likelihood variance over LIK_VAR_RANGE, split into
    InD (x >= 0) and OOD (x < 0), and average posterior variance within each
    bin.

    Empty bins get count 0 and NaN mean. Values at the top of the range
    land in the last bin.
    """
    if n_bins < 1:
        raise ValidationError("n_bins must be >= 1")
    lo, hi = LIK_VAR_RANGE
    edges = np.linspace(lo, hi, n_bins + 1)
    width = hi - lo
    tables: dict[str, BinTable] = {}
    for name, mask in (("ind", pred.x >= 0.0), ("ood", pred.x < 0.0)):
        lik = pred.likelihood_variance[mask]
        post = pred.posterior_variance[mask]
        idx = np.clip(((lik - lo) / width * n_bins).astype(np.int64), 0, n_bins - 1)
        counts = np.bincount(idx, minlength=n_bins) if lik.size else np.zeros(n_bins, dtype=np.int64)
        sums = np.bincount(idx, weights=post, minlength=n_bins) if lik.size else np.zeros(n_bins)
        with np.errstate(invalid="ignore"):
            means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
        tables[name] = BinTable(edges, counts.astype(np.int64), means)
    return tables


@dataclass
class GpExperiment:
    model: GpModel
    prediction: GpPrediction
    tables: dict[str, BinTable]
    jitter: float


def run_default_experiment(seed: int = 0, n_bins: int = 20) -> GpExperiment:
    """Train on 25 points in [0, 5], predict on DEFAULT_EVAL_POINTS equispaced
    points over [-5, 5], and build the conditional posterior-variance tables."""
    model = generate_dataset(seed=seed)
    state = gp_fit(model)
    grid = np.linspace(DEFAULT_EVAL_DOMAIN[0], DEFAULT_EVAL_DOMAIN[1], DEFAULT_EVAL_POINTS)
    pred = gp_predict(state, grid)
    tables = conditional_posterior_variance(pred, n_bins=n_bins)
    return GpExperiment(model, pred, tables, state.jitter)
