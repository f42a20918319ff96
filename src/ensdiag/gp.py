"""Heteroskedastic 1-d Gaussian process oracle.

One fixed known-noise problem where epistemic and aleatoric uncertainty are
exact rather than estimated: a zero-mean GP with an RBF kernel (lengthscale
1, signal variance 1) is trained on N_TRAIN = 25 points drawn on [0, 5].
The posterior variance is epistemic, the likelihood variance sigma^2(x) =
sin^2(x) + 0.01 is aleatoric, and anything at x < 0 is out of distribution
by construction. Binning posterior variance by likelihood variance shows
how the epistemic level conditioned on aleatoric level separates the two.
The posterior is one Cholesky factorization of K + diag(sigma^2), whose
smallest eigenvalue is at least 0.01, so it needs no jitter.
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


@dataclass
class GpModel:
    """Training set of the zero-mean GP regression problem with known noise."""

    train_x: np.ndarray
    train_y: np.ndarray

    def __post_init__(self) -> None:
        self.train_x = np.asarray(self.train_x, dtype=np.float64).ravel()
        self.train_y = np.asarray(self.train_y, dtype=np.float64).ravel()
        if self.train_x.shape != self.train_y.shape:
            raise ValidationError("train_x and train_y must have equal length")


def generate_dataset(seed: int) -> GpModel:
    """Draw a training set from the prior: N_TRAIN uniform inputs on
    TRAIN_DOMAIN, latent values sampled jointly from the GP (jitter
    BASE_JITTER), observations with Normal(0, sigma^2(x)) noise added.
    Deterministic per seed."""
    rng = stream(seed)
    x = np.sort(rng.uniform(TRAIN_DOMAIN[0], TRAIN_DOMAIN[1], size=N_TRAIN))
    chol = np.linalg.cholesky(rbf_kernel(x, x) + BASE_JITTER * np.eye(N_TRAIN))
    latent = chol @ rng.standard_normal(N_TRAIN)
    y = latent + rng.standard_normal(N_TRAIN) * np.sqrt(default_noise_variance(x))
    return GpModel(x, y)


@dataclass
class GpState:
    """Factorized posterior: lower Cholesky factor L of K + diag(sigma^2) and
    alpha = (L L^T)^-1 y."""

    model: GpModel
    factor: np.ndarray
    alpha: np.ndarray


def gp_fit(model: GpModel) -> GpState:
    x = model.train_x
    try:
        factor = np.linalg.cholesky(rbf_kernel(x, x) + np.diag(default_noise_variance(x)))
    except LinAlgError as exc:
        raise NumericalError("GP covariance K + diag(sigma^2) is not positive definite") from exc
    alpha = np.linalg.solve(factor.T, np.linalg.solve(factor, model.train_y))
    return GpState(model, factor, alpha)


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
    k_star = rbf_kernel(state.model.train_x, x_star)
    mean = k_star.T @ state.alpha
    v = np.linalg.solve(state.factor, k_star)
    var = SIGNAL_VARIANCE - np.einsum("ij,ij->j", v, v)
    if (var < -1e-9).any():
        raise NumericalError(f"posterior variance fell to {var.min():.3e}")
    var = np.maximum(var, 0.0)
    return GpPrediction(x_star, mean, var, default_noise_variance(x_star))


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
        counts = np.bincount(idx, minlength=n_bins)
        sums = np.bincount(idx, weights=post, minlength=n_bins)
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
        tables[name] = BinTable(edges, counts.astype(np.int64), means)
    return tables


@dataclass
class GpExperiment:
    model: GpModel
    prediction: GpPrediction
    tables: dict[str, BinTable]


def run_default_experiment(seed: int = 0, n_bins: int = 20) -> GpExperiment:
    """Train on N_TRAIN points in [0, 5], predict on DEFAULT_EVAL_POINTS equispaced
    points over [-5, 5], and build the conditional posterior-variance tables."""
    model = generate_dataset(seed=seed)
    state = gp_fit(model)
    grid = np.linspace(DEFAULT_EVAL_DOMAIN[0], DEFAULT_EVAL_DOMAIN[1], DEFAULT_EVAL_POINTS)
    pred = gp_predict(state, grid)
    tables = conditional_posterior_variance(pred, n_bins=n_bins)
    return GpExperiment(model, pred, tables)
