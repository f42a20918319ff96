"""Per-datapoint scoring rules and calibration summaries.

All scores follow a lower-is-better convention. Probability inputs are
assumed row-stochastic (see store.validate_probs); labels are integer class
indices in [0, C).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Floor applied to the true-class probability inside the log.
NLL_EPS = 1e-12

LN2 = float(np.log(2.0))


def _check_labels(probs: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.ndim != 2:
        raise ValidationError(f"expected 2-d probabilities, got shape {probs.shape}")
    if labels.shape != (probs.shape[0],):
        raise ValidationError(
            f"labels shape {labels.shape} does not match {probs.shape[0]} rows"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= probs.shape[1]):
        raise ValidationError(f"labels outside [0, {probs.shape[1]})")
    return probs, labels.astype(np.int64)


def brier(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Squared L2 distance to the one-hot target, in [0, 2]."""
    probs, labels = _check_labels(probs, labels)
    rows = np.arange(probs.shape[0])
    delta = probs.copy()
    delta[rows, labels] -= 1.0
    return np.einsum("ij,ij->i", delta, delta)


def nll(probs: np.ndarray, labels: np.ndarray, *, eps: float = NLL_EPS, base2: bool = False) -> np.ndarray:
    """Negative log likelihood of the true class.

    The true-class probability is floored at `eps` so that an exact zero
    yields -ln(eps) rather than infinity.
    """
    probs, labels = _check_labels(probs, labels)
    p_true = probs[np.arange(probs.shape[0]), labels]
    out = -np.log(np.maximum(p_true, eps))
    return out / LN2 if base2 else out


def zero_one_error(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """1 when the argmax prediction misses the label, 0 otherwise.

    Ties resolve to the lowest class index.
    """
    probs, labels = _check_labels(probs, labels)
    return (probs.argmax(axis=1) != labels).astype(np.float64)


def entropy(probs: np.ndarray, *, base2: bool = False) -> np.ndarray:
    """Shannon entropy per row, in nats by default, with 0 ln 0 = 0."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ValidationError(f"expected 2-d probabilities, got shape {probs.shape}")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(probs > 0.0, probs * np.log(probs), 0.0)
    out = -terms.sum(axis=1)
    return out / LN2 if base2 else out


def quad_uncertainty(probs: np.ndarray) -> np.ndarray:
    """Quadratic uncertainty 1 - sum_i p_i^2, in [0, 1 - 1/C]."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ValidationError(f"expected 2-d probabilities, got shape {probs.shape}")
    return 1.0 - np.einsum("ij,ij->i", probs, probs)


@dataclass
class CalibrationSummary:
    """Binned confidence-vs-accuracy summary plus scalar miscalibration scores.

    Bins partition (0, 1] into `n_bins` equal-width intervals; a point with
    confidence c lands in bin ceil(c * n_bins). Arrays are indexed by bin,
    with NaN confidence/accuracy for empty bins.
    """

    n_bins: int
    bin_counts: np.ndarray
    bin_confidence: np.ndarray
    bin_accuracy: np.ndarray
    ece: float
    resce: float


def calibration(probs: np.ndarray, labels: np.ndarray, n_bins: int = 15) -> CalibrationSummary:
    """Expected calibration error and its root-square-error counterpart.

    With bin weights w_m = |B_m| / n and gaps g_m = accuracy - confidence,
    ece = sum w_m |g_m| and resce = sqrt(sum w_m g_m^2), so resce >= ece.
    """
    probs, labels = _check_labels(probs, labels)
    if n_bins < 1:
        raise ValidationError("n_bins must be >= 1")
    n = probs.shape[0]
    if n == 0:
        raise ValidationError("calibration needs at least one point")
    conf = probs.max(axis=1)
    correct = (probs.argmax(axis=1) == labels).astype(np.float64)
    idx = np.clip(np.ceil(conf * n_bins).astype(np.int64), 1, n_bins) - 1

    counts = np.bincount(idx, minlength=n_bins).astype(np.int64)
    conf_sum = np.bincount(idx, weights=conf, minlength=n_bins)
    acc_sum = np.bincount(idx, weights=correct, minlength=n_bins)
    with np.errstate(invalid="ignore"):
        bin_conf = np.where(counts > 0, conf_sum / np.maximum(counts, 1), np.nan)
        bin_acc = np.where(counts > 0, acc_sum / np.maximum(counts, 1), np.nan)

    w = counts / n
    gaps = np.where(counts > 0, bin_acc - bin_conf, 0.0)
    ece = float(np.sum(w * np.abs(gaps)))
    resce = float(np.sqrt(np.sum(w * gaps**2)))
    return CalibrationSummary(n_bins, counts, bin_conf, bin_acc, ece, resce)


def compute_metric(kind: str, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Dispatch a metric kind string to the matching per-point scorer."""
    if kind == "brier":
        return brier(probs, labels)
    if kind == "nll":
        return nll(probs, labels)
    if kind == "zero_one":
        return zero_one_error(probs, labels)
    if kind == "entropy":
        return entropy(probs)
    if kind == "quad_uncertainty":
        return quad_uncertainty(probs)
    raise ValidationError(
        f"unknown metric kind {kind!r}; choose from brier, nll, zero_one, entropy, quad_uncertainty"
    )
