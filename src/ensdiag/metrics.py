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

# Largest residual tolerated in an exact identity between scores.
IDENTITY_TOL = 1e-10


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


def nll(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Negative log likelihood of the true class, in nats.

    The true-class probability is floored at NLL_EPS so that an exact zero
    yields -ln(NLL_EPS) rather than infinity.
    """
    probs, labels = _check_labels(probs, labels)
    p_true = probs[np.arange(probs.shape[0]), labels]
    return -np.log(np.maximum(p_true, NLL_EPS))


def zero_one_error(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """1 when the argmax prediction misses the label, 0 otherwise.

    Ties resolve to the lowest class index.
    """
    probs, labels = _check_labels(probs, labels)
    return (probs.argmax(axis=1) != labels).astype(np.float64)


def entropy(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy per row, in nats, with 0 ln 0 = 0."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ValidationError(f"expected 2-d probabilities, got shape {probs.shape}")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(probs > 0.0, probs * np.log(probs), 0.0)
    return -terms.sum(axis=1)


def quad_uncertainty(probs: np.ndarray) -> np.ndarray:
    """Quadratic uncertainty 1 - sum_i p_i^2, in [0, 1 - 1/C]."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ValidationError(f"expected 2-d probabilities, got shape {probs.shape}")
    return 1.0 - np.einsum("ij,ij->i", probs, probs)


@dataclass
class CalibrationSummary:
    """Per-bin sums of a confidence-vs-accuracy binning, and the scores they give.

    Bins partition (0, 1] into `n_bins` equal-width intervals; a point with
    confidence c lands in bin ceil(c * n_bins). The sums are additive:
    summaries of disjoint sets of points add up to the summary of their
    union. With bin weights w_m = |B_m| / n and gaps g_m = accuracy -
    confidence, ece = sum w_m |g_m| and resce = sqrt(sum w_m g_m^2), so
    resce >= ece.
    """

    n_bins: int
    bin_counts: np.ndarray
    bin_confidence_sum: np.ndarray
    bin_correct_sum: np.ndarray

    def __add__(self, other: CalibrationSummary) -> CalibrationSummary:
        return CalibrationSummary(self.n_bins, self.bin_counts + other.bin_counts,
                                  self.bin_confidence_sum + other.bin_confidence_sum,
                                  self.bin_correct_sum + other.bin_correct_sum)

    def _gaps(self) -> np.ndarray:
        counts = np.maximum(self.bin_counts, 1)  # an empty bin's sums are 0, so its gap is 0
        return self.bin_correct_sum / counts - self.bin_confidence_sum / counts

    @property
    def ece(self) -> float:
        return float(np.sum(self.bin_counts / self.bin_counts.sum() * np.abs(self._gaps())))

    @property
    def resce(self) -> float:
        return float(np.sqrt(np.sum(self.bin_counts / self.bin_counts.sum() * self._gaps() ** 2)))


def calibration(probs: np.ndarray, labels: np.ndarray, n_bins: int = 15) -> CalibrationSummary:
    """Per-bin count, confidence sum and correct-prediction sum of a prediction matrix."""
    probs, labels = _check_labels(probs, labels)
    if n_bins < 1:
        raise ValidationError("n_bins must be >= 1")
    if probs.shape[0] == 0:
        raise ValidationError("calibration needs at least one point")
    conf = probs.max(axis=1)
    correct = (probs.argmax(axis=1) == labels).astype(np.float64)
    idx = np.clip(np.ceil(conf * n_bins).astype(np.int64), 1, n_bins) - 1
    return CalibrationSummary(
        n_bins,
        np.bincount(idx, minlength=n_bins).astype(np.int64),
        np.bincount(idx, weights=conf, minlength=n_bins),
        np.bincount(idx, weights=correct, minlength=n_bins),
    )


def compute_metric(kind: str, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-point scores of a label-based metric kind: brier, nll or zero_one."""
    if kind == "brier":
        return brier(probs, labels)
    if kind == "nll":
        return nll(probs, labels)
    if kind == "zero_one":
        return zero_one_error(probs, labels)
    raise ValidationError(f"unknown metric kind {kind!r}; choose from brier, nll, zero_one")
