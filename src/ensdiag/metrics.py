"""Per-datapoint scoring rules, and summed scores with calibration bins.

All scores follow a lower-is-better convention. Probability inputs are
assumed row-stochastic, as every read of a store.StoredMember is; labels
are integer class indices in [0, C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ValidationError

# Floor applied to the true-class probability inside the log.
NLL_EPS = 1e-12

# Largest residual tolerated in an exact identity between scores.
IDENTITY_TOL = 1e-10


def check_labels(labels: np.ndarray, n: int, c: int) -> np.ndarray:
    """Labels as int64, checked to be n class indices in [0, c)."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValidationError(f"labels shape {labels.shape} does not match {n} rows")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ValidationError(f"labels outside [0, {c})")
    return labels.astype(np.int64)


def _check_labels(probs: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ValidationError(f"expected 2-d probabilities, got shape {probs.shape}")
    return probs, check_labels(labels, *probs.shape)


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


# Columns of ScoreSums.scores.
SCORE_SUMS = ("zero_one", "nll", "brier")


@dataclass
class ScoreSums:
    """Summed scores and calibration bin sums of K prediction matrices over one set of points.

    Row k of `scores` holds matrix k's summed zero_one, nll and brier scores
    (SCORE_SUMS order). `bins[k]` holds its per-bin point count, confidence
    sum and correct-prediction sum. Bins partition (0, 1] into `n_bins`
    equal-width intervals; a point with confidence c lands in bin
    ceil(c * n_bins). Sums over disjoint sets of points add up to the sums
    over their union.
    """

    scores: np.ndarray
    bins: np.ndarray

    def __add__(self, other: ScoreSums) -> ScoreSums:
        return ScoreSums(self.scores + other.scores, self.bins + other.bins)

    def calibration_errors(self, k: int) -> tuple[float, float]:
        """ECE and ResCE of matrix k.

        With bin weights w_m = |B_m| / n and gaps g_m = accuracy - confidence,
        ece = sum w_m |g_m| and resce = sqrt(sum w_m g_m^2), so resce >= ece.
        """
        counts, confidence, correct = self.bins[k]
        held = np.maximum(counts, 1)  # an empty bin's sums are 0, so its gap is 0
        gaps = correct / held - confidence / held
        weights = counts / counts.sum()
        return float(np.sum(weights * np.abs(gaps))), float(np.sqrt(np.sum(weights * gaps**2)))


def score_sums(matrices: Iterable[np.ndarray], labels: np.ndarray, n_bins: int = 15) -> ScoreSums:
    """Summed scores and calibration bins of each (N, C) matrix against one label vector.

    The labels are checked once, however many matrices there are. Each
    matrix is read whole twice, for its argmax and for its sum of squares,
    and otherwise only at N entries: its confidence at the argmax and its
    true-class probability. zero_one, the calibration bins and nll come from
    those, and brier as the sum of p^2 - 2 p_y + 1 over the matrix. zero_one,
    nll and the bins are the sums of zero_one_error, nll and the per-point
    confidence and correctness, bit for bit; brier is within a few ulps of
    the sum of `brier`. Matrices are taken one at a time, so a generator
    holds one at a time.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValidationError(f"expected 1-d labels, got shape {labels.shape}")
    if n_bins < 1:
        raise ValidationError("n_bins must be >= 1")
    n = labels.shape[0]
    if n == 0:
        raise ValidationError("scoring needs at least one point")
    tops, confidence, p_true, squares = [], [], [], []
    for probs in matrices:
        probs = np.asarray(probs, dtype=np.float64)
        if not tops:
            shape = probs.shape
            if probs.ndim != 2 or shape[0] != n:
                raise ValidationError(f"expected a 2-d matrix of {n} rows, got shape {shape}")
            labels = check_labels(labels, n, shape[1])
            starts = np.arange(n) * shape[1]
            at_label = starts + labels
        elif probs.shape != shape:
            raise ValidationError(f"matrices of shapes {shape} and {probs.shape} scored together")
        flat = probs.reshape(-1)
        top = probs.argmax(axis=1)
        tops.append(top)
        confidence.append(flat[starts + top])
        p_true.append(flat[at_label])
        squares.append(flat @ flat)
    if not tops:
        raise ValidationError("scoring needs at least one matrix")
    # (K, N) arrays; every reduction below runs along one matrix's row.
    k = len(tops)
    confidence, p_true = np.array(confidence), np.array(p_true)
    correct = np.array(tops) == labels
    scores = np.column_stack([
        n - np.count_nonzero(correct, axis=1),
        -np.log(np.maximum(p_true, NLL_EPS)).sum(axis=1),
        np.array(squares) - 2.0 * p_true.sum(axis=1) + n,
    ])
    # Matrix k's bin b is number k * n_bins + b of one bincount.
    idx = np.minimum(np.maximum(np.ceil(confidence * n_bins), 1), n_bins).astype(np.intp)
    idx += np.arange(0, k * n_bins, n_bins)[:, None] - 1
    bins = [np.bincount(idx.reshape(-1), weights=weights, minlength=k * n_bins).reshape(k, n_bins)
            for weights in (None, confidence.reshape(-1), correct.reshape(-1))]
    return ScoreSums(scores, np.stack(bins, axis=1))


def compute_metric(kind: str, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-point scores of a label-based metric kind: brier, nll or zero_one."""
    if kind == "brier":
        return brier(probs, labels)
    if kind == "nll":
        return nll(probs, labels)
    if kind == "zero_one":
        return zero_one_error(probs, labels)
    raise ValidationError(f"unknown metric kind {kind!r}; choose from brier, nll, zero_one")
