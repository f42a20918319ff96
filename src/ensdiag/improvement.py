"""Do two interventions improve the same datapoints?

Improvement is measured per point as base score minus alternative score
(positive = the alternative helps). Agreement between two improvement
profiles is quantified two ways: a Pearson correlation, and a kernel
two-sample test comparing the paired cloud {(delta_a_i, delta_b_i)}
against a control cloud {(delta_a_i, control_i)} with the unbiased MMD^2
statistic and a distribution-free threshold.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .errors import ValidationError
from .metrics import compute_metric

# Above this sample size the quadratic-cost kernel sums get slow.
MMD_SIZE_WARNING = 20_000
BANDWIDTH_MEDIAN_CAP = 2_000


def per_point_improvement(
    base_probs: np.ndarray,
    alt_probs: np.ndarray,
    labels: np.ndarray,
    metric: str = "brier",
) -> np.ndarray:
    """Base score minus alternative score, per point. Positive is better."""
    return compute_metric(metric, base_probs, labels) - compute_metric(metric, alt_probs, labels)


def pearson_r(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation; rejects degenerate (zero variance) inputs."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValidationError("inputs must be 1-d arrays of equal length")
    if a.size < 2:
        raise ValidationError("correlation needs at least two points")
    da, db = a - a.mean(), b - b.mean()
    denom = np.sqrt((da * da).sum() * (db * db).sum())
    if denom == 0.0:
        raise ValidationError("correlation undefined: an input has zero variance")
    return float((da * db).sum() / denom)


def median_heuristic_bandwidth(points: np.ndarray) -> float:
    """Median of the nonzero pairwise distances of a point cloud.

    Coinciding pairs are left out, so a discrete cloud such as 0-1 deltas,
    where most pairs coincide, still gets the typical distance between
    distinct points. Above BANDWIDTH_MEDIAN_CAP points the median is taken
    over an evenly strided subset so the cost stays bounded and the value
    stays deterministic.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[0] < 2:
        raise ValidationError("bandwidth needs at least two points")
    if points.shape[0] > BANDWIDTH_MEDIAN_CAP:
        stride = int(np.ceil(points.shape[0] / BANDWIDTH_MEDIAN_CAP))
        points = points[::stride]
    dist = pdist(points)
    dist = dist[dist > 0.0]
    if dist.size == 0:
        raise ValidationError("bandwidth undefined: every point of the cloud coincides")
    # The filter already copied; partitioning that copy in place saves another.
    return float(np.median(dist, overwrite_input=True))


def _gaussian_gram(x: np.ndarray, y: np.ndarray, bandwidth: float) -> np.ndarray:
    d2 = cdist(x, y, "sqeuclidean")
    return np.exp(-d2 / (2.0 * bandwidth * bandwidth))


def mmd2_unbiased(x: np.ndarray, y: np.ndarray, bandwidth: float) -> float:
    """Unbiased squared maximum mean discrepancy with a Gaussian kernel.

        MMD_u^2 = sum_{i != j} k(x_i, x_j) / (m(m-1))
                + sum_{i != j} k(y_i, y_j) / (n(n-1))
                - 2 sum_{i, j} k(x_i, y_j) / (mn)

    May be slightly negative under the null; that is expected for the
    unbiased estimator.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    m, n = x.shape[0], y.shape[0]
    if m < 2 or n < 2:
        raise ValidationError("each sample needs at least two points")
    if x.shape[1] != y.shape[1]:
        raise ValidationError("samples must share one dimensionality")
    if bandwidth <= 0:
        raise ValidationError("bandwidth must be positive")
    if max(m, n) > MMD_SIZE_WARNING:
        warnings.warn(
            f"mmd2_unbiased is quadratic in the sample size ({max(m, n)} points); "
            "consider subsampling",
            RuntimeWarning,
            stacklevel=2,
        )
    kxx = _gaussian_gram(x, x, bandwidth)
    kyy = _gaussian_gram(y, y, bandwidth)
    kxy = _gaussian_gram(x, y, bandwidth)
    term_x = (kxx.sum() - np.trace(kxx)) / (m * (m - 1))
    term_y = (kyy.sum() - np.trace(kyy)) / (n * (n - 1))
    term_xy = 2.0 * kxy.sum() / (m * n)
    return float(term_x + term_y - term_xy)


def mmd_threshold(m: int, alpha: float) -> float:
    """Distribution-free rejection threshold for MMD_u^2 at level alpha.

    For m = n samples and a kernel bounded by K, the null is rejected when
    the statistic exceeds (4K / sqrt(m)) * sqrt(ln(1 / alpha)). The Gaussian
    kernel is bounded by K = 1.
    """
    if m < 1:
        raise ValidationError("m must be positive")
    if not 0.0 < alpha <= 1.0:
        raise ValidationError("alpha must lie in (0, 1]")
    return float(4.0 / np.sqrt(m) * np.sqrt(np.log(1.0 / alpha)))


@dataclass
class MmdTestResult:
    """Outcome of the paired-cloud similarity test."""

    statistic: float
    threshold: float
    alpha: float
    bandwidth: float
    m: int
    reject: bool

    def formatted(self) -> str:
        """Render as 'statistic (threshold)'."""
        return f"{self.statistic:.4g} ({self.threshold:.3g})"


def improvement_similarity_test(
    delta_a: np.ndarray,
    delta_b: np.ndarray,
    control: np.ndarray,
    alpha: float = 0.05,
) -> MmdTestResult:
    """Test whether (delta_a, delta_b) pairs look different from a control
    pairing of delta_a with an unrelated improvement profile.

    Both clouds share the delta_a coordinate, so sizes match and the m = n
    threshold applies. The kernel bandwidth is the median heuristic of the
    pooled clouds.
    """
    delta_a = np.asarray(delta_a, dtype=np.float64)
    delta_b = np.asarray(delta_b, dtype=np.float64)
    control = np.asarray(control, dtype=np.float64)
    if not (delta_a.shape == delta_b.shape == control.shape) or delta_a.ndim != 1:
        raise ValidationError("delta_a, delta_b, control must be 1-d arrays of equal length")
    cloud = np.column_stack([delta_a, delta_b])
    cloud_control = np.column_stack([delta_a, control])
    bandwidth = median_heuristic_bandwidth(np.vstack([cloud, cloud_control]))
    stat = mmd2_unbiased(cloud, cloud_control, bandwidth)
    thr = mmd_threshold(delta_a.shape[0], alpha)
    return MmdTestResult(stat, thr, alpha, bandwidth, delta_a.shape[0], stat > thr)
