"""Do two interventions improve the same datapoints?

Improvement is measured per point as base score minus alternative score
(positive = the alternative helps). Agreement between two improvement
profiles is quantified two ways: a Pearson correlation, and a kernel
two-sample test comparing the paired cloud {(delta_a_i, delta_b_i)}
against a control cloud {(delta_a_i, control_i)} with the unbiased MMD^2
statistic and a distribution-free threshold.

Nothing here holds memory that grows with N times C or with the number of
pairs. The per-point scores are computed one block of store.member_blocks
at a time, reading each member once per block.
The MMD's kernel sums come from pivoted Cholesky factors of the kernel on
each coordinate, in O(m r^2) time for ranks r, and the factors hold at
most MMD_RANK_CAP * 3m float64 values. A cloud whose factor would need
more pivots falls back to mmd2_unbiased, which builds pairwise squared
distances one row block of at most DISTANCE_BLOCK_ELEMENTS entries at a
time and reduces each before the next: time quadratic in the sample size,
memory not. The bandwidth's median is taken over at most BANDWIDTH_MEDIAN_CAP
evenly spaced points, whose distances fill one buffer of store.BLOCK_ELEMENTS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conditional import pivoted_cholesky
from .errors import ValidationError
from .metrics import compute_metric
from .store import form_ensemble, member_blocks, thinned_rows

# Most points the bandwidth's median is taken over: the largest s whose
# s(s-1)/2 = 261,726 pairwise distances fit one buffer of store.BLOCK_ELEMENTS
# = 2**18 float64 (2 MiB).
BANDWIDTH_MEDIAN_CAP = 724
# Entries in one block of pairwise distances: 2**16 float64 is 512 KiB, so
# the block and its scratch buffer fit in a 4 MiB L2 cache together.
DISTANCE_BLOCK_ELEMENTS = 1 << 16
# Most pivots of one kernel factor before the MMD falls back to blocked sums.
# Bench clouds at m = 6,000 need ranks of 16 to 42 per coordinate.
MMD_RANK_CAP = 64


def ensemble_scores(
    members: dict,
    specs: Sequence[Sequence[str]],
    labels: np.ndarray,
    metric: str,
) -> list[np.ndarray]:
    """Per-point scores of each ensemble in `specs`, a list of member keys of `members`.
    Each spec must already have passed `PredictionStore.check_ensemble`.

    The points are walked in the row blocks of store.member_blocks. In each
    block every member is read once, however many ensembles share it, and
    the ensembles are formed from those rows one at a time with
    form_ensemble, each into the block's one spare slot. Every score
    is per point, so the blocks change no value: the scores equal
    compute_metric on the whole ensembles, bit for bit.
    """
    index = {key: i for i, key in enumerate(members)}
    scores = [np.empty(len(labels)) for _ in specs]
    for rows, stack in member_blocks(list(members.values()), spare=1):
        for out, spec in zip(scores, specs):
            formed = form_ensemble([stack[index[key]] for key in spec], out=stack[-1])
            out[rows] = compute_metric(metric, formed, labels[rows])
    return scores


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
    over the rows store.thinned_rows keeps, i * n // BANDWIDTH_MEDIAN_CAP,
    so the cost stays bounded and the value stays deterministic.
    The subset's nonzero finite squared distances fill one buffer, which
    is partitioned at the two middle ranks; their square roots are
    averaged as np.median averages them, so the result is bit-equal to
    np.median over the subset's nonzero distances.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[0] < 2:
        raise ValidationError("bandwidth needs at least two points")
    points = points[thinned_rows(points.shape[0], BANDWIDTH_MEDIAN_CAP)]
    d2, k = np.empty(points.shape[0] * (points.shape[0] - 1) // 2), 0
    for block in _sqdist_blocks(points, points, upper=True):
        kept = (block > 0.0) & (block < np.inf)
        n = int(np.count_nonzero(kept))
        d2[k:k + n] = block[kept]
        k += n
    if k == 0:
        raise ValidationError("bandwidth undefined: every point of the cloud coincides")
    middle = [(k - 1) // 2, k // 2]
    d2 = d2[:k]
    d2.partition(middle)
    return float(np.mean(np.sqrt(d2[middle])))


def _sqdist_blocks(x: np.ndarray, y: np.ndarray, upper: bool):
    """Yield squared distances from row blocks of x to the points of y.

    Each block is a view of one reused buffer of at most
    DISTANCE_BLOCK_ELEMENTS entries (one row if y alone is longer), valid
    until the next is made.
    With ``upper`` (y is x) row i meets only the points after it: other
    entries read +inf, so each pair i < j appears once and no i = j.
    """
    rows = max(1, min(x.shape[0], DISTANCE_BLOCK_ELEMENTS // y.shape[0]))
    buf, tmp = np.empty(rows * y.shape[0]), np.empty(rows * y.shape[0])
    below = np.tri(rows, rows, -1, dtype=bool) if upper else None
    for i0 in range(0, x.shape[0], rows):
        block, cols = x[i0:i0 + rows], y[i0 + 1:] if upper else y
        size = (len(block), len(cols))
        d2, t = buf[:size[0] * size[1]].reshape(size), tmp[:size[0] * size[1]].reshape(size)
        np.square(np.subtract.outer(block[:, 0], cols[:, 0], out=d2), out=d2)
        for k in range(1, x.shape[1]):
            d2 += np.square(np.subtract.outer(block[:, k], cols[:, k], out=t), out=t)
        if upper:
            d2[:, :rows][below[:size[0], :size[1]]] = np.inf
        yield d2


def _kernel_sum(x: np.ndarray, y: np.ndarray, bandwidth: float, upper: bool = False) -> float:
    """Sum of exp(-|x_i - y_j|^2 / (2 h^2)) over all pairs, or over i < j."""
    total = 0.0
    for d2 in _sqdist_blocks(x, y, upper):
        d2 /= -2.0 * bandwidth * bandwidth
        total += np.exp(d2, out=d2).sum()
    return total


def mmd2_unbiased(x: np.ndarray, y: np.ndarray, bandwidth: float) -> float:
    """Unbiased squared maximum mean discrepancy with a Gaussian kernel.

        MMD_u^2 = sum_{i != j} k(x_i, x_j) / (m(m-1))
                + sum_{i != j} k(y_i, y_j) / (n(n-1))
                - 2 sum_{i, j} k(x_i, y_j) / (mn)

    May be slightly negative under the null; that is expected for the
    unbiased estimator. Each sum runs over row blocks of at most
    DISTANCE_BLOCK_ELEMENTS kernel values. The within-sample sums are
    symmetric, so they run over i < j only and are doubled: at m = n that
    is 2m^2 kernel evaluations, none of them on the diagonal.
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
    term_x = 2.0 * _kernel_sum(x, x, bandwidth, upper=True) / (m * (m - 1))
    term_y = 2.0 * _kernel_sum(y, y, bandwidth, upper=True) / (n * (n - 1))
    term_xy = 2.0 * _kernel_sum(x, y, bandwidth) / (m * n)
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
    kernel_sums: dict

    def formatted(self) -> str:
        """Render as 'statistic (threshold)'."""
        return f"{self.statistic:.4g} ({self.threshold:.3g})"


def factored_mmd2(delta_a: np.ndarray, delta_b: np.ndarray, control: np.ndarray,
                  bandwidth: float) -> tuple[float, int, int] | None:
    """mmd2_unbiased of the clouds (delta_a, delta_b) and (delta_a, control)
    from pivoted Cholesky factors, with the ranks of the two factors.

    The Gaussian kernel of a 2-d point is the product of the kernels of its
    coordinates. With K(delta_a) ~= La.T @ La and K([delta_b, control]) ~=
    [Lb, Lc].T @ [Lb, Lc], the kernel sum over all pairs of the first cloud
    is |La @ Lb.T|_F^2, of the second |La @ Lc.T|_F^2, and across them the
    inner product of the two r_a x r_bc matrices. Every diagonal kernel value
    is 1, so each within-cloud sum over i != j is the full sum less m. Each
    factor stops at a residual trace of PIVOT_TOL per point, which moves the
    statistic by about 10 * PIVOT_TOL at most. Returns None, with nothing
    kept, when either factor reaches MMD_RANK_CAP pivots; the factors' buffers
    take at most (MMD_RANK_CAP + 2) * 3m float64 values.
    """
    m = delta_a.shape[0]
    factors = pivoted_cholesky(delta_a[None], [bandwidth], MMD_RANK_CAP)
    if factors is None:
        return None
    la = factors[0][:, 0]
    factors = pivoted_cholesky(np.concatenate([delta_b, control])[None], [bandwidth], MMD_RANK_CAP)
    if factors is None:
        return None
    lbc = factors[0][:, 0]
    # einsum, not BLAS, which splits the long sums over m across threads and
    # so rounds them by its thread count.
    gx, gy = np.einsum("ik,jk->ij", la, lbc[:, :m]), np.einsum("ik,jk->ij", la, lbc[:, m:])
    sums = np.einsum("ij,ij->", gx, gx), np.einsum("ij,ij->", gy, gy), np.einsum("ij,ij->", gx, gy)
    within = (sums[0] - m + sums[1] - m) / (m * (m - 1))
    return float(within - 2.0 * sums[2] / (m * m)), la.shape[0], gx.shape[1]


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
    pooled clouds. The statistic comes from factored_mmd2, or from the
    blocked mmd2_unbiased when a factor reaches MMD_RANK_CAP; kernel_sums
    records which ran, with the two ranks or the cap reached.
    """
    delta_a = np.asarray(delta_a, dtype=np.float64)
    delta_b = np.asarray(delta_b, dtype=np.float64)
    control = np.asarray(control, dtype=np.float64)
    if not (delta_a.shape == delta_b.shape == control.shape) or delta_a.ndim != 1:
        raise ValidationError("delta_a, delta_b, control must be 1-d arrays of equal length")
    if delta_a.shape[0] < 2:
        raise ValidationError("the improvement test needs at least two points")
    cloud = np.column_stack([delta_a, delta_b])
    cloud_control = np.column_stack([delta_a, control])
    bandwidth = median_heuristic_bandwidth(np.vstack([cloud, cloud_control]))
    factored = factored_mmd2(delta_a, delta_b, control, bandwidth)
    if factored is None:
        stat = mmd2_unbiased(cloud, cloud_control, bandwidth)
        sums = {"method": "blocked", "rank_cap_reached": MMD_RANK_CAP}
    else:
        stat, rank_a, rank_bc = factored
        sums = {"method": "pivoted_cholesky", "rank_delta_a": rank_a, "rank_delta_b_control": rank_bc}
    thr = mmd_threshold(delta_a.shape[0], alpha)
    return MmdTestResult(stat, thr, alpha, bandwidth, delta_a.shape[0], stat > thr, sums)
