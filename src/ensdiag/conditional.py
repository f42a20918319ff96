"""Diversity conditioned on member-average uncertainty.

The pipeline turns member predictions into per-point (avg uncertainty,
diversity) samples, estimates the conditional expectation of diversity
given the average with kernel ridge regression, summarizes the shift
between two conditions with a relative-difference statistic d, and
calibrates d with a permutation test over re-partitions of the pooled
sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError

from . import DEFAULT_GRID_SIZE
from .decomposition import decompose
from .errors import NumericalError, ValidationError

DEFAULT_RIDGE_SCALE = 1e-3
RIDGE_FLOOR = 1e-8
DEFAULT_TRIM_PERCENTILES = (1.0, 99.0)
PIVOT_TOL = 1e-13


@dataclass
class JointSample:
    """Paired per-point values: x = member-average uncertainty, y = diversity."""

    avg: np.ndarray
    div: np.ndarray
    source: str = ""

    def __post_init__(self) -> None:
        self.avg = np.asarray(self.avg, dtype=np.float64)
        self.div = np.asarray(self.div, dtype=np.float64)
        if self.avg.shape != self.div.shape or self.avg.ndim != 1:
            raise ValidationError("avg and div must be 1-d arrays of equal length")

    @property
    def n(self) -> int:
        return int(self.avg.shape[0])


def joint_samples(members: Sequence, family: str = "quadratic", source: str = "") -> JointSample:
    """Build the joint sample for one condition from member probabilities,
    any sequence of (N, C) matrices or stored members."""
    if family not in ("quadratic", "entropy"):
        raise ValidationError(f"unknown family {family!r}")
    rec = decompose(members, families=(family,))[family]
    return JointSample(rec.avg_member, rec.diversity, source)


def scott_bandwidth_1d(x: np.ndarray) -> float:
    """Scott-rule bandwidth of the KRR kernel: n^(-1/6) times the sample std."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2:
        raise ValidationError("bandwidth needs at least two points")
    std = float(x.std(ddof=1))
    if std == 0.0:
        raise ValidationError("bandwidth undefined for zero-variance data")
    return float(x.size ** (-1.0 / 6.0) * std)


@dataclass
class ConditionalCurve:
    """Kernel ridge estimate of E[diversity | avg] on an evaluation grid.

    rank is the number of pivots in the low-rank kernel factor; None for
    curves not produced by the regression.
    """

    x_grid: np.ndarray
    y_hat: np.ndarray
    bandwidth: float
    ridge: float
    rank: int | None = None


def pivoted_cholesky(
    x: np.ndarray, x_eval: np.ndarray, bandwidth: float, max_rank: int | None = None
) -> tuple[np.ndarray, np.ndarray] | None:
    """Greedy pivoted Cholesky of the Gaussian kernel on x and x_eval jointly.

    Each step pivots on the point with the largest residual diagonal entry
    and stops once the residual trace is at most PIVOT_TOL per point. The
    evaluation points take part, so their kernel columns are as accurate as
    the training ones; pivoting on training points alone leaves them
    unchecked where the data are sparse. Returns L (r x n) and L_eval
    (r x m) with K(x, x) ~= L.T @ L and K(x_eval, x) ~= L_eval.T @ L, in
    O((n + m) r^2) time and O((n + m) r) memory. With max_rank, returns
    None instead once that many pivots leave the trace above the tolerance.
    """
    n = x.shape[0]
    points = np.concatenate([x, x_eval])
    size = points.shape[0]
    scale = -0.5 / (bandwidth * bandwidth)
    rows = np.empty((min(size, 64), size))
    resid = np.ones(size)
    scratch = np.empty(size)
    stop = PIVOT_TOL * size
    r = 0
    while r < size and np.add.reduce(resid) > stop:
        if r == max_rank:
            return None
        if r == rows.shape[0]:
            grown = np.empty((min(size, 2 * r), size))
            grown[:r] = rows
            rows = grown
        p = int(resid.argmax())
        row = rows[r]
        np.subtract(points, points[p], out=scratch)
        np.multiply(scratch, scale, out=row)
        row *= scratch
        np.exp(row, out=row)
        row -= rows[:r, p] @ rows[:r]
        row /= math.sqrt(resid[p])
        np.multiply(row, row, out=scratch)
        resid -= scratch
        r += 1
    return rows[:r, :n], rows[:r, n:]


def krr_conditional_expectation(x: np.ndarray, y: np.ndarray, x_eval: np.ndarray) -> ConditionalCurve:
    """Fit kernel ridge regression of y on x and evaluate on a grid.

    The Gaussian kernel, with the Scott bandwidth of x, is factored by
    pivoted Cholesky, K ~= L.T @ L, and the fit is
    y_hat = L_eval.T (L L.T + ridge * n * I)^-1 L y, which equals
    K_eval (K + ridge * n * I)^-1 y up to the pivot tolerance. The ridge is
    1e-3 * var(y), floored at 1e-8 so that near-constant targets do not
    drive the solve toward exact interpolation, where the curve can swing
    far outside the data range. The r x r system is then a positive
    semi-definite Gram matrix plus at least 1e-8 * n on its diagonal, so it
    is solved once; a failed solve ends in NumericalError.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    x_eval = np.asarray(x_eval, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("x and y must be 1-d arrays of equal length")
    if x.size < 2:
        raise ValidationError("regression needs at least two points")
    bandwidth = scott_bandwidth_1d(x)
    ridge = max(DEFAULT_RIDGE_SCALE * float(y.var()), RIDGE_FLOOR)
    factor, factor_eval = pivoted_cholesky(x, x_eval, bandwidth)
    rank = factor.shape[0]
    try:
        weights = np.linalg.solve(factor @ factor.T + ridge * x.size * np.eye(rank), factor @ y)
    except LinAlgError as exc:
        raise NumericalError(f"kernel system of rank {rank} with ridge {ridge:.3g} is singular") from exc
    return ConditionalCurve(x_eval, weights @ factor_eval, bandwidth, ridge, rank)


def fit_sample_curve(sample: JointSample, x_eval: np.ndarray) -> ConditionalCurve:
    return krr_conditional_expectation(sample.avg, sample.div, x_eval)


def _percentile(values: np.ndarray, q: float) -> float:
    """np.percentile(values, q), bit for bit: numpy's default linear
    interpolation between the order statistics around (n - 1) * q / 100, read
    from an np.partition on the indices numpy partitions on, so even tied
    zeros keep their sign. Any NaN makes it NaN, as it does there.
    np.percentile itself loads numpy.ma, through np.unique, on its first call."""
    last = values.shape[0] - 1
    index = last * (q / 100)
    below = math.floor(index)
    above = min(below + 1, last)
    ordered = np.partition(values, sorted({0, below, above, last}))
    if np.isnan(ordered[last]):
        return math.nan
    lo, hi = float(ordered[below]), float(ordered[above])
    t = index - below
    diff = hi - lo
    return hi - diff * (1 - t) if t >= 0.5 else lo + diff * t


def evaluation_grid(sample_a: JointSample, sample_b: JointSample, n: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """Shared grid: n points between the DEFAULT_TRIM_PERCENTILES of the pooled
    avg values, restricted to the overlap of the two samples' ranges."""
    pooled = np.concatenate([sample_a.avg, sample_b.avg])
    lo, hi = (_percentile(pooled, q) for q in DEFAULT_TRIM_PERCENTILES)
    lo = max(lo, float(sample_a.avg.min()), float(sample_b.avg.min()))
    hi = min(hi, float(sample_a.avg.max()), float(sample_b.avg.max()))
    if not hi > lo:
        raise ValidationError("sample supports do not overlap; no shared grid exists")
    return np.linspace(lo, hi, n)


def d_statistic(curve_ind: ConditionalCurve, curve_ood: ConditionalCurve, integral: bool = False) -> float:
    """Relative excess of the OOD curve over the InD curve.

    Default form: sum of pointwise differences divided by the sum of the
    InD curve. The integral form instead integrates the pointwise relative
    difference over the grid and carries the units of the x axis.
    """
    if not np.array_equal(curve_ind.x_grid, curve_ood.x_grid):
        raise ValidationError("curves must share one evaluation grid")
    if integral:
        bad = np.flatnonzero(curve_ind.y_hat <= 0.0)
        if bad.size:
            x, y = curve_ind.x_grid[bad[0]], curve_ind.y_hat[bad[0]]
            raise NumericalError(
                f"InD curve is {y:.4g} at grid x = {x:.6g}, so integral d is undefined; "
                "the default ratio-of-sums d stays defined while the InD total is positive"
            )
        rel = (curve_ood.y_hat - curve_ind.y_hat) / curve_ind.y_hat
        return float((np.diff(curve_ind.x_grid) * (rel[1:] + rel[:-1]) / 2.0).sum())
    denom = float(curve_ind.y_hat.sum())
    if denom <= 0.0:
        low = int(np.argmin(curve_ind.y_hat))
        raise NumericalError(
            f"InD curve has nonpositive total {denom:.4g} (minimum {curve_ind.y_hat[low]:.4g} "
            f"at grid x = {curve_ind.x_grid[low]:.6g}); d is undefined"
        )
    return float((curve_ood.y_hat - curve_ind.y_hat).sum() / denom)


def _d_of(fit: str, curve_ind: ConditionalCurve, curve_ood: ConditionalCurve, integral: bool) -> float:
    """d_statistic, with an undefined d reported against the fit that gave it."""
    try:
        return d_statistic(curve_ind, curve_ood, integral=integral)
    except NumericalError as exc:
        raise NumericalError(f"{fit}: {exc}") from exc


@dataclass
class DStatResult:
    """Observed d with its permutation p-value and diagnostics."""

    d: float
    p_value: float
    n_surrogates: int
    d_surrogates: np.ndarray
    x_grid: np.ndarray
    curve_ind: ConditionalCurve
    curve_ood: ConditionalCurve


def permutation_test(
    sample_ind: JointSample,
    sample_ood: JointSample,
    n_surrogates: int = 100,
    seed: int = 0,
    grid_size: int = DEFAULT_GRID_SIZE,
    integral: bool = False,
) -> DStatResult:
    """Permutation calibration of the d statistic.

    The pooled sample is re-partitioned into the original sizes once per
    surrogate; both curves are refit (bandwidth and ridge re-derived from
    each surrogate sample) on the fixed evaluation grid. The p-value uses
    the add-one rule (#{d_surr >= d_obs} + 1) / (n_surrogates + 1), so it
    is never zero. Each surrogate draws from its own RNG stream keyed by
    (seed, surrogate index), making the result independent of execution
    order.
    """
    if n_surrogates < 1:
        raise ValidationError("need at least one surrogate")
    x_eval = evaluation_grid(sample_ind, sample_ood, n=grid_size)
    curve_ind = fit_sample_curve(sample_ind, x_eval)
    curve_ood = fit_sample_curve(sample_ood, x_eval)
    d_obs = _d_of("observed fit", curve_ind, curve_ood, integral)

    pooled_avg = np.concatenate([sample_ind.avg, sample_ood.avg])
    pooled_div = np.concatenate([sample_ind.div, sample_ood.div])
    n_ind = sample_ind.n
    n_total = pooled_avg.shape[0]

    d_surr = np.empty(n_surrogates)
    for k in range(n_surrogates):
        rng = np.random.default_rng([seed, k])
        perm = rng.permutation(n_total)
        take_ind, take_ood = perm[:n_ind], perm[n_ind:]
        surr_ind = JointSample(pooled_avg[take_ind], pooled_div[take_ind], "surrogate_ind")
        surr_ood = JointSample(pooled_avg[take_ood], pooled_div[take_ood], "surrogate_ood")
        c_ind = fit_sample_curve(surr_ind, x_eval)
        c_ood = fit_sample_curve(surr_ood, x_eval)
        d_surr[k] = _d_of(f"surrogate {k}", c_ind, c_ood, integral)

    p = (int((d_surr >= d_obs).sum()) + 1) / (n_surrogates + 1)
    return DStatResult(d_obs, float(p), n_surrogates, d_surr, x_eval, curve_ind, curve_ood)
