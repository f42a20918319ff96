"""Diversity conditioned on member-average uncertainty.

Each condition is an (avg, div) pair of 1-d arrays: per-point member-average
uncertainty and diversity, which the caller takes from the avg_member and
diversity columns of one family's `decomposition.decompose` record, so the
sample has passed all four of decompose's identity checks. The pipeline
estimates the conditional expectation of diversity given the average with
kernel ridge regression, summarizes the shift between two conditions with
a relative-difference statistic d, and calibrates d with a permutation
test over re-partitions of the pooled sample. The observed split is split 0
of that test, so every fit runs in one loop, and the fits of one size are
factored several at a time, in one vectorised pivoted Cholesky sweep.
One ConditionalResult record carries the observed curves and fits, d and p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from numpy.linalg import LinAlgError

from . import DEFAULT_GRID_SIZE, stream
from .errors import NumericalError, ValidationError
from .store import BLOCK_ELEMENTS

DEFAULT_RIDGE_SCALE = 1e-3
RIDGE_FLOOR = 1e-8
DEFAULT_TRIM_PERCENTILES = (1.0, 99.0)
PIVOT_TOL = 1e-13
# Factor rows pivoted_cholesky allocates before it first grows, as fits_per_sweep budgets.
FIRST_FACTOR_ROWS = 64


def scott_bandwidth_1d(x: np.ndarray) -> float:
    """Scott-rule bandwidth of the KRR kernel: n^(-1/6) times the sample std."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2:
        raise ValidationError("bandwidth needs at least two points")
    std = float(x.std(ddof=1))
    if std == 0.0:
        raise ValidationError("bandwidth undefined for zero-variance data")
    return float(x.size ** (-1.0 / 6.0) * std)


def fits_per_sweep(size: int) -> int:
    """Fits of `size` points, data and grid, that one pivoted Cholesky sweep
    stacks: their first FIRST_FACTOR_ROWS factor rows fill at most BLOCK_ELEMENTS entries."""
    return max(1, BLOCK_ELEMENTS // (FIRST_FACTOR_ROWS * size))


def pivoted_cholesky(
    points: np.ndarray, bandwidths: Sequence[float], max_rank: int | None = None
) -> tuple[np.ndarray, np.ndarray] | None:
    """Greedy pivoted Cholesky of the Gaussian kernel on each row of a stack.

    Row b of points (B x size) is factored with bandwidths[b]: each step
    pivots it on its point with the largest residual diagonal entry, and its
    rank is the number of steps before its residual trace is at most
    PIVOT_TOL per point. Steps past a row's rank leave its first rows as
    they are, so L[:ranks[b], b] is bit for bit the factor the row gets by
    itself. Callers put evaluation points in a row beside the data, so that
    their kernel columns are as accurate as the training ones. Returns L
    (r x B x size) and the ranks, with K_b ~= L_b.T @ L_b for
    L_b = L[:ranks[b], b], in O(B size r^2) time and O(B size r) memory, or
    None once max_rank pivots leave a row above the tolerance.
    """
    bandwidths = np.asarray(bandwidths, dtype=np.float64)
    batch, size = points.shape
    scale = (-0.5 / (bandwidths * bandwidths))[:, None]
    offsets = np.arange(0, batch * size, size)
    scratch = np.empty((batch, size))
    stop = PIVOT_TOL * size
    # state[0] holds the points, state[1] the residual diagonal and state[2 + j]
    # factor row j, so that one take reads all three at each row's pivot.
    state = np.empty((min(size, FIRST_FACTOR_ROWS) + 2, batch, size))
    state[0], state[1] = points, 1.0
    resid, traces, r = state[1], [], 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # rows past their rank
        while r < size:
            trace = np.add.reduce(resid, axis=1)
            traces.append(trace)
            if not any(t > stop for t in trace.tolist()):
                break
            if r == max_rank:
                return None
            if not r or r + 2 == state.shape[0]:
                if r:
                    grown = np.empty((min(size, 2 * r) + 2, batch, size))
                    grown[:r + 2] = state
                    state = grown
                flat, stacked = state.reshape(state.shape[0], -1), state.transpose(1, 0, 2)
                points, resid, corr = state[0], state[1], scratch[:, None]
                # Each row's pivot column, its entries batch + 1 apart. numpy hands a
                # strided vector to OpenBLAS's gemv with incx > 1, whose sums run in
                # one order for every batch size; a contiguous one takes another kernel.
                column = np.empty((state.shape[0], batch + 1))
                vectors, center, pivot = column.T[:batch, None], column[0, :batch, None], column[1, :batch, None]
            at = resid.argmax(axis=1)
            at += offsets
            flat[:r + 2].take(at, axis=1, out=column[:r + 2, :batch])
            row = state[r + 2]
            np.subtract(points, center, out=scratch)
            np.multiply(scratch, scale, out=row)
            row *= scratch
            np.exp(row, out=row)
            if r:
                np.matmul(vectors[..., 2:r + 2], stacked[:, 2:r + 2], out=corr)
                row -= scratch
            np.sqrt(pivot, out=pivot)
            row /= pivot
            np.multiply(row, row, out=scratch)
            resid -= scratch
            r += 1
    # A trace never grows, so the steps a row was above the tolerance come first.
    return state[2:r + 2], np.count_nonzero(np.array(traces) > stop, axis=0)


def krr_conditional_expectation(x: np.ndarray, y: np.ndarray,
                                x_eval: np.ndarray) -> Iterator[tuple[np.ndarray, float, float, int]]:
    """Kernel ridge regression of each row of y on the same row of x,
    evaluated on a grid: one (y_hat, bandwidth, ridge, rank) per row, in
    order, where rank is the number of pivots in the low-rank kernel factor.

    The Gaussian kernel, with the Scott bandwidth of the row of x, is
    factored by pivoted Cholesky, K ~= L.T @ L, fits_per_sweep rows at a
    time, and the fit is y_hat = L_eval.T (L L.T + ridge * n * I)^-1 L y,
    which equals K_eval (K + ridge * n * I)^-1 y up to the pivot tolerance.
    The ridge is 1e-3 * var(y), floored at 1e-8 so that near-constant
    targets do not drive the solve toward exact interpolation, where the
    curve can swing far outside the data range. The r x r system is then a
    positive semi-definite Gram matrix plus at least 1e-8 * n on its
    diagonal, so it is solved once; a failed solve ends in NumericalError.
    A sweep runs when its first curve is drawn and frees its factors before
    yielding; a fit's error (zero-variance x, a failed solve) comes in its turn.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    x_eval = np.asarray(x_eval, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 2:
        raise ValidationError("x and y must be 2-d arrays of equal shape")
    if x.shape[1] < 2:
        raise ValidationError("regression needs at least two points")
    step = fits_per_sweep(x.shape[1] + x_eval.shape[0])
    for lo in range(0, x.shape[0], step):
        bandwidths, fitted, failure = [], [], None
        for row in x[lo:lo + step]:
            try:
                bandwidths.append(scott_bandwidth_1d(row))
            except ValidationError as exc:
                failure = exc
                break
        fits = len(bandwidths)
        ridges = np.maximum(DEFAULT_RIDGE_SCALE * y[lo:lo + fits].var(axis=1), RIDGE_FLOOR).tolist()
        grids = np.broadcast_to(x_eval, (fits, x_eval.shape[0]))
        factors, ranks = pivoted_cholesky(np.concatenate([x[lo:lo + fits], grids], axis=1), bandwidths)
        for b, rank in enumerate(ranks.tolist()):
            try:
                fitted.append((_krr_curve(factors[:rank, b], y[lo + b], ridges[b]), bandwidths[b], ridges[b], rank))
            except NumericalError as exc:
                failure = exc
                break
        del factors
        yield from fitted
        if failure is not None:
            raise failure


def _krr_curve(factor: np.ndarray, y: np.ndarray, ridge: float) -> np.ndarray:
    """The curve of one fit from its factor rows on the data and then the grid."""
    rank, n = factor.shape[0], y.shape[0]
    data, grid = factor[:, :n], factor[:, n:]
    try:
        weights = np.linalg.solve(data @ data.T + ridge * n * np.eye(rank), data @ y)
    except LinAlgError as exc:
        raise NumericalError(f"kernel system of rank {rank} with ridge {ridge:.3g} is singular") from exc
    return weights @ grid


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


def evaluation_grid(avg_a: np.ndarray, avg_b: np.ndarray, n: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """Shared grid: n points between the DEFAULT_TRIM_PERCENTILES of the pooled
    avg values, restricted to the overlap of the two samples' ranges."""
    pooled = np.concatenate([avg_a, avg_b])
    lo, hi = (_percentile(pooled, q) for q in DEFAULT_TRIM_PERCENTILES)
    lo = max(lo, float(avg_a.min()), float(avg_b.min()))
    hi = min(hi, float(avg_a.max()), float(avg_b.max()))
    if not hi > lo:
        raise ValidationError("sample supports do not overlap; no shared grid exists")
    return np.linspace(lo, hi, n)


def d_statistic(grid: np.ndarray, y_ind: np.ndarray, y_ood: np.ndarray, integral: bool = False) -> float:
    """Relative excess of the OOD curve over the InD curve, both on `grid`.

    Default form: sum of pointwise differences divided by the sum of the
    InD curve. The integral form instead integrates the pointwise relative
    difference over the grid and carries the units of the x axis.
    """
    if integral:
        bad = np.flatnonzero(y_ind <= 0.0)
        if bad.size:
            raise NumericalError(
                f"InD curve is {y_ind[bad[0]]:.4g} at grid x = {grid[bad[0]]:.6g}, so integral d is undefined; "
                "the default ratio-of-sums d stays defined while the InD total is positive"
            )
        rel = (y_ood - y_ind) / y_ind
        return float((np.diff(grid) * (rel[1:] + rel[:-1]) / 2.0).sum())
    denom = float(y_ind.sum())
    if denom <= 0.0:
        low = int(np.argmin(y_ind))
        raise NumericalError(
            f"InD curve has nonpositive total {denom:.4g} (minimum {y_ind[low]:.4g} "
            f"at grid x = {grid[low]:.6g}); d is undefined"
        )
    return float((y_ood - y_ind).sum() / denom)


@dataclass
class ConditionalResult:
    """The observed split's fits on the grid, its d and d's permutation p-value.

    curves is (2, len(grid)), and bandwidths, ridges and ranks are (2,):
    the InD row first. d_surrogates holds the d of each surrogate split.
    """

    grid: np.ndarray
    curves: np.ndarray
    bandwidths: np.ndarray
    ridges: np.ndarray
    ranks: np.ndarray
    d: float
    p_value: float
    d_surrogates: np.ndarray


def _sample(side: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """One condition's (avg, div) as float64 arrays, checked to be 1-d and of equal length."""
    avg, div = (np.asarray(values, dtype=np.float64) for values in side)
    if avg.shape != div.shape or avg.ndim != 1:
        raise ValidationError("avg and div must be 1-d arrays of equal length")
    return avg, div


def permutation_test(
    ind: tuple[np.ndarray, np.ndarray],
    ood: tuple[np.ndarray, np.ndarray],
    n_surrogates: int = 100,
    seed: int = 0,
    grid_size: int = DEFAULT_GRID_SIZE,
    integral: bool = False,
) -> ConditionalResult:
    """Permutation calibration of the d statistic of two (avg, div) samples.

    The pooled sample is split into the original sizes: split 0 is the
    observed one, and split k + 1 is surrogate k, which permutes the pool
    with its own stream, `stream(seed, k)`, that no other draw shares, making
    the result independent of execution order. Both curves of a split are
    fit (bandwidth and ridge derived from its samples) on the fixed
    evaluation grid. The p-value uses the add-one rule
    (#{d_surr >= d_obs} + 1) / (n_surrogates + 1), so it is never zero. The
    splits go in chunks as wide as the smaller side's sweep (fits_per_sweep);
    each side's fits of a chunk share sweeps, which give every fit the same
    bits at any width, and an error ends the run where the loop of one fit
    at a time would, named "observed fit" or "surrogate k".
    """
    ind_avg, ind_div = _sample(ind)
    ood_avg, ood_div = _sample(ood)
    if n_surrogates < 1:
        raise ValidationError("need at least one surrogate")
    grid = evaluation_grid(ind_avg, ood_avg, grid_size)
    pooled_avg = np.concatenate([ind_avg, ood_avg])
    pooled_div = np.concatenate([ind_div, ood_div])
    n_ind, n_total = ind_avg.shape[0], pooled_avg.shape[0]

    chunk = fits_per_sweep(min(n_ind, n_total - n_ind) + grid.shape[0])
    d = np.empty(n_surrogates + 1)
    for lo in range(0, n_surrogates + 1, chunk):
        splits = range(lo, min(lo + chunk, n_surrogates + 1))
        perms = np.stack([stream(seed, j - 1).permutation(n_total) if j else np.arange(n_total) for j in splits])
        sides = [(pooled_avg[take], pooled_div[take]) for take in (perms[:, :n_ind], perms[:, n_ind:])]
        del perms  # freed before the sweeps, which take up the memory budget
        fits = zip(*(krr_conditional_expectation(avg, div, grid) for avg, div in sides))
        for j, (fit_ind, fit_ood) in zip(splits, fits):
            try:
                d[j] = d_statistic(grid, fit_ind[0], fit_ood[0], integral)
            except NumericalError as exc:
                raise NumericalError(f"{f'surrogate {j - 1}' if j else 'observed fit'}: {exc}") from exc
            if not j:
                observed = fit_ind, fit_ood

    curves, bandwidths, ridges, ranks = (np.array(column) for column in zip(*observed))
    p = (int((d[1:] >= d[0]).sum()) + 1) / (n_surrogates + 1)
    return ConditionalResult(grid, curves, bandwidths, ridges, ranks, float(d[0]), p, d[1:])
