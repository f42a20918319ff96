"""Conditional-diversity pipeline: KRR curves, their dense oracle, and the d statistic."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid
from scipy.linalg import cho_factor, cho_solve

from conftest import as_members, joint_sample, member_stack, split_samples
from ensdiag import conditional
from ensdiag.conditional import (
    DEFAULT_RIDGE_SCALE,
    RIDGE_FLOOR,
    ConditionalResult,
    d_statistic,
    evaluation_grid,
    krr_conditional_expectation,
    permutation_test,
    scott_bandwidth_1d,
)
from ensdiag.errors import NumericalError, ValidationError
from ensdiag.simulate import SyntheticSpec, write_synthetic_store
from ensdiag.store import load_store

TWO_ONE_HOT = [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])]


def dense_krr_curve(x, y, x_eval):
    """Exact oracle for the low-rank fit: the full n x n Gram matrix solved by
    dense Cholesky, then K_eval @ alpha. Same bandwidth and ridge, and full rank."""
    bandwidth = scott_bandwidth_1d(x)
    ridge = max(DEFAULT_RIDGE_SCALE * float(y.var()), RIDGE_FLOOR)
    n = x.shape[0]
    d = x[:, None] - x[None, :]
    gram = np.exp(-(d * d) / (2.0 * bandwidth * bandwidth))
    alpha = cho_solve(cho_factor(gram + ridge * n * np.eye(n), lower=True), y)
    d = x_eval[:, None] - x[None, :]
    k_eval = np.exp(-(d * d) / (2.0 * bandwidth * bandwidth))
    return k_eval @ alpha, float(bandwidth), float(ridge), n


def krr(x, y, x_eval):
    """One kernel ridge fit, (y_hat, bandwidth, ridge, rank): a stack of one fit."""
    return next(krr_conditional_expectation(x[None], y[None], x_eval))


def one_factor(x, x_eval, bandwidth, max_rank=None):
    """pivoted_cholesky on a stack of one: (L, L_eval), or None at max_rank."""
    got = conditional.pivoted_cholesky(np.concatenate([x, x_eval])[None], [bandwidth], max_rank)
    if got is None:
        return None
    factor = got[0][:, 0]
    assert got[1].tolist() == [factor.shape[0]]
    return factor[:, :x.size], factor[:, x.size:]


def scipy_factor_krr(x, y, x_eval):
    """Reference for the r x r solve: the same pivoted factors, solved by
    scipy's cho_factor/cho_solve."""
    bandwidth = scott_bandwidth_1d(x)
    ridge = max(DEFAULT_RIDGE_SCALE * float(y.var()), RIDGE_FLOOR)
    factor, factor_eval = one_factor(x, x_eval, bandwidth)
    rank = factor.shape[0]
    chol = cho_factor(factor @ factor.T + ridge * x.size * np.eye(rank), lower=True)
    return cho_solve(chol, factor @ y) @ factor_eval, bandwidth, ridge, rank


def loop_pivoted_cholesky(x, x_eval, bandwidth, max_rank=None):
    """The pivot loop of one fit as first written, with a fresh kernel row per
    pivot: the bit-for-bit oracle for each fit of conditional.pivoted_cholesky."""
    n = x.shape[0]
    points = np.concatenate([x, x_eval])
    size = points.shape[0]
    scale = -0.5 / (bandwidth * bandwidth)
    rows = np.empty((min(size, 64), size))
    resid = np.ones(size)
    stop = conditional.PIVOT_TOL * size
    r = 0
    while r < size and resid.sum() > stop:
        if r == max_rank:
            return None
        if r == rows.shape[0]:
            grown = np.empty((min(size, 2 * r), size))
            grown[:r] = rows
            rows = grown
        p = int(np.argmax(resid))
        d = points - points[p]
        row = np.exp(scale * d * d)
        row -= rows[:r, p] @ rows[:r]
        row /= np.sqrt(resid[p])
        rows[r] = row
        resid -= row * row
        r += 1
    return rows[:r, :n], rows[:r, n:]


def loop_permutation_test(fit, ind, ood, n_surrogates, seed, integral=False):
    """permutation_test as a loop of one fit at a time, each by fit(x, y, x_eval),
    the observed split first: the oracle for the batched fits."""
    grid = evaluation_grid(ind[0], ood[0])
    pooled_avg, pooled_div = (np.concatenate(column) for column in zip(ind, ood))
    n_ind = ind[0].size
    observed, d = None, []
    for j in range(n_surrogates + 1):
        take = np.random.default_rng([seed, j - 1]).permutation(pooled_avg.size) if j else np.arange(pooled_avg.size)
        fit_ind, fit_ood = (fit(pooled_avg[t], pooled_div[t], grid) for t in (take[:n_ind], take[n_ind:]))
        try:
            d.append(d_statistic(grid, fit_ind[0], fit_ood[0], integral))
        except NumericalError as exc:
            raise NumericalError(f"{f'surrogate {j - 1}' if j else 'observed fit'}: {exc}") from exc
        observed = observed or (fit_ind, fit_ood)
    curves, bandwidths, ridges, ranks = (np.array(column) for column in zip(*observed))
    d_surr = np.array(d[1:])
    p = (int((d_surr >= d[0]).sum()) + 1) / (n_surrogates + 1)
    return ConditionalResult(grid, curves, bandwidths, ridges, ranks, d[0], p, d_surr)


def nonpositive_ind_fit(n_ind, place, real=conditional.krr_conditional_expectation):
    """krr_conditional_expectation with InD fit number `place` (1 = the
    observed one; InD fits are those of n_ind points) nonpositive."""
    seen = []

    def fits(x, y, x_eval):
        for fit in real(x, y, x_eval):
            if x.shape[1] == n_ind:
                seen.append(1)
                if len(seen) == place:
                    fit = (np.linspace(-2.0, 1.0, x_eval.size), *fit[1:])
            yield fit

    return fits


def percentile_grid(avg_a, avg_b, n=100):
    """evaluation_grid with its trim percentiles from np.percentile: the oracle
    for the grid's ends and for the error it raises."""
    pooled = np.concatenate([avg_a, avg_b])
    lo = float(np.percentile(pooled, 1.0))
    hi = float(np.percentile(pooled, 99.0))
    lo = max(lo, float(avg_a.min()), float(avg_b.min()))
    hi = min(hi, float(avg_a.max()), float(avg_b.max()))
    if not hi > lo:
        raise ValidationError("sample supports do not overlap; no shared grid exists")
    return np.linspace(lo, hi, n)


def linear_sample(rng, n=200, slope=0.3, noise=0.02):
    avg = rng.uniform(0.2, 0.8, n)
    div = slope * avg + rng.normal(0.0, noise, n)
    return avg, div


class TestJointSamples:
    """The sample `conditional` takes from one family's decompose record."""

    def test_identical_members_zero_diversity(self, rng):
        p = rng.dirichlet(np.ones(4), size=30)
        avg, div = joint_sample(as_members([p, p]), rng.integers(0, 4, 30))
        assert np.all(div == 0.0)
        assert avg.shape == (30,)

    def test_two_one_hot_quadratic(self):
        avg, div = joint_sample(as_members(TWO_ONE_HOT), np.array([0]), family="quadratic")
        np.testing.assert_allclose(avg, [0.0])
        np.testing.assert_allclose(div, [0.5])

    def test_two_one_hot_entropy(self):
        avg, div = joint_sample(as_members(TWO_ONE_HOT), np.array([0]), family="entropy")
        np.testing.assert_allclose(avg, [0.0])
        np.testing.assert_allclose(div, [np.log(2.0)], atol=1e-15)

    def test_count_matches_dataset(self, rng):
        members = member_stack(rng, 3, 17, 5)
        assert all(column.shape == (17,) for column in joint_sample(as_members(members), rng.integers(0, 5, 17)))


class TestScottBandwidth:
    def test_unit_std_closed_form(self, rng):
        # h = n^(-1/6) * std; standardized data isolates the n factor.
        x = rng.standard_normal(1_000_000)
        x = (x - x.mean()) / x.std(ddof=1)
        assert abs(scott_bandwidth_1d(x) - 0.1) < 1e-9

    def test_two_point_value(self):
        # n=2, std(ddof=1)=sqrt(2): h = 2^(-1/6) * 2^(1/2) = 2^(1/3).
        assert abs(scott_bandwidth_1d(np.array([0.0, 2.0])) - 1.2599210498948732) < 1e-15

    @given(scale=st.floats(0.01, 100.0), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_scale_equivariance(self, scale, seed):
        x = np.random.default_rng(seed).normal(size=40)
        np.testing.assert_allclose(
            scott_bandwidth_1d(scale * x), scale * scott_bandwidth_1d(x), rtol=1e-12
        )

    def test_single_point_rejected(self):
        with pytest.raises(ValidationError):
            scott_bandwidth_1d(np.array([1.0]))

    def test_zero_variance_rejected(self):
        with pytest.raises(ValidationError):
            scott_bandwidth_1d(np.full(10, 3.0))


class TestKrr:
    def test_constant_target(self):
        # The ridge floor, 1e-8 * n on the diagonal, shrinks a constant by at most 1e-4.
        x = np.linspace(0.0, 1.0, 40)
        y_hat, _, ridge, _ = krr(x, np.full(40, 0.7), x)
        assert ridge == RIDGE_FLOOR
        assert np.abs(y_hat - 0.7).max() < 1e-4

    def test_linear_target_interior(self):
        x = np.linspace(0.0, 1.0, 201)
        x_eval = np.linspace(0.1, 0.9, 81)
        assert np.abs(krr(x, x, x_eval)[0] - x_eval).max() < 0.02

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 300),
        distinct=st.integers(2, 300),
        constant=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_solve_is_finite(self, seed, n, distinct, constant):
        # At least two distinct x, down to two values shared by every point;
        # y constant or log-uniform over 1e-8..1.
        r = np.random.default_rng(seed)
        values = r.uniform(0.0, 1.0, min(n, distinct))
        x = np.concatenate([values, r.choice(values, n - values.size)])
        y = np.full(n, 10.0 ** r.uniform(-8.0, 0.0)) if constant else 10.0 ** r.uniform(-8.0, 0.0, n)
        x_eval = np.linspace(x.min(), x.max(), 50)
        y_hat, _, ridge, _ = krr(x, y, x_eval)
        assert np.all(np.isfinite(y_hat))
        assert ridge == max(1e-3 * float(y.var()), 1e-8)

    def test_failed_solve_is_numerical_error(self, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(conditional.np.linalg, "solve", singular)
        with pytest.raises(NumericalError, match="kernel system of rank"):
            krr(np.linspace(0.0, 1.0, 30), np.ones(30), np.array([0.5]))

    def test_default_ridge_floor(self):
        x = np.linspace(0.0, 1.0, 50)
        assert krr(x, np.full(50, 1e-4), x)[2] >= 1e-8

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            krr(np.zeros(3), np.zeros(4), np.zeros(2))

    def test_needs_two_points(self):
        with pytest.raises(ValidationError):
            krr(np.zeros(1), np.zeros(1), np.zeros(2))

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_zero_variance_row_raised_in_its_turn(self, bad):
        # A stack of three fits, one with a single x value: the curves before
        # it come out, then its error.
        x = np.stack([np.linspace(0.0, 1.0, 30), np.linspace(0.2, 0.9, 30), np.linspace(0.1, 0.8, 30)])
        x[bad] = 0.5
        fits = krr_conditional_expectation(x, x ** 2, np.linspace(0.1, 0.9, 20))
        for _ in range(bad):
            assert np.all(np.isfinite(next(fits)[0]))
        with pytest.raises(ValidationError, match="zero-variance"):
            next(fits)

    def test_curve_finite(self, rng):
        assert np.all(np.isfinite(krr(*linear_sample(rng), np.linspace(0.25, 0.75, 50))[0]))


class TestSolveMatchesScipy:
    # numpy.linalg against scipy's Cholesky solve on the same factors, to 1e-10 relative.
    def test_rank_above_initial_buffer(self):
        n = 4000
        rng = np.random.default_rng(n)
        x = rng.normal(0.3, 0.1, n)
        y = 0.3 * x + 0.1 * np.sin(8.0 * x) + rng.normal(0.0, 0.05, n)
        x_eval = np.linspace(np.percentile(x, 1.0), np.percentile(x, 99.0), 100)
        fast = krr(x, y, x_eval)
        ref = scipy_factor_krr(x, y, x_eval)
        assert fast[3] == ref[3] > 64
        assert fast[2] == ref[2]
        np.testing.assert_allclose(fast[0], ref[0], rtol=1e-10, atol=0)

    def test_permutation_test_agrees(self):
        sample_ind, sample_ood = split_samples(3)
        fast = permutation_test(sample_ind, sample_ood, n_surrogates=50, seed=3)
        ref = loop_permutation_test(scipy_factor_krr, sample_ind, sample_ood, n_surrogates=50, seed=3)
        assert fast.d == pytest.approx(ref.d, rel=1e-10, abs=0)
        np.testing.assert_allclose(fast.d_surrogates, ref.d_surrogates, rtol=1e-10, atol=0)
        assert fast.p_value == ref.p_value


class TestLowRankMatchesDense:
    @pytest.mark.parametrize("n", [50, 500, 4000])
    @pytest.mark.parametrize("draw", ["beta", "normal"])
    def test_curves_agree(self, n, draw):
        # Normal draws at n=4000 need more than the factor's first 64 rows.
        rng = np.random.default_rng(n)
        x = rng.beta(0.7, 2.0, n) if draw == "beta" else rng.normal(0.3, 0.1, n)
        y = 0.3 * x + 0.1 * np.sin(8.0 * x) + rng.normal(0.0, 0.05, n)
        x_eval = np.linspace(np.percentile(x, 1.0), np.percentile(x, 99.0), 100)
        fast = krr(x, y, x_eval)
        exact = dense_krr_curve(x, y, x_eval)
        assert fast[2] == exact[2]
        assert fast[3] < n
        assert np.abs(fast[0] - exact[0]).max() <= 1e-9

    def test_factor_reproduces_kernel(self, rng):
        x = rng.beta(0.7, 2.0, 300)
        x_eval = np.linspace(0.05, 0.6, 40)
        h = scott_bandwidth_1d(x)
        factor, factor_eval = one_factor(x, x_eval, h)
        gram = np.exp(-((x[:, None] - x[None, :]) ** 2) / (2.0 * h * h))
        k_eval = np.exp(-((x_eval[:, None] - x[None, :]) ** 2) / (2.0 * h * h))
        assert factor.shape == (factor_eval.shape[0], 300)
        assert np.abs(factor.T @ factor - gram).max() <= 1e-10
        assert np.abs(factor_eval.T @ factor - k_eval).max() <= 1e-10

    @pytest.mark.parametrize("n, draw, max_rank", [
        (2, "normal", None), (40, "ties", None), (300, "beta", None), (300, "beta", 5),
        (4000, "normal", None), (4000, "normal", 64), (4000, "t3", 100), (20_000, "beta", None),
    ])
    def test_factor_bit_equal_to_first_loop(self, n, draw, max_rank):
        # Normal draws at n=4000 grow the row buffer past 64; a cap returns None
        # at the same pivot as the oracle does.
        rng = np.random.default_rng(n)
        x = {"normal": rng.normal(0.3, 0.1, n), "beta": rng.beta(0.7, 2.0, n),
             "t3": rng.standard_t(3, n), "ties": np.round(rng.normal(0.3, 0.1, n), 1)}[draw]
        x_eval = np.linspace(x.min(), x.max(), 100)
        h = scott_bandwidth_1d(x)
        got = one_factor(x, x_eval, h, max_rank)
        expected = loop_pivoted_cholesky(x, x_eval, h, max_rank)
        if expected is None:
            assert got is None
            return
        for fast, loop in zip(got, expected):
            assert fast.shape == loop.shape
            assert fast.tobytes() == loop.tobytes()

    def test_stacked_factors_bit_equal_to_first_loop(self):
        # Fits of one size and different ranks share a sweep; each matches the
        # loop of one fit. Bit equality holds with OpenBLAS, whose gemv sums a
        # strided vector in one order for every batch size; another BLAS may not.
        rng = np.random.default_rng(7)
        xs = [rng.beta(0.7, 2.0, 300), rng.normal(0.3, 0.1, 300), np.round(rng.normal(0.3, 0.1, 300), 1),
              rng.standard_t(3, 300), rng.uniform(0.0, 1.0, 300)]
        x_eval = np.linspace(-0.5, 1.0, 100)
        hs = [scott_bandwidth_1d(x) for x in xs]
        factors, ranks = conditional.pivoted_cholesky(np.stack([np.concatenate([x, x_eval]) for x in xs]), hs)
        assert len(set(ranks.tolist())) > 1
        assert factors.shape == (max(ranks), len(xs), 400)
        for b, (x, h) in enumerate(zip(xs, hs)):
            loop = np.concatenate(loop_pivoted_cholesky(x, x_eval, h), axis=1)
            assert factors[:ranks[b], b].tobytes() == loop.tobytes()

    def test_steps_past_a_rank_are_silent(self):
        # Two values 100 bandwidths apart: the first row reaches rank 2 with a
        # residual of exactly 0, so the steps it takes while the second row goes
        # on divide 0 by 0. They warn of nothing and leave its factor alone.
        points = np.stack([np.repeat([0.0, 1.0], 50), np.linspace(0.0, 1.0, 100)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factors, ranks = conditional.pivoted_cholesky(points, [0.01, 0.05])
            alone = conditional.pivoted_cholesky(points[:1], [0.01])[0]
        assert ranks[0] == 2 < ranks[1]
        assert np.isnan(factors[2:, 0]).any()
        assert factors[:2, 0].tobytes() == alone[:, 0].tobytes()

    def test_permutation_test_agrees(self):
        for seed in range(10):
            res = permutation_test(*split_samples(seed), n_surrogates=100, seed=seed)
            exact = loop_permutation_test(dense_krr_curve, *split_samples(seed), n_surrogates=100, seed=seed)
            assert abs(res.d - exact.d) <= 1e-8
            assert res.p_value == exact.p_value
            np.testing.assert_allclose(res.d_surrogates, exact.d_surrogates, rtol=0, atol=1e-8)

    def test_memory_linear_at_paper_scale(self):
        # The dense Gram matrix alone would take 20 GB at n=50,000. These
        # draws need a rank above 64, so the factor grows once on the way.
        rng = np.random.default_rng(50)
        n = 50_000
        x = rng.beta(2.0, 5.0, n)
        y = 0.2 * x + rng.normal(0.0, 0.02, n)
        x_eval = np.linspace(0.05, 0.6, 100)
        tracemalloc.start()
        try:
            y_hat, _, _, rank = krr(x, y, x_eval)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rank > 64
        assert np.all(np.isfinite(y_hat))
        assert peak < 100 * 2**20


class TestSurrogateBatches:
    # 500 + 500 points on a 100-point grid: 6 fits a sweep by default. Bit
    # equality across batch sizes holds with OpenBLAS (see
    # test_stacked_factors_bit_equal_to_first_loop); another BLAS may not.
    @pytest.mark.parametrize("fits", [1, 2, 3, 7])
    def test_d_surrogates_bit_equal_whatever_the_batch(self, monkeypatch, fits):
        # The observed split is split 0 of the first sweep: its d, curves and
        # fits are the bits of the loop of one fit at a time, at any width.
        ind, ood = split_samples(4)
        loop = loop_permutation_test(krr, ind, ood, n_surrogates=20, seed=4)
        default = permutation_test(ind, ood, n_surrogates=20, seed=4)
        monkeypatch.setattr(conditional, "BLOCK_ELEMENTS", 64 * (ind[0].size + 100) * fits)
        assert conditional.fits_per_sweep(ind[0].size + 100) == fits
        batched = permutation_test(ind, ood, n_surrogates=20, seed=4)
        for res in (default, batched):
            for field in ("grid", "curves", "bandwidths", "ridges", "ranks", "d_surrogates"):
                got, expected = getattr(res, field), getattr(loop, field)
                assert got.dtype == expected.dtype and got.shape == expected.shape, field
                assert got.tobytes() == expected.tobytes(), field
            assert np.float64(res.d).tobytes() == np.float64(loop.d).tobytes()
            assert res.p_value == loop.p_value

    def test_memory_within_one_fit_and_a_sweep(self):
        ind, ood = ((avg[:400], div[:400]) for avg, div in split_samples(5))
        x_eval = evaluation_grid(ind[0], ood[0])
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            krr(*ind, x_eval)
            one_fit = tracemalloc.get_traced_memory()[1] - start
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            permutation_test(ind, ood, n_surrogates=400, seed=5)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # One fit's peak covers a fit's solve and curve. A sweep adds, for each
        # fit it stacks, the buffers pivoted_cholesky allocates (its first factor
        # rows and the points, residual and scratch rows, 500 entries each) and the
        # stacked input row, and the chunk adds each fit's two samples.
        fits = conditional.fits_per_sweep(500)
        assert fits == 8
        assert peak <= one_fit + 8 * fits * (500 * (conditional.FIRST_FACTOR_ROWS + 3 + 1) + 2 * (400 + 400))


class TestEvaluationGrid:
    def test_within_overlap(self, rng):
        a = linear_sample(rng)[0]
        b = a + 0.1
        grid = evaluation_grid(a, b)
        assert grid.shape == (100,)
        assert grid[0] >= max(a.min(), b.min())
        assert grid[-1] <= min(a.max(), b.max())

    def test_disjoint_supports_rejected(self, rng):
        a = linear_sample(rng)[0]
        with pytest.raises(ValidationError):
            evaluation_grid(a, a + 10.0)


class TestTrimPercentiles:
    # The grid's trim percentiles against np.percentile, bit for bit.
    @staticmethod
    def _draws(rng, n):
        values = rng.beta(0.7, 2.0, n)
        return {"beta": values, "ties": np.round(values, 1), "constant": np.full(n, values[0]),
                "signed_zeros": np.where(rng.random(n) < 0.5, -0.0, 0.0)}

    @pytest.mark.parametrize("n", [*range(2, 81), 1000, 4096, 9999])
    def test_bit_equal_to_np_percentile(self, n):
        for name, values in self._draws(np.random.default_rng(n), n).items():
            for q in conditional.DEFAULT_TRIM_PERCENTILES:
                got, expected = conditional._percentile(values, q), float(np.percentile(values, q))
                assert np.float64(got).tobytes() == np.float64(expected).tobytes(), (name, q)

    @pytest.mark.parametrize("n", [5, 60, 101, 4000])
    def test_grid_bit_equal_to_percentile_grid(self, n):
        rng = np.random.default_rng(n)
        for values in self._draws(rng, 2 * n).values():
            a, b = values[:n], values[n:] + 0.01
            try:
                expected = percentile_grid(a, b)
            except ValidationError as exc:
                with pytest.raises(ValidationError, match=str(exc)):
                    evaluation_grid(a, b)
            else:
                assert evaluation_grid(a, b).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("count", [1, 3, 40])
    def test_non_finite_avg_ends_as_with_np_percentile(self, bad, count):
        rng = np.random.default_rng(count)
        a, b = linear_sample(rng)[0], linear_sample(rng)[0]
        a[rng.choice(a.size, count, replace=False)] = bad
        try:
            with np.errstate(invalid="ignore"):  # np.percentile subtracts inf from inf
                expected = percentile_grid(a, b)
        except ValidationError:
            with pytest.raises(ValidationError, match="sample supports do not overlap"):
                evaluation_grid(a, b)
        else:
            assert evaluation_grid(a, b).tobytes() == expected.tobytes()


class TestDStatistic:
    def test_identical_curves(self):
        y = np.linspace(0.1, 0.3, 100)
        assert d_statistic(np.linspace(0, 1, 100), y, y) == 0.0

    def test_scaled_curve(self):
        x = np.linspace(0, 1, 100)
        y = np.linspace(0.1, 0.3, 100)
        assert abs(d_statistic(x, y, 1.1 * y) - 0.1) < 1e-12

    def test_partial_bump(self):
        # +1 on 10 of 100 unit-height grid points adds 10 to a denominator of 100.
        bumped = np.ones(100)
        bumped[:10] += 1.0
        assert d_statistic(np.linspace(0, 1, 100), np.ones(100), bumped) == pytest.approx(0.1)

    def test_nonpositive_denominator(self):
        with pytest.raises(NumericalError):
            d_statistic(np.linspace(0, 1, 10), np.zeros(10), np.ones(10))

    def test_integral_form(self):
        # Constant relative difference r over [0, 2] integrates to 2r.
        x = np.linspace(0.0, 2.0, 100)
        assert d_statistic(x, np.ones(100), np.full(100, 1.2), integral=True) == pytest.approx(0.4, abs=1e-12)

    def test_integral_form_needs_positive_ind_curve(self):
        y = np.ones(10)
        y[4] = 0.0
        with pytest.raises(NumericalError, match=r"InD curve is 0 at grid x = 0\.444444, .* ratio-of-sums"):
            d_statistic(np.linspace(0.0, 1.0, 10), y, np.ones(10), integral=True)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 300), uniform=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_integral_form_matches_trapezoid(self, seed, n, uniform):
        r = np.random.default_rng(seed)
        x = np.linspace(r.uniform(0, 1), r.uniform(1, 3), n) if uniform else np.sort(r.uniform(0, 3, n))
        y_ind = r.uniform(0.01, 1.0, n)
        y_ood = r.uniform(0.01, 1.0, n)
        assert d_statistic(x, y_ind, y_ood, integral=True) == float(trapezoid((y_ood - y_ind) / y_ind, x))


class TestPermutationTest:
    def test_duplicated_sample_null(self, rng):
        sample = linear_sample(rng)
        twin = tuple(column.copy() for column in sample)
        res = permutation_test(sample, twin, n_surrogates=100, seed=0)
        assert res.d == 0.0
        assert res.p_value >= 0.4
        assert res.d_surrogates.shape == (100,)
        assert res.curves.shape == (2, 100) and res.grid.shape == (100,)
        assert res.bandwidths.shape == res.ridges.shape == res.ranks.shape == (2,)

    @pytest.mark.parametrize("side", [
        (np.zeros(3), np.zeros(4)), (np.zeros((2, 2)), np.zeros((2, 2))), (np.zeros(5), np.zeros((5, 1))),
    ], ids=["lengths", "2-d", "shapes"])
    @pytest.mark.parametrize("bad_side", ["ind", "ood"])
    def test_input_checks(self, rng, side, bad_side):
        # Each side is two 1-d arrays of equal length, checked before anything else.
        sample = linear_sample(rng, n=20)
        sides = (side, sample) if bad_side == "ind" else (sample, side)
        with pytest.raises(ValidationError, match="avg and div must be 1-d arrays of equal length"):
            permutation_test(*sides, n_surrogates=0)

    def test_p_on_add_one_lattice(self, rng):
        sample = linear_sample(rng, n=80)
        other = (sample[0], sample[1] * 1.05)
        res = permutation_test(sample, other, n_surrogates=100, seed=3)
        scaled = res.p_value * 101
        assert abs(scaled - round(scaled)) < 1e-9
        assert 1 / 101 <= res.p_value <= 1.0

    def test_deterministic(self, rng):
        sample = linear_sample(rng, n=60)
        other = (sample[0], sample[1] + 0.01)
        r1 = permutation_test(sample, other, n_surrogates=20, seed=5)
        r2 = permutation_test(sample, other, n_surrogates=20, seed=5)
        assert r1.d == r2.d
        assert r1.p_value == r2.p_value
        np.testing.assert_array_equal(r1.d_surrogates, r2.d_surrogates)

    @pytest.mark.parametrize("bad_call,fit", [(1, "observed fit"), (5, "surrogate 1")])
    def test_undefined_d_names_the_fit(self, rng, monkeypatch, bad_call, fit):
        # bad_call counts fits in the order of a loop of one fit at a time:
        # observed InD, observed OOD, then InD and OOD per surrogate. The InD
        # fit in that place comes back nonpositive. The three surrogates share
        # one batch, with surrogate 1 in its middle.
        ind = linear_sample(rng, n=60)
        ood = (ind[0][:59], ind[1][:59] + 0.01)
        assert conditional.fits_per_sweep(59 + 100) >= 3
        monkeypatch.setattr(conditional, "krr_conditional_expectation",
                            nonpositive_ind_fit(60, (bad_call + 1) // 2))
        with pytest.raises(NumericalError) as err:
            permutation_test(ind, ood, n_surrogates=3, seed=1)
        x_lo = evaluation_grid(ind[0], ood[0])[0]
        assert str(err.value).startswith(f"{fit}: InD curve has nonpositive total -50 (minimum -2 at grid x = {x_lo:.6g})")

    @pytest.mark.parametrize("undefined_d", [False, True, "observed"])
    def test_errors_come_in_loop_order(self, monkeypatch, undefined_d):
        # Three InD points drawn from a pool that is mostly 0.5: a surrogate
        # after the first, in the same sweep as the observed split, has a
        # zero-variance InD sample. With surrogate 0's InD fit (True) or the
        # observed one ("observed") made nonpositive, its undefined d ends
        # the run first, as in the loop of one fit at a time; a NumericalError
        # is the command line's exit 2.
        ind = (np.array([0.5, 0.5, 0.7]), np.array([0.1, 0.2, 0.3]))
        ood = (np.concatenate([np.full(36, 0.5), [0.3, 0.4, 0.6, 0.7]]), np.linspace(0.05, 0.4, 40))
        pooled = np.concatenate([ind[0], ood[0]])
        degenerate = [bool(np.all(pooled[np.random.default_rng([seed, k]).permutation(43)[:3]] == 0.5))
                      for seed in range(50) for k in range(2)]
        seed = next(s for s in range(50) if degenerate[2 * s:2 * s + 2] == [False, True])
        assert conditional.fits_per_sweep(3 + 100) >= 3
        real = conditional.krr_conditional_expectation
        nonpositive, first = {False: (0, "bandwidth undefined"), True: (2, "surrogate 0: "),
                              "observed": (1, "observed fit: ")}[undefined_d]
        bad = nonpositive_ind_fit(3, nonpositive, real)
        expected = NumericalError if undefined_d else ValidationError
        with pytest.raises(expected) as loop_err:
            loop_permutation_test(lambda x, y, g: next(bad(x[None], y[None], g)), ind, ood, n_surrogates=5, seed=seed)
        monkeypatch.setattr(conditional, "krr_conditional_expectation", nonpositive_ind_fit(3, nonpositive, real))
        with pytest.raises(expected) as err:
            permutation_test(ind, ood, n_surrogates=5, seed=seed)
        assert str(err.value) == str(loop_err.value)
        assert str(err.value).startswith(first)

    def test_needs_one_surrogate(self, rng):
        sample = linear_sample(rng, n=20)
        with pytest.raises(ValidationError):
            permutation_test(sample, sample, n_surrogates=0)

    def test_split_half_null_rate(self, tmp_path):
        # Halves of one condition should look exchangeable: small d, large p.
        store = load_store(write_synthetic_store(SyntheticSpec(
            n_points=500, n_classes=2, n_models=4,
            member_noise_scale=0.25, shift_strength=0.0, seed=7,
        ), tmp_path))
        members = store.member_probs(sorted(store.model_ids), "ind")
        avg, div = joint_sample(members, store.labels["ind"])
        half = avg.size // 2
        ok = 0
        for trial in range(100):
            perm = np.random.default_rng([101, trial]).permutation(avg.size)
            a, b = ((avg[take], div[take]) for take in (perm[:half], perm[half:]))
            res = permutation_test(a, b, n_surrogates=50, seed=trial)
            if abs(res.d) < 0.02 and res.p_value > 0.05:
                ok += 1
        assert ok >= 90
