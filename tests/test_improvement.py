"""Per-point improvement, Pearson agreement, and the MMD similarity test."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist

from ensdiag import store
from ensdiag.errors import ValidationError
from ensdiag.simulate import SyntheticSpec, write_synthetic_store
from ensdiag.store import load_store
from ensdiag.improvement import (
    BANDWIDTH_MEDIAN_CAP,
    BLOCK_ELEMENTS,
    MMD_RANK_CAP,
    ensemble_scores,
    factored_mmd2,
    improvement_similarity_test,
    median_heuristic_bandwidth,
    mmd2_unbiased,
    mmd_threshold,
    pearson_r,
)


# Points per side of a square block of BLOCK_ELEMENTS entries.
SIDE = math.isqrt(BLOCK_ELEMENTS)


def assert_pdist_median(cloud):
    """The bandwidth, checked bit for bit against np.median over scipy's nonzero
    distances of the points the function keeps: all of them up to
    BANDWIDTH_MEDIAN_CAP, and above it the cap's points at i * n // cap."""
    n, cap = len(cloud), BANDWIDTH_MEDIAN_CAP
    dist = pdist(cloud if n <= cap else cloud[[i * n // cap for i in range(cap)]])
    expected = float(np.median(dist[dist > 0.0]))
    assert median_heuristic_bandwidth(cloud) == expected
    return expected


def mmd2_loops(x, y, h):
    """Literal double-sum transcription of the unbiased estimator."""
    m, n = len(x), len(y)
    k = lambda u, v: np.exp(-np.sum((u - v) ** 2) / (2.0 * h * h))
    sx = sum(k(x[i], x[j]) for i in range(m) for j in range(m) if i != j)
    sy = sum(k(y[i], y[j]) for i in range(n) for j in range(n) if i != j)
    sxy = sum(k(x[i], y[j]) for i in range(m) for j in range(n))
    return sx / (m * (m - 1)) + sy / (n * (n - 1)) - 2.0 * sxy / (m * n)


def mmd2_terms_three_gram(x, y, h):
    """The dense form: three full Gram matrices, each diagonal subtracted."""
    m, n = len(x), len(y)
    gram = lambda u, v: np.exp(-cdist(u, v, "sqeuclidean") / (2.0 * h * h))
    kxx, kyy, kxy = gram(x, x), gram(y, y), gram(x, y)
    return ((kxx.sum() - np.trace(kxx)) / (m * (m - 1)), (kyy.sum() - np.trace(kyy)) / (n * (n - 1)),
            2.0 * kxy.sum() / (m * n))


def per_point_improvement(base_probs, alt_probs, labels, metric="brier"):
    """Base score minus alternative score per point, as `improve` takes it from ensemble_scores."""
    base, alt = ensemble_scores({"base": base_probs, "alt": alt_probs}, [["base"], ["alt"]], labels, metric)
    return base - alt


class TestPerPointImprovement:
    def test_identical_models_zero(self, rng):
        probs = rng.dirichlet(np.ones(4), size=20)
        labels = rng.integers(0, 4, 20)
        delta = per_point_improvement(probs, probs, labels)
        np.testing.assert_array_equal(delta, np.zeros(20))

    def test_uniform_to_oracle(self):
        # Brier drops from 0.9 (uniform, C=10) to 0 (one-hot correct).
        labels = np.arange(10)
        base = np.full((10, 10), 0.1)
        alt = np.eye(10)
        np.testing.assert_allclose(per_point_improvement(base, alt, labels), np.full(10, 0.9))

    def test_locality(self, rng):
        probs = rng.dirichlet(np.ones(3), size=15)
        labels = rng.integers(0, 3, 15)
        alt = probs.copy()
        alt[4] = np.eye(3)[labels[4]]
        delta = per_point_improvement(probs, alt, labels)
        assert np.all(delta[np.arange(15) != 4] == 0.0)
        assert delta[4] > 0.0

    def test_other_metrics(self, rng):
        probs = rng.dirichlet(np.ones(3), size=15)
        labels = rng.integers(0, 3, 15)
        for metric in ("nll", "zero_one"):
            delta = per_point_improvement(probs, probs, labels, metric=metric)
            np.testing.assert_array_equal(delta, np.zeros(15))


class TestPearson:
    def test_self_correlation(self, rng):
        a = rng.normal(size=30)
        assert pearson_r(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_negative_affine(self, rng):
        a = rng.normal(size=30)
        assert pearson_r(a, -2.0 * a + 3.0) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_value(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([1.0, 3.0, 2.0, 5.0])
        assert pearson_r(a, b) == pytest.approx(0.8315218406202999, abs=1e-15)

    @given(
        scale=st.floats(0.01, 50.0),
        shift=st.floats(-10.0, 10.0),
        seed=st.integers(0, 999),
    )
    @settings(max_examples=30, deadline=None)
    def test_affine_invariance(self, scale, shift, seed):
        r = np.random.default_rng(seed)
        a, b = r.normal(size=20), r.normal(size=20)
        assert abs(pearson_r(scale * a + shift, b) - pearson_r(a, b)) < 1e-12

    def test_zero_variance_rejected(self):
        with pytest.raises(ValidationError):
            pearson_r(np.full(5, 2.0), np.arange(5.0))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            pearson_r(np.zeros(3), np.zeros(4))

    def test_single_point_rejected(self):
        with pytest.raises(ValidationError):
            pearson_r(np.array([1.0]), np.array([2.0]))

    def test_range(self, rng):
        for _ in range(20):
            a, b = rng.normal(size=12), rng.normal(size=12)
            assert -1.0 - 1e-12 <= pearson_r(a, b) <= 1.0 + 1e-12


class TestMedianBandwidth:
    def test_two_point_cloud(self):
        assert median_heuristic_bandwidth(np.array([[0.0, 0.0], [3.0, 4.0]])) == 5.0

    def test_identical_points_rejected(self):
        with pytest.raises(ValidationError, match="every point of the cloud coincides"):
            median_heuristic_bandwidth(np.zeros((5, 2)))

    def test_single_point_rejected(self):
        with pytest.raises(ValidationError):
            median_heuristic_bandwidth(np.zeros((1, 2)))

    def test_cap_strides_deterministically(self):
        # One point above the cap: exactly the cap's points are kept, all but the last.
        n = BANDWIDTH_MEDIAN_CAP + 1
        big = np.column_stack([np.arange(float(n)), np.zeros(n)])
        expected = float(np.median(pdist(big[:-1])))
        assert expected != float(np.median(pdist(big)))
        assert median_heuristic_bandwidth(big) == expected

    def test_cap_fills_one_store_block(self, rng):
        # The distances of BANDWIDTH_MEDIAN_CAP points fit one store block; one more point's do not.
        cap = BANDWIDTH_MEDIAN_CAP
        assert cap * (cap - 1) // 2 <= store.BLOCK_ELEMENTS < (cap + 1) * cap // 2
        cloud = rng.normal(size=(cap + 1, 2))
        at_cap = float(np.median(pdist(cloud[:cap])))
        assert median_heuristic_bandwidth(cloud[:cap]) == at_cap
        assert at_cap != float(np.median(pdist(cloud)))
        assert median_heuristic_bandwidth(cloud) == at_cap

    def test_coinciding_pairs_left_out(self):
        # 0-1 deltas: most pairs coincide, so the median over all pairs is 0.
        cloud = np.array([[0.0, 0.0]] * 6 + [[1.0, 0.0], [0.0, 1.0]])
        assert float(np.median(pdist(cloud))) == 0.0
        assert median_heuristic_bandwidth(cloud) == 1.0

    # Every seventh point coincides with point 3, so the cloud has ties and zeros.
    @pytest.mark.parametrize("n", [1023, 1024, 1025])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_bit_equal_to_pdist(self, rng, n, dim):
        cloud = rng.normal(size=(n, dim)) * rng.uniform(0.1, 10.0, size=dim)
        cloud[::7] = cloud[3]
        assert_pdist_median(cloud)

    # SIDE points fill one block of BLOCK_ELEMENTS squared distances; SIDE + 1 need a second.
    @pytest.mark.parametrize("n", [SIDE - 1, SIDE, SIDE + 1], ids=["below", "at", "one-above"])
    def test_bit_equal_across_blocks(self, rng, n):
        assert_pdist_median(rng.normal(size=(n, 2)))

    # 10, 15, 21 and 28 pairs: the median is one middle distance or the mean of two.
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_odd_and_even_pair_counts(self, rng, n):
        assert_pdist_median(rng.normal(size=(n, 2)))

    def test_middle_ranks_in_two_buckets(self):
        # Squared distances 1, 4, 9, 16, 36, 49: the median is the mean of 3 and 4.
        cloud = np.array([[0.0], [1.0], [3.0], [7.0]])
        assert assert_pdist_median(cloud) == 3.5

    @pytest.mark.parametrize("t", [np.nextafter(2.0, 0.0), 1.99], ids=["adjacent-floats", "apart"])
    def test_ties_across_a_bucket_edge(self, t):
        # t * t lies just below 4.0. Two nonzero squared distances equal each, at
        # ranks 12-13 and 14-15 of 28, so the middle pair is the last t * t and the first 4.0.
        assert t * t < 4.0
        cloud = np.array([0.0] + [2.0] * 2 + [-t] * 2 + [0.5] * 4)[:, None]
        dist = pdist(cloud)
        d2 = np.sort(dist[dist > 0.0] ** 2)
        assert d2.size == 28 and list(d2[12:16]) == [t * t, t * t, 4.0, 4.0]
        assert assert_pdist_median(cloud) == float(np.mean([t, 2.0]))

    # Points on {-1, 0, 1}^2, the 0-1 deltas' cloud: few distinct distances, each tied many times.
    @pytest.mark.parametrize("n", [60, BANDWIDTH_MEDIAN_CAP, 999, 2000])
    @pytest.mark.parametrize("p_zero", [1 / 3, 0.9])
    def test_discrete_clouds(self, rng, n, p_zero):
        assert_pdist_median(rng.choice([-1.0, 0.0, 1.0], p=[(1 - p_zero) / 2, p_zero, (1 - p_zero) / 2],
                                       size=(n, 2)))

    def test_heavy_bucket_of_distinct_values_is_refined(self, rng):
        # Two clusters 1 apart, each spread by 1e-9: the cross distances, half of all,
        # are distinct but all within about 1e-8 of 1.
        n = 1000
        cloud = np.concatenate([rng.normal(scale=1e-9, size=(n, 1)), 1.0 + rng.normal(scale=1e-9, size=(n, 1))])
        assert_pdist_median(cloud)

    def test_tied_clouds_peak_no_higher_than_a_normal_one(self, rng):
        # Tied distances take no more memory than distinct ones.
        n = BANDWIDTH_MEDIAN_CAP
        clouds = {"normal": rng.normal(size=(n, 2)), "ternary": rng.choice([-1.0, 0.0, 1.0], size=(n, 2)),
                  "two-point": np.repeat([[0.0, 0.0], [1.0, 2.0]], n // 2, axis=0)}
        peaks = {}
        for name, cloud in clouds.items():
            assert_pdist_median(cloud)
            tracemalloc.start()
            try:
                median_heuristic_bandwidth(cloud)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["ternary"] <= peaks["normal"] + 2**20, peaks
        assert peaks["two-point"] <= peaks["normal"] + 2**20, peaks

    def test_memory_bounded_at_cap(self, rng):
        # The cap's 261,726 squared distances take 2 MiB, and their blocks 1 MiB more.
        cloud = rng.normal(size=(BANDWIDTH_MEDIAN_CAP, 2))
        tracemalloc.start()
        try:
            median_heuristic_bandwidth(cloud)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestMmd2:
    def test_double_loop_oracle(self, rng):
        for m in (5, 17, 50):
            x = rng.normal(size=(m, 2))
            y = rng.normal(size=(m, 2)) + 0.3
            h = median_heuristic_bandwidth(np.vstack([x, y]))
            assert abs(mmd2_unbiased(x, y, h) - mmd2_loops(x, y, h)) < 1e-12

    def test_symmetry(self, rng):
        x = rng.normal(size=(20, 2))
        y = rng.normal(size=(25, 2))
        assert mmd2_unbiased(x, y, 1.0) == pytest.approx(mmd2_unbiased(y, x, 1.0), abs=1e-15)

    def test_identical_point_clouds(self):
        # Every point equal: each term is exactly 1, so 1 + 1 - 2 = 0.
        x = np.tile([0.3, 0.7], (10, 1))
        assert mmd2_unbiased(x, x.copy(), 0.5) == 0.0

    def test_permutation_of_x(self, rng):
        x = rng.normal(size=(30, 2))
        y = x[rng.permutation(30)]
        assert mmd2_unbiased(x, y, 1.0) == pytest.approx(mmd2_unbiased(x, x, 1.0), abs=1e-12)

    def test_null_calibration(self):
        thr = mmd_threshold(100, 0.05)
        ok = 0
        for seed in range(100):
            r = np.random.default_rng(seed)
            x = r.normal(size=(100, 2))
            y = r.normal(size=(100, 2))
            h = median_heuristic_bandwidth(np.vstack([x, y]))
            if abs(mmd2_unbiased(x, y, h)) < thr:
                ok += 1
        assert ok >= 93

    def test_distant_clouds_saturate(self, rng):
        # Tight clouds 10 bandwidths apart: within-terms ~1, cross-term ~0.
        x = rng.normal(scale=0.01, size=(100, 2))
        y = x + np.array([10.0, 0.0])
        stat = mmd2_unbiased(x, y, 1.0)
        assert stat > 1.9
        assert stat > mmd_threshold(100, 0.05)

    def test_small_sample_rejected(self):
        with pytest.raises(ValidationError):
            mmd2_unbiased(np.zeros((1, 2)), np.zeros((5, 2)), 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            mmd2_unbiased(np.zeros((5, 2)), np.zeros((5, 3)), 1.0)

    def test_nonpositive_bandwidth(self):
        with pytest.raises(ValidationError):
            mmd2_unbiased(np.zeros((5, 2)), np.ones((5, 2)), 0.0)

    # Block rows are BLOCK_ELEMENTS // (points per row): SIDE rows for SIDE columns.
    @pytest.mark.parametrize("m,n", [(SIDE - 1, SIDE), (SIDE, SIDE), (SIDE + 1, SIDE), (SIDE + 1, 7), (3, SIDE + 1)],
                             ids=["below", "at", "one-above", "unequal-wide", "unequal-tall"])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_three_gram_oracle_across_blocks(self, rng, m, n, dim):
        x = rng.normal(size=(m, dim))
        y = rng.normal(size=(n, dim)) + 0.3
        terms = mmd2_terms_three_gram(x, y, 0.8)
        assert abs(mmd2_unbiased(x, y, 0.8) - (terms[0] + terms[1] - terms[2])) <= 1e-12 * sum(terms)

    @pytest.mark.parametrize("m,n", [(2, 2), (9, 8), (10, 8), (11, 3)])
    def test_three_gram_oracle_small_blocks(self, rng, monkeypatch, m, n):
        # Blocks of 8 entries: one or two rows each, so many blocks and short last ones.
        monkeypatch.setattr("ensdiag.improvement.BLOCK_ELEMENTS", 8)
        x = rng.normal(size=(m, 2))
        y = rng.normal(size=(n, 2)) - 0.5
        terms = mmd2_terms_three_gram(x, y, 1.3)
        assert abs(mmd2_unbiased(x, y, 1.3) - (terms[0] + terms[1] - terms[2])) <= 1e-12 * sum(terms)

    def test_memory_bounded_by_blocks(self, rng):
        # Dense, the three 20,000^2 Gram matrices would need 9.6 GB.
        x = rng.normal(size=(20_000, 2))
        y = rng.normal(size=(20_000, 2))
        tracemalloc.start()
        try:
            stat = mmd2_unbiased(x, y, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(stat)
        assert peak < 64 * 2**20
        assert peak < 4 * 8 * BLOCK_ELEMENTS


def _clouds(delta_a, delta_b, control):
    """The two clouds improvement_similarity_test compares, and their bandwidth."""
    x, y = np.column_stack([delta_a, delta_b]), np.column_stack([delta_a, control])
    return x, y, median_heuristic_bandwidth(np.vstack([x, y]))


def _scattered(rng, m):
    """A tight core with a tenth of the points scattered far around it."""
    v = rng.normal(scale=0.01, size=m)
    v[: m // 10] = rng.uniform(-5.0, 5.0, m // 10)
    return v


class TestFactoredMmd:
    @pytest.mark.parametrize("m", [2, 3, 500, 2000])
    @pytest.mark.parametrize("draw", ["normal", "t3", "discrete"])
    def test_matches_blocked_sums(self, rng, m, draw):
        sample = {"normal": lambda: rng.normal(size=m), "t3": lambda: rng.standard_t(3, m),
                  "discrete": lambda: rng.integers(-1, 2, m).astype(np.float64)}[draw]
        da, db, dc = sample(), sample(), sample() + (0.2 if draw == "normal" else 0.0)
        x, y, h = _clouds(da, db, dc)
        stat, rank_a, rank_bc = factored_mmd2(da, db, dc, h)
        assert abs(stat - mmd2_unbiased(x, y, h)) <= 1e-12
        assert max(rank_a, rank_bc) < MMD_RANK_CAP
        if draw == "discrete":
            assert rank_a <= 3 and rank_bc <= 3

    def test_improve_shaped_cloud_takes_the_factored_path(self, tmp_path, monkeypatch):
        # Brier improvements of two 2-member ensembles over a base model, as `improve` makes them.
        store = load_store(write_synthetic_store(SyntheticSpec(n_points=6000, n_classes=10, n_models=5, seed=3),
                                                 tmp_path))
        ids = ["m000", "m001", "m002", "m004"]
        members = dict(zip(ids, store.member_probs(ids, "ind")))
        specs = [["m000"], ["m000", "m001"], ["m000", "m002"], ["m004"]]
        base, *alts = ensemble_scores(members, specs, store.labels("ind"), "brier")
        da, db, dc = (base - a for a in alts)
        calls = []
        monkeypatch.setattr("ensdiag.improvement.mmd2_unbiased", lambda *a: calls.append(a) or 0.0)
        res = improvement_similarity_test(da, db, dc)
        assert calls == []
        assert res.kernel_sums["method"] == "pivoted_cholesky"
        assert max(res.kernel_sums["rank_delta_a"], res.kernel_sums["rank_delta_b_control"]) < MMD_RANK_CAP
        x, y, h = _clouds(da, db, dc)
        assert abs(res.statistic - mmd2_unbiased(x, y, h)) <= 1e-12

    def test_scattered_cloud_falls_back_once(self, rng, monkeypatch):
        da, db, dc = (_scattered(rng, 6000) for _ in range(3))
        x, y, h = _clouds(da, db, dc)
        calls = []
        monkeypatch.setattr("ensdiag.improvement.mmd2_unbiased",
                            lambda *a: calls.append(a) or mmd2_unbiased(*a))
        res = improvement_similarity_test(da, db, dc)
        assert len(calls) == 1
        assert res.kernel_sums == {"method": "blocked", "rank_cap_reached": MMD_RANK_CAP}
        assert res.statistic == mmd2_unbiased(x, y, h)

    def test_reaching_the_cap_costs_little_beside_the_blocked_sums(self, rng):
        da, db, dc = (_scattered(rng, 6000) for _ in range(3))
        x, y, h = _clouds(da, db, dc)

        def best_of_three(work):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                work()
                times.append(time.perf_counter() - start)
            return min(times)

        assert factored_mmd2(da, db, dc, h) is None
        blocked = best_of_three(lambda: mmd2_unbiased(x, y, h))
        assert best_of_three(lambda: factored_mmd2(da, db, dc, h)) + blocked <= 1.2 * blocked


class TestMmdThreshold:
    def test_frozen_values(self):
        assert mmd_threshold(10_000, 0.05) == pytest.approx(0.06923273530409142, abs=1e-15)
        assert mmd_threshold(90_000, 0.05) == pytest.approx(0.02307757843469714, abs=1e-15)

    def test_alpha_one_gives_zero(self):
        assert mmd_threshold(100, 1.0) == 0.0

    @given(m=st.integers(2, 10_000), alpha=st.floats(0.001, 0.5))
    @settings(max_examples=40, deadline=None)
    def test_monotonicity(self, m, alpha):
        assert mmd_threshold(m + 1, alpha) < mmd_threshold(m, alpha)
        assert mmd_threshold(m, alpha / 2.0) > mmd_threshold(m, alpha)

    def test_invalid_arguments(self):
        with pytest.raises(ValidationError):
            mmd_threshold(0, 0.05)
        with pytest.raises(ValidationError):
            mmd_threshold(10, 0.0)
        with pytest.raises(ValidationError):
            mmd_threshold(10, 1.5)


class TestSimilarityTest:
    def test_control_equals_delta_b(self, rng):
        # Identical clouds: the unbiased statistic is slightly negative, never
        # a rejection.
        da = rng.normal(size=200)
        db = 0.5 * da + rng.normal(size=200)
        res = improvement_similarity_test(da, db, db.copy())
        assert res.statistic <= 0.0
        assert not res.reject
        assert res.m == 200

    def test_shifted_control_rejects(self, rng):
        da = rng.normal(size=200)
        db = 0.5 * da + rng.normal(size=200)
        pooled = np.concatenate([db, db]).std(ddof=1)
        res = improvement_similarity_test(da, db, db + 5.0 * pooled)
        assert res.reject
        assert res.statistic > res.threshold

    def test_reject_flag_consistency(self, rng):
        for _ in range(5):
            da = rng.normal(size=50)
            db = rng.normal(size=50)
            control = rng.normal(size=50)
            res = improvement_similarity_test(da, db, control)
            assert res.reject == (res.statistic > res.threshold)
            assert res.threshold == pytest.approx(mmd_threshold(50, res.alpha))

    def test_formatted_layout(self):
        from ensdiag.improvement import MmdTestResult

        res = MmdTestResult(0.00220, 0.069, 0.05, 1.0, 100, False, {"method": "blocked", "rank_cap_reached": 64})
        assert res.formatted() == "0.0022 (0.069)"

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            improvement_similarity_test(np.zeros(5), np.zeros(5), np.zeros(6))
