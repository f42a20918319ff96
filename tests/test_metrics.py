"""Per-point scores and calibration binning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import calibration_bins, ece_resce, entropy, random_simplex
from ensdiag.errors import ValidationError
from ensdiag.metrics import (
    SCORE_SUMS,
    brier,
    check_labels,
    compute_metric,
    nll,
    quad_uncertainty,
    score_sums,
    zero_one_error,
)


def test_int64_store_labels_come_back_uncopied(tiny_store):
    # Store labels are read-only int64, so no scoring call copies them; other dtypes are converted.
    labels = tiny_store.labels["ind"]
    assert check_labels(labels, labels.size, 5) is labels
    as_int32 = check_labels(labels.astype(np.int32), labels.size, 5)
    assert as_int32.dtype == np.int64 and np.array_equal(as_int32, labels)


class TestBrier:
    def test_one_hot_correct(self):
        p = np.array([[0.0, 1.0, 0.0]])
        np.testing.assert_allclose(brier(p, np.array([1])), [0.0])

    def test_uniform_ten_classes(self):
        p = np.full((1, 10), 0.1)
        np.testing.assert_allclose(brier(p, np.array([3])), [0.9])

    def test_hand_value(self):
        p = np.array([[0.8, 0.2]])
        np.testing.assert_allclose(brier(p, np.array([0])), [0.08])

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            brier(np.array([[0.5, 0.5]]), np.array([2]))

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_range(self, seed):
        rng = np.random.default_rng(seed)
        p = random_simplex(rng, 20, 6)
        y = rng.integers(0, 6, size=20)
        v = brier(p, y)
        assert np.all(v >= 0) and np.all(v <= 2)


class TestNll:
    def test_certain_correct(self):
        np.testing.assert_allclose(nll(np.array([[1.0, 0.0]]), np.array([0])), [0.0])

    def test_half(self):
        np.testing.assert_allclose(
            nll(np.array([[0.5, 0.5]]), np.array([0])), [np.log(2)]
        )

    def test_zero_probability_clamped(self):
        v = nll(np.array([[0.0, 1.0]]), np.array([0]))
        np.testing.assert_allclose(v, [-np.log(1e-12)])
        assert abs(v[0] - 27.631) < 1e-3


class TestZeroOne:
    def test_correct_and_wrong(self):
        p = np.array([[1.0, 0.0], [1.0, 0.0]])
        np.testing.assert_array_equal(zero_one_error(p, np.array([0, 1])), [0.0, 1.0])

    def test_tie_goes_to_lowest_index(self):
        p = np.array([[0.5, 0.5]])
        np.testing.assert_array_equal(zero_one_error(p, np.array([1])), [1.0])
        np.testing.assert_array_equal(zero_one_error(p, np.array([0])), [0.0])

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_mean_is_one_minus_accuracy(self, seed):
        rng = np.random.default_rng(seed)
        p = random_simplex(rng, 30, 4)
        y = rng.integers(0, 4, size=30)
        err = zero_one_error(p, y)
        acc = np.mean(p.argmax(axis=1) == y)
        assert 0.0 <= err.mean() <= 1.0
        np.testing.assert_allclose(err.mean(), 1.0 - acc)


class TestEntropy:
    def test_one_hot_zero(self):
        np.testing.assert_allclose(entropy(np.array([[0.0, 1.0]])), [0.0])

    def test_uniform_is_log_c(self):
        for c in (2, 5, 10):
            p = np.full((1, c), 1.0 / c)
            np.testing.assert_allclose(entropy(p), [np.log(c)], atol=1e-12)

    def test_hand_value(self):
        np.testing.assert_allclose(
            entropy(np.array([[0.8, 0.2]])), [0.5004024235381879], atol=1e-12
        )


class TestQuadUncertainty:
    def test_one_hot_zero(self):
        np.testing.assert_allclose(quad_uncertainty(np.array([[1.0, 0.0]])), [0.0])

    def test_uniform_ten(self):
        np.testing.assert_allclose(
            quad_uncertainty(np.full((1, 10), 0.1)), [0.9], atol=1e-12
        )

    def test_half_half(self):
        np.testing.assert_allclose(quad_uncertainty(np.array([[0.5, 0.5]])), [0.5])

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_uncertainty_zero_iff_one_hot(self, seed):
        rng = np.random.default_rng(seed)
        p = random_simplex(rng, 10, 5)
        one_hot = np.eye(5)[rng.integers(0, 5, size=4)]
        assert np.all(quad_uncertainty(one_hot) < 1e-12)
        assert np.all(entropy(one_hot) < 1e-12)
        interior = 0.5 * p + 0.5 / 5
        assert np.all(quad_uncertainty(interior) > 1e-12)
        assert np.all(entropy(interior) > 1e-12)


class TestMetricRanges:
    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_vector_invariants(self, seed):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(2, 8))
        p = random_simplex(rng, 25, c)
        y = rng.integers(0, c, size=25)
        assert set(np.unique(compute_metric("zero_one", p, y))) <= {0.0, 1.0}
        assert np.all(compute_metric("nll", p, y) >= 0)
        ent = entropy(p)
        assert np.all(ent >= -1e-12) and np.all(ent <= np.log(c) + 1e-12)
        quad = quad_uncertainty(p)
        assert np.all(quad >= -1e-12) and np.all(quad <= 1 - 1 / c + 1e-12)

    def test_unknown_kind(self):
        # compute_metric scores against labels only; label-free scores have their own functions.
        for kind in ("nope", "entropy", "quad_uncertainty"):
            with pytest.raises(ValidationError):
                compute_metric(kind, np.array([[1.0, 0.0]]), np.array([0]))


class Calibration:
    """ECE, ResCE and bin counts of one matrix, from score_sums."""

    def __init__(self, probs, labels, n_bins=15):
        sums = score_sums([probs], labels, n_bins=n_bins)
        self.ece, self.resce = sums.calibration_errors(0)
        self.bin_counts, self.n_bins = sums.bins[0, 0], sums.bins.shape[2]


class TestCalibration:
    def test_perfect_one_hot(self):
        p = np.eye(3)[np.array([0, 1, 2, 1])]
        summary = Calibration(p, np.array([0, 1, 2, 1]))
        assert summary.ece == 0.0
        assert summary.resce == 0.0

    def test_single_bin_closed_form(self):
        # all confidences 0.9, accuracy 0.8 -> gap 0.1 in one bin
        n = 10
        p = np.zeros((n, 2))
        p[:, 0] = 0.9
        p[:, 1] = 0.1
        y = np.zeros(n, dtype=np.int64)
        y[:2] = 1
        summary = Calibration(p, y, n_bins=1)
        np.testing.assert_allclose(summary.ece, 0.1, atol=1e-12)
        np.testing.assert_allclose(summary.resce, 0.1, atol=1e-12)

    def test_two_bin_arithmetic(self):
        # equal-count bins with gaps (+0.1, -0.1) then (+0.2, 0)
        def half(conf, acc, n, c_hi):
            p = np.zeros((n, 2))
            p[:, 0] = conf
            p[:, 1] = 1 - conf
            y = np.zeros(n, dtype=np.int64)
            y[: int(round((1 - acc) * n))] = 1
            return p, y

        p1, y1 = half(0.7, 0.6, 10, None)   # gap +0.1 in bin (0.5, 0.75]
        p2, y2 = half(0.9, 1.0, 10, None)   # gap -0.1 in bin (0.75, 1]
        p = np.vstack([p1, p2])
        y = np.concatenate([y1, y2])
        s = Calibration(p, y, n_bins=4)
        np.testing.assert_allclose(s.ece, 0.1, atol=1e-12)
        np.testing.assert_allclose(s.resce, 0.1, atol=1e-12)

        p3, y3 = half(0.7, 0.5, 10, None)   # gap +0.2 in bin (0.5, 0.75]
        p4, y4 = half(0.9, 0.9, 10, None)   # gap 0 in bin (0.75, 1]
        s2 = Calibration(np.vstack([p3, p4]), np.concatenate([y3, y4]), n_bins=4)
        np.testing.assert_allclose(s2.ece, 0.1, atol=1e-12)
        np.testing.assert_allclose(s2.resce, np.sqrt(0.5 * 0.04), atol=1e-12)

    def test_counts_sum_to_n(self, rng):
        p = random_simplex(rng, 57, 4)
        y = rng.integers(0, 4, size=57)
        s = Calibration(p, y, n_bins=15)
        assert s.bin_counts.sum() == 57
        assert s.n_bins == 15

    def test_confidence_one_lands_in_last_bin(self):
        p = np.array([[1.0, 0.0]])
        s = Calibration(p, np.array([0]), n_bins=10)
        assert s.bin_counts[-1] == 1

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_resce_at_least_ece(self, seed):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(2, 6))
        n = int(rng.integers(5, 200))
        p = random_simplex(rng, n, c)
        y = rng.integers(0, c, size=n)
        s = Calibration(p, y, n_bins=int(rng.integers(1, 25)))
        assert s.resce >= s.ece - 1e-12
        assert s.ece >= 0


class TestScoreSums:
    def test_columns_match_per_point_scores(self, rng):
        p, q = random_simplex(rng, 40, 4), random_simplex(rng, 40, 4)
        y = rng.integers(0, 4, 40)
        sums = score_sums(np.stack([p, q]), y, n_bins=6)
        for k, probs in enumerate((p, q)):
            got = dict(zip(SCORE_SUMS, sums.scores[k]))
            assert got["zero_one"] == zero_one_error(probs, y).sum()
            assert got["nll"] == nll(probs, y).sum()
            assert got["brier"] == pytest.approx(brier(probs, y).sum(), rel=1e-12, abs=0)
            assert np.array_equal(sums.bins[k], calibration_bins(probs, y, 6))
            assert dict(zip(("ece", "resce"), sums.calibration_errors(k))) == ece_resce(calibration_bins(probs, y, 6))

    def test_rejects_bad_input(self, rng):
        p, y = random_simplex(rng, 5, 3), np.array([0, 1, 2, 0, 1])
        for matrices, labels, n_bins, match in (
            ([p], np.array([0, 1, 3, 0, 1]), 15, "labels outside"),
            ([p], np.array([0, 1, -1, 0, 1]), 15, "labels outside"),
            ([p], y[:4], 15, "rows"),
            ([p], y, 0, "n_bins"),
            ([], y, 15, "at least one matrix"),
            (p, y, 15, r"a \(K, N, C\) stack"),
            ([p[:0]], y[:0], 15, "at least one point"),
        ):
            with pytest.raises(ValidationError, match=match):
                score_sums(matrices, labels, n_bins=n_bins)
