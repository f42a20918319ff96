"""Per-point scores and calibration binning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_simplex
from ensdiag.errors import ValidationError
from ensdiag.metrics import (
    brier,
    calibration,
    compute_metric,
    entropy,
    nll,
    quad_uncertainty,
    zero_one_error,
)


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

    def test_base2_flag(self):
        v = nll(np.array([[0.25, 0.75]]), np.array([0]), base2=True)
        np.testing.assert_allclose(v, [2.0])


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

    def test_base2(self):
        np.testing.assert_allclose(
            entropy(np.array([[0.5, 0.5]]), base2=True), [1.0], atol=1e-12
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
        ent = compute_metric("entropy", p, y)
        assert np.all(ent >= -1e-12) and np.all(ent <= np.log(c) + 1e-12)
        quad = compute_metric("quad_uncertainty", p, y)
        assert np.all(quad >= -1e-12) and np.all(quad <= 1 - 1 / c + 1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            compute_metric("nope", np.array([[1.0, 0.0]]), np.array([0]))


class TestCalibration:
    def test_perfect_one_hot(self):
        p = np.eye(3)[np.array([0, 1, 2, 1])]
        summary = calibration(p, np.array([0, 1, 2, 1]))
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
        summary = calibration(p, y, n_bins=1)
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
        s = calibration(p, y, n_bins=4)
        np.testing.assert_allclose(s.ece, 0.1, atol=1e-12)
        np.testing.assert_allclose(s.resce, 0.1, atol=1e-12)

        p3, y3 = half(0.7, 0.5, 10, None)   # gap +0.2 in bin (0.5, 0.75]
        p4, y4 = half(0.9, 0.9, 10, None)   # gap 0 in bin (0.75, 1]
        s2 = calibration(np.vstack([p3, p4]), np.concatenate([y3, y4]), n_bins=4)
        np.testing.assert_allclose(s2.ece, 0.1, atol=1e-12)
        np.testing.assert_allclose(s2.resce, np.sqrt(0.5 * 0.04), atol=1e-12)

    def test_counts_sum_to_n(self, rng):
        p = random_simplex(rng, 57, 4)
        y = rng.integers(0, 4, size=57)
        s = calibration(p, y, n_bins=15)
        assert s.bin_counts.sum() == 57
        assert s.n_bins == 15

    def test_confidence_one_lands_in_last_bin(self):
        p = np.array([[1.0, 0.0]])
        s = calibration(p, np.array([0]), n_bins=10)
        assert s.bin_counts[-1] == 1

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_resce_at_least_ece(self, seed):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(2, 6))
        n = int(rng.integers(5, 200))
        p = random_simplex(rng, n, c)
        y = rng.integers(0, c, size=n)
        s = calibration(p, y, n_bins=int(rng.integers(1, 25)))
        assert s.resce >= s.ece - 1e-12
        assert s.ece >= 0
