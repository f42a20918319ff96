"""Exact per-point identities for the four decomposition families."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import member_stack, random_simplex
from ensdiag.decomposition import (
    brier_jensen_gap,
    decompose_entropy,
    decompose_quadratic,
    jsd_diversity,
    nll_jensen_gap,
    variance_diversity,
)
from ensdiag.errors import ValidationError
from ensdiag.metrics import brier, nll
from ensdiag.store import form_ensemble

TWO_ONE_HOT = np.stack([
    np.array([[1.0, 0.0]]),
    np.array([[0.0, 1.0]]),
])


class TestVarianceDiversity:
    def test_identical_members(self, rng):
        # (p + p + p) / 3 leaves ~1e-34 of rounding residue, so not exactly 0.
        p = random_simplex(rng, 8, 3)
        assert np.abs(variance_diversity([p, p, p])).max() < 1e-30

    def test_two_one_hot(self):
        np.testing.assert_allclose(variance_diversity(TWO_ONE_HOT), [0.5])

    def test_hand_value(self):
        members = np.stack([np.array([[0.7, 0.3]]), np.array([[0.5, 0.5]])])
        np.testing.assert_allclose(variance_diversity(members), [0.02], atol=1e-15)

    def test_single_member_rejected(self, rng):
        with pytest.raises(ValidationError):
            variance_diversity([random_simplex(rng, 3, 2)])


class TestJsdDiversity:
    def test_identical_members(self, rng):
        p = random_simplex(rng, 8, 3)
        np.testing.assert_allclose(jsd_diversity([p, p]), np.zeros(8), atol=1e-15)

    def test_two_one_hot(self):
        np.testing.assert_allclose(jsd_diversity(TWO_ONE_HOT), [np.log(2)])

    def test_hand_value(self):
        members = np.stack([np.array([[0.9, 0.1]]), np.array([[0.5, 0.5]])])
        np.testing.assert_allclose(
            jsd_diversity(members), [0.10174922507919681], atol=1e-12
        )


class TestQuadraticDecomposition:
    def test_identical_members(self, rng):
        p = random_simplex(rng, 10, 4)
        rec = decompose_quadratic([p, p])
        np.testing.assert_allclose(rec.diversity, 0.0, atol=1e-15)
        np.testing.assert_allclose(rec.total, rec.avg_member, atol=1e-15)

    def test_two_one_hot(self):
        rec = decompose_quadratic(TWO_ONE_HOT)
        np.testing.assert_allclose(rec.total, [0.5])
        np.testing.assert_allclose(rec.diversity, [0.5])
        np.testing.assert_allclose(rec.avg_member, [0.0])

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_identity_residual(self, seed):
        rng = np.random.default_rng(seed)
        m, c = int(rng.integers(2, 9)), int(rng.integers(2, 21))
        members = member_stack(rng, m, 12, c)
        rec = decompose_quadratic(members)
        assert np.abs(rec.residual()).max() < 1e-10
        assert np.all(rec.diversity >= -1e-12)


class TestEntropyDecomposition:
    def test_identical_members(self, rng):
        p = random_simplex(rng, 10, 4)
        rec = decompose_entropy([p, p])
        np.testing.assert_allclose(rec.diversity, 0.0, atol=1e-12)

    def test_two_one_hot(self):
        rec = decompose_entropy(TWO_ONE_HOT)
        np.testing.assert_allclose(rec.total, [np.log(2)])
        np.testing.assert_allclose(rec.diversity, [np.log(2)])
        np.testing.assert_allclose(rec.avg_member, [0.0])

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_identity_and_dual_formula(self, seed):
        # decompose_entropy internally cross-checks JSD against the mean-KL
        # form within 1e-10 and raises on disagreement
        rng = np.random.default_rng(seed)
        m, c = int(rng.integers(2, 9)), int(rng.integers(2, 21))
        members = member_stack(rng, m, 12, c)
        rec = decompose_entropy(members)
        assert np.abs(rec.residual()).max() < 1e-10
        assert np.all(rec.diversity >= -1e-12)


class TestBrierGap:
    def test_identical_members(self, rng):
        p = random_simplex(rng, 10, 4)
        y = rng.integers(0, 4, size=10)
        rec = brier_jensen_gap([p, p], y)
        np.testing.assert_allclose(rec.diversity, 0.0, atol=1e-15)

    def test_two_one_hot_hand_case(self):
        rec = brier_jensen_gap(TWO_ONE_HOT, np.array([0]))
        np.testing.assert_allclose(rec.total, [0.5])       # ensemble Brier
        np.testing.assert_allclose(rec.avg_member, [1.0])  # mean member Brier
        np.testing.assert_allclose(rec.diversity, [0.5])   # the gap = variance

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_gap_equals_variance(self, seed):
        rng = np.random.default_rng(seed)
        m, c = int(rng.integers(2, 9)), int(rng.integers(2, 21))
        members = member_stack(rng, m, 12, c)
        y = rng.integers(0, c, size=12)
        rec = brier_jensen_gap(members, y)
        assert np.abs(rec.residual()).max() < 1e-10
        np.testing.assert_allclose(
            rec.diversity, variance_diversity(members), atol=1e-10
        )

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_jensen_ordering(self, seed):
        rng = np.random.default_rng(seed)
        members = member_stack(rng, 4, 15, 5)
        y = rng.integers(0, 5, size=15)
        ens = form_ensemble(list(members))
        mean_member = np.mean([brier(m, y) for m in members], axis=0)
        assert np.all(brier(ens, y) <= mean_member + 1e-12)


class TestNllGap:
    def test_equal_likelihoods(self):
        a = np.array([[0.6, 0.4]])
        b = np.array([[0.6, 0.4]])
        rec = nll_jensen_gap(np.stack([a, b]), np.array([0]))
        np.testing.assert_allclose(rec.diversity, [0.0], atol=1e-15)

    def test_closed_form_two_members(self):
        # true-class likelihoods 0.8 and 0.2 -> normalized (0.8, 0.2)
        a = np.array([[0.8, 0.2]])
        b = np.array([[0.2, 0.8]])
        rec = nll_jensen_gap(np.stack([a, b]), np.array([0]))
        np.testing.assert_allclose(rec.total, [np.log(2)], atol=1e-12)
        np.testing.assert_allclose(rec.avg_member, [0.916290731874155], atol=1e-12)
        np.testing.assert_allclose(rec.diversity, [0.2231435513142097], atol=1e-12)
        # gap equals KL(Uniform || normalized likelihoods) directly
        q = np.array([0.8, 0.2])
        kl = np.sum(0.5 * np.log(0.5 / q))
        np.testing.assert_allclose(rec.diversity, [kl], atol=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_identity_residual(self, seed):
        rng = np.random.default_rng(seed)
        m, c = int(rng.integers(2, 9)), int(rng.integers(2, 21))
        members = member_stack(rng, m, 12, c)
        y = rng.integers(0, c, size=12)
        rec = nll_jensen_gap(members, y)
        assert np.abs(rec.residual()).max() < 1e-10

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_jensen_ordering(self, seed):
        rng = np.random.default_rng(seed)
        members = member_stack(rng, 4, 15, 5)
        y = rng.integers(0, 5, size=15)
        ens = form_ensemble(list(members))
        mean_member = np.mean([nll(m, y) for m in members], axis=0)
        assert np.all(nll(ens, y) <= mean_member + 1e-12)


class TestDiversityZeroIffIdentical:
    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_strictly_positive_when_members_differ(self, seed):
        rng = np.random.default_rng(seed)
        p = random_simplex(rng, 6, 4)
        q = 0.5 * p + 0.5 * random_simplex(rng, 6, 4)
        div = variance_diversity(np.stack([p, q]))
        differs = np.abs(p - q).max(axis=1) > 1e-6
        assert np.all(div[differs] > 1e-12)

    def test_zero_when_identical(self, rng):
        p = random_simplex(rng, 6, 4)
        assert np.all(variance_diversity(np.stack([p, p, p])) < 1e-12)

