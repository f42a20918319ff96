"""Exact per-point identities for the four decomposition families."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ensdiag.store
from conftest import as_members, entropy, member_stack, random_simplex, through_walk
from ensdiag.decomposition import FAMILIES, _decompose_block, decompose
from ensdiag.errors import ValidationError
from ensdiag.metrics import NLL_EPS, brier, nll, quad_uncertainty
from ensdiag.store import form_ensemble, load_store, member_blocks, write_store

TWO_ONE_HOT = np.stack([
    np.array([[1.0, 0.0]]),
    np.array([[0.0, 1.0]]),
])


def family_record(members, family, labels=None):
    """One family's record from `decompose` of in-memory member matrices; the
    labels, which only the score-gap families read, default to class 0."""
    labels = np.zeros(len(members[0]), dtype=int) if labels is None else labels
    return decompose(as_members(members), labels)[family]


class TestVarianceDiversity:
    def test_identical_members(self, rng):
        # (p + p + p) / 3 leaves ~1e-34 of rounding residue, so not exactly 0.
        p = random_simplex(rng, 8, 3)
        rec = family_record([p, p, p], "quadratic")
        assert np.abs(rec.diversity).max() < 1e-30

    def test_two_one_hot(self):
        rec = family_record(TWO_ONE_HOT, "quadratic")
        np.testing.assert_allclose(rec.diversity, [0.5])

    def test_hand_value(self):
        members = np.stack([np.array([[0.7, 0.3]]), np.array([[0.5, 0.5]])])
        rec = family_record(members, "quadratic")
        np.testing.assert_allclose(rec.diversity, [0.02], atol=1e-15)

    def test_single_member_rejected(self, rng):
        with pytest.raises(ValidationError):
            decompose(as_members([random_simplex(rng, 3, 2)]), np.zeros(3, dtype=int))


class TestJsdDiversity:
    """The entropy family's diversity is the Jensen-Shannon divergence."""

    def test_identical_members(self, rng):
        p = random_simplex(rng, 8, 3)
        rec = family_record([p, p], "entropy")
        np.testing.assert_allclose(rec.diversity, np.zeros(8), atol=1e-15)

    def test_two_one_hot(self):
        rec = family_record(TWO_ONE_HOT, "entropy")
        np.testing.assert_allclose(rec.diversity, [np.log(2)])

    def test_hand_value(self):
        members = [np.array([[0.9, 0.1]]), np.array([[0.5, 0.5]])]
        rec = family_record(members, "entropy")
        np.testing.assert_allclose(rec.diversity, [0.10174922507919681], atol=1e-12)


class TestQuadraticDecomposition:
    def test_identical_members(self, rng):
        p = random_simplex(rng, 10, 4)
        rec = family_record([p, p], "quadratic")
        np.testing.assert_allclose(rec.diversity, 0.0, atol=1e-15)
        np.testing.assert_allclose(rec.total, rec.avg_member, atol=1e-15)

    def test_two_one_hot(self):
        rec = family_record(TWO_ONE_HOT, "quadratic")
        np.testing.assert_allclose(rec.total, [0.5])
        np.testing.assert_allclose(rec.diversity, [0.5])
        np.testing.assert_allclose(rec.avg_member, [0.0])

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_identity_residual(self, seed):
        rng = np.random.default_rng(seed)
        m, c = int(rng.integers(2, 9)), int(rng.integers(2, 21))
        members = member_stack(rng, m, 12, c)
        rec = family_record(members, "quadratic")
        assert np.abs(rec.residual()).max() < 1e-10
        assert np.all(rec.diversity >= -1e-12)


class TestEntropyDecomposition:
    def test_identical_members(self, rng):
        p = random_simplex(rng, 10, 4)
        rec = family_record([p, p], "entropy")
        np.testing.assert_allclose(rec.diversity, 0.0, atol=1e-12)

    def test_two_one_hot(self):
        rec = family_record(TWO_ONE_HOT, "entropy")
        np.testing.assert_allclose(rec.total, [np.log(2)])
        np.testing.assert_allclose(rec.diversity, [np.log(2)])
        np.testing.assert_allclose(rec.avg_member, [0.0])

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_identity_and_dual_formula(self, seed):
        # decompose internally cross-checks JSD against the mean-KL
        # form within 1e-10 and raises on disagreement
        rng = np.random.default_rng(seed)
        m, c = int(rng.integers(2, 9)), int(rng.integers(2, 21))
        members = member_stack(rng, m, 12, c)
        rec = family_record(members, "entropy")
        assert np.abs(rec.residual()).max() < 1e-10
        assert np.all(rec.diversity >= -1e-12)


class TestBrierGap:
    def test_identical_members(self, rng):
        p = random_simplex(rng, 10, 4)
        y = rng.integers(0, 4, size=10)
        rec = family_record([p, p], "brier_gap", y)
        np.testing.assert_allclose(rec.diversity, 0.0, atol=1e-15)

    def test_two_one_hot_hand_case(self):
        rec = family_record(TWO_ONE_HOT, "brier_gap", np.array([0]))
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
        rec = family_record(members, "brier_gap", y)
        assert np.abs(rec.residual()).max() < 1e-10
        np.testing.assert_allclose(
            rec.diversity, family_record(members, "quadratic").diversity, atol=1e-10
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
        rec = family_record(np.stack([a, b]), "nll_gap", np.array([0]))
        np.testing.assert_allclose(rec.diversity, [0.0], atol=1e-15)

    def test_closed_form_two_members(self):
        # true-class likelihoods 0.8 and 0.2 -> normalized (0.8, 0.2)
        a = np.array([[0.8, 0.2]])
        b = np.array([[0.2, 0.8]])
        rec = family_record(np.stack([a, b]), "nll_gap", np.array([0]))
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
        rec = family_record(members, "nll_gap", y)
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
        div = family_record(np.stack([p, q]), "quadratic").diversity
        differs = np.abs(p - q).max(axis=1) > 1e-6
        assert np.all(div[differs] > 1e-12)

    def test_zero_when_identical(self, rng):
        p = random_simplex(rng, 6, 4)
        rec = family_record(np.stack([p, p, p]), "quadratic")
        assert np.all(rec.diversity < 1e-12)



def stacked_oracle(stack, labels):
    """(total, diversity, avg_member) per family, from reductions over an (M, N, C) stack."""
    ens = stack.mean(axis=0)
    var = stack.var(axis=0, ddof=0).sum(axis=1)
    member_h = np.stack([entropy(p) for p in stack]).mean(axis=0)
    like = stack[:, np.arange(stack.shape[1]), labels]
    like_c = np.maximum(like, NLL_EPS)
    return {
        "quadratic": (quad_uncertainty(ens), var, np.stack([quad_uncertainty(p) for p in stack]).mean(axis=0)),
        "entropy": (entropy(ens), entropy(ens) - member_h, member_h),
        "brier_gap": (brier(ens, labels), var, np.stack([brier(p, labels) for p in stack]).mean(axis=0)),
        "nll_gap": (
            -np.log(np.maximum(like.mean(axis=0), NLL_EPS)),
            -np.log(float(stack.shape[0])) + np.log(like_c.sum(axis=0)) - np.log(like_c).mean(axis=0),
            -np.log(like_c).mean(axis=0),
        ),
    }


class TestMatchesStackedOracle:
    # N >= 2: with one point, numpy reduces the (M, 1) stack of member scores
    # along a contiguous axis, pairwise once M >= 8, so its last bit can differ.
    @given(st.integers(2, 12), st.integers(2, 40), st.integers(2, 30), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_bit_equal(self, m, n, c, seed):
        rng = np.random.default_rng(seed)
        raw = [random_simplex(rng, n, c) for _ in range(m)]
        labels = rng.integers(0, c, size=n)
        stack = through_walk(raw)  # the oracle's input is what the walk hands decompose
        members = list(stack)
        records = decompose(as_members(raw), labels)
        for family, expected in stacked_oracle(stack, labels).items():
            rec = records[family]
            for got, want in zip((rec.total, rec.diversity, rec.avg_member), expected):
                assert np.array_equal(got, want), family
        assert np.array_equal(form_ensemble(members), stack.mean(axis=0))
        assert np.array_equal(form_ensemble(members[:1]), members[0])


FLAT_MEMORY_CALLS = {
    "form_ensemble": lambda members, labels: form_ensemble(members),
    **{f: lambda members, labels, f=f: family_record(members, f, labels) for f in FAMILIES},
}


@pytest.fixture(scope="module")
def many_members():
    rng = np.random.default_rng(5)
    return [random_simplex(rng, 2000, 50) for _ in range(32)], rng.integers(0, 50, size=2000)


@pytest.mark.parametrize("name", sorted(FLAT_MEMORY_CALLS))
def test_peak_memory_independent_of_member_count(many_members, name):
    # 32 members; a reduction that stacked them would peak at 32 matrices or more.
    members, labels = many_members
    tracemalloc.start()
    try:
        FLAT_MEMORY_CALLS[name](members, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * members[0].nbytes


# The per-family implementations `decompose` replaced, each reading every
# member whole; kept as the oracle for the blocked walk.

def _oracle_variance(members, ens):
    acc = np.zeros_like(ens)
    for p in members:
        acc += (p - ens) ** 2
    return (acc / len(members)).sum(axis=1)


def _oracle_mean(score, members):
    return sum(score(p) for p in members) / len(members)


def oracle_records(members, labels):
    ens = form_ensemble(members)
    var = _oracle_variance(members, ens)
    total_h = entropy(ens)
    avg_h = _oracle_mean(entropy, members)
    rows = np.arange(members[0].shape[0])
    like = np.column_stack([p[rows, labels] for p in members]).T
    like_c = np.maximum(like, NLL_EPS)
    return {
        "quadratic": (quad_uncertainty(ens), var, _oracle_mean(quad_uncertainty, members)),
        "entropy": (total_h, total_h - avg_h, avg_h),
        "brier_gap": (brier(ens, labels), var, _oracle_mean(lambda p: brier(p, labels), members)),
        "nll_gap": (
            -np.log(np.maximum(like.mean(axis=0), NLL_EPS)),
            -np.log(float(len(members))) + np.log(like_c.sum(axis=0)) - np.log(like_c).mean(axis=0),
            -np.log(like_c).mean(axis=0),
        ),
    }


class TestBlockedWalk:
    @given(st.integers(2, 10), st.integers(2, 60), st.integers(2, 25), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_bit_equal_to_per_family_oracle_at_any_block_size(self, m, n, c, seed):
        rng = np.random.default_rng(seed)
        raw = [random_simplex(rng, n, c) for _ in range(m)]
        labels = rng.integers(0, c, size=n)
        expected = oracle_records(list(through_walk(raw)), labels)
        # One row, a size that leaves a short last block (or the whole set), and the whole set.
        # A block holds `rows` rows of every member.
        for rows in (1, n // 3 + 1, n):
            with mock.patch.object(ensdiag.store, "BLOCK_ELEMENTS", rows * c * m):
                records = decompose(as_members(raw), labels)
            assert list(records) == list(FAMILIES)
            for family, want in expected.items():
                rec = records[family]
                for got, col in zip((rec.total, rec.diversity, rec.avg_member), want):
                    assert np.array_equal(got, col), (family, rows)

    def test_families_subset_and_labels(self, rng):
        members = [random_simplex(rng, 9, 3) for _ in range(3)]
        with pytest.raises(ValidationError, match="labels outside"):
            decompose(as_members(members), np.full(9, 3))


def masked_block(held, labels):
    """The block kernel `decompose` ran before its work arrays: every temporary
    a fresh array, and masks where a probability is 0. Kept as the oracle, it
    returns what _decompose_block does."""
    m = len(held)

    # Pass 1: ensemble sum, member score sums, true-class likelihoods.
    quad_sum = brier_sum = 0
    # (M, B) in column-major order, the layout a gather from an (M, B, C)
    # stack has, so the reductions over members below round the same way.
    like = np.empty((held[0].shape[0], m)).T
    ens = form_ensemble(held)
    for k, p in enumerate(held):
        quad_sum = quad_sum + quad_uncertainty(p)
        brier_sum = brier_sum + brier(p, labels)
        like[k] = p[np.arange(p.shape[0]), labels]

    # Pass 2: variance about the ensemble mean, and each member's entropy and
    # KL to it from one log per entry.
    acc = np.zeros_like(ens)
    sq = np.empty_like(ens)
    # 0 log 0 = 0; the ensemble mean is positive wherever any member is.
    log_ens = np.log(np.where(ens > 0.0, ens, 1.0))
    kl = np.zeros(ens.shape[0])
    member_entropy = np.zeros(ens.shape[0])
    for p in held:
        np.subtract(p, ens, out=sq)
        sq *= sq
        acc += sq
        positive = p > 0.0
        terms = np.where(positive, p, 1.0)
        np.log(terms, out=terms)
        # -sum p ln p, which is what `entropy` computes, since ln 1 = 0 where p = 0.
        member_entropy += -(p * terms).sum(axis=1)
        terms -= log_ens
        terms *= p
        terms[~positive] = 0.0
        kl += terms.sum(axis=1)
    acc /= m
    variance = acc.sum(axis=1)

    total = entropy(ens)
    avg = member_entropy / m
    like_c = np.maximum(like, NLL_EPS)
    mean_log = np.log(like_c).mean(axis=0)
    ens_like = like.mean(axis=0)
    families = (
        (quad_uncertainty(ens), variance, quad_sum / m),
        (total, total - avg, avg),
        (brier(ens, labels), variance, brier_sum / m),
        # KL(U || Q) = -ln M + ln sum_i L_i - mean_i ln L_i, over clamped likelihoods.
        (-np.log(np.maximum(ens_like, NLL_EPS)), -np.log(float(m)) + np.log(like_c.sum(axis=0)) - mean_log,
         -mean_log),
    )
    # The identity is exact only where no likelihood hits the clamp floor.
    return families, kl / m, (like > NLL_EPS).all(axis=0) & (ens_like > NLL_EPS)


def awkward_members(rng, m, n, c):
    """m probability blocks over n points with exact zeros, one-hot rows and
    subnormal entries, each row summing to 1 within rounding. In row 0 only
    member 0 is positive in class 0, at 5e-324, so the mean there underflows to 0."""
    members = np.stack([random_simplex(rng, n, c) for _ in range(m)])
    members[rng.random(members.shape) < 0.3] = 0.0
    members[..., 1] += members.sum(axis=2) == 0.0
    members /= members.sum(axis=2, keepdims=True)
    one_hot = rng.random((m, n)) < 0.2
    members[one_hot] = np.eye(c)[rng.integers(0, c, size=int(one_hot.sum()))]
    zeros = np.argwhere(members == 0.0)
    picked = zeros[rng.random(len(zeros)) < 0.3]
    members[tuple(picked.T)] = rng.choice([5e-324, 1e-320, 2.2e-310], size=len(picked))
    members[:, 0, 0] = 0.0
    members[0, 0, 0] = 5e-324
    members[:, 0, 1] += 1.0 - members[:, 0].sum(axis=1)
    return list(members)


class TestKernelMatchesMaskedOracle:
    @given(st.integers(2, 8), st.integers(3, 40), st.integers(2, 12), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_bit_equal_with_sign_of_zero(self, m, n, c, seed):
        rng = np.random.default_rng(seed)
        members = awkward_members(rng, m, n, c)
        labels = rng.integers(0, c, size=n)
        assert form_ensemble(members)[0, 0] == 0.0
        # One row, a size that leaves a short last block, and the whole set.
        for rows in (1, n // 2 + 1, n):
            with mock.patch.object(ensdiag.store, "BLOCK_ELEMENTS", rows * c * (m + 5)):
                for block_rows, stack in member_blocks(as_members(members), spare=5):
                    # Stale values in the work slots must not reach any result.
                    stack[m:] = np.nan
                    # Each family's three columns in FAMILIES order, then kl and unclamped.
                    got, want = ([*(col for triple in out[0] for col in triple), *out[1:]] for out in (
                        _decompose_block(stack, labels[block_rows]), masked_block(stack[:m], labels[block_rows])))
                    assert len(got) == len(want) == 14
                    for k, (g, w) in enumerate(zip(got, want)):
                        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (k, rows)


def _loaded_store(root, n, c, m, seed=0):
    rng = np.random.default_rng(seed)
    members = ((f"m{k:03d}", rng.standard_normal((n, c)) * 2.0) for k in range(m))
    return write_store(root, c, [("ind", rng.integers(0, c, n), members)], [])


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loaded_store_peak_flat_in_member_count(tmp_path):
    # Loading and decomposing 32 stored members peaks no higher than 8 do:
    # a block holds at most BLOCK_ELEMENTS entries across all members, and
    # the (M, rows) likelihood gather is a block's worth of rows too.
    # Held whole, the 24 extra members alone would take 24 member matrices.
    n, c = 2000, 50
    peaks = {}
    for m in (8, 32):
        manifest = _loaded_store(tmp_path / str(m), n, c, m)

        def run():
            store = load_store(manifest)
            decompose(store.member_probs(store.model_ids, "ind"), store.labels["ind"])

        peaks[m] = _traced_peak(run)
    gather = (32 - 8) * n * 8  # the extra (M, rows) true-class likelihoods
    assert peaks[32] - peaks[8] < gather + n * c * 8 / 8


def test_loaded_store_peak_flat_in_point_count(tmp_path):
    # At 200 classes both sizes span several row blocks, so only the O(N)
    # output columns grow with N, never the block-sized work arrays.
    c = 200
    peaks = {}
    for n in (2000, 8000):
        store = load_store(_loaded_store(tmp_path / str(n), n, c, 3))
        members, labels = store.member_probs(store.model_ids, "ind"), store.labels["ind"]
        peaks[n] = _traced_peak(lambda: decompose(members, labels))
    assert peaks[8000] - peaks[2000] < 6000 * 200
    assert peaks[8000] < 1.2 * peaks[2000]
