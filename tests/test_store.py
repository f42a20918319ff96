"""Ingestion, normalization, and ensemble formation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_store, random_simplex
from ensdiag.errors import ValidationError
from ensdiag.store import (
    EnsembleDef,
    PredictionStore,
    enumerate_homogeneous_ensembles,
    form_ensemble,
    form_heterogeneous_ensembles,
    load_store,
    save_store,
    softmax,
    stack_members,
)


class TestSoftmax:
    def test_symmetric_row(self):
        out = softmax(np.array([[0.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_reference_row(self):
        out = softmax(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(
            out, [[0.09003057, 0.24472847, 0.66524096]], atol=1e-5
        )

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_shift_invariance(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((5, 7)) * 3.0
        shifted = logits + rng.standard_normal((5, 1)) * 10.0
        assert np.abs(softmax(logits) - softmax(shifted)).max() < 1e-12

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_rows_stochastic(self, seed):
        rng = np.random.default_rng(seed)
        out = softmax(rng.standard_normal((8, 4)) * 5.0)
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    def test_nonfinite_names_row(self):
        bad = np.array([[0.0, 1.0], [np.inf, 0.0], [1.0, 2.0]])
        with pytest.raises(ValidationError, match="row 1"):
            softmax(bad)


class TestFormEnsemble:
    def test_identical_members(self, rng):
        p = random_simplex(rng, 10, 4)
        np.testing.assert_array_equal(form_ensemble([p, p]), p)
        np.testing.assert_allclose(form_ensemble([p, p, p]), p, rtol=0, atol=1e-15)

    def test_two_one_hot(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        np.testing.assert_allclose(form_ensemble([a, b]), [[0.5, 0.5]])

    def test_hand_mean(self):
        a = np.array([[0.7, 0.3]])
        b = np.array([[0.1, 0.9]])
        np.testing.assert_allclose(form_ensemble([a, b]), [[0.4, 0.6]])

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            form_ensemble([np.ones((2, 3)) / 3, np.ones((2, 4)) / 4])

    def test_member_probs_is_one_stack(self, tiny_store):
        stack = tiny_store.member_probs(["m2", "m0"], "ind")
        assert stack.shape == (2, 60, 5)
        np.testing.assert_array_equal(stack[0], tiny_store.probs("m2", "ind"))
        assert stack_members(stack) is stack
        np.testing.assert_array_equal(
            tiny_store.ensemble_probs(["m2", "m0"], "ind"), form_ensemble(stack)
        )

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_row_sums_and_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        members = [random_simplex(rng, 6, 5) for _ in range(4)]
        ens = form_ensemble(members)
        np.testing.assert_allclose(ens.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(
            ens, form_ensemble(members[::-1]), rtol=0, atol=1e-15
        )


class TestEnumerateEnsembles:
    def test_five_choose_four(self):
        defs = enumerate_homogeneous_ensembles(["a", "b", "c", "d", "e"], 4)
        assert len(defs) == 5
        ids = [d.ensemble_id for d in defs]
        assert ids == sorted(ids)

    def test_all_members(self):
        defs = enumerate_homogeneous_ensembles(["a", "b", "c"], 3)
        assert len(defs) == 1
        assert defs[0].member_model_ids == ("a", "b", "c")

    def test_six_choose_four(self):
        assert len(enumerate_homogeneous_ensembles(list("abcdef"), 4)) == 15

    def test_oversized_k(self):
        with pytest.raises(ValidationError):
            enumerate_homogeneous_ensembles(["a", "b"], 3)

    @given(st.integers(2, 7), st.integers(2, 4))
    @settings(max_examples=20, deadline=None)
    def test_count_is_binomial(self, n, k):
        if k > n:
            return
        import math

        ids = [f"m{i}" for i in range(n)]
        defs = enumerate_homogeneous_ensembles(ids, k)
        assert len(defs) == math.comb(n, k)
        assert len({d.ensemble_id for d in defs}) == len(defs)


def _constant_accuracy_store(accuracies, n=50):
    """One model per requested accuracy, exact by construction."""
    c = 2
    store = PredictionStore()
    labels = np.zeros(n, dtype=np.int64)
    store.register_dataset("ind", labels, c)
    for i, acc in enumerate(accuracies):
        n_right = int(round(acc * n))
        probs = np.zeros((n, c))
        probs[:n_right, 0] = 1.0
        probs[n_right:, 1] = 1.0
        store.add_prediction(f"m{i:02d}", "ind", probs)
    return store


class TestHeterogeneousEnsembles:
    def test_identical_accuracy_single_bin(self):
        store = _constant_accuracy_store([0.8] * 4)
        report = form_heterogeneous_ensembles(store, "ind", n_bins=3, seed=1)
        assert len(report.ensembles) == 1
        assert len(report.ensembles[0].member_model_ids) == 4

    def test_forced_split(self):
        store = _constant_accuracy_store([0.2, 0.22, 0.24, 0.26, 0.8, 0.82, 0.84, 0.86])
        report = form_heterogeneous_ensembles(store, "ind", n_bins=2, seed=0)
        assert len(report.ensembles) == 2
        members = {e.member_model_ids for e in report.ensembles}
        assert ("m00", "m01", "m02", "m03") in members
        assert ("m04", "m05", "m06", "m07") in members

    def test_seed_determinism(self):
        store = _constant_accuracy_store([0.1 * i for i in range(1, 11)])
        a = form_heterogeneous_ensembles(store, "ind", n_bins=2, seed=7)
        b = form_heterogeneous_ensembles(store, "ind", n_bins=2, seed=7)
        assert [e.member_model_ids for e in a.ensembles] == [
            e.member_model_ids for e in b.ensembles
        ]

    def test_small_bin_skipped_with_record(self):
        store = _constant_accuracy_store([0.2, 0.22, 0.24, 0.26, 0.9])
        report = form_heterogeneous_ensembles(store, "ind", n_bins=2, seed=0)
        assert len(report.ensembles) == 1
        assert len(report.skipped) == 1


class TestEnsembleDef:
    def test_duplicate_members_rejected(self):
        with pytest.raises(ValidationError):
            EnsembleDef("x", ("a", "a"))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            EnsembleDef("x", ())


class TestStoreValidation:
    def test_duplicate_prediction_rejected(self, rng):
        store = PredictionStore()
        store.register_dataset("d", np.zeros(3, dtype=np.int64), 2)
        p = random_simplex(rng, 3, 2)
        store.add_prediction("m", "d", p)
        with pytest.raises(ValidationError):
            store.add_prediction("m", "d", p)

    def test_unregistered_dataset_rejected(self, rng):
        store = PredictionStore()
        with pytest.raises(ValidationError):
            store.add_prediction("m", "nope", random_simplex(rng, 3, 2))

    def test_label_out_of_range_rejected(self):
        store = PredictionStore()
        with pytest.raises(ValidationError):
            store.register_dataset("d", np.array([0, 2]), 2)

    def test_row_count_mismatch_rejected(self, rng):
        store = PredictionStore()
        store.register_dataset("d", np.zeros(3, dtype=np.int64), 2)
        with pytest.raises(ValidationError):
            store.add_prediction("m", "d", random_simplex(rng, 4, 2))

    def test_arrays_read_only(self, tiny_store):
        probs = tiny_store.probs("m0", "ind")
        with pytest.raises(ValueError):
            probs[0, 0] = 0.5


class TestRoundTrip:
    def test_save_load_within_storage_precision(self, rng, tmp_path):
        # files hold float32, and ingestion renormalizes rows, so a general
        # float64 store survives only up to float32 quantization
        store = build_store(rng, n=20, c=3)
        manifest = save_store(store, tmp_path)
        loaded = load_store(manifest)
        for mid in store.model_ids:
            for ds in ("ind", "ood"):
                np.testing.assert_allclose(
                    loaded.probs(mid, ds), store.probs(mid, ds), atol=5e-7
                )
        assert loaded.pairs == store.pairs
        assert sorted(loaded.model_ids) == sorted(store.model_ids)

    def test_dyadic_probs_survive_exactly(self, tmp_path):
        store = PredictionStore()
        store.register_dataset("d", np.zeros(2, dtype=np.int64), 2)
        probs = np.array([[0.75, 0.25], [0.5, 0.5]])
        store.add_prediction("m", "d", probs)
        manifest = save_store(store, tmp_path)
        np.testing.assert_array_equal(load_store(manifest).probs("m", "d"), probs)

    def test_logits_kind_softmaxed(self, tmp_path):
        logits = np.array([[0.0, 0.0], [1.0, 3.0]], dtype="<f4")
        (tmp_path / "m__d.f32").write_bytes(logits.tobytes())
        (tmp_path / "d_labels.i32").write_bytes(
            np.zeros(2, dtype="<i4").tobytes()
        )
        manifest = {
            "datasets": [
                {"id": "d", "n": 2, "c": 2, "labels_file": "d_labels.i32", "kind": "logits"}
            ],
            "models": [{"id": "m", "files": {"d": "m__d.f32"}}],
            "pairs": [],
        }
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        loaded = load_store(tmp_path / "manifest.json")
        np.testing.assert_allclose(
            loaded.probs("m", "d"), softmax(logits.astype(np.float64)), atol=1e-7
        )

    def test_labels_length_mismatch_names_dataset(self, tmp_path):
        (tmp_path / "m__d.f32").write_bytes(np.zeros((2, 2), dtype="<f4").tobytes())
        (tmp_path / "d_labels.i32").write_bytes(np.zeros(3, dtype="<i4").tobytes())
        manifest = {
            "datasets": [
                {"id": "d", "n": 2, "c": 2, "labels_file": "d_labels.i32", "kind": "logits"}
            ],
            "models": [{"id": "m", "files": {"d": "m__d.f32"}}],
            "pairs": [],
        }
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match="d"):
            load_store(tmp_path / "manifest.json")

    def test_probs_nearly_stochastic_renormalized(self, tmp_path):
        probs = np.array([[0.6, 0.4 + 2e-7]], dtype="<f4")
        (tmp_path / "m__d.f32").write_bytes(probs.tobytes())
        (tmp_path / "d_labels.i32").write_bytes(np.zeros(1, dtype="<i4").tobytes())
        manifest = {
            "datasets": [
                {"id": "d", "n": 1, "c": 2, "labels_file": "d_labels.i32", "kind": "probs"}
            ],
            "models": [{"id": "m", "files": {"d": "m__d.f32"}}],
            "pairs": [],
        }
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        loaded = load_store(tmp_path / "manifest.json")
        np.testing.assert_allclose(loaded.probs("m", "d").sum(axis=1), 1.0, atol=1e-12)

    def test_probs_far_from_stochastic_rejected(self, tmp_path):
        probs = np.array([[0.6, 0.5]], dtype="<f4")
        (tmp_path / "m__d.f32").write_bytes(probs.tobytes())
        (tmp_path / "d_labels.i32").write_bytes(np.zeros(1, dtype="<i4").tobytes())
        manifest = {
            "datasets": [
                {"id": "d", "n": 1, "c": 2, "labels_file": "d_labels.i32", "kind": "probs"}
            ],
            "models": [{"id": "m", "files": {"d": "m__d.f32"}}],
            "pairs": [],
        }
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValidationError):
            load_store(tmp_path / "manifest.json")

    def test_byte_count_mismatch_rejected(self, tmp_path):
        (tmp_path / "m__d.f32").write_bytes(np.zeros(3, dtype="<f4").tobytes())
        (tmp_path / "d_labels.i32").write_bytes(np.zeros(2, dtype="<i4").tobytes())
        manifest = {
            "datasets": [
                {"id": "d", "n": 2, "c": 2, "labels_file": "d_labels.i32", "kind": "probs"}
            ],
            "models": [{"id": "m", "files": {"d": "m__d.f32"}}],
            "pairs": [],
        }
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValidationError):
            load_store(tmp_path / "manifest.json")
