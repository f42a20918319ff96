"""Ingestion, normalization, and ensemble formation."""

import dataclasses
import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_simplex, read, write_kind_store
from ensdiag.decomposition import decompose
from ensdiag.errors import ValidationError
from ensdiag.store import (
    BLOCK_ELEMENTS,
    EnsembleDef,
    StoredMember,
    enumerate_homogeneous_ensembles,
    form_ensemble,
    form_heterogeneous_ensembles,
    load_store,
    softmax,
    write_store,
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

    def test_member_probs_is_the_stored_list(self, tiny_store):
        members = tiny_store.member_probs(["m2", "m0"], "ind")
        assert isinstance(members, list) and len(members) == 2
        assert members[0] is tiny_store.member_probs(["m2"], "ind")[0]
        assert members[1] is tiny_store.member_probs(["m0"], "ind")[0]

    @pytest.mark.parametrize("members", [[], [np.ones(3) / 3, np.ones(3) / 3]], ids=["empty", "1-d"])
    def test_bad_member_list_rejected(self, members):
        with pytest.raises(ValidationError):
            form_ensemble(members)

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


PAIR = ("ind", "ood")


def _constant_accuracy_datasets(accuracies, n=50):
    """One model per requested accuracy on both datasets, exact by construction."""
    members = {}
    for i, acc in enumerate(accuracies):
        n_right = int(round(acc * n))
        probs = np.zeros((n, 2))
        probs[:n_right, 0] = 1.0
        probs[n_right:, 1] = 1.0
        members[f"m{i:02d}"] = probs
    return {ds: (np.zeros(n, dtype=np.int64), members) for ds in PAIR}


def _constant_accuracy_store(root, accuracies):
    return load_store(write_kind_store(root, "probs", _constant_accuracy_datasets(accuracies), [PAIR]))


class TestHeterogeneousEnsembles:
    def test_identical_accuracy_single_bin(self, tmp_path):
        store = _constant_accuracy_store(tmp_path, [0.8] * 4)
        report = form_heterogeneous_ensembles(store, PAIR, n_bins=3, seed=1)
        assert len(report.ensembles) == 1
        assert len(report.ensembles[0].member_model_ids) == 4

    def test_forced_split(self, tmp_path):
        store = _constant_accuracy_store(tmp_path, [0.2, 0.22, 0.24, 0.26, 0.8, 0.82, 0.84, 0.86])
        report = form_heterogeneous_ensembles(store, PAIR, n_bins=2, seed=0)
        assert len(report.ensembles) == 2
        members = {e.member_model_ids for e in report.ensembles}
        assert ("m00", "m01", "m02", "m03") in members
        assert ("m04", "m05", "m06", "m07") in members

    def test_seed_determinism(self, tmp_path):
        store = _constant_accuracy_store(tmp_path, [0.1 * i for i in range(1, 11)])
        a = form_heterogeneous_ensembles(store, PAIR, n_bins=2, seed=7)
        b = form_heterogeneous_ensembles(store, PAIR, n_bins=2, seed=7)
        assert [e.member_model_ids for e in a.ensembles] == [
            e.member_model_ids for e in b.ensembles
        ]

    def test_small_bin_skipped_with_record(self, tmp_path):
        store = _constant_accuracy_store(tmp_path, [0.2, 0.22, 0.24, 0.26, 0.9])
        report = form_heterogeneous_ensembles(store, PAIR, n_bins=2, seed=0)
        assert len(report.ensembles) == 1
        assert len(report.skipped) == 1

    def test_model_missing_on_ood_is_not_binned(self, tmp_path):
        datasets = _constant_accuracy_datasets([0.8] * 4)
        labels, members = datasets["ind"]
        datasets["ind"] = labels, {**members, "solo": np.tile([1.0, 0.0], (50, 1))}
        store = load_store(write_kind_store(tmp_path, "probs", datasets, [PAIR]))
        assert store.models_on_pair(PAIR) == ["m00", "m01", "m02", "m03"]
        for seed in range(8):
            report = form_heterogeneous_ensembles(store, PAIR, n_bins=1, seed=seed)
            assert report.ensembles[0].member_model_ids == ("m00", "m01", "m02", "m03")


class TestEnsembleDef:
    def test_duplicate_members_rejected(self):
        with pytest.raises(ValidationError):
            EnsembleDef("x", ("a", "a"))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            EnsembleDef("x", ())


def _edited(path, change):
    """Rewrite the manifest at `path` after `change` has edited its parsed JSON in place."""
    manifest = json.loads(path.read_text())
    change(manifest)
    path.write_text(json.dumps(manifest))


class TestStoreValidation:
    @pytest.fixture
    def manifest(self, tmp_path, rng):
        """A store of one three-point dataset "d" and one model "m"."""
        return write_kind_store(tmp_path, "probs", {"d": (np.zeros(3), {"m": random_simplex(rng, 3, 2)})})

    def test_duplicate_prediction_rejected(self, manifest):
        _edited(manifest, lambda m: m["models"].append(m["models"][0]))
        with pytest.raises(ValidationError, match="duplicate prediction for 'm' on 'd'"):
            load_store(manifest)

    def test_duplicate_dataset_rejected(self, manifest):
        _edited(manifest, lambda m: m["datasets"].append(m["datasets"][0]))
        with pytest.raises(ValidationError, match="dataset 'd' is declared twice"):
            load_store(manifest)

    def test_unregistered_dataset_rejected(self, manifest):
        _edited(manifest, lambda m: m["models"][0]["files"].update(nope="m__d.f32"))
        with pytest.raises(ValidationError, match="model 'm' references unknown dataset 'nope'"):
            load_store(manifest)

    def test_label_out_of_range_rejected(self, tmp_path, rng):
        manifest = write_kind_store(tmp_path, "probs", {"d": (np.array([0, 2]), {"m": random_simplex(rng, 2, 2)})})
        with pytest.raises(ValidationError, match=r"dataset 'd': labels outside \[0, 2\)"):
            load_store(manifest)

    def test_row_count_mismatch_rejected(self, manifest, rng):
        (manifest.parent / "m__d.f32").write_bytes(random_simplex(rng, 4, 2).astype("<f4").tobytes())
        with pytest.raises(ValidationError, match="m/d: file m__d.f32 holds 32 bytes, expected 24"):
            load_store(manifest)

    @pytest.mark.parametrize("bad", ["", "a/b", "a\\b", "a+b", "a,b", "a:b", "a b", "a\tb"])
    def test_unsafe_ids_rejected(self, manifest, bad):
        original = manifest.read_text()
        _edited(manifest, lambda m: m["datasets"][0].update(id=bad))
        with pytest.raises(ValidationError, match="dataset id"):
            load_store(manifest)
        manifest.write_text(original)
        _edited(manifest, lambda m: m["models"][0].update(id=bad))
        with pytest.raises(ValidationError, match="model id"):
            load_store(manifest)

    def test_arrays_read_only(self, tiny_store):
        probs = read(tiny_store, "m0", "ind")
        with pytest.raises(ValueError):
            probs[0, 0] = 0.5


class TestRoundTrip:
    def test_dyadic_probs_survive_exactly(self, tmp_path):
        # float32 holds dyadic values exactly and their rows sum to 1 exactly
        probs = np.array([[0.75, 0.25], [0.5, 0.5]])
        (tmp_path / "m__d.f32").write_bytes(probs.astype("<f4").tobytes())
        (tmp_path / "d_labels.i32").write_bytes(np.zeros(2, dtype="<i4").tobytes())
        manifest = {
            "datasets": [
                {"id": "d", "n": 2, "c": 2, "labels_file": "d_labels.i32", "kind": "probs"}
            ],
            "models": [{"id": "m", "files": {"d": "m__d.f32"}}],
            "pairs": [],
        }
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        np.testing.assert_array_equal(read(load_store(tmp_path / "manifest.json"), "m", "d"), probs)

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
            read(loaded, "m", "d"), softmax(logits.astype(np.float64)), atol=1e-7
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
        np.testing.assert_allclose(read(loaded, "m", "d").sum(axis=1), 1.0, atol=1e-12)

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


def eager_ingest(raw: np.ndarray, kind: str, name: str = "m/d") -> np.ndarray:
    """The whole-file ingestion `load_store` once ran on every member at load,
    kept as the oracle for reads on access."""
    if not np.isfinite(raw).all():
        row = int(np.flatnonzero(~np.isfinite(raw).all(axis=1))[0])
        raise ValidationError(f"{name}: non-finite value in row {row}")
    if kind == "logits":
        return softmax(raw)
    if (raw < -1e-6).any() or (raw > 1 + 1e-6).any():
        raise ValidationError(f"{name}: probabilities outside [0, 1]")
    sums = raw.sum(axis=1)
    bad = np.abs(sums - 1.0) > 1e-6
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise ValidationError(f"{name}: row {row} sums to {sums[row]:.8f}, outside 1 +/- 1e-06")
    clipped = np.clip(raw, 0.0, None)
    return clipped / clipped.sum(axis=1, keepdims=True)


def one_dataset(members, labels):
    """A dataset "d" holding the member matrices as models m0, m1, ..., for write_kind_store."""
    return {"d": (labels, {f"m{k}": values for k, values in enumerate(members)})}


def validate_probs(probs):
    """Assert that a read is a row-stochastic float64 matrix to within 1e-9."""
    assert probs.dtype == np.float64 and probs.ndim == 2
    assert np.isfinite(probs).all()
    assert (probs >= 0).all() and (probs <= 1 + 1e-9).all()
    assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9


FLOAT32 = st.floats(allow_nan=False, allow_infinity=False, width=32)


@st.composite
def stored_block(draw):
    """A kind and an (n, c) float32-representable block that may or may not pass the load
    checks: logits anywhere in the float32 range, or simplex rows with entries and row sums
    pushed up to about 1e-6 past exact."""
    kind = draw(st.sampled_from(["logits", "probs"]))
    n, c = draw(st.integers(1, 5)), draw(st.integers(2, 6))
    if kind == "logits":
        return kind, np.array(draw(st.lists(FLOAT32, min_size=n * c, max_size=n * c))).reshape(n, c)
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n * c, max_size=n * c))).reshape(n, c)
    weights[:, 0] += 1e-300  # no all-zero row
    noise = np.array(draw(st.lists(st.floats(-1.2e-6, 1.2e-6), min_size=n * c, max_size=n * c))).reshape(n, c)
    return kind, weights / weights.sum(axis=1, keepdims=True) + noise / draw(st.sampled_from([1, c]))


@given(block=stored_block())
@settings(max_examples=300, deadline=None)
def test_every_accepted_block_reads_as_valid_probs(block):
    # Reads are not validated, because what `_check_values` accepts always passes validate_probs.
    kind, raw = block
    n = raw.shape[0]
    with tempfile.TemporaryDirectory() as root:
        try:
            store = load_store(write_kind_store(root, kind, one_dataset([raw], np.zeros(n, dtype=np.int64))))
        except ValidationError:
            return
        member = store.member_probs(["m0"], "d")[0]
        for rows in (slice(None), slice(0, 1), slice(n // 2, n)):
            validate_probs(member[rows])


class TestReadOnAccess:
    @pytest.mark.parametrize("kind", ["logits", "probs"])
    def test_reads_bit_equal_to_eager_ingest(self, tmp_path, rng, kind):
        n, c = 203, 7
        if kind == "logits":
            raw = [rng.standard_normal((n, c)) * 4.0 for _ in range(3)]
        else:
            # float32 rounding leaves row sums within 1e-6 of 1, so rows are renormalized.
            raw = [random_simplex(rng, n, c) for _ in range(3)]
        store = load_store(write_kind_store(tmp_path, kind, one_dataset(raw, rng.integers(0, c, n))))
        for k, values in enumerate(raw):
            expected = eager_ingest(values.astype("<f4").astype(np.float64), kind)
            member = store.member_probs([f"m{k}"], "d")[0]
            assert np.array_equal(read(store, f"m{k}", "d"), expected)
            assert np.array_equal(member[:], expected)
            for lo, hi in [(0, 1), (5, 64), (199, 203), (0, n)]:
                assert np.array_equal(member[lo:hi], expected[lo:hi])

    def test_tiny_negative_probabilities_are_renormalized_after_clipping(self, tmp_path, rng):
        # Entries down to -1e-6 load; reads clip them to 0 and divide by the clipped row's sum.
        raw = [random_simplex(rng, 40, 3) for _ in range(2)]
        raw[1][0] = [-5e-7, 0.5, 0.5000005]
        store = load_store(write_kind_store(tmp_path, "probs", one_dataset(raw, rng.integers(0, 3, 40))))
        probs = read(store, "m1", "d")
        assert probs[0, 0] == 0.0
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12
        records = decompose(store.member_probs(store.model_ids, "d"), store.labels("d"))
        assert all(np.abs(rec.residual()).max() <= 1e-10 for rec in records.values())

    def test_zoo_member_bit_equal_to_eager_ingest(self, tmp_path, rng):
        n, c = 1500, 100
        logits = rng.standard_normal((n, c)) * 3.0
        manifest = write_store(tmp_path, c, [("ind", rng.integers(0, c, n), [("m000", logits)])], [])
        raw = np.fromfile(tmp_path / "m000__ind.f32", dtype="<f4").astype(np.float64).reshape(n, c)
        assert np.array_equal(read(load_store(manifest), "m000", "ind"), eager_ingest(raw, "logits"))

    def test_store_holds_labels_only(self, tmp_path, rng):
        datasets = [(d, rng.integers(0, 5, 40), [(f"m{k}", rng.standard_normal((40, 5))) for k in range(4)])
                    for d in ("ind", "ood")]
        store = load_store(write_store(tmp_path, 5, datasets, [("ind", "ood")]))

        def arrays(obj):
            """Every array reachable from obj through containers and dataclass fields."""
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, dict):
                yield from arrays(list(obj.items()))
            elif isinstance(obj, (list, tuple)):
                for value in obj:
                    yield from arrays(value)
            elif dataclasses.is_dataclass(obj):
                yield from arrays(list(vars(obj).values()))

        held = list(arrays(store))
        assert len(held) == 2 and all(a.dtype.kind == "i" and a.ndim == 1 for a in held)
        assert all(isinstance(store.member_probs([m], d)[0], StoredMember)
                   for m in store.model_ids for d in ("ind", "ood"))

    def test_reads_are_read_only_and_not_kept(self, tmp_path, rng):
        store = load_store(write_kind_store(tmp_path, "logits", one_dataset([rng.standard_normal((10, 3))] * 2,
                                                                            rng.integers(0, 3, 10))))
        first, second = read(store, "m0", "d"), read(store, "m0", "d")
        assert first is not second and np.array_equal(first, second)
        with pytest.raises(ValueError):
            first[0, 0] = 0.5

    def test_late_block_errors_name_member_and_row(self, tmp_path, rng):
        c = 64
        n = 2 * (BLOCK_ELEMENTS // c) + 10
        logits = [rng.standard_normal((n, c)) for _ in range(2)]
        logits[1][n - 3, 5] = np.nan
        with pytest.raises(ValidationError, match=rf"^m1/d: non-finite value in row {n - 3}$"):
            load_store(write_kind_store(tmp_path, "logits", one_dataset(logits, rng.integers(0, c, n))))

    def test_changed_file_fails_on_read(self, tmp_path, rng):
        path = write_kind_store(tmp_path, "logits", one_dataset([rng.standard_normal((30, 4))] * 2,
                                                                rng.integers(0, 4, 30)))
        store = load_store(path)
        member = tmp_path / "m1__d.f32"
        member.write_bytes(member.read_bytes()[:-4])
        with pytest.raises(ValidationError, match="m1/d: file m1__d.f32 ends before row 30 of 30"):
            read(store, "m1", "d")
        member.unlink()
        with pytest.raises(ValidationError, match="m1/d: cannot read m1__d.f32"):
            store.member_probs(["m1"], "d")[0][:10]
