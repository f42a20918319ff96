"""Ingestion, normalization, and ensemble formation."""

import dataclasses
import json
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ensdiag.store
from conftest import random_simplex, read, read_rows, write_kind_store
from ensdiag.decomposition import decompose
from ensdiag.errors import ValidationError
from ensdiag.store import (
    BLOCK_ELEMENTS,
    StoredMember,
    form_ensemble,
    load_store,
    member_blocks,
    row_blocks,
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

    def test_member_probs_is_the_stored_list(self, tiny_store):
        members = tiny_store.member_probs(["m2", "m0"], "ind")
        assert isinstance(members, list) and len(members) == 2
        assert members[0] is tiny_store.member_probs(["m2"], "ind")[0]
        assert members[1] is tiny_store.member_probs(["m0"], "ind")[0]

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

    # An id with a NUL byte once passed, and ended decompose in a traceback when it named an output file.
    @pytest.mark.parametrize("bad", ["", "a/b", "a\\b", "a+b", "a,b", "a:b", "a b", "a\tb", "a\0b", "a\x07b"])
    def test_unsafe_ids_rejected(self, manifest, bad):
        original = manifest.read_text()
        _edited(manifest, lambda m: m["datasets"][0].update(id=bad))
        with pytest.raises(ValidationError, match="dataset id"):
            load_store(manifest)
        manifest.write_text(original)
        _edited(manifest, lambda m: m["models"][0].update(id=bad))
        with pytest.raises(ValidationError, match="model id"):
            load_store(manifest)

    def test_id_of_model_without_files_rejected(self, manifest):
        _edited(manifest, lambda m: m["models"].append({"id": "bad id/x", "files": {}}))
        with pytest.raises(ValidationError, match="model id 'bad id/x'"):
            load_store(manifest)

    def test_loaded_store_is_frozen(self, tiny_store):
        for name in ("labels", "members", "model_ids", "pairs"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(tiny_store, name, getattr(tiny_store, name))

    def test_arrays_read_only(self, tiny_store):
        # Labels are the only arrays a store holds; member values are read per walk.
        with pytest.raises(ValueError):
            tiny_store.labels["ind"][0] = 1


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
        store = load_store(tmp_path / "manifest.json")
        with pytest.raises(ValidationError, match=r"^m/d: row 0 sums to 1\.1\d*, outside 1 \+/- 1e-06$"):
            read(store, "m", "d")

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
    """A kind and an (n, c) float32-representable block that may or may not pass the read
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
    # Reads are not validated again, because what the walk's ingest accepts always passes validate_probs.
    kind, raw = block
    n = raw.shape[0]
    with tempfile.TemporaryDirectory() as root:
        store = load_store(write_kind_store(root, kind, one_dataset([raw], np.zeros(n, dtype=np.int64))))
        member = store.member_probs(["m0"], "d")[0]
        try:
            reads = [read_rows(member, lo, hi) for lo, hi in ((0, n), (0, 1), (n // 2, n))]
        except ValidationError:
            return
    for probs in reads:
        validate_probs(probs)


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
            for lo, hi in [(0, 1), (5, 64), (199, 203), (0, n)]:
                assert np.array_equal(read_rows(member, lo, hi), expected[lo:hi])

    def test_tiny_negative_probabilities_are_renormalized_after_clipping(self, tmp_path, rng):
        # Entries down to -1e-6 load; reads clip them to 0 and divide by the clipped row's sum.
        raw = [random_simplex(rng, 40, 3) for _ in range(2)]
        raw[1][0] = [-5e-7, 0.5, 0.5000005]
        store = load_store(write_kind_store(tmp_path, "probs", one_dataset(raw, rng.integers(0, 3, 40))))
        probs = read(store, "m1", "d")
        assert probs[0, 0] == 0.0
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12
        records = decompose(store.member_probs(store.model_ids, "d"), store.labels["d"])
        assert all(np.abs(rec.residual()).max() <= 1e-10 for rec in records.values())

    def test_zoo_member_bit_equal_to_eager_ingest(self, tmp_path, rng):
        n, c = 1500, 100
        logits = rng.standard_normal((n, c)) * 3.0
        manifest = write_store(tmp_path, c, [("ind", rng.integers(0, c, n), [("m000", logits)])], [])
        raw = np.fromfile(tmp_path / "m000__ind.f32", dtype="<f4").astype(np.float64).reshape(n, c)
        assert np.array_equal(read(load_store(manifest), "m000", "ind"), eager_ingest(raw, "logits"))

    def test_members_are_written_as_their_float32_cast(self, tmp_path, rng):
        # float64, float32 and a Fortran-ordered float64 member: each file holds
        # the member's row-major float32 bytes, the last one's too.
        wide = rng.standard_normal((9, 4)) * 40.0
        narrow = rng.standard_normal((9, 4)).astype(np.float32)
        members = [("a", wide), ("b", narrow), ("c", np.asfortranarray(wide))]
        write_store(tmp_path, 4, [("ind", rng.integers(0, 4, 9), members)], [])
        assert (tmp_path / "a__ind.f32").read_bytes() == wide.astype("<f4").tobytes()
        assert (tmp_path / "b__ind.f32").read_bytes() == narrow.tobytes()
        assert (tmp_path / "c__ind.f32").read_bytes() == wide.astype("<f4").tobytes()

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

    def test_blocks_are_contiguous_stacks_of_one_walk_buffer(self, tmp_path, rng):
        n, c = 23, 4
        logits = [rng.standard_normal((n, c)) for _ in range(3)]
        store = load_store(write_kind_store(tmp_path, "logits", one_dataset(logits, rng.integers(0, c, n))))
        whole = [read(store, f"m{k}", "d") for k in range(3)]
        bases, spans = set(), []
        with mock.patch.object(ensdiag.store, "BLOCK_ELEMENTS", 5 * c * 3):  # blocks of 5 rows, the last of 3
            for rows, stack in member_blocks(store.member_probs(["m0", "m1", "m2"], "d"), spare=2):
                spans.append(rows.stop - rows.start)
                # Reshaped from the flat buffer per block: no view of the short last block copies.
                assert stack.shape == (5, spans[-1], c) and stack.flags.c_contiguous
                for k in range(3):
                    assert np.array_equal(stack[k], whole[k][rows])
                # The spare slots are the caller's; what it writes there reaches no member slot.
                stack[3:] = np.nan
                bases.add(id(stack.base))
                if rows.start == 0:
                    first = stack
                else:
                    # The next block's read overwrote the first block's stack.
                    assert np.shares_memory(first, stack)
        assert spans == [5, 5, 5, 5, 3]
        assert len(bases) == 1
        assert not np.array_equal(first[0], whole[0][:5])

    def test_late_block_errors_name_member_and_row(self, tmp_path, rng):
        c = 64
        n = 2 * (BLOCK_ELEMENTS // c) + 10
        logits = [rng.standard_normal((n, c)) for _ in range(2)]
        logits[1][n - 3, 5] = np.nan
        store = load_store(write_kind_store(tmp_path, "logits", one_dataset(logits, rng.integers(0, c, n))))
        with pytest.raises(ValidationError, match=rf"^m1/d: non-finite value in row {n - 3}$"):
            for _ in member_blocks(store.member_probs(["m0", "m1"], "d")):
                pass

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
            read_rows(store.member_probs(["m1"], "d")[0], 0, 10)


class TestIngestOncePerBlock:
    @pytest.mark.parametrize("m", [3, 24])
    def test_one_softmax_per_walk_block(self, tmp_path, rng, m):
        # The M member slots of a block are checked and normalised as one array,
        # so a walk makes one softmax call per block whatever the member count.
        n, c = 1000, 64
        members = [(f"m{k:03d}", rng.standard_normal((n, c))) for k in range(m)]
        store = load_store(write_store(tmp_path, c, [("ind", rng.integers(0, c, n), members)], []))
        with mock.patch.object(ensdiag.store, "softmax", wraps=softmax) as counted:
            decompose(store.member_probs(store.model_ids, "ind"), store.labels["ind"])
        assert counted.call_count == len(list(row_blocks(n, c * max(m, 5)))) > 1

    def test_members_of_two_kinds_are_one_error(self, tmp_path, rng):
        labels = rng.integers(0, 3, 10)
        mixed = [load_store(write_kind_store(tmp_path / kind, kind, one_dataset([values], labels))).members["m0", "d"]
                 for kind, values in (("logits", rng.standard_normal((10, 3))), ("probs", random_simplex(rng, 10, 3)))]
        with pytest.raises(ValidationError, match="^a walk's members share one kind, not logits and probs$"):
            next(member_blocks(mixed))
