"""Synthetic store generator: validation, determinism, and disk layout."""

import json
import tracemalloc

import numpy as np
import pytest

from conftest import read
from ensdiag.decomposition import decompose
from ensdiag.errors import ValidationError
from ensdiag.simulate import SyntheticSpec, _generate, write_synthetic_store
from ensdiag.store import load_store, softmax

SMALL = SyntheticSpec(n_points=40, n_classes=3, n_models=3, seed=5)


def simulated(spec, root):
    """The store `simulate` writes for a spec, as the CLI loads it."""
    return load_store(write_synthetic_store(spec, root))


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_points": 0},
            {"n_classes": 1},
            {"n_models": 0},
            {"member_noise_scale": -0.1},
            {"shift_strength": -1.0},
            {"n_ood": 0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValidationError):
            SyntheticSpec(**kwargs)

    def test_defaults_valid(self):
        spec = SyntheticSpec()
        assert spec.n_points == 1000
        assert spec.n_classes == 10

    def test_ood_size_defaults_to_n_points(self, tmp_path):
        assert SyntheticSpec(n_points=70).n_ood == 70
        store = simulated(SyntheticSpec(n_points=30, n_ood=12, n_classes=3, n_models=2), tmp_path / "a")
        assert (len(store.labels["ind"]), len(store.labels["ood"])) == (30, 12)
        same = simulated(SyntheticSpec(n_points=30, n_classes=3, n_models=2), tmp_path / "b")
        explicit = simulated(SyntheticSpec(n_points=30, n_ood=30, n_classes=3, n_models=2), tmp_path / "c")
        for d in ("ind", "ood"):
            assert np.array_equal(same.labels[d], explicit.labels[d])
            assert np.array_equal(read(same, "m001", d), read(explicit, "m001", d))


class TestSimulateStore:
    def test_structure(self, tmp_path):
        store = simulated(SMALL, tmp_path)
        assert sorted(store.labels) == ["ind", "ood"]
        assert store.model_ids == ["m000", "m001", "m002"]
        assert store.pairs == [("ind", "ood")]

    def test_rows_are_distributions(self, tmp_path):
        store = simulated(SMALL, tmp_path)
        for mid in store.model_ids:
            for ds in ("ind", "ood"):
                probs = read(store, mid, ds)
                assert probs.shape == (40, 3)
                np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
                assert probs.min() >= 0.0

    def test_labels_in_range(self, tmp_path):
        store = simulated(SMALL, tmp_path)
        for ds in ("ind", "ood"):
            labels = store.labels[ds]
            assert labels.shape == (40,)
            assert labels.min() >= 0
            assert labels.max() < 3

    def test_deterministic(self, tmp_path):
        a = simulated(SMALL, tmp_path / "a")
        b = simulated(SyntheticSpec(n_points=40, n_classes=3, n_models=3, seed=5), tmp_path / "b")
        for mid in a.model_ids:
            np.testing.assert_array_equal(read(a, mid, "ind"), read(b, mid, "ind"))
        np.testing.assert_array_equal(a.labels["ood"], b.labels["ood"])

    def test_seed_changes_output(self, tmp_path):
        a = simulated(SMALL, tmp_path / "a")
        b = simulated(SyntheticSpec(n_points=40, n_classes=3, n_models=3, seed=6), tmp_path / "b")
        assert not np.array_equal(read(a, "m000", "ind"), read(b, "m000", "ind"))

    def test_zero_noise_collapses_members(self, tmp_path):
        spec = SyntheticSpec(n_points=30, n_classes=4, n_models=3, member_noise_scale=0.0)
        store = simulated(spec, tmp_path)
        base = read(store, "m000", "ind")
        for mid in ("m001", "m002"):
            np.testing.assert_array_equal(read(store, mid, "ind"), base)
        # (p + p + p) / 3 leaves ~1e-34 of rounding residue, so not exactly 0.
        members = store.member_probs(store.model_ids, "ind")
        div = decompose(members, store.labels["ind"])["quadratic"].diversity
        assert np.abs(div).max() < 1e-30


class TestWriteSyntheticStore:
    def test_byte_identical_across_runs(self, tmp_path):
        p1 = write_synthetic_store(SMALL, tmp_path / "a")
        p2 = write_synthetic_store(SMALL, tmp_path / "b")
        files1 = sorted(f.name for f in p1.parent.iterdir())
        files2 = sorted(f.name for f in p2.parent.iterdir())
        assert files1 == files2
        for name in files1:
            assert (p1.parent / name).read_bytes() == (p2.parent / name).read_bytes()

    def test_manifest_layout(self, tmp_path):
        path = write_synthetic_store(SMALL, tmp_path)
        manifest = json.loads(path.read_text())
        assert {d["id"] for d in manifest["datasets"]} == {"ind", "ood"}
        assert all(d["kind"] == "logits" for d in manifest["datasets"])
        assert [m["id"] for m in manifest["models"]] == ["m000", "m001", "m002"]
        assert manifest["pairs"] == [["ind", "ood"]]
        for entry in manifest["models"]:
            assert set(entry["files"]) == {"ind", "ood"}

    def test_files_sized_for_f32_logits(self, tmp_path):
        path = write_synthetic_store(SMALL, tmp_path)
        member = path.parent / "m000__ind.f32"
        assert member.stat().st_size == 40 * 3 * 4
        labels = path.parent / "ind_labels.i32"
        assert labels.stat().st_size == 40 * 4

    def test_round_trips_through_loader(self, tmp_path):
        path = write_synthetic_store(SMALL, tmp_path)
        loaded = load_store(path)
        generated = {did: (labels, dict(members)) for did, labels, members in _generate(SMALL)}
        np.testing.assert_array_equal(loaded.labels["ind"], generated["ind"][0])
        # Files hold float32 logits, so probabilities agree with the float64 ones to f32 resolution.
        np.testing.assert_allclose(
            read(loaded, "m001", "ood"), softmax(generated["ood"][1]["m001"]), atol=5e-7
        )
        assert loaded.pairs == [("ind", "ood")]

    def test_peak_memory_flat_in_models(self, tmp_path):
        # Members are built and written one at a time, so the peak does not
        # grow with the number of models.
        member_bytes = 2000 * 50 * 8
        peaks = {}
        for k in (4, 16):
            spec = SyntheticSpec(n_points=2000, n_classes=50, n_models=k, seed=3)
            tracemalloc.start()
            try:
                write_synthetic_store(spec, tmp_path / str(k))
                peaks[k] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[16] - peaks[4] < 2 * member_bytes
