"""Shared helpers: random simplex draws and small stores written to disk."""

import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

import ensdiag.store
from ensdiag.decomposition import decompose
from ensdiag.simulate import SyntheticSpec, write_synthetic_store
from ensdiag.store import PredictionStore, load_store, member_blocks


# `pytest --hypothesis-profile=ci` draws the same examples on every run and keeps
# no example database, so a failure in CI replays anywhere.
settings.register_profile("ci", derandomize=True, database=None)


def random_simplex(rng, n, c):
    """n rows drawn uniformly from the (c-1)-simplex."""
    return rng.dirichlet(np.ones(c), size=n)


def member_stack(rng, m, n, c):
    """m member probability matrices over the same n points."""
    return np.stack([random_simplex(rng, n, c) for _ in range(m)])


class ArrayMember:
    """A stand-in for store.StoredMember that holds its raw (N, C) values in memory.

    Like a StoredMember it has a `shape`, a `kind` and a `name`, and `read(rows)`
    returns raw rows unchanged, so store.member_blocks checks and normalises them
    as it does a stored member's.
    """

    def __init__(self, values, kind="probs", name="array"):
        self.values = np.asarray(values, dtype=np.float64)
        self.shape, self.kind, self.name = self.values.shape, kind, name

    def read(self, rows: slice) -> np.ndarray:
        return self.values[rows]


def as_members(matrices) -> list[ArrayMember]:
    """Each (N, C) probability matrix of a list or an (M, N, C) stack, as an ArrayMember."""
    return [ArrayMember(p) for p in matrices]


def read_rows(member, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of a member, as store.member_blocks reads them in a walk
    whose first block holds rows 0..hi-1."""
    with mock.patch.object(ensdiag.store, "BLOCK_ELEMENTS", hi * member.shape[1]):
        _, stack = next(member_blocks([member]))
    return stack[0, lo:hi].copy()


def through_walk(matrices) -> np.ndarray:
    """The (M, N, C) stack of probability matrices as store.member_blocks hands them
    to an analysis: clipped at 0 and divided by their row sums."""
    return np.stack([read_rows(m, 0, m.shape[0]) for m in as_members(matrices)])


def read(store: PredictionStore, model_id: str, dataset_id: str) -> np.ndarray:
    """One model's whole (N, C) predictions on one dataset, as a float64 array."""
    member = store.member_probs([model_id], dataset_id)[0]
    return read_rows(member, 0, member.shape[0])


def entropy(probs):
    """Shannon entropy per row, in nats, with 0 ln 0 = 0: the reference for
    the entropy family of decomposition.decompose."""
    probs = np.asarray(probs, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(probs > 0.0, probs * np.log(probs), 0.0)
    return -terms.sum(axis=1)


def calibration_bins(probs, labels, n_bins):
    """Per-bin count, confidence sum and correct-prediction sum of one matrix,
    binned by max-probability confidence: the reference for metrics.score_sums.
    Bins of disjoint sets of points add."""
    probs = np.asarray(probs, dtype=np.float64)
    conf = probs.max(axis=1)
    correct = (probs.argmax(axis=1) == labels).astype(np.float64)
    idx = np.clip(np.ceil(conf * n_bins).astype(np.int64), 1, n_bins) - 1
    return np.array([np.bincount(idx, minlength=n_bins), np.bincount(idx, weights=conf, minlength=n_bins),
                     np.bincount(idx, weights=correct, minlength=n_bins)])


def ece_resce(bins):
    """{"ece", "resce"} of calibration_bins output."""
    counts, conf, correct = bins
    held = np.maximum(counts, 1)
    gaps = correct / held - conf / held
    weights = counts / counts.sum()
    return {"ece": float(np.sum(weights * np.abs(gaps))), "resce": float(np.sqrt(np.sum(weights * gaps**2)))}


def write_kind_store(root, kind, datasets, pairs=()):
    """Write a store whose datasets are all of one kind and return its manifest path.

    `datasets` maps a dataset id to ``(labels, {model id: matrix})``. Each matrix
    is written as float32, so a "probs" one must stay row-stochastic to within
    1e-6 once rounded; a dyadic one round-trips exactly.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    entries, files = [], {}
    for did, (labels, members) in datasets.items():
        n, c = next(iter(members.values())).shape
        (root / f"{did}_labels.i32").write_bytes(np.asarray(labels).astype("<i4").tobytes())
        entries.append({"id": did, "n": n, "c": c, "labels_file": f"{did}_labels.i32", "kind": kind})
        for mid, values in members.items():
            (root / f"{mid}__{did}.f32").write_bytes(np.asarray(values).astype("<f4").tobytes())
            files.setdefault(mid, {})[did] = f"{mid}__{did}.f32"
    manifest = {"datasets": entries, "models": [{"id": mid, "files": f} for mid, f in files.items()],
                "pairs": [list(p) for p in pairs]}
    (root / "manifest.json").write_text(json.dumps(manifest))
    return root / "manifest.json"


def random_datasets(rng, datasets=("ind", "ood"), models=("m0", "m1", "m2", "m3"), n=60, c=5):
    """Random labels and simplex members for each dataset, as write_kind_store takes them."""
    out = {}
    for ds in datasets:
        labels = rng.integers(0, c, size=n)
        out[ds] = labels, {mid: random_simplex(rng, n, c) for mid in models}
    return out


def build_store(rng, root, datasets=("ind", "ood"), **shape):
    """A store of random probabilities written under `root` and loaded; the first
    two datasets, if there are two, form its pair."""
    pairs = [tuple(datasets[:2])] if len(datasets) >= 2 else []
    return load_store(write_kind_store(root, "probs", random_datasets(rng, datasets, **shape), pairs))


def joint_sample(members, labels, family="quadratic"):
    """The (avg, diversity) sample that `conditional` takes from one family's decompose record."""
    rec = decompose(members, labels)[family]
    return rec.avg_member, rec.diversity


def split_samples(seed: int) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """InD and OOD joint samples of a shift-free 500-point simulated store."""
    spec = SyntheticSpec(
        n_points=500, n_classes=2, n_models=4,
        member_noise_scale=0.25, shift_strength=0.0, seed=seed,
    )
    with tempfile.TemporaryDirectory() as root:
        store = load_store(write_synthetic_store(spec, root))
        ids = sorted(store.model_ids)
        return tuple(joint_sample(store.member_probs(ids, d), store.labels[d]) for d in ("ind", "ood"))


# Populated by tests/test_acceptance.py; one line per criterion so the
# pass/fail table shows up in the terminal summary of a plain pytest run.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def tiny_store(rng, tmp_path):
    return build_store(rng, tmp_path / "tiny")
