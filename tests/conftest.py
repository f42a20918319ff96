"""Shared helpers: random simplex draws and small hand-built stores."""

import numpy as np
import pytest

from ensdiag.conditional import JointSample, joint_samples
from ensdiag.simulate import SyntheticSpec, simulate_store
from ensdiag.store import PredictionStore


def random_simplex(rng, n, c):
    """n rows drawn uniformly from the (c-1)-simplex."""
    return rng.dirichlet(np.ones(c), size=n)


def member_stack(rng, m, n, c):
    """m member probability matrices over the same n points."""
    return np.stack([random_simplex(rng, n, c) for _ in range(m)])


def read(store: PredictionStore, model_id: str, dataset_id: str) -> np.ndarray:
    """One model's whole (N, C) predictions on one dataset, as a float64 array."""
    return store.member_probs([model_id], dataset_id)[0][:]


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


def build_store(rng, datasets=("ind", "ood"), models=("m0", "m1", "m2", "m3"),
                n=60, c=5):
    store = PredictionStore()
    for ds in datasets:
        labels = rng.integers(0, c, size=n)
        store.register_dataset(ds, labels, c)
        for mid in models:
            store.add_prediction(mid, ds, random_simplex(rng, n, c))
    if len(datasets) >= 2:
        store.pairs.append((datasets[0], datasets[1]))
    return store


def split_samples(seed: int) -> tuple[JointSample, JointSample]:
    """InD and OOD joint samples of a shift-free 500-point simulated store."""
    spec = SyntheticSpec(
        n_points=500, n_classes=2, n_models=4,
        member_noise_scale=0.25, shift_strength=0.0, seed=seed,
    )
    store = simulate_store(spec)
    ids = sorted(store.model_ids)
    si = joint_samples(store.member_probs(ids, "ind"), source="ind")
    so = joint_samples(store.member_probs(ids, "ood"), source="ood")
    return si, so


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
def tiny_store(rng):
    return build_store(rng)
