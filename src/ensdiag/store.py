"""Prediction storage: probability matrices, ensembles, and on-disk stores.

A store groups per-model predictions over named test sets. Predictions are
held as float64 row-stochastic matrices regardless of the on-disk encoding.
The disk layout is a JSON manifest next to raw binary dumps:

    manifest.json   {"datasets": [...], "models": [...], "pairs": [...]}
    <pred file>     raw little-endian float32, row-major, N x C, no header
    <labels file>   raw little-endian int32, length N

Files declared with kind "logits" are mapped through a stable softmax at
load time; files declared with kind "probs" must already be row-stochastic
to within 1e-6 and are renormalized exactly.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError

# Tolerance a held ProbMatrix must satisfy at all times.
ROW_SUM_ATOL = 1e-9
# Looser tolerance applied when ingesting float32 probability dumps.
INGEST_ROW_ATOL = 1e-6


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax.

    Subtracts the row max before exponentiation so large logits cannot
    overflow. Rejects non-finite input, naming the first offending row.
    """
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"expected a 2-d logit matrix, got shape {arr.shape}")
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        row = int(np.flatnonzero(~finite)[0])
        raise ValidationError(f"non-finite logit in row {row}")
    shifted = arr - arr.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


def validate_probs(probs: np.ndarray, *, atol: float = ROW_SUM_ATOL, name: str = "probs") -> np.ndarray:
    """Check that an array is a row-stochastic float64 matrix."""
    arr = np.asarray(probs, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"{name}: expected 2-d matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name}: non-finite entries")
    if (arr < 0).any() or (arr > 1 + atol).any():
        raise ValidationError(f"{name}: entries outside [0, 1]")
    sums = arr.sum(axis=1)
    bad = np.abs(sums - 1.0) > atol
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise ValidationError(
            f"{name}: row {row} sums to {sums[row]:.9f}, outside 1 +/- {atol:g}"
        )
    return arr


def stack_members(members: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Member probability matrices as one (M, N, C) float64 array.

    A 3-d array is taken as an existing stack and is not copied.
    """
    if isinstance(members, np.ndarray) and members.ndim == 3:
        return members.astype(np.float64, copy=False)
    if len(members) == 0:
        raise ValidationError("an ensemble needs at least one member")
    arrays = [np.asarray(m, dtype=np.float64) for m in members]
    if len({a.shape for a in arrays}) != 1 or arrays[0].ndim != 2:
        raise ValidationError("members must be 2-d matrices of one shared shape")
    return np.stack(arrays)


def form_ensemble(members: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Arithmetic mean of member probability matrices.

    All members must share one shape. The mean of row-stochastic matrices
    is row-stochastic, so no renormalization happens here.
    """
    return stack_members(members).mean(axis=0)


@dataclass(frozen=True)
class EnsembleDef:
    """Named ensemble: an id plus the ordered tuple of member model ids."""

    ensemble_id: str
    member_model_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.member_model_ids) == 0:
            raise ValidationError(f"ensemble {self.ensemble_id!r} has no members")
        if len(set(self.member_model_ids)) != len(self.member_model_ids):
            raise ValidationError(f"ensemble {self.ensemble_id!r} repeats a member")


def ensemble_id_for(member_ids: Iterable[str]) -> str:
    return "+".join(member_ids)


def enumerate_homogeneous_ensembles(model_ids: Sequence[str], size: int) -> list[EnsembleDef]:
    """All k-subsets of the given models, in lexicographic member order."""
    ids = sorted(model_ids)
    if len(set(ids)) != len(ids):
        raise ValidationError("model ids must be unique")
    if not 1 <= size <= len(ids):
        raise ValidationError(f"subset size {size} out of range for {len(ids)} models")
    return [
        EnsembleDef(ensemble_id_for(combo), tuple(combo))
        for combo in itertools.combinations(ids, size)
    ]


@dataclass
class DatasetInfo:
    """Labels and class count for one test set."""

    dataset_id: str
    labels: np.ndarray
    n_classes: int

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])


@dataclass
class PredictionStore:
    """In-memory collection of per-model predictions over named datasets."""

    datasets: dict[str, DatasetInfo] = field(default_factory=dict)
    pairs: list[tuple[str, str]] = field(default_factory=list)
    _predictions: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)
    _model_ids: list[str] = field(default_factory=list)

    def register_dataset(self, dataset_id: str, labels: np.ndarray, n_classes: int) -> None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ValidationError(f"dataset {dataset_id!r}: labels must be 1-d")
        if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
            raise ValidationError(
                f"dataset {dataset_id!r}: labels outside [0, {n_classes})"
            )
        labels.flags.writeable = False
        self.datasets[dataset_id] = DatasetInfo(dataset_id, labels, n_classes)

    def add_prediction(self, model_id: str, dataset_id: str, probs: np.ndarray) -> None:
        if dataset_id not in self.datasets:
            raise ValidationError(f"unknown dataset {dataset_id!r}")
        if (model_id, dataset_id) in self._predictions:
            raise ValidationError(
                f"duplicate prediction for {model_id!r} on {dataset_id!r}"
            )
        info = self.datasets[dataset_id]
        arr = validate_probs(probs, name=f"{model_id}/{dataset_id}")
        if arr.shape != (info.n, info.n_classes):
            raise ValidationError(
                f"{model_id}/{dataset_id}: shape {arr.shape} does not match "
                f"dataset ({info.n}, {info.n_classes})"
            )
        arr.flags.writeable = False
        self._predictions[(model_id, dataset_id)] = arr
        if model_id not in self._model_ids:
            self._model_ids.append(model_id)

    @property
    def model_ids(self) -> list[str]:
        return list(self._model_ids)

    def labels(self, dataset_id: str) -> np.ndarray:
        if dataset_id not in self.datasets:
            raise ValidationError(f"unknown dataset {dataset_id!r}")
        return self.datasets[dataset_id].labels

    def probs(self, model_id: str, dataset_id: str) -> np.ndarray:
        key = (model_id, dataset_id)
        if key not in self._predictions:
            raise ValidationError(f"no prediction for model {model_id!r} on {dataset_id!r}")
        return self._predictions[key]

    def has_prediction(self, model_id: str, dataset_id: str) -> bool:
        return (model_id, dataset_id) in self._predictions

    def models_on(self, dataset_id: str) -> list[str]:
        return [m for m in self._model_ids if (m, dataset_id) in self._predictions]

    def member_probs(self, member_ids: Sequence[str], dataset_id: str) -> np.ndarray:
        """The members' predictions on one dataset as an (M, N, C) stack."""
        return stack_members([self.probs(m, dataset_id) for m in member_ids])

    def ensemble_probs(self, member_ids: Sequence[str], dataset_id: str) -> np.ndarray:
        return form_ensemble(self.member_probs(member_ids, dataset_id))


@dataclass
class BinningReport:
    """Result of accuracy-binned ensemble formation, with skipped bins kept."""

    ensembles: list[EnsembleDef]
    skipped: list[dict]
    bin_edges: np.ndarray
    accuracy_by_model: dict[str, float]


def form_heterogeneous_ensembles(
    store: PredictionStore,
    ind_dataset: str,
    n_bins: int,
    members_per_ensemble: int = 4,
    seed: int = 0,
) -> BinningReport:
    """Group models into equal-width in-distribution accuracy bins and sample
    one ensemble of `members_per_ensemble` distinct models from each bin.

    Bins with fewer models than requested are skipped and recorded in the
    report rather than raising. Sampling is without replacement and is
    deterministic for a fixed seed.
    """
    if n_bins < 1:
        raise ValidationError("n_bins must be >= 1")
    model_ids = store.models_on(ind_dataset)
    if not model_ids:
        raise ValidationError(f"no models with predictions on {ind_dataset!r}")
    labels = store.labels(ind_dataset)
    accs = {}
    for m in model_ids:
        pred = store.probs(m, ind_dataset).argmax(axis=1)
        accs[m] = float((pred == labels).mean())

    values = np.array([accs[m] for m in model_ids])
    lo, hi = float(values.min()), float(values.max())
    edges = np.linspace(lo, hi, n_bins + 1)
    width = hi - lo
    if width == 0.0:
        idx = np.zeros(len(model_ids), dtype=np.int64)
    else:
        idx = np.clip(((values - lo) / width * n_bins).astype(np.int64), 0, n_bins - 1)

    rng = np.random.default_rng(seed)
    ensembles: list[EnsembleDef] = []
    skipped: list[dict] = []
    for b in range(n_bins):
        in_bin = sorted(m for m, i in zip(model_ids, idx) if i == b)
        if not in_bin:
            continue
        if len(in_bin) < members_per_ensemble:
            skipped.append(
                {
                    "bin": b,
                    "lo": float(edges[b]),
                    "hi": float(edges[b + 1]),
                    "n_models": len(in_bin),
                    "needed": members_per_ensemble,
                }
            )
            continue
        chosen = sorted(rng.choice(in_bin, size=members_per_ensemble, replace=False).tolist())
        ensembles.append(EnsembleDef(ensemble_id_for(chosen), tuple(chosen)))
    return BinningReport(ensembles, skipped, edges, accs)


def _read_raw(path: Path, dtype: str, shape: tuple[int, ...], name: str) -> np.ndarray:
    """A headerless little-endian dump of the given shape, read-only."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ValidationError(f"{name}: cannot read {path.name}: {exc.strerror}") from exc
    expected = int(np.prod(shape)) * np.dtype(dtype).itemsize
    if len(data) != expected:
        raise ValidationError(
            f"{name}: file {path.name} holds {len(data)} bytes, expected {expected} "
            f"for {' x '.join(map(str, shape))} {np.dtype(dtype).name}"
        )
    return np.frombuffer(data, dtype=dtype).reshape(shape)


def _field(entry: dict, key: str, owner: str):
    if key not in entry:
        raise ValidationError(f"{owner}: missing {key!r}")
    return entry[key]


def _entries(manifest: dict, key: str) -> list[dict]:
    entries = _field(manifest, key, "manifest")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValidationError(f"manifest {key!r} must be a list of objects")
    return entries


def _ingest_probs(raw: np.ndarray, name: str) -> np.ndarray:
    if not np.isfinite(raw).all():
        row = int(np.flatnonzero(~np.isfinite(raw).all(axis=1))[0])
        raise ValidationError(f"{name}: non-finite probability in row {row}")
    if (raw < -INGEST_ROW_ATOL).any() or (raw > 1 + INGEST_ROW_ATOL).any():
        raise ValidationError(f"{name}: probabilities outside [0, 1]")
    sums = raw.sum(axis=1)
    bad = np.abs(sums - 1.0) > INGEST_ROW_ATOL
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise ValidationError(
            f"{name}: row {row} sums to {sums[row]:.8f}, outside 1 +/- {INGEST_ROW_ATOL:g}"
        )
    return np.clip(raw, 0.0, None) / sums[:, None]


def load_store(manifest_path: str | Path) -> PredictionStore:
    """Load a manifest and all files it references into a PredictionStore.

    Loaded arrays are marked read-only. Errors name the dataset or model
    whose file failed validation.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise ValidationError(f"manifest not found: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"manifest is not valid JSON: {exc}") from exc
    root = manifest_path.parent

    if not isinstance(manifest, dict):
        raise ValidationError("manifest must be a JSON object")

    store = PredictionStore()
    kinds: dict[str, str] = {}
    for i, entry in enumerate(_entries(manifest, "datasets")):
        did = str(_field(entry, "id", f"dataset entry {i}"))
        owner = f"dataset {did!r}"
        try:
            n, c = int(_field(entry, "n", owner)), int(_field(entry, "c", owner))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{owner}: 'n' and 'c' must be integers") from exc
        kind = entry.get("kind", "probs")
        if kind not in ("logits", "probs"):
            raise ValidationError(f"{owner}: unknown kind {kind!r}")
        if n < 1 or c < 2:
            raise ValidationError(f"{owner}: need n >= 1 and c >= 2")
        labels = _read_raw(root / str(_field(entry, "labels_file", owner)), "<i4", (n,), owner)
        store.register_dataset(did, labels, c)
        kinds[did] = kind

    for i, entry in enumerate(_entries(manifest, "models")):
        mid = str(_field(entry, "id", f"model entry {i}"))
        files = _field(entry, "files", f"model {mid!r}")
        if not isinstance(files, dict):
            raise ValidationError(f"model {mid!r}: 'files' must map dataset ids to file names")
        for did, rel in files.items():
            if did not in store.datasets:
                raise ValidationError(f"model {mid!r} references unknown dataset {did!r}")
            info = store.datasets[did]
            name = f"{mid}/{did}"
            raw = _read_raw(root / str(rel), "<f4", (info.n, info.n_classes), name).astype(np.float64)
            probs = softmax(raw) if kinds[did] == "logits" else _ingest_probs(raw, name)
            store.add_prediction(mid, did, probs)

    pairs = manifest.get("pairs", [])
    if not isinstance(pairs, list):
        raise ValidationError("manifest 'pairs' must be a list")
    for pair in pairs:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValidationError(f"pair {pair!r} must be a list [ind, ood]")
        for did in pair:
            if not isinstance(did, str) or did not in store.datasets:
                raise ValidationError(f"pair references unknown dataset {did!r}")
        store.pairs.append(tuple(pair))
    return store


def save_store(store: PredictionStore, out_dir: str | Path) -> Path:
    """Write a store back to disk in manifest format (probability encoding).

    Returns the manifest path. Predictions are cast to float32; values that
    are exactly representable round-trip bit for bit.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    datasets = []
    for did, info in sorted(store.datasets.items()):
        labels_file = f"{did}_labels.i32"
        (out_dir / labels_file).write_bytes(info.labels.astype("<i4").tobytes())
        datasets.append(
            {"id": did, "n": info.n, "c": info.n_classes, "labels_file": labels_file, "kind": "probs"}
        )
    models = []
    for mid in store.model_ids:
        files = {}
        for did in sorted(store.datasets):
            if not store.has_prediction(mid, did):
                continue
            rel = f"{mid}__{did}.f32"
            (out_dir / rel).write_bytes(store.probs(mid, did).astype("<f4").tobytes())
            files[did] = rel
        models.append({"id": mid, "files": files})
    manifest = {
        "datasets": datasets,
        "models": models,
        "pairs": [list(p) for p in store.pairs],
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path
