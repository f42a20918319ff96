"""Prediction storage: probability matrices, ensembles, and on-disk stores.

A store groups per-model predictions over named test sets. Predictions are
handed out as float64 row-stochastic matrices regardless of the on-disk
encoding. A store lives on disk: `load_store` is the one builder of a
PredictionStore and `write_store` the one writer of its files. The layout
is a JSON manifest next to raw binary dumps:

    manifest.json   {"datasets": [...], "models": [...], "pairs": [...]}
    <pred file>     raw little-endian float32, row-major, N x C, no header
    <labels file>   raw little-endian int32, length N

A dataset's "kind" is "logits" or "probs" (the default when absent).
Logit files are mapped through a stable softmax when read; probability
files must already be row-stochastic to within 1e-6 and are renormalized
exactly. Dataset and model ids are non-empty and contain no whitespace and
none of ``/ \\ + , :``, since they become file names, CSV cells, member
specs and pair arguments. The two datasets of a pair differ.

`load_store` checks every file up front, sizes first and then values in
row blocks of at most BLOCK_ELEMENTS entries, and keeps only labels and
each member's file location. A member is read from disk each time it is
used. Every reduction over members walks `member_blocks`, which reads
each member once per row block and holds at most BLOCK_ELEMENTS entries
across all of them, so memory grows with neither the number of points
nor the number of models. Other modules size their buffers from
BLOCK_ELEMENTS too: `conditional.fits_per_sweep` and the bandwidth median's
point cap in `improvement`, whose pairwise-distance blocks are otherwise
its own, of 2**16 entries.
Do not rewrite a store's files while a command reads them: a later read
sees the new bytes, and fails if they no longer pass the load checks.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ValidationError

# Tolerance on the entries and row sums of a float32 probability dump.
INGEST_ROW_ATOL = 1e-6
# Members of each accuracy-binned heterogeneous ensemble.
HET_ENSEMBLE_SIZE = 4
# Characters no dataset or model id may contain, besides whitespace.
_ID_FORBIDDEN = "/\\+,:"
# Entries of one row block of a member matrix: 2**18 float64 is 2 MiB.
BLOCK_ELEMENTS = 1 << 18


def row_blocks(n: int, n_classes: int) -> Iterator[slice]:
    """Slices of rows 0..n-1 in order, each of BLOCK_ELEMENTS // n_classes rows
    (at least one) but the last."""
    step = max(1, BLOCK_ELEMENTS // n_classes)
    for lo in range(0, n, step):
        yield slice(lo, min(n, lo + step))


def member_blocks(members: Sequence) -> Iterator[tuple[slice, list[np.ndarray]]]:
    """Yield ``(rows, [each member's rows])`` over all points, in order.

    Each member is read once per block, and a block holds at most
    BLOCK_ELEMENTS entries across all members (one row, if they alone are
    wider). The list is emptied when the next block is read, so only one
    block is held at a time.
    """
    members = check_members(members)
    n, c = members[0].shape
    for rows in row_blocks(n, c * len(members)):
        block = [member[rows] for member in members]
        yield rows, block
        block.clear()


def _check_id(kind: str, value: str) -> None:
    """Reject an id that cannot name a file, CSV cell, member spec or pair side."""
    if not value or any(ch in _ID_FORBIDDEN or ch.isspace() for ch in value):
        raise ValidationError(
            f"{kind} id {value!r} must be non-empty, with no whitespace and none of {' '.join(_ID_FORBIDDEN)}"
        )


def softmax(buf: np.ndarray) -> np.ndarray:
    """Normalise each row of a float64 buffer in place by a stable softmax and
    return it: subtract the row max, so no entry overflows, exponentiate and
    divide by the row sum."""
    buf -= buf.max(axis=1, keepdims=True)
    np.exp(buf, out=buf)
    buf /= buf.sum(axis=1, keepdims=True)
    return buf


def check_members(members: Sequence) -> list:
    """Members of one shared 2-d shape, each sliceable by rows.

    A StoredMember is kept as it is, to be read when sliced; anything else
    becomes a float64 array.
    """
    out = [m if isinstance(m, StoredMember) else np.asarray(m, dtype=np.float64) for m in members]
    if not out:
        raise ValidationError("an ensemble needs at least one member")
    if len(out[0].shape) != 2 or any(m.shape != out[0].shape for m in out):
        raise ValidationError("members must be 2-d matrices of one shared shape")
    return out


def form_ensemble(members: Sequence) -> np.ndarray:
    """Arithmetic mean of member probability matrices.

    All members must share one shape. The mean of row-stochastic matrices
    is row-stochastic, so no renormalization happens here. Members are
    summed in order into one buffer, which rounds exactly as a mean over
    the first axis of their stack would. Stored members are read one at a
    time.
    """
    members = check_members(members)
    ens = np.array(members[0][:])
    for p in members[1:]:
        ens += p[:]
    ens /= len(members)
    return ens


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
class PredictionStore:
    """Per-model predictions over named datasets, as `load_store` reads them.

    `datasets` maps a dataset id to its read-only labels. Each prediction is
    a StoredMember, which reads it from disk on each access.
    """

    datasets: dict[str, np.ndarray] = field(default_factory=dict, init=False)
    pairs: list[tuple[str, str]] = field(default_factory=list, init=False)
    _predictions: dict[tuple[str, str], StoredMember] = field(default_factory=dict, init=False)
    _model_ids: list[str] = field(default_factory=list, init=False)

    def register_dataset(self, dataset_id: str, labels: np.ndarray, n_classes: int) -> None:
        _check_id("dataset", dataset_id)
        if dataset_id in self.datasets:
            raise ValidationError(f"dataset {dataset_id!r} is declared twice")
        labels = labels.astype(np.int64)
        if labels.min() < 0 or labels.max() >= n_classes:
            raise ValidationError(
                f"dataset {dataset_id!r}: labels outside [0, {n_classes})"
            )
        labels.flags.writeable = False
        self.datasets[dataset_id] = labels

    def add_prediction(self, model_id: str, dataset_id: str, member: StoredMember) -> None:
        """Hold one model's predictions on one dataset, checked by `load_store` and unread."""
        _check_id("model", model_id)
        if (model_id, dataset_id) in self._predictions:
            raise ValidationError(
                f"duplicate prediction for {model_id!r} on {dataset_id!r}"
            )
        self._predictions[(model_id, dataset_id)] = member
        if model_id not in self._model_ids:
            self._model_ids.append(model_id)

    @property
    def model_ids(self) -> list[str]:
        return list(self._model_ids)

    def labels(self, dataset_id: str) -> np.ndarray:
        if dataset_id not in self.datasets:
            raise ValidationError(f"unknown dataset {dataset_id!r}")
        return self.datasets[dataset_id]

    def has_prediction(self, model_id: str, dataset_id: str) -> bool:
        return (model_id, dataset_id) in self._predictions

    def models_on_pair(self, pair: tuple[str, str]) -> list[str]:
        """Models predicted on both datasets of the pair, in `model_ids` order."""
        return [m for m in self._model_ids if all((m, d) in self._predictions for d in pair)]

    def member_probs(self, member_ids: Sequence[str], dataset_id: str) -> list[StoredMember]:
        """The members' predictions on one dataset, unread: each gives float64 rows when sliced."""
        for m in member_ids:
            if (m, dataset_id) not in self._predictions:
                raise ValidationError(f"no prediction for model {m!r} on {dataset_id!r}")
        return [self._predictions[(m, dataset_id)] for m in member_ids]


@dataclass
class BinningReport:
    """Result of accuracy-binned ensemble formation, with skipped bins kept."""

    ensembles: list[EnsembleDef]
    skipped: list[dict]


def form_heterogeneous_ensembles(
    store: PredictionStore,
    pair: tuple[str, str],
    n_bins: int,
    seed: int = 0,
) -> BinningReport:
    """Group the models predicted on both datasets of the pair into
    equal-width accuracy bins on its in-distribution side, and sample one
    ensemble of HET_ENSEMBLE_SIZE distinct models from each bin.

    Bins with fewer models than that are skipped and recorded in the
    report rather than raising. Sampling is without replacement and is
    deterministic for a fixed seed.
    """
    if n_bins < 1:
        raise ValidationError("n_bins must be >= 1")
    model_ids = store.models_on_pair(pair)
    if not model_ids:
        raise ValidationError(f"no models with predictions on both {pair[0]!r} and {pair[1]!r}")
    labels = store.labels(pair[0])
    correct = np.zeros(len(model_ids))
    for rows, block in member_blocks(store.member_probs(model_ids, pair[0])):
        correct += [np.count_nonzero(p.argmax(axis=1) == labels[rows]) for p in block]
    values = correct / len(labels)
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
        if len(in_bin) < HET_ENSEMBLE_SIZE:
            skipped.append(
                {
                    "bin": b,
                    "lo": float(edges[b]),
                    "hi": float(edges[b + 1]),
                    "n_models": len(in_bin),
                    "needed": HET_ENSEMBLE_SIZE,
                }
            )
            continue
        chosen = sorted(rng.choice(in_bin, size=HET_ENSEMBLE_SIZE, replace=False).tolist())
        ensembles.append(EnsembleDef(ensemble_id_for(chosen), tuple(chosen)))
    return BinningReport(ensembles, skipped)


def _check_size(path: Path, dtype: str, shape: tuple[int, ...], name: str) -> None:
    """Reject a missing file, or one whose size does not fit a headerless dump of the shape."""
    try:
        size = path.stat().st_size
    except OSError as exc:
        raise ValidationError(f"{name}: cannot read {path.name}: {exc.strerror}") from exc
    expected = int(np.prod(shape)) * np.dtype(dtype).itemsize
    if size != expected:
        raise ValidationError(
            f"{name}: file {path.name} holds {size} bytes, expected {expected} "
            f"for {' x '.join(map(str, shape))} {np.dtype(dtype).name}"
        )


def _read_labels(path: Path, n: int, name: str) -> np.ndarray:
    _check_size(path, "<i4", (n,), name)
    try:
        return np.fromfile(path, dtype="<i4")
    except OSError as exc:
        raise ValidationError(f"{name}: cannot read {path.name}: {exc.strerror}") from exc


def _check_values(raw: np.ndarray, kind: str, name: str, first_row: int) -> None:
    """Reject non-finite rows and, for probabilities, entries or row sums out of
    tolerance. Rows are numbered from first_row."""
    if not np.isfinite(raw).all():
        row = first_row + int(np.flatnonzero(~np.isfinite(raw).all(axis=1))[0])
        raise ValidationError(f"{name}: non-finite value in row {row}")
    if kind == "logits":
        return
    if (raw < -INGEST_ROW_ATOL).any() or (raw > 1 + INGEST_ROW_ATOL).any():
        raise ValidationError(f"{name}: probabilities outside [0, 1]")
    sums = raw.sum(axis=1)
    bad = np.abs(sums - 1.0) > INGEST_ROW_ATOL
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise ValidationError(
            f"{name}: row {first_row + row} sums to {sums[row]:.8f}, outside 1 +/- {INGEST_ROW_ATOL:g}"
        )


@dataclass(frozen=True)
class StoredMember:
    """One model's predictions on one dataset, read from its file on each access.

    ``member[lo:hi]`` reads rows lo..hi-1 and ``member[:]`` the whole matrix,
    as a read-only float64 row-stochastic array. Logits go through a stable
    softmax; probabilities are clipped at 0 and divided by the clipped row's
    sum. Both work in place on the one float64 buffer, and the result is
    bit-equal whatever rows are read. Nothing is kept between reads.

    The raw values of every read pass `_check_values`, and what they pass
    makes the result row-stochastic to within 1e-9: a finite logit row's
    largest entry maps to 1 before the division, and a probability row
    within INGEST_ROW_ATOL of summing to 1 keeps a clipped sum near 1. So a
    read is not validated again.
    """

    path: Path
    kind: str
    shape: tuple[int, int]
    name: str

    def __getitem__(self, rows: slice) -> np.ndarray:
        if not isinstance(rows, slice) or rows.step not in (None, 1):
            raise TypeError("a stored member is read by a contiguous row slice")
        lo, hi, _ = rows.indices(self.shape[0])
        buf = self._read(lo, max(lo, hi))
        _check_values(buf, self.kind, self.name, lo)
        if self.kind == "logits":
            softmax(buf)
        else:
            np.clip(buf, 0.0, None, out=buf)
            buf /= buf.sum(axis=1, keepdims=True)
        buf.flags.writeable = False
        return buf

    def _read(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo..hi-1 of the file as float64, or an error naming the member."""
        c = self.shape[1]
        count = (hi - lo) * c
        try:
            raw = np.fromfile(self.path, dtype="<f4", count=count, offset=lo * c * 4)
        except OSError as exc:
            raise ValidationError(f"{self.name}: cannot read {self.path.name}: {exc.strerror}") from exc
        if raw.size != count:
            raise ValidationError(
                f"{self.name}: file {self.path.name} ends before row {hi} of {self.shape[0]}; "
                "it changed after the store was loaded"
            )
        return raw.astype(np.float64).reshape(hi - lo, c)

    def check(self) -> None:
        """Check every value as a read would, one row block at a time."""
        for rows in row_blocks(*self.shape):
            _check_values(self._read(rows.start, rows.stop), self.kind, self.name, rows.start)


_TYPE_NAMES = {str: "a string", int: "an integer", dict: "an object", list: "a list"}


def _field(entry: dict, key: str, owner: str, kind: type):
    if key not in entry:
        raise ValidationError(f"{owner}: missing {key!r}")
    value = entry[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValidationError(f"{owner}: {key!r} must be {_TYPE_NAMES[kind]}, got {type(value).__name__}")
    return value


def _entries(manifest: dict, key: str) -> list[dict]:
    entries = _field(manifest, key, "manifest", list)
    if not all(isinstance(e, dict) for e in entries):
        raise ValidationError(f"manifest {key!r} must be a list of objects")
    return entries


def read_json(path: Path, what: str):
    """Parsed contents of a UTF-8 JSON file; a file that cannot be read, decoded or
    parsed is a ValidationError naming `what`."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"{what} is not readable JSON: {exc}") from exc


def write_file(path: Path, data: str | bytes) -> None:
    """Write text or bytes to `path`, making its directory if it is missing; a
    write that fails is a ValidationError naming the path."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(data, bytes):
            path.write_bytes(data)
        else:
            path.write_text(data)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def load_store(manifest_path: str | Path) -> PredictionStore:
    """Load a manifest into a PredictionStore that reads members on access.

    Labels are read and held. Every member file is checked now, all sizes
    first and then all values in row blocks, but only its location is
    kept. Errors name the dataset or model whose file failed validation.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise ValidationError(f"manifest not found: {manifest_path}")
    manifest = read_json(manifest_path, "manifest")
    root = manifest_path.parent

    if not isinstance(manifest, dict):
        raise ValidationError("manifest must be a JSON object")

    store = PredictionStore()
    layouts: dict[str, tuple[str, tuple[int, int]]] = {}
    for i, entry in enumerate(_entries(manifest, "datasets")):
        did = _field(entry, "id", f"dataset entry {i}", str)
        owner = f"dataset {did!r}"
        n, c = _field(entry, "n", owner, int), _field(entry, "c", owner, int)
        kind = entry.get("kind", "probs")
        if kind not in ("logits", "probs"):
            raise ValidationError(f"{owner}: unknown kind {kind!r}")
        if n < 1 or c < 2:
            raise ValidationError(f"{owner}: need n >= 1 and c >= 2")
        labels = _read_labels(root / _field(entry, "labels_file", owner, str), n, owner)
        store.register_dataset(did, labels, c)
        layouts[did] = kind, (n, c)

    members = []
    for i, entry in enumerate(_entries(manifest, "models")):
        mid = _field(entry, "id", f"model entry {i}", str)
        files = _field(entry, "files", f"model {mid!r}", dict)
        for did, rel in files.items():
            if did not in layouts:
                raise ValidationError(f"model {mid!r} references unknown dataset {did!r}")
            member = StoredMember(root / str(rel), *layouts[did], f"{mid}/{did}")
            _check_size(member.path, "<f4", member.shape, member.name)
            store.add_prediction(mid, did, member)
            members.append(member)
    for member in members:
        member.check()

    pairs = manifest.get("pairs", [])
    if not isinstance(pairs, list):
        raise ValidationError("manifest 'pairs' must be a list")
    for pair in pairs:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValidationError(f"pair {pair!r} must be a list [ind, ood]")
        for did in pair:
            if not isinstance(did, str) or did not in store.datasets:
                raise ValidationError(f"pair references unknown dataset {did!r}")
        if pair[0] == pair[1]:
            raise ValidationError(f"pair {pair!r} names dataset {pair[0]!r} on both sides")
        store.pairs.append(tuple(pair))
    return store


def write_store(
    out_dir: str | Path,
    n_classes: int,
    datasets: Iterable[tuple[str, np.ndarray, Iterable[tuple[str, np.ndarray]]]],
    pairs: Iterable[tuple[str, str]],
) -> Path:
    """Write a logit store in manifest format and return the manifest path.

    `datasets` yields ``(dataset id, labels, members)`` and each `members`
    yields ``(model id, logits)``. Every member is written as float32 before
    the next is drawn, so only one member matrix is held at a time.
    """
    out_dir = Path(out_dir)
    entries = []
    files: dict[str, dict[str, str]] = {}
    for did, labels, members in datasets:
        labels_file = f"{did}_labels.i32"
        write_file(out_dir / labels_file, labels.astype("<i4").tobytes())
        entries.append(
            {"id": did, "n": len(labels), "c": n_classes, "labels_file": labels_file, "kind": "logits"}
        )
        for mid, logits in members:
            rel = f"{mid}__{did}.f32"
            write_file(out_dir / rel, logits.astype("<f4").tobytes())
            files.setdefault(mid, {})[did] = rel
    manifest = {
        "datasets": entries,
        "models": [{"id": mid, "files": f} for mid, f in sorted(files.items())],
        "pairs": [list(p) for p in pairs],
    }
    manifest_path = out_dir / "manifest.json"
    write_file(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path
