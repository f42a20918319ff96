"""The on-disk prediction store, its row-block walks, and ensemble averaging.

A store groups per-model predictions over named test sets. Predictions are
handed out as float64 row-stochastic matrices regardless of the on-disk
encoding. A store lives on disk: `write_store` is the one writer of its
files, and `load_store` the one builder of a PredictionStore, a frozen
record of four fields (labels, members, model_ids, pairs) that is only
read once loaded. The layout is a JSON manifest next to raw binary dumps:

    manifest.json   {"datasets": [...], "models": [...], "pairs": [...]}
    <pred file>     raw little-endian float32, row-major, N x C, no header
    <labels file>   raw little-endian int32, length N

A dataset's "kind" is "logits" or "probs" (the default when absent). Logit
files are mapped through a stable softmax when read; probability files
must already be row-stochastic to within 1e-6 and are renormalized
exactly. Dataset and model ids are non-empty and printable and contain no
whitespace and none of ``/ \\ + , :``, since they become file names, CSV
cells, member specs and pair arguments. A pair is two different declared
datasets, the one rule `check_pair` applies to manifest pairs and
`--pair`. An ensemble is a tuple of at least one model, none twice, each
predicted on both datasets of the pair, the one rule
`PredictionStore.check_ensemble` applies to every member spec and
ensemble. Since no id holds a ``+``, an ensemble's id, its member ids
joined by ``+``, names it; `form_ensemble` averages it, and `trends`
decides which ensembles are scored.

`load_store` checks every id, file size and label, reads the labels, and
keeps only each member's file location, as a StoredMember. File names
resolve against the manifest's directory; absolute and ``..`` paths are
followed as given. Member values reach an analysis only through
`member_blocks`, which reads each member's raw rows once per row block
and checks and normalises all M member slots of the block at once, so a
walk's members share one kind. A block is one (M + spare, rows, C)
array, a view of one walk buffer overwritten by the next block: the M
members' rows, then spare slots the analysis works in, each side at most
BLOCK_ELEMENTS entries. A command reads only its own members, and memory
grows with neither the number of points nor of models.
`conditional.fits_per_sweep` and the bandwidth median's point cap in
`improvement` size their buffers from BLOCK_ELEMENTS too; improvement's
pairwise distances have their own DISTANCE_BLOCK_ELEMENTS. Do not
rewrite a store's files while a command reads them: a later read sees
the new bytes, and fails if they are short or bad.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Container, Iterable, Iterator, Sequence

import numpy as np

from .errors import ValidationError

# Tolerance on the entries and row sums of a float32 probability dump.
INGEST_ROW_ATOL = 1e-6
# Characters no dataset or model id may contain, besides whitespace and unprintable ones.
_ID_FORBIDDEN = "/\\+,:"
# Entries of one row block of a member matrix: 2**18 float64 is 2 MiB.
BLOCK_ELEMENTS = 1 << 18


def row_blocks(n: int, n_classes: int) -> Iterator[slice]:
    """Slices of rows 0..n-1 in order, each of BLOCK_ELEMENTS // n_classes rows
    (at least one) but the last."""
    step = max(1, BLOCK_ELEMENTS // n_classes)
    for lo in range(0, n, step):
        yield slice(lo, min(n, lo + step))


def member_blocks(members: Sequence[StoredMember], spare: int = 0) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield ``(rows, stack)`` over all points, in order.

    The members share one (N, C) shape and one kind. `stack` is a C-contiguous
    float64 (M + spare, rows, C) array: slot k < M holds member k's rows, read
    once per block and made row-stochastic by one `_ingest` of all M slots, and
    the `spare` slots after them are the caller's work space.
    The M member slots of a block hold at most BLOCK_ELEMENTS entries, and
    the spare slots at most as many (one row, if a row alone is wider).
    Every block is a view of one flat buffer allocated once per walk,
    overwritten when the next block is read: copy what must outlive its
    block, and write no member slot.
    """
    n, c = members[0].shape
    if len(kinds := {m.kind for m in members}) > 1:
        raise ValidationError(f"a walk's members share one kind, not {' and '.join(sorted(kinds))}")
    slots = len(members) + spare
    for rows in row_blocks(n, c * max(len(members), spare)):
        if rows.start == 0:
            buf = np.empty(slots * rows.stop * c)
        # Reshaped per block, so the short last block is contiguous too.
        stack = buf[:slots * (rows.stop - rows.start) * c].reshape(slots, -1, c)
        for member, out in zip(members, stack):
            out[...] = member.read(rows)
        _ingest(stack[:len(members)].reshape(-1, c), members, rows)
        yield rows, stack


def _ingest(block: np.ndarray, members: Sequence[StoredMember], rows: slice) -> None:
    """Check the raw values of a block's member slots, a (M * rows, C) view, and make each
    row stochastic in place: logits by a stable softmax, probabilities clipped at 0 and
    divided by the clipped row's sum. A non-finite value, and for probabilities an entry
    or row sum more than INGEST_ROW_ATOL out, is an error naming the first bad member and
    row. What passes is row-stochastic to within 1e-9, bit-equal whatever rows are read."""
    size = rows.stop - rows.start

    def first(bad: np.ndarray) -> tuple[str, int]:
        i = int(np.flatnonzero(bad)[0])
        return members[i // size].name, rows.start + i % size

    if not np.isfinite(block).all():
        name, row = first(~np.isfinite(block).all(axis=1))
        raise ValidationError(f"{name}: non-finite value in row {row}")
    if members[0].kind == "logits":
        softmax(block)
        return
    if (block < -INGEST_ROW_ATOL).any() or (block > 1 + INGEST_ROW_ATOL).any():
        outside = ((block < -INGEST_ROW_ATOL) | (block > 1 + INGEST_ROW_ATOL)).any(axis=1)
        raise ValidationError(f"{first(outside)[0]}: probabilities outside [0, 1]")
    sums = block.sum(axis=1)
    bad = np.abs(sums - 1.0) > INGEST_ROW_ATOL
    if bad.any():
        name, row = first(bad)
        raise ValidationError(f"{name}: row {row} sums to {sums[bad][0]:.8f}, outside 1 +/- {INGEST_ROW_ATOL:g}")
    np.clip(block, 0.0, None, out=block)
    block /= block.sum(axis=1, keepdims=True)


def _check_id(kind: str, value: str) -> None:
    """Reject an id that cannot name a file, CSV cell, member spec or pair side."""
    if not value or any(ch in _ID_FORBIDDEN or ch.isspace() or not ch.isprintable() for ch in value):
        raise ValidationError(
            f"{kind} id {value!r} must be non-empty and printable, with no whitespace and none of "
            f"{' '.join(_ID_FORBIDDEN)}"
        )


def softmax(buf: np.ndarray) -> np.ndarray:
    """Normalise each row of a float64 buffer in place by a stable softmax and
    return it: subtract the row max, so no entry overflows, exponentiate and
    divide by the row sum."""
    buf -= buf.max(axis=1, keepdims=True)
    np.exp(buf, out=buf)
    buf /= buf.sum(axis=1, keepdims=True)
    return buf


def draw_labels(logits: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One class per row of float64 logits, drawn by the row's uniform in `u`: the
    number of classes whose cumulative softmax probability is below it. Rows go a
    row block at a time, so no (N, C) probability matrix is held."""
    labels = np.empty(logits.shape[0], dtype=np.int64)
    for rows in row_blocks(*logits.shape):
        cum = softmax(logits[rows].copy()).cumsum(axis=1)
        labels[rows] = (u[rows, None] > cum).sum(axis=1)
    return labels


def form_ensemble(members: Sequence[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
    """Arithmetic mean of member probability blocks of one shape, in `out` if given.

    The mean of row-stochastic matrices is row-stochastic, so no
    renormalization happens here. Members are summed in order into one
    buffer, which rounds exactly as a mean over the first axis of their
    stack would.
    """
    ens = np.empty(members[0].shape) if out is None else out
    ens[...] = members[0]
    for p in members[1:]:
        ens += p
    ens /= len(members)
    return ens


@dataclass(frozen=True)
class PredictionStore:
    """Per-model predictions over named datasets: the record `load_store` fills.

    `labels` maps a dataset id to its read-only int64 labels, `members` a
    (model id, dataset id) key to its StoredMember, which `member_blocks`
    reads from disk on each walk. `model_ids` lists each model with a
    prediction once, in manifest order, and `pairs` the (InD, OOD) pairs.
    """

    labels: dict[str, np.ndarray]
    members: dict[tuple[str, str], StoredMember]
    model_ids: list[str]
    pairs: list[tuple[str, str]]

    def models_on_pair(self, pair: tuple[str, str]) -> list[str]:
        """Models predicted on both datasets of the pair, in `model_ids` order."""
        return [m for m in self.model_ids if all((m, d) in self.members for d in pair)]

    def member_probs(self, member_ids: Sequence[str], dataset_id: str) -> list[StoredMember]:
        """The members' predictions on one dataset, unread, for `member_blocks` to walk."""
        for m in member_ids:
            if (m, dataset_id) not in self.members:
                raise ValidationError(f"no prediction for model {m!r} on {dataset_id!r}")
        return [self.members[(m, dataset_id)] for m in member_ids]

    def check_ensemble(self, ids: Sequence[str], pair: tuple[str, str], what: str) -> tuple[str, ...]:
        """`ids` as a tuple if they name at least one model, none twice, each
        predicted on both datasets of the pair: the one ensemble rule. An error
        names `what` and the first model that breaks it."""
        if not ids:
            raise ValidationError(f"{what} has no members")
        for m in ids:
            if m not in self.model_ids:
                raise ValidationError(f"{what} references unknown model {m!r}")
            if any((m, d) not in self.members for d in pair):
                raise ValidationError(f"{what} references model {m!r}, not predicted on both {pair[0]!r} and {pair[1]!r}")
            if ids.count(m) > 1:
                raise ValidationError(f"{what} repeats model {m!r}")
        return tuple(ids)


def check_pair(pair, datasets: Container[str], what: str) -> tuple[str, str]:
    """`pair` as an (InD, OOD) tuple if it is a list of two different ids of `datasets`:
    a manifest pair or `--pair` split at its colons. An error names `what`."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise ValidationError(f"{what} must name two datasets, IND and OOD")
    for did in pair:
        if not isinstance(did, str) or did not in datasets:
            raise ValidationError(f"{what} references unknown dataset {did!r}")
    if pair[0] == pair[1]:
        raise ValidationError(f"{what} names dataset {pair[0]!r} on both sides")
    return pair[0], pair[1]


def _check_size(path: Path, dtype: str, shape: tuple[int, ...], name: str) -> None:
    """Reject a missing file, or one whose size does not fit a headerless dump of the shape."""
    try:
        size = path.stat().st_size
    except OSError as exc:
        raise ValidationError(f"{name}: cannot read {path.name}: {exc.strerror}") from exc
    except ValueError as exc:  # a NUL byte in the file name
        raise ValidationError(f"{name}: cannot read {path.name!r}: {exc}") from exc
    # Exact integers: an int64 product of a huge declared shape would wrap.
    expected = math.prod(shape) * np.dtype(dtype).itemsize
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


@dataclass(frozen=True)
class StoredMember:
    """One model's predictions on one dataset: where its raw float32 file is, its
    (N, C) shape and kind, and the name errors give it. It keeps no values;
    `member_blocks` reads it and checks and normalises what it read."""

    path: Path
    kind: str
    shape: tuple[int, int]
    name: str

    def read(self, rows: slice) -> np.ndarray:
        """The raw float32 (rows, C) values of `rows`; a file that cannot be read
        or ends early is an error naming the member."""
        count = (rows.stop - rows.start) * self.shape[1]
        try:
            raw = np.fromfile(self.path, dtype="<f4", count=count, offset=rows.start * self.shape[1] * 4)
        except OSError as exc:
            raise ValidationError(f"{self.name}: cannot read {self.path.name}: {exc.strerror}") from exc
        if raw.size != count:
            raise ValidationError(
                f"{self.name}: file {self.path.name} ends before row {rows.stop} of {self.shape[0]}; "
                "it changed after the store was loaded"
            )
        return raw.reshape(-1, self.shape[1])


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
    """Parsed contents of a UTF-8 JSON file; a file that cannot be read, decoded,
    parsed or converted (too deep, or too long an integer) is a ValidationError."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ValidationError(f"{what} is not readable JSON: {exc}") from exc


def write_file(path: Path, data: str | bytes | np.ndarray) -> None:
    """Write text or a bytes-like object, such as a C-contiguous array, to a short per-process
    temporary beside `path`, then rename it onto `path`, making the directory if it is missing.
    A write that fails removes the temporary, keeps any old file and is a ValidationError naming the path."""
    part = path.parent / f".ensdiag-{os.getpid()}.part"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(data, str):
            part.write_text(data)
        else:
            part.write_bytes(data)
        part.replace(path)
    except OSError as exc:
        with suppress(OSError):  # the directory is missing or its name too long
            part.unlink()
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def load_store(manifest_path: str | Path) -> PredictionStore:
    """Load a manifest into a PredictionStore that reads members on access.

    Every dataset and model id is checked, also a model's with no files.
    Labels are read, range-checked and held. Every member file's size is
    checked now, but only its location is kept: its values are checked when
    it is read. Errors name the dataset or model whose file failed validation.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise ValidationError(f"manifest not found: {manifest_path}")
    manifest = read_json(manifest_path, "manifest")
    root = manifest_path.parent

    if not isinstance(manifest, dict):
        raise ValidationError("manifest must be a JSON object")

    labels: dict[str, np.ndarray] = {}
    layouts: dict[str, tuple[str, tuple[int, int]]] = {}
    for i, entry in enumerate(_entries(manifest, "datasets")):
        did = _field(entry, "id", f"dataset entry {i}", str)
        _check_id("dataset", did)
        if did in labels:
            raise ValidationError(f"dataset {did!r} is declared twice")
        owner = f"dataset {did!r}"
        n, c = _field(entry, "n", owner, int), _field(entry, "c", owner, int)
        kind = entry.get("kind", "probs")
        if kind not in ("logits", "probs"):
            raise ValidationError(f"{owner}: unknown kind {kind!r}")
        if n < 1 or c < 2:
            raise ValidationError(f"{owner}: need n >= 1 and c >= 2")
        y = _read_labels(root / _field(entry, "labels_file", owner, str), n, owner).astype(np.int64)
        if y.min() < 0 or y.max() >= c:
            raise ValidationError(f"{owner}: labels outside [0, {c})")
        y.flags.writeable = False
        labels[did] = y
        layouts[did] = kind, (n, c)

    members: dict[tuple[str, str], StoredMember] = {}
    for i, entry in enumerate(_entries(manifest, "models")):
        mid = _field(entry, "id", f"model entry {i}", str)
        _check_id("model", mid)
        files = _field(entry, "files", f"model {mid!r}", dict)
        for did, rel in files.items():
            if did not in layouts:
                raise ValidationError(f"model {mid!r} references unknown dataset {did!r}")
            member = StoredMember(root / str(rel), *layouts[did], f"{mid}/{did}")
            _check_size(member.path, "<f4", member.shape, member.name)
            if (mid, did) in members:
                raise ValidationError(f"duplicate prediction for {mid!r} on {did!r}")
            members[(mid, did)] = member

    pairs = manifest.get("pairs", [])
    if not isinstance(pairs, list):
        raise ValidationError("manifest 'pairs' must be a list")
    model_ids = list(dict.fromkeys(mid for mid, _ in members))
    return PredictionStore(labels, members, model_ids, [check_pair(p, labels, f"pair {p!r}") for p in pairs])


def write_store(
    out_dir: str | Path,
    n_classes: int,
    datasets: Iterable[tuple[str, np.ndarray, Iterable[tuple[str, np.ndarray]]]],
    pairs: Iterable[tuple[str, str]],
) -> Path:
    """Write a logit store in manifest format and return the manifest path.

    `datasets` yields ``(dataset id, labels, members)`` and each `members` yields
    ``(model id, logits)``. Each member is written as its float32 cast, uncopied if it is
    C-contiguous float32, before the next is drawn: one member matrix is held at a time.
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
            write_file(out_dir / rel, np.ascontiguousarray(logits, dtype="<f4"))
            files.setdefault(mid, {})[did] = rel
            del logits  # freed before the next member is built
    manifest = {
        "datasets": entries,
        "models": [{"id": mid, "files": f} for mid, f in sorted(files.items())],
        "pairs": [list(p) for p in pairs],
    }
    manifest_path = out_dir / "manifest.json"
    write_file(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path
