"""Input generator for the benchmark, independent of ``ensdiag.simulate``.

Writes a prediction store in the manifest format that ``ensdiag`` reads:
raw little-endian float32 logits per model and dataset, int32 labels, and
an InD/OOD pair of unequal sizes. A teacher maps latent inputs to class
logits; every member perturbs the teacher's weights, so members disagree
more the further an input lies from the origin, and the OOD set is
shifted and widened so that diversity grows off-distribution. Everything
is a pure function of the shape and the seed.

Run on its own to write one workload's store, for example to reproduce a
failure listed in NOTES.md:

    python3 bench/gen.py --workload zoo-scores --seed 0 --out /tmp/zoo
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LATENT_DIM = 6
IND_ID, OOD_ID = "ind", "ood"


@dataclass(frozen=True)
class Shape:
    n_ind: int
    n_ood: int
    classes: int
    models: int


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def generate(shape: Shape, seed: int, tag: int):
    """Labels and float32 logits: ``{dataset: (labels, [logits per model])}``."""
    rng = np.random.default_rng([seed, tag])
    c, k, d = shape.classes, shape.models, LATENT_DIM
    w = rng.standard_normal((c, d)) * (2.0 / np.sqrt(d))
    b = rng.standard_normal(c) * 0.5
    member_w = w + rng.standard_normal((k, c, d)) * (0.6 / np.sqrt(d))
    member_b = b + rng.standard_normal((k, c)) * 0.3
    shift = rng.standard_normal(d)
    shift *= 1.2 / np.linalg.norm(shift)

    out = {}
    for dataset, n, scale, offset in ((IND_ID, shape.n_ind, 1.0, 0.0), (OOD_ID, shape.n_ood, 1.3, 1.0)):
        z = rng.standard_normal((n, d)) * scale + offset * shift
        teacher = _softmax(z @ w.T + b)
        u = rng.random(n)
        labels = np.minimum((u[:, None] > teacher.cumsum(axis=1)).sum(axis=1), c - 1)
        logits = [(z @ member_w[m].T + member_b[m]).astype("<f4") for m in range(k)]
        out[dataset] = (labels.astype("<i4"), logits)
    return out


def write_store(shape: Shape, seed: int, tag: int, out_dir: Path) -> Path:
    """Write the store and return the manifest path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    data = generate(shape, seed, tag)
    datasets, files = [], {f"m{m:03d}": {} for m in range(shape.models)}
    for dataset, (labels, logits) in data.items():
        labels_file = f"{dataset}_labels.i32"
        (out_dir / labels_file).write_bytes(labels.tobytes())
        datasets.append({"id": dataset, "n": int(labels.shape[0]), "c": shape.classes,
                         "labels_file": labels_file, "kind": "logits"})
        for m, arr in enumerate(logits):
            rel = f"m{m:03d}__{dataset}.f32"
            (out_dir / rel).write_bytes(arr.tobytes())
            files[f"m{m:03d}"][dataset] = rel
    manifest = {
        "datasets": datasets,
        "models": [{"id": mid, "files": f} for mid, f in sorted(files.items())],
        "pairs": [[IND_ID, OOD_ID]],
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def store_bytes(manifest: Path) -> int:
    """Bytes ``load_store`` reads: every labels and prediction file."""
    m = json.loads(manifest.read_text())
    names = [d["labels_file"] for d in m["datasets"]]
    names += [rel for model in m["models"] for rel in model["files"].values()]
    return sum((manifest.parent / name).stat().st_size for name in names)


def load_probs(manifest: Path) -> dict[str, tuple[np.ndarray, list[np.ndarray]]]:
    """Read a store back as float64 probabilities, for reference checks."""
    m = json.loads(manifest.read_text())
    root = manifest.parent
    out = {}
    for d in m["datasets"]:
        labels = np.fromfile(root / d["labels_file"], dtype="<i4").astype(np.int64)
        probs = [
            _softmax(np.fromfile(root / model["files"][d["id"]], dtype="<f4")
                     .astype(np.float64).reshape(d["n"], d["c"]))
            for model in m["models"]
        ]
        out[d["id"]] = (labels, probs)
    return out


def main() -> None:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description="write one workload's prediction store")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    path = write_store(wl.shape, args.seed, wl.tag, Path(args.out))
    print(f"{path} ({store_bytes(path) / 2**20:.1f} MB)")


if __name__ == "__main__":
    main()
