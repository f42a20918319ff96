"""Synthetic prediction stores with a controllable distribution shift.

A teacher assigns class logits to latent 2-d inputs through random linear
maps; labels are drawn from the teacher's softmax. Each member model adds
its own fixed Gaussian offset to the teacher's class logits, so member
disagreement concentrates where the teacher is uncertain and fades where
one class dominates. The shifted test set translates its inputs along a
fixed random direction, which moves probability mass toward the teacher's
confident regions or away from them depending on the draw. Everything is
a pure function of the spec, so a fixed spec reproduces the store byte
for byte. Members draw no random numbers, so `write_synthetic_store`
builds each straight into float32 and writes it, uncopied, through
`store.write_store` before the next, so memory does not grow with the
number of models; `store.load_store` reads the store back like any other.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from . import stream
from .errors import ValidationError
from .store import draw_labels, write_store

IND_ID = "ind"
OOD_ID = "ood"


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for one synthetic store."""

    n_points: int = 1000
    n_ood: int | None = None  # OOD points; None means n_points
    n_classes: int = 10
    n_models: int = 4
    member_noise_scale: float = 0.25
    shift_strength: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_ood is None:
            object.__setattr__(self, "n_ood", self.n_points)
        if self.n_points < 1 or self.n_ood < 1:
            raise ValidationError("n_points and n_ood must be >= 1")
        if self.n_classes < 2:
            raise ValidationError("n_classes must be >= 2")
        if self.n_models < 1:
            raise ValidationError("n_models must be >= 1")
        if self.member_noise_scale < 0 or self.shift_strength < 0:
            raise ValidationError("noise and shift scales must be nonnegative")


def _members(teacher_logits: np.ndarray, member_offset: np.ndarray) -> Iterator[tuple[str, np.ndarray]]:
    for m, offset in enumerate(member_offset):
        yield f"m{m:03d}", np.add(teacher_logits, offset, out=np.empty(teacher_logits.shape, "<f4"))


def _generate(spec: SyntheticSpec) -> Iterator[tuple[str, np.ndarray, Iterator[tuple[str, np.ndarray]]]]:
    """Per dataset: its id, labels, and a generator of (model id, float32 logits).

    Draws happen in a fixed order so the output is reproducible for a fixed
    seed. Members draw nothing, so each is built only when its generator
    reaches it: the float64 sum, rounded once into a fresh float32 array.
    So memory holds one dataset's float64 teacher logits and one member at a
    time, and the labels are drawn from the teacher a row block at a time.
    """
    rng = stream(spec.seed)
    c, k = spec.n_classes, spec.n_models

    teacher_w = rng.standard_normal((c, 2))
    teacher_b = rng.standard_normal(c)
    raw_dir = rng.standard_normal(2)
    shift_dir = raw_dir / np.linalg.norm(raw_dir)
    member_offset = rng.standard_normal((k, c)) * spec.member_noise_scale

    for dataset_id, n in ((IND_ID, spec.n_points), (OOD_ID, spec.n_ood)):
        z = rng.standard_normal((n, 2))
        if dataset_id == OOD_ID:
            z = z + spec.shift_strength * shift_dir
        teacher_logits = z @ teacher_w.T
        teacher_logits += teacher_b
        labels = draw_labels(teacher_logits, rng.random(n))
        yield dataset_id, labels, _members(teacher_logits, member_offset)
        del teacher_logits  # freed before the next dataset's is built


def write_synthetic_store(spec: SyntheticSpec, out_dir: str | Path) -> Path:
    """Generate a store and write it in manifest format, one member at a time.

    Member files hold raw float32 logits so loading exercises the logit
    ingestion path; labels are raw int32. Returns the manifest path.
    """
    return write_store(out_dir, spec.n_classes, _generate(spec), [(IND_ID, OOD_ID)])
