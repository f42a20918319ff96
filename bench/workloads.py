"""The benchmark's workloads: store shapes and the ``ensdiag`` commands run on them.

Sizes are fixed. Each workload makes one layer dominate and bypasses
others, so that a change to one layer shows on one workload and is
predicted to leave another unchanged (see NOTES.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from gen import Shape


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    tag: int  # separates the generator streams of workloads run with one seed

    def commands(self, manifest: Path, out: Path, seed: int) -> list[tuple[str, list[str]]]:
        """``(output name, argv)`` of each command, in the order they run."""
        m, s = str(manifest), str(seed)
        if self.name == "krr-large":
            return [("conditional", ["conditional", "--manifest", m, "--surrogates", "12",
                                     "--seed", s, "--out", str(out / "conditional")])]
        if self.name == "zoo-scores":
            sh = self.shape
            return [
                ("simulate", ["simulate", "--n-points", str(sh.n_ind), "--classes", str(sh.classes),
                              "--models", str(sh.models), "--seed", s, "--out", str(out / "simulate")]),
                ("decompose", ["decompose", "--manifest", m, "--out", str(out / "decompose")]),
                ("trends", ["trends", "--manifest", m, "--metric", "01,nll,brier,ece,resce",
                            "--seed", s, "--out", str(out / "trends")]),
            ]
        improve = ["improve", "--manifest", m, "--base", "m000", "--alt-a", "m000+m001",
                   "--alt-b", "m000+m002", "--control", "m004", "--seed", s]
        return [
            ("improve_brier", improve + ["--metric", "brier", "--out", str(out / "improve_brier")]),
            ("improve_nll", improve + ["--metric", "nll", "--out", str(out / "improve_nll")]),
            ("conditional", ["conditional", "--manifest", m, "--subsample", "400", "--surrogates", "400",
                             "--seed", s, "--out", str(out / "conditional")]),
            ("gp", ["gp-demo", "--seed", s, "--out", str(out / "gp")]),
            ("report", ["report", "--out", str(out)]),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("krr-large", Shape(n_ind=4000, n_ood=800, classes=10, models=5), tag=1),
        Workload("zoo-scores", Shape(n_ind=10000, n_ood=2000, classes=100, models=16), tag=2),
        Workload("mmd-improve", Shape(n_ind=6000, n_ood=1200, classes=10, models=5), tag=3),
    )
}
