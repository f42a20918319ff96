"""Spans around the public functions of each ``ensdiag`` layer, installed from outside.

``Tracer.install`` replaces each listed function, in every loaded
``ensdiag`` module that refers to it, with a wrapper that records a span:
name, layer, start, end, parent span, run id, and the ``tracemalloc`` peak
above the traced memory at entry. ``Tracer.uninstall`` puts the originals
back. Spans stay in memory until ``write`` dumps them as JSON lines.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gen import store_bytes

MB = 2.0**20

# (module, attribute, layer). "Class.method" patches the class attribute.
TRACED = (
    ("ensdiag.store", "load_store", "store"),
    ("ensdiag.store", "PredictionStore.ensemble_probs", "store"),
    ("ensdiag.decomposition", "decompose_quadratic", "decomposition"),
    ("ensdiag.decomposition", "decompose_entropy", "decomposition"),
    ("ensdiag.decomposition", "brier_jensen_gap", "decomposition"),
    ("ensdiag.decomposition", "nll_jensen_gap", "decomposition"),
    ("ensdiag.conditional", "joint_samples", "conditional"),
    ("ensdiag.conditional", "fit_sample_curve", "conditional"),
    ("ensdiag.conditional", "permutation_test", "conditional"),
    ("ensdiag.trends", "trend_points", "trends"),
    ("ensdiag.trends", "trend_table", "trends"),
    ("ensdiag.trends", "diversity_ratio_check", "trends"),
    ("ensdiag.metrics", "compute_metric", "metrics"),
    ("ensdiag.metrics", "calibration", "metrics"),
    ("ensdiag.improvement", "median_heuristic_bandwidth", "improvement"),
    ("ensdiag.improvement", "mmd2_unbiased", "improvement"),
    ("ensdiag.gp", "run_default_experiment", "gp"),
    ("ensdiag.simulate", "write_synthetic_store", "simulate"),
    ("ensdiag.cli", "write_csv", "cli"),
    ("ensdiag.cli", "write_json", "cli"),
    ("ensdiag.svgplot", "document", "svgplot"),
)


@dataclass
class Span:
    name: str
    layer: str
    run: str
    parent: int | None
    start: float
    end: float = 0.0
    peak: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        # Open spans, innermost last: [span index, traced bytes at entry, peak carried past resets].
        self._open: list[list[int]] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()  # listed functions the program no longer has
        self.run = ""

    # ------------------------------------------------------------ recording

    def _enter(self, name: str, layer: str) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if self._open:
            self._open[-1][2] = max(self._open[-1][2], peak)
        tracemalloc.reset_peak()
        parent = self._open[-1][0] if self._open else None
        self.spans.append(Span(name, layer, self.run, parent, time.perf_counter()))
        self._open.append([len(self.spans) - 1, current, current])

    def _exit(self) -> Span:
        end = time.perf_counter()
        index, base, carried = self._open.pop()
        span = self.spans[index]
        span.end = end
        peak = max(carried, tracemalloc.get_traced_memory()[1])
        span.peak = peak - base
        if self._open:
            self._open[-1][2] = max(self._open[-1][2], peak)
        return span

    def root(self, name: str, call):
        """Run ``call()`` as the root span of one command invocation."""
        self._enter(name, "main")
        try:
            return call()
        finally:
            self._exit()

    def _wrap(self, fn, name: str, layer: str):
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._exit()
            if annotate is not None:
                try:
                    annotate(span, args, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError) as exc:
                    span.attrs["annotate_error"] = repr(exc)  # the program changed shape; keep running
            return result

        return wrapper

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "ensdiag" or n.startswith("ensdiag.")]
        for module_name, attr, layer in TRACED:
            owner = sys.modules.get(module_name)
            cls_name, _, meth = attr.rpartition(".")
            target = getattr(owner, cls_name, None) if cls_name else owner
            original = vars(target).get(meth) if target is not None else None
            if original is None:  # renamed or removed since this list was written
                self.missing.add(attr)
                continue
            if cls_name:
                self._patched.append((target, meth, original))
                setattr(target, meth, self._wrap(original, attr, layer))
                continue
            wrapper = self._wrap(original, attr, layer)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patched):
            setattr(target, key, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "layer": s.layer, "run": s.run,
                                     "parent": s.parent, "start": s.start, "end": s.end,
                                     "peak_bytes": s.peak, **s.attrs}) + "\n")


# Extra facts some spans record after the call returns, outside the span's time.

def _side(span, args, result):
    span.attrs["side"] = "ood" if "ood" in args[0].source else "ind"


def _residual(span, args, result):
    span.attrs["max_residual"] = float(np.abs(result.residual()).max())


def _store(span, args, result):
    span.attrs["read_bytes"] = store_bytes(Path(args[0]))
    arrays = [*getattr(result, "_predictions", {}).values(), *(d.labels for d in result.datasets.values())]
    # A memory-mapped array is read on demand, so it does not count as held.
    span.attrs["held_bytes"] = sum(a.nbytes for a in arrays
                                   if isinstance(a, np.ndarray) and not isinstance(a, np.memmap))


def _mmd(span, args, result):
    span.attrs["m"] = int(np.atleast_2d(args[0]).shape[0])


def _written(span, args, result):
    span.attrs["bytes"] = Path(args[0]).stat().st_size


ANNOTATE = {
    "fit_sample_curve": _side,
    "decompose_quadratic": _residual,
    "decompose_entropy": _residual,
    "brier_jensen_gap": _residual,
    "nll_jensen_gap": _residual,
    "load_store": _store,
    "mmd2_unbiased": _mmd,
    "write_csv": _written,
    "write_json": _written,
}


# ------------------------------------------------------------ per-layer report

# name -> unit; every traced run reports all of them, 0 where a layer did not run.
LAYER_METRICS = {
    "conditional.fit_ind_s": "s",
    "conditional.fit_ood_s": "s",
    "conditional.perm_s": "s",
    "conditional.fits": "count",
    "conditional.fit_s_p50": "s",
    "conditional.peak_mb": "MiB",
    "trends.points_s": "s",
    "trends.ratio_s": "s",
    "trends.table_s": "s",
    "trends.ensemble_forms": "count",
    "trends.peak_mb": "MiB",
    "store.load_s": "s",
    "store.ensemble_s": "s",
    "store.read_mb": "MiB",
    "store.held_mb": "MiB",
    "store.peak_mb": "MiB",
    "metrics.score_s": "s",
    "decomposition.s": "s",
    "decomposition.max_residual": "abs",
    "decomposition.peak_mb": "MiB",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "improvement.mmd_s": "s",
    "improvement.bandwidth_s": "s",
    "improvement.m": "count",
    "improvement.mmd_peak_mb": "MiB",
    "gp.experiment_s": "s",
    "svgplot.render_s": "s",
    "simulate.write_s": "s",
    "trace.overhead_frac": "ratio",
}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one traced pass (``trace.overhead_frac`` excluded)."""
    own = self_times(spans)

    def pick(*names, layer=None, **attrs):
        return [i for i, s in enumerate(spans)
                if (s.name in names or s.layer == layer)
                and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def total(idx):
        return float(sum(own[i] for i in idx))

    def peak_mb(idx):
        return max((spans[i].peak for i in idx), default=0) / MB

    def under(i, name):
        p = spans[i].parent
        while p is not None:
            if spans[p].name == name:
                return True
            p = spans[p].parent
        return False

    fits = pick("fit_sample_curve")
    loads = pick("load_store")
    decomps = pick(layer="decomposition")
    mmds = pick("mmd2_unbiased")
    writes = pick("write_csv", "write_json")
    return {
        "conditional.fit_ind_s": total(pick("fit_sample_curve", side="ind")),
        "conditional.fit_ood_s": total(pick("fit_sample_curve", side="ood")),
        "conditional.perm_s": total(pick("permutation_test")),
        "conditional.fits": len(fits),
        "conditional.fit_s_p50": statistics.median(own[i] for i in fits) if fits else 0.0,
        "conditional.peak_mb": peak_mb(pick(layer="conditional")),
        "trends.points_s": total(pick("trend_points")),
        "trends.ratio_s": total(pick("diversity_ratio_check")),
        "trends.table_s": total(pick("trend_table")),
        "trends.ensemble_forms": sum(under(i, "trend_points") for i in pick("PredictionStore.ensemble_probs")),
        "trends.peak_mb": peak_mb(pick(layer="trends")),
        "store.load_s": total(loads),
        "store.ensemble_s": total(pick("PredictionStore.ensemble_probs")),
        "store.read_mb": sum(spans[i].attrs.get("read_bytes", 0) for i in loads) / MB,
        "store.held_mb": max((spans[i].attrs.get("held_bytes", 0) for i in loads), default=0) / MB,
        "store.peak_mb": peak_mb(loads),
        "metrics.score_s": total(pick(layer="metrics")),
        "decomposition.s": total(decomps),
        "decomposition.max_residual": max((spans[i].attrs.get("max_residual", 0.0) for i in decomps), default=0.0),
        "decomposition.peak_mb": peak_mb(decomps),
        "cli.write_s": total(writes),
        "cli.bytes_written": sum(spans[i].attrs.get("bytes", 0) for i in writes),
        "improvement.mmd_s": total(mmds),
        "improvement.bandwidth_s": total(pick("median_heuristic_bandwidth")),
        "improvement.m": max((spans[i].attrs.get("m", 0) for i in mmds), default=0),
        "improvement.mmd_peak_mb": peak_mb(mmds),
        "gp.experiment_s": total(pick("run_default_experiment")),
        "svgplot.render_s": total(pick("document")),
        "simulate.write_s": total(pick("write_synthetic_store")),
    }
