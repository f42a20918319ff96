"""Command line front end.

Subcommands: simulate, decompose, conditional, trends, improve, gp-demo,
report. Every command writes into its own output directory: a
self-describing result.json (inputs, seed, library versions, and the
numeric decisions actually in effect), CSV files with per-point or
per-row values, and SVG figures. Every output file, SVG included, is
byte-identical across reruns with the same configuration and seed.

Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from contextlib import contextmanager, suppress
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import DEFAULT_GRID_SIZE, SUBSAMPLE, __version__, stream
from .errors import NumericalError, ValidationError
from .store import PredictionStore, check_pair, load_store, read_json, thinned_rows, write_file

# Each command imports the analysis modules it runs at the top of its body,
# and each figure helper imports svgplot, so a process loads only its own
# command's code.

METRIC_ALIASES = {"01": "zero_one", "nll": "nll", "brier": "brier", "ece": "ece", "resce": "resce"}
PLOT_POINT_CAP = 10_000


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems as validation errors (exit 1)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValidationError(message)


def write_json(path: Path, record: dict) -> None:
    """Write a record; NumPy arrays and scalars are written as their ``tolist()`` values."""
    write_file(path, json.dumps(record, indent=2, sort_keys=True, default=lambda v: v.tolist()) + "\n")


def _write_result(path: Path, command: str, record: dict) -> None:
    """Write one command's run record, stamped with the command and library versions."""
    versions = {"package": __version__, "numpy": np.__version__, "python": platform.python_version()}
    write_json(path, {"command": command, **record, "versions": versions})


def write_csv(path: Path, columns: dict) -> None:
    """Write named, equal-length columns; floats print as ``repr`` (``nan``, ``inf``)."""
    cells = [map(str, np.asarray(col).tolist()) for col in columns.values()]
    lines = [",".join(columns), *map(",".join, zip(*cells))]
    write_file(path, "\n".join(lines) + "\n")


def _nearest_existing(path: Path) -> Path:
    """`path` if it exists, else its deepest parent that does."""
    return next(p for p in (path, *path.parents) if p.exists())


def prepare_out_dir(path: str, force: bool) -> Path:
    """Check, without making it, that `path` can be the output directory."""
    out = Path(path)
    nearest = _nearest_existing(out)
    if not nearest.is_dir():
        raise ValidationError(f"cannot use {out} as the output directory: {nearest} is not a directory")
    try:
        occupied = nearest == out and any(out.iterdir())
    except OSError as exc:
        raise ValidationError(f"cannot use {out} as the output directory: {exc}") from exc
    if occupied and not force:
        raise ValidationError(f"output directory {out} is not empty; pass --force to overwrite")
    return out


def _resolve_pair(store: PredictionStore, pair_arg: str | None) -> tuple[str, str]:
    """The manifest's first pair, or `--pair IND:OOD` split at its colons and checked by the store's rule."""
    if pair_arg is None:
        if not store.pairs:
            raise ValidationError("manifest declares no pairs; pass --pair IND:OOD")
        return store.pairs[0]
    return check_pair(pair_arg.split(":"), store.labels, f"--pair {pair_arg!r}")


def _resolve_members(store: PredictionStore, spec: str | None, pair: tuple[str, str]) -> list[str]:
    if spec is None:
        ids = store.models_on_pair(pair)
    else:
        ids = list(store.check_ensemble(spec.split("+"), pair, f"--members {spec!r}"))
    if len(ids) < 2:
        raise ValidationError("need at least two member models on both datasets")
    return ids


def _resolve_metrics(arg: str) -> list[str]:
    out = []
    for token in map(str.strip, arg.split(",")):
        if token not in METRIC_ALIASES:
            raise ValidationError(f"unknown metric {token!r}; choose from {sorted(METRIC_ALIASES)}")
        if METRIC_ALIASES[token] in out:
            raise ValidationError(f"--metric names {token!r} twice")
        out.append(METRIC_ALIASES[token])
    return out


def _subsample_indices(n: int, cap: int, seed: int, side: int) -> np.ndarray:
    """The sorted rows of a `--subsample` cap, drawn from the seed's stream for `side`."""
    if cap <= 0 or cap >= n:
        return np.arange(n)
    return np.sort(stream(seed, side, SUBSAMPLE).choice(n, size=cap, replace=False))


# ---------------------------------------------------------------- simulate


def cmd_simulate(args: argparse.Namespace) -> None:
    from .simulate import SyntheticSpec, write_synthetic_store

    out = prepare_out_dir(args.out, args.force)
    spec = SyntheticSpec(
        n_points=args.n_points,
        n_ood=args.n_ood,
        n_classes=args.classes,
        n_models=args.models,
        member_noise_scale=args.noise,
        shift_strength=args.shift,
        seed=args.seed,
    )
    manifest_path = write_synthetic_store(spec, out)
    _write_result(out / "result.json", "simulate", {"manifest": manifest_path.name, "spec": asdict(spec)})


# --------------------------------------------------------------- decompose


def cmd_decompose(args: argparse.Namespace) -> None:
    from .decomposition import FAMILIES, decompose
    from .metrics import NLL_EPS

    store = load_store(args.manifest)
    pair = _resolve_pair(store, args.pair)
    members = _resolve_members(store, args.members, pair)
    out = prepare_out_dir(args.out, args.force)

    aggregates: dict = {}
    for dataset in pair:
        aggregates[dataset] = {}
        for family, rec in decompose(store.member_probs(members, dataset), store.labels[dataset]).items():
            write_csv(
                out / f"decompose_{family}_{dataset}.csv",
                {"index": np.arange(rec.n), "total": rec.total, "diversity": rec.diversity,
                 "avg_member": rec.avg_member, "residual": rec.residual()},
            )
            aggregates[dataset][family] = {
                "mean_total": float(rec.total.mean()),
                "mean_diversity": float(rec.diversity.mean()),
                "mean_avg_member": float(rec.avg_member.mean()),
                "max_abs_residual": rec.max_abs_residual,
                "unchecked_points": rec.unchecked_points,
                "n": rec.n,
            }

    _write_result(
        out / "result.json",
        "decompose",
        {
            "inputs": {"manifest": str(args.manifest), "pair": list(pair), "members": members},
            "families": list(FAMILIES),
            "aggregates": aggregates,
            "settings": {"nll_eps": NLL_EPS},
        },
    )


# ------------------------------------------------------------- conditional


def cmd_conditional(args: argparse.Namespace) -> None:
    from .conditional import DEFAULT_RIDGE_SCALE, DEFAULT_TRIM_PERCENTILES, PIVOT_TOL, permutation_test
    from .decomposition import decompose
    from .metrics import NLL_EPS

    store = load_store(args.manifest)
    pair = _resolve_pair(store, args.pair)
    members = _resolve_members(store, args.members, pair)
    out = prepare_out_dir(args.out, args.force)

    samples = []
    for side, dataset in enumerate(pair):
        rec = decompose(store.member_probs(members, dataset), store.labels[dataset])[args.family]
        take = _subsample_indices(rec.n, args.subsample, args.seed, side)
        samples.append((rec.avg_member[take], rec.diversity[take]))

    result = permutation_test(
        *samples,
        n_surrogates=args.surrogates,
        seed=args.seed,
        grid_size=args.bins,
        integral=args.integral_d,
    )

    write_csv(out / "curves.csv", {"x": result.grid, "y_ind": result.curves[0], "y_ood": result.curves[1]})
    _conditional_figure(pair, samples, result, out / "conditional.svg")

    _write_result(
        out / "result.json",
        "conditional",
        {
            "inputs": {"manifest": str(args.manifest), "pair": list(pair), "members": members},
            "d_statistic": result.d,
            "p_value": result.p_value,
            "n_surrogates": len(result.d_surrogates),
            "d_surrogates": result.d_surrogates,
            "sample_sizes": {dataset: len(avg) for dataset, (avg, _) in zip(pair, samples)},
            "seed": args.seed,
            "settings": {
                "family": args.family,
                "d_form": "integral" if args.integral_d else "ratio_of_sums",
                "grid_size": args.bins,
                "grid_lo": float(result.grid[0]),
                "grid_hi": float(result.grid[-1]),
                "trim_percentiles": list(DEFAULT_TRIM_PERCENTILES),
                "bandwidth_ind": result.bandwidths[0],
                "bandwidth_ood": result.bandwidths[1],
                "ridge_ind": result.ridges[0],
                "ridge_ood": result.ridges[1],
                "ridge_scale": DEFAULT_RIDGE_SCALE,
                "krr_rank_ind": result.ranks[0],
                "krr_rank_ood": result.ranks[1],
                "pivot_tol": PIVOT_TOL,
                "regressor": "kernel_ridge",
                "subsample": args.subsample,
                "nll_eps": NLL_EPS,
            },
        },
    )


def _conditional_figure(pair, samples, result, path: Path) -> None:
    """Both (avg, div) samples, thinned, under the observed curves, labelled with the pair's ids."""
    from . import svgplot

    xlim, ylim = (svgplot.padded_limits(np.concatenate(column)) for column in zip(*samples))
    panel = svgplot.Panel(60, 40, 460, 320, xlim, ylim,
                          title="Diversity vs member-average uncertainty",
                          xlabel="member-average uncertainty", ylabel="diversity")
    colors = (svgplot.IND_COLOR, svgplot.OOD_COLOR)
    for (avg, div), color in zip(samples, colors):
        take = thinned_rows(len(avg), PLOT_POINT_CAP)
        panel.scatter(avg[take], div[take], color, r=1.5, opacity=0.35)
    for curve, color in zip(result.curves, colors):
        panel.line(result.grid, curve, color, width=2.5)
    panel.label(f"InD ({pair[0]})", 70, 56, svgplot.IND_COLOR)
    panel.label(f"OOD ({pair[1]})", 70, 72, svgplot.OOD_COLOR)
    panel.label(f"d = {result.d:.4f}, p = {result.p_value:.4f}", 70, 88)
    write_file(path, svgplot.document(580, 420, [panel]))


# ------------------------------------------------------------------ trends


def _load_ensembles(arg: str, store: PredictionStore, pair: tuple[str, str]) -> list[tuple[str, ...]]:
    if arg == "none":
        return []
    if arg == "loo":
        ids = sorted(store.models_on_pair(pair))
        if len(ids) < 3:
            return []
        # Each drops one id, the last first, as itertools.combinations(ids, M - 1) orders them.
        return [tuple(m for m in ids if m != k) for k in reversed(ids)]
    path = Path(arg)
    if not path.is_file():
        raise ValidationError(f"--ensembles file not found: {path}")
    raw = read_json(path, "--ensembles file")
    if not isinstance(raw, list):
        raise ValidationError("--ensembles file must hold a JSON list of member lists")
    ensembles = []
    first_with: dict[frozenset, int] = {}
    for i, entry in enumerate(raw):
        if not isinstance(entry, list) or not all(isinstance(m, str) for m in entry):
            raise ValidationError(f"--ensembles entry {i} must be a list of model ids, got {entry!r}")
        ensembles.append(store.check_ensemble(entry, pair, f"--ensembles entry {i}"))
        j = first_with.setdefault(frozenset(entry), i)
        if j != i:
            raise ValidationError(f"--ensembles entry {i} has the same members as entry {j}")
    return ensembles


def cmd_trends(args: argparse.Namespace) -> None:
    from .trends import (diversity_ratio_check, effective_robustness, form_heterogeneous_ensembles,
                         trend_points, trend_table)

    store = load_store(args.manifest)
    pair = _resolve_pair(store, args.pair)
    _resolve_members(store, None, pair)
    metrics = _resolve_metrics(args.metric)
    ensembles = _load_ensembles(args.ensembles, store, pair)
    out = prepare_out_dir(args.out, args.force)

    heterogeneous: set[tuple[str, ...]] = set()
    skipped_bins: list[dict] = []
    if args.het_bins:
        binned, skipped_bins = form_heterogeneous_ensembles(store, pair, args.het_bins, seed=args.seed)
        # A binned ensemble may be one already listed, in any member order.
        listed = {frozenset(e): e for e in ensembles}
        for ens in binned:
            if frozenset(ens) not in listed:
                ensembles.append(ens)
            heterogeneous.add(listed.get(frozenset(ens), ens))

    # Every metric is scored in one pass; the diversity ratio reads the Brier column.
    scores = trend_points(store, ensembles, pair, n_bins=args.bins, heterogeneous=frozenset(heterogeneous))
    try:
        ratio_report = asdict(diversity_ratio_check(scores, ensembles))
    except ValidationError as exc:
        ratio_report = {"skipped": str(exc)}
    rows = trend_table(scores, metrics)

    # Effective robustness is measured from the fit over single models alone.
    baselines = {r.metric: r.fit for r in rows if r.model_class == "Single Model"}
    # The points, metric by metric in --metric order, each metric's models in table order.
    points = np.concatenate([scores.column(metric) for metric in metrics])
    robustness = [effective_robustness(baselines[metric], *scores.column(metric).T) if metric in baselines
                  else np.full(len(scores.ids), np.nan) for metric in metrics]
    write_csv(
        out / "trend_points.csv",
        {"metric": np.repeat(metrics, len(scores.ids)), "model_id": scores.ids * len(metrics),
         "model_class": scores.classes * len(metrics), "ind_value": points[:, 0], "ood_value": points[:, 1],
         "effective_robustness": np.concatenate(robustness)},
    )
    # result.json's table; trend_table.csv holds every field of it but the intercept.
    table = [{"metric": r.metric, "model_class": r.model_class, **asdict(r.fit)} for r in rows]
    write_csv(out / "trend_table.csv", {key: [row[key] for row in table] for key in (
        "metric", "model_class", "coefficient", "std_error", "t_statistic", "p_value", "r2", "n")})

    for metric in metrics:
        _trends_figure(scores, rows, metric, out / f"trends_{metric}.svg")

    _write_result(
        out / "result.json",
        "trends",
        {
            "inputs": {"manifest": str(args.manifest), "pair": list(pair)},
            "metrics": metrics,
            "table": table,
            "diversity_ratio": ratio_report,
            "ensembles": [list(e) for e in ensembles],
            "heterogeneous_skipped_bins": skipped_bins,
            "seed": args.seed,
            "settings": {
                "calibration_bins": args.bins,
                "ensemble_rule": args.ensembles,
                "het_bins": args.het_bins,
                "axis_scaling": "none",
                "score_orientation": "lower_is_better",
            },
        },
    )


def _trends_figure(scores, rows, metric: str, path: Path) -> None:
    from . import svgplot

    column = scores.column(metric)
    lim = svgplot.padded_limits(column)
    panel = svgplot.Panel(60, 40, 420, 420, lim, lim, title=f"Trend: {metric}",
                          xlabel="InD score", ylabel="OOD score")
    panel.line([lim[0], lim[1]], [lim[0], lim[1]], svgplot.LINE_COLOR, width=1.0, dash="5,4")
    fit_colors = {"All": svgplot.LINE_COLOR, "Single Model": svgplot.SINGLE_COLOR, "Ensemble": svgplot.ENSEMBLE_COLOR}
    for cls in ("Single Model", "Ensemble"):
        mask = scores.mask(cls)
        panel.scatter(column[mask, 0], column[mask, 1], fit_colors[cls], r=3.5, opacity=0.8)
    gx = np.linspace(lim[0], lim[1], 50)
    y0 = 56
    for r in rows:
        if r.metric != metric:
            continue
        panel.line(gx, r.fit.intercept + r.fit.coefficient * gx, fit_colors[r.model_class], width=1.5)
        panel.label(
            f"{r.model_class}: slope {r.fit.coefficient:.3f} (se {r.fit.std_error:.3f}), R2 {r.fit.r2:.3f}",
            70, y0, fit_colors[r.model_class], size=10,
        )
        y0 += 14
    write_file(path, svgplot.document(540, 520, [panel]))


# ----------------------------------------------------------------- improve


def cmd_improve(args: argparse.Namespace) -> None:
    from .improvement import ensemble_scores, improvement_similarity_test, pearson_r

    store = load_store(args.manifest)
    pair = _resolve_pair(store, args.pair)
    metric = METRIC_ALIASES[args.metric]
    given = {key: getattr(args, key) for key in ("base", "alt_a", "alt_b", "control")}
    specs = [store.check_ensemble(spec.split("+"), pair, f"--{key.replace('_', '-')} {spec!r}")
             for key, spec in given.items()]
    for flag, spec in (("--alt-a", specs[1]), ("--alt-b", specs[2])):
        if set(spec) == set(specs[0]):
            raise ValidationError(f"{flag} names the same members as --base")
    distinct = list(dict.fromkeys(m for spec in specs for m in spec))
    out = prepare_out_dir(args.out, args.force)

    per_dataset: dict = {}
    for side, dataset in enumerate(pair):
        # A one-member ensemble is that model's predictions, bit for bit.
        members = dict(zip(distinct, store.member_probs(distinct, dataset)))
        scores = ensemble_scores(members, specs, store.labels[dataset], metric)
        take = _subsample_indices(len(scores[0]), args.subsample, args.seed, side)
        base_scores, *alt_scores = (s[take] for s in scores)
        delta_a, delta_b, delta_c = (base_scores - s for s in alt_scores)

        test = improvement_similarity_test(delta_a, delta_b, delta_c, alpha=args.alpha)
        r = pearson_r(delta_a, delta_b)

        write_csv(out / f"improve_{dataset}.csv", {"index": take, "delta_a": delta_a, "delta_b": delta_b,
                                                   "control_delta": delta_c, "base_score": base_scores})
        _improvement_figure(delta_a, delta_b, base_scores, out / f"improve_{dataset}.svg")
        per_dataset[dataset] = {
            "pearson_r": r,
            "mmd": {**asdict(test), "formatted": test.formatted()},
            "n": int(delta_a.shape[0]),
        }

    _write_result(
        out / "result.json",
        "improve",
        {
            "inputs": {"manifest": str(args.manifest), "pair": list(pair), **given},
            "metric": metric,
            "results": per_dataset,
            "seed": args.seed,
            "settings": {
                "alpha": args.alpha,
                "bandwidth_rule": "median_heuristic",
                "cloud_construction": "paired_2d",
                "subsample": args.subsample,
            },
        },
    )


def _improvement_figure(delta_a, delta_b, base_scores, path: Path) -> None:
    from . import svgplot

    take = thinned_rows(delta_a.shape[0], PLOT_POINT_CAP)
    xa, yb, cv = delta_a[take], delta_b[take], base_scores[take]
    xlim = svgplot.padded_limits(xa)
    ylim = svgplot.padded_limits(yb)
    panel = svgplot.Panel(60, 40, 420, 420, xlim, ylim, title="Per-point improvements",
                          xlabel="improvement A", ylabel="improvement B")
    if xlim[0] < 0 < xlim[1]:
        panel.line([0, 0], [ylim[0], ylim[1]], svgplot.LINE_COLOR, width=0.8, dash="3,3")
    if ylim[0] < 0 < ylim[1]:
        panel.line([xlim[0], xlim[1]], [0, 0], svgplot.LINE_COLOR, width=0.8, dash="3,3")
    panel.colored_scatter(xa, yb, cv, float(np.min(cv)), float(np.max(cv)), r=2.0)
    panel.label("color: base-model score", 70, 56, size=10)
    write_file(path, svgplot.document(540, 520, [panel]))


# ------------------------------------------------------------------ gp-demo


def cmd_gp_demo(args: argparse.Namespace) -> None:
    from .gp import (DEFAULT_EVAL_DOMAIN, LENGTHSCALE, LIK_VAR_RANGE, N_TRAIN, SIGNAL_VARIANCE, TRAIN_DOMAIN,
                     run_default_experiment)

    out = prepare_out_dir(args.out, args.force)
    exp = run_default_experiment(seed=args.seed, n_bins=args.bins)

    write_csv(
        out / "gp_predictions.csv",
        {"x": exp.x, "mean": exp.mean, "posterior_variance": exp.posterior_variance,
         "likelihood_variance": exp.likelihood_variance,
         "split": np.where(exp.x >= 0, "ind", "ood")},
    )
    write_csv(
        out / "gp_bins.csv",
        {
            "split": np.repeat(["ind", "ood"], args.bins),
            "bin_lo": np.tile(exp.edges[:-1], 2),
            "bin_hi": np.tile(exp.edges[1:], 2),
            "count": exp.counts.ravel(),
            "mean_posterior_variance": exp.means.ravel(),
        },
    )

    both = (exp.counts > 0).all(axis=0)
    ood_higher = bool(np.all(exp.means[1, both] > exp.means[0, both])) if both.any() else None

    _gp_figure(exp, out / "gp.svg")
    _write_result(
        out / "result.json",
        "gp-demo",
        {
            "seed": args.seed,
            "summary": {
                "mean_posterior_variance_ind": float(exp.posterior_variance[exp.x >= 0].mean()),
                "mean_posterior_variance_ood": float(exp.posterior_variance[exp.x < 0].mean()),
                "populated_bins_both_splits": int(both.sum()),
                "ood_exceeds_ind_in_all_populated_bins": ood_higher,
            },
            "settings": {
                "n_train": N_TRAIN,
                "train_domain": TRAIN_DOMAIN,
                "eval_domain": DEFAULT_EVAL_DOMAIN,
                "n_eval": int(exp.x.shape[0]),
                "lengthscale": LENGTHSCALE,
                "signal_variance": SIGNAL_VARIANCE,
                "noise_variance": "sin^2(x) + 0.01",
                "likelihood_bins": args.bins,
                "likelihood_range": LIK_VAR_RANGE,
            },
        },
    )


def _gp_figure(exp, path: Path) -> None:
    from . import svgplot
    from .gp import DEFAULT_EVAL_DOMAIN

    std2 = 2.0 * np.sqrt(exp.posterior_variance)
    ylim = svgplot.padded_limits(np.concatenate([exp.mean - std2, exp.mean + std2, exp.train_y]))
    p1 = svgplot.Panel(60, 40, 420, 300, DEFAULT_EVAL_DOMAIN, ylim, xlabel="x", ylabel="y",
                       title="Posterior on [{:g}, {:g}]".format(*DEFAULT_EVAL_DOMAIN))
    p1.band(exp.x, exp.mean - std2, exp.mean + std2, svgplot.IND_COLOR, opacity=0.25)
    p1.line(exp.x, exp.mean, svgplot.IND_COLOR, width=2.0)
    p1.line([0, 0], [ylim[0], ylim[1]], svgplot.LINE_COLOR, width=0.8, dash="3,3")
    p1.scatter(exp.train_x, exp.train_y, svgplot.LINE_COLOR, r=2.5, opacity=0.9)

    centers = 0.5 * (exp.edges[:-1] + exp.edges[1:])
    vals = exp.means[np.isfinite(exp.means)]
    ylim2 = svgplot.padded_limits(vals) if vals.size else (0.0, 1.0)
    p2 = svgplot.Panel(560, 40, 420, 300, (float(centers[0]), float(centers[-1])), ylim2,
                       title="Posterior variance by likelihood variance",
                       xlabel="likelihood variance", ylabel="mean posterior variance")
    for counts, means, color in zip(exp.counts, exp.means, (svgplot.IND_COLOR, svgplot.OOD_COLOR)):
        populated = counts > 0
        p2.line(centers[populated], means[populated], color, width=2.0)
        p2.scatter(centers[populated], means[populated], color, r=2.5, opacity=0.9)
    p2.label("InD (x >= 0)", 570, 56, svgplot.IND_COLOR)
    p2.label("OOD (x < 0)", 570, 72, svgplot.OOD_COLOR)
    write_file(path, svgplot.document(1040, 400, [p1, p2]))


# ------------------------------------------------------------------- report


def cmd_report(args: argparse.Namespace) -> None:
    root = Path(args.out)
    if not root.is_dir():
        raise ValidationError(f"run directory not found: {root}")
    index_path = root / "index.json"
    if index_path.exists() and not args.force:
        raise ValidationError(f"{index_path} exists; pass --force to overwrite")
    runs = [{"path": str(result.relative_to(root)), "result": read_json(result, str(result))}
            for result in sorted(root.rglob("result.json"))]
    _write_result(index_path, "report", {"n_runs": len(runs), "runs": runs})


# ------------------------------------------------------------------- parser


def _checked(kind: type, ok, rule: str):
    """Argparse type that parses ``kind`` and rejects values failing ``ok``."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _at_least(lo: int):
    return _checked(int, lambda v: v >= lo, f"at least {lo}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ensdiag", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    nonnegative = _checked(float, lambda v: v >= 0.0, "at least 0")
    # One point has no pair to compare, so a sample cap is 0 (off) or at least 2.
    subsample = _checked(int, lambda v: v == 0 or v >= 2, "0 or at least 2")

    def add_common(p, manifest: bool = True):
        if manifest:
            p.add_argument("--manifest", required=True, help="path to manifest.json")
            p.add_argument("--pair", default=None, help="dataset pair as IND:OOD")
        p.add_argument("--out", required=True, help="output directory for this run")
        p.add_argument("--force", action="store_true", help="overwrite a non-empty output directory")

    p = sub.add_parser("simulate", help="write a synthetic prediction store")
    add_common(p, manifest=False)
    p.add_argument("--seed", type=_at_least(0), default=0, help="RNG seed")
    p.add_argument("--n-points", type=_at_least(1), default=1000, help="InD points")
    p.add_argument("--n-ood", type=_at_least(1), default=None, help="OOD points (default: --n-points)")
    p.add_argument("--classes", type=_at_least(2), default=10)
    p.add_argument("--models", type=_at_least(1), default=4)
    p.add_argument("--noise", type=nonnegative, default=0.25, help="member logit offset scale")
    p.add_argument("--shift", type=nonnegative, default=1.0, help="OOD input shift strength")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("decompose", help="per-point uncertainty and score-gap decompositions")
    add_common(p)
    p.add_argument("--members", default=None, help="ensemble members as a+b+c (default: all models)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("conditional", help="conditional diversity curves and permutation test")
    add_common(p)
    p.add_argument("--seed", type=_at_least(0), default=0, help="RNG seed")
    p.add_argument("--members", default=None, help="ensemble members as a+b+c (default: all models)")
    p.add_argument("--family", choices=("quadratic", "entropy"), default="quadratic")
    p.add_argument("--surrogates", type=_at_least(1), default=100)
    p.add_argument("--bins", type=_at_least(2), default=DEFAULT_GRID_SIZE, help="evaluation grid size")
    p.add_argument("--subsample", type=subsample, default=0, help="cap per-dataset sample size (0 = off)")
    p.add_argument("--integral-d", action="store_true", help="integral form of the d statistic")
    p.set_defaults(func=cmd_conditional)

    p = sub.add_parser("trends", help="linear trends of OOD score on InD score")
    add_common(p)
    p.add_argument("--seed", type=_at_least(0), default=0, help="RNG seed")
    p.add_argument("--metric", default="01,nll,brier,resce",
                   help="comma list from {01,nll,brier,ece,resce}")
    p.add_argument("--bins", type=_at_least(1), default=15, help="calibration bins for ece/resce")
    p.add_argument("--ensembles", default="loo",
                   help="'loo' (leave-one-out), 'none', or path to a JSON list of member lists")
    p.add_argument("--het-bins", type=_at_least(0), default=0,
                   help="form heterogeneous ensembles from this many accuracy bins")
    p.set_defaults(func=cmd_trends)

    p = sub.add_parser("improve", help="agreement between two per-point improvement profiles")
    add_common(p)
    p.add_argument("--seed", type=_at_least(0), default=0, help="RNG seed of --subsample")
    p.add_argument("--base", required=True, help="base model id")
    p.add_argument("--alt-a", required=True, help="first alternative (id or a+b+c ensemble)")
    p.add_argument("--alt-b", required=True, help="second alternative (id or a+b+c ensemble)")
    p.add_argument("--control", required=True, help="control alternative (id or a+b+c ensemble)")
    p.add_argument("--metric", choices=("01", "nll", "brier"), default="brier", help="per-point metric")
    p.add_argument("--alpha", type=_checked(float, lambda a: 0.0 < a <= 1.0, "in (0, 1]"), default=0.05)
    p.add_argument("--subsample", type=subsample, default=0, help="cap sample size (0 = off)")
    p.set_defaults(func=cmd_improve)

    p = sub.add_parser("gp-demo", help="heteroskedastic GP oracle experiment")
    add_common(p, manifest=False)
    p.add_argument("--seed", type=_at_least(0), default=0, help="RNG seed")
    p.add_argument("--bins", type=_at_least(1), default=20, help="likelihood-variance bins")
    p.set_defaults(func=cmd_gp_demo)

    p = sub.add_parser("report", help="index all result.json files under a run directory")
    p.add_argument("--out", required=True, help="run directory to index")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


@contextmanager
def _undone_on_failure(out: Path):
    """If the body raises, remove each entry the run added to `out`, and `out` and its
    parents if the run made them: nothing that existed before the run is removed."""
    made = [out, *out.parents][:len(out.relative_to(_nearest_existing(out)).parts)]  # deepest first
    before = set()
    with suppress(OSError):  # `out` is missing, or not a directory the command can use
        before = set(os.listdir(out))
    try:
        yield
    except BaseException:
        with suppress(OSError):
            for path in [out / name for name in set(os.listdir(out)) - before]:
                shutil.rmtree(path) if path.is_dir() else path.unlink()
        for path in made:
            with suppress(OSError):  # missing, or holding what another run wrote
                path.rmdir()
        raise


def main(argv: list[str] | None = None) -> int:
    """Run one command; a failure prints one line, returns 1 or 2 and removes what the
    run wrote (`_undone_on_failure`), so no command orders its work around that rule."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with _undone_on_failure(Path(args.out)):
            args.func(args)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
