"""Command line front end.

Subcommands: simulate, decompose, conditional, trends, improve, gp-demo,
report. Every command writes into its own output directory: a
self-describing result.json (inputs, seed, library versions, and the
numeric decisions actually in effect), CSV files with per-point or
per-row values, and SVG figures. CSV and JSON output is byte-identical
across reruns with the same configuration and seed; SVG adds a generation
timestamp unless --no-timestamp is passed.

Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .conditional import (
    DEFAULT_GRID_SIZE,
    DEFAULT_RIDGE_SCALE,
    DEFAULT_TRIM_PERCENTILES,
    PIVOT_TOL,
    JointSample,
    joint_samples,
    permutation_test,
)
from .decomposition import (
    FAMILIES,
    brier_jensen_gap,
    decompose_entropy,
    decompose_quadratic,
    nll_jensen_gap,
)
from .errors import NumericalError, ValidationError
from .gp import run_default_experiment
from .improvement import improvement_similarity_test, pearson_r, per_point_improvement
from .metrics import NLL_EPS, compute_metric
from .simulate import SyntheticSpec, write_synthetic_store
from .store import (
    EnsembleDef,
    PredictionStore,
    enumerate_homogeneous_ensembles,
    ensemble_id_for,
    form_heterogeneous_ensembles,
    load_store,
)
from .trends import effective_robustness, trend_points, trend_table, diversity_ratio_check
from . import svgplot

METRIC_ALIASES = {"01": "zero_one", "nll": "nll", "brier": "brier", "ece": "ece", "resce": "resce"}
PLOT_POINT_CAP = 10_000


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems as validation errors (exit 1)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValidationError(message)


def _versions() -> dict:
    return {
        "package": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def write_json(path: Path, record: dict) -> None:
    path.write_text(json.dumps(_jsonable(record), indent=2, sort_keys=True) + "\n")


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    return repr(v) if np.isfinite(v) else ("nan" if np.isnan(v) else ("inf" if v > 0 else "-inf"))


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def prepare_out_dir(path: str, force: bool) -> Path:
    out = Path(path)
    if out.exists() and any(out.iterdir()) and not force:
        raise ValidationError(f"output directory {out} is not empty; pass --force to overwrite")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve_pair(store: PredictionStore, pair_arg: str | None) -> tuple[str, str]:
    if pair_arg is None:
        if not store.pairs:
            raise ValidationError("manifest declares no pairs; pass --pair IND:OOD")
        return store.pairs[0]
    if ":" not in pair_arg:
        raise ValidationError(f"--pair must look like IND:OOD, got {pair_arg!r}")
    ind, ood = pair_arg.split(":", 1)
    for d in (ind, ood):
        if d not in store.datasets:
            raise ValidationError(f"--pair references unknown dataset {d!r}")
    return ind, ood


def _resolve_members(store: PredictionStore, spec: str | None, pair: tuple[str, str]) -> list[str]:
    if spec is None:
        ids = [m for m in store.model_ids if all(store.has_prediction(m, d) for d in pair)]
    else:
        ids = spec.split("+")
        for m in ids:
            for d in pair:
                if not store.has_prediction(m, d):
                    raise ValidationError(f"model {m!r} has no prediction on {d!r}")
    if len(ids) < 2:
        raise ValidationError("need at least two member models on both datasets")
    return ids


def _resolve_metrics(arg: str) -> list[str]:
    out = []
    for token in arg.split(","):
        token = token.strip()
        if token not in METRIC_ALIASES:
            raise ValidationError(
                f"unknown metric {token!r}; choose from {sorted(METRIC_ALIASES)}"
            )
        out.append(METRIC_ALIASES[token])
    return out


def _subsample_indices(n: int, cap: int, seed: int, tag: int) -> np.ndarray:
    if cap <= 0 or cap >= n:
        return np.arange(n)
    rng = np.random.default_rng([seed, tag])
    return np.sort(rng.choice(n, size=cap, replace=False))


# ---------------------------------------------------------------- simulate


def cmd_simulate(args: argparse.Namespace) -> None:
    out = prepare_out_dir(args.out, args.force)
    spec = SyntheticSpec(
        n_points=args.n_points,
        n_classes=args.classes,
        n_models=args.models,
        member_noise_scale=args.noise,
        shift_strength=args.shift,
        seed=args.seed,
    )
    manifest_path = write_synthetic_store(spec, out)
    write_json(
        out / "result.json",
        {
            "command": "simulate",
            "manifest": manifest_path.name,
            "spec": {
                "n_points": spec.n_points,
                "n_classes": spec.n_classes,
                "n_models": spec.n_models,
                "member_noise_scale": spec.member_noise_scale,
                "shift_strength": spec.shift_strength,
                "seed": spec.seed,
            },
            "versions": _versions(),
        },
    )


# --------------------------------------------------------------- decompose


def cmd_decompose(args: argparse.Namespace) -> None:
    store = load_store(args.manifest)
    pair = _resolve_pair(store, args.pair)
    members = _resolve_members(store, args.members, pair)
    out = prepare_out_dir(args.out, args.force)

    aggregates: dict = {}
    for dataset in pair:
        probs = store.member_probs(members, dataset)
        labels = store.labels(dataset)
        records = {
            "quadratic": decompose_quadratic(probs),
            "entropy": decompose_entropy(probs),
            "brier_gap": brier_jensen_gap(probs, labels),
            "nll_gap": nll_jensen_gap(probs, labels),
        }
        aggregates[dataset] = {}
        for family, rec in records.items():
            res = rec.residual()
            write_csv(
                out / f"decompose_{family}_{dataset}.csv",
                ["index", "total", "diversity", "avg_member", "residual"],
                (
                    (i, rec.total[i], rec.diversity[i], rec.avg_member[i], res[i])
                    for i in range(rec.n)
                ),
            )
            aggregates[dataset][family] = {
                "mean_total": float(rec.total.mean()),
                "mean_diversity": float(rec.diversity.mean()),
                "mean_avg_member": float(rec.avg_member.mean()),
                "max_abs_residual": float(np.abs(res).max()),
                "n": rec.n,
            }

    write_json(
        out / "result.json",
        {
            "command": "decompose",
            "inputs": {"manifest": str(args.manifest), "pair": list(pair), "members": members},
            "families": list(FAMILIES),
            "aggregates": aggregates,
            "settings": {"nll_eps": NLL_EPS},
            "versions": _versions(),
        },
    )


# ------------------------------------------------------------- conditional


def cmd_conditional(args: argparse.Namespace) -> None:
    if args.bins < 2:
        raise ValidationError(f"--bins must be at least 2, got {args.bins}")
    if args.subsample < 0:
        raise ValidationError(f"--subsample must be nonnegative (0 = off), got {args.subsample}")
    store = load_store(args.manifest)
    pair = _resolve_pair(store, args.pair)
    members = _resolve_members(store, args.members, pair)
    if args.family not in ("quadratic", "entropy"):
        raise ValidationError(f"--family must be quadratic or entropy, got {args.family!r}")
    out = prepare_out_dir(args.out, args.force)

    samples = {}
    for side, dataset in enumerate(pair):
        sample = joint_samples(store.member_probs(members, dataset), args.family, source=dataset)
        take = _subsample_indices(sample.n, args.subsample, args.seed, tag=100 + side)
        samples[dataset] = JointSample(sample.avg[take], sample.div[take], dataset)

    ind_id, ood_id = pair
    result = permutation_test(
        samples[ind_id],
        samples[ood_id],
        n_surrogates=args.surrogates,
        seed=args.seed,
        grid_size=args.bins,
        integral=args.integral_d,
    )

    write_csv(
        out / "curves.csv",
        ["x", "y_ind", "y_ood"],
        zip(result.x_grid, result.curve_ind.y_hat, result.curve_ood.y_hat),
    )

    fig_out = out / "conditional.svg"
    _conditional_figure(samples[ind_id], samples[ood_id], result, fig_out, args.seed, not args.no_timestamp)

    write_json(
        out / "result.json",
        {
            "command": "conditional",
            "inputs": {"manifest": str(args.manifest), "pair": list(pair), "members": members},
            "d_statistic": result.d,
            "p_value": result.p_value,
            "n_surrogates": result.n_surrogates,
            "d_surrogates": result.d_surrogates,
            "seed": args.seed,
            "settings": {
                "family": args.family,
                "d_form": "integral" if args.integral_d else "ratio_of_sums",
                "grid_size": args.bins,
                "grid_lo": float(result.x_grid[0]),
                "grid_hi": float(result.x_grid[-1]),
                "trim_percentiles": list(DEFAULT_TRIM_PERCENTILES),
                "bandwidth_ind": result.curve_ind.bandwidth,
                "bandwidth_ood": result.curve_ood.bandwidth,
                "ridge_ind": result.curve_ind.ridge,
                "ridge_ood": result.curve_ood.ridge,
                "ridge_scale": DEFAULT_RIDGE_SCALE,
                "krr_rank_ind": result.curve_ind.rank,
                "krr_rank_ood": result.curve_ood.rank,
                "pivot_tol": PIVOT_TOL,
                "regressor": "kernel_ridge",
                "subsample": args.subsample,
                "nll_eps": NLL_EPS,
            },
            "versions": _versions(),
        },
    )


def _conditional_figure(sample_ind, sample_ood, result, path: Path, seed: int, timestamp: bool) -> None:
    xlim = svgplot.padded_limits(np.concatenate([sample_ind.avg, sample_ood.avg]))
    ylim = svgplot.padded_limits(np.concatenate([sample_ind.div, sample_ood.div]))
    panel = svgplot.Panel(60, 40, 460, 320, xlim, ylim,
                          title="Diversity vs member-average uncertainty",
                          xlabel="member-average uncertainty", ylabel="diversity")
    for sample, color in ((sample_ind, svgplot.IND_COLOR), (sample_ood, svgplot.OOD_COLOR)):
        take = _subsample_indices(sample.n, PLOT_POINT_CAP, seed, tag=17)
        panel.scatter(sample.avg[take], sample.div[take], color, r=1.5, opacity=0.35)
    panel.line(result.x_grid, result.curve_ind.y_hat, svgplot.IND_COLOR, width=2.5)
    panel.line(result.x_grid, result.curve_ood.y_hat, svgplot.OOD_COLOR, width=2.5)
    panel.label(f"InD ({sample_ind.source})", 70, 56, svgplot.IND_COLOR)
    panel.label(f"OOD ({sample_ood.source})", 70, 72, svgplot.OOD_COLOR)
    panel.label(f"d = {result.d:.4f}, p = {result.p_value:.4f}", 70, 88)
    path.write_text(svgplot.document(580, 420, [panel], timestamp=timestamp))


# ------------------------------------------------------------------ trends


def _load_ensembles(arg: str, store: PredictionStore, pair: tuple[str, str]) -> list[EnsembleDef]:
    shared = [m for m in store.model_ids if all(store.has_prediction(m, d) for d in pair)]
    if arg == "none":
        return []
    if arg == "loo":
        if len(shared) < 3:
            return []
        return enumerate_homogeneous_ensembles(shared, len(shared) - 1)
    path = Path(arg)
    if not path.is_file():
        raise ValidationError(f"--ensembles file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"--ensembles file is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise ValidationError("--ensembles file must hold a JSON list of member lists")
    defs = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, list) or not all(isinstance(m, str) for m in entry):
            raise ValidationError(f"--ensembles entry {i} must be a list of model ids, got {entry!r}")
        for m in entry:
            if m not in store.model_ids:
                raise ValidationError(f"--ensembles entry {i} references unknown model {m!r}")
        defs.append(EnsembleDef(ensemble_id_for(entry), tuple(entry)))
    return defs


def cmd_trends(args: argparse.Namespace) -> None:
    store = load_store(args.manifest)
    pair = _resolve_pair(store, args.pair)
    metrics = _resolve_metrics(args.metric)
    ensembles = _load_ensembles(args.ensembles, store, pair)
    out = prepare_out_dir(args.out, args.force)

    het_ids: set[str] = set()
    skipped_bins: list[dict] = []
    if args.het_bins:
        report = form_heterogeneous_ensembles(store, pair[0], args.het_bins, seed=args.seed)
        existing = {e.ensemble_id for e in ensembles}
        for ens in report.ensembles:
            if ens.ensemble_id not in existing:
                ensembles.append(ens)
            het_ids.add(ens.ensemble_id)
        skipped_bins = report.skipped

    points = trend_points(store, ensembles, metrics, pair, n_bins=args.bins,
                          heterogeneous_ids=frozenset(het_ids))
    rows = trend_table(points)

    baselines = {r.metric: r.fit for r in rows if r.model_class == "Single Model"}
    point_rows = []
    for p in points:
        resid = effective_robustness(p, baselines[p.metric]) if p.metric in baselines else float("nan")
        point_rows.append((p.metric, p.model_id, p.model_class, p.ind_value, p.ood_value, resid))
    write_csv(
        out / "trend_points.csv",
        ["metric", "model_id", "model_class", "ind_value", "ood_value", "effective_robustness"],
        point_rows,
    )
    write_csv(
        out / "trend_table.csv",
        ["metric", "model_class", "coefficient", "std_error", "t_statistic", "p_value", "r2", "n"],
        (
            (r.metric, r.model_class, r.fit.coefficient, r.fit.std_error,
             r.fit.t_statistic, r.fit.p_value, r.fit.r2, r.fit.n)
            for r in rows
        ),
    )

    ratio_report = None
    if ensembles and len([m for m in store.model_ids]) >= 3:
        try:
            rep = diversity_ratio_check(store, ensembles, pair)
            ratio_report = {
                "ratio": rep.ratio,
                "per_ensemble_ratio": rep.per_ensemble_ratio,
                "c0": rep.c0,
                "c0_std_error": rep.c0_std_error,
                "discrepancy": rep.discrepancy,
            }
        except ValidationError:
            ratio_report = None

    for metric in metrics:
        _trends_figure(points, rows, metric, out / f"trends_{metric}.svg", not args.no_timestamp)

    write_json(
        out / "result.json",
        {
            "command": "trends",
            "inputs": {"manifest": str(args.manifest), "pair": list(pair)},
            "metrics": metrics,
            "table": [
                {
                    "metric": r.metric,
                    "model_class": r.model_class,
                    "coefficient": r.fit.coefficient,
                    "intercept": r.fit.intercept,
                    "std_error": r.fit.std_error,
                    "t_statistic": r.fit.t_statistic,
                    "p_value": r.fit.p_value,
                    "r2": r.fit.r2,
                    "n": r.fit.n,
                }
                for r in rows
            ],
            "diversity_ratio": ratio_report,
            "ensembles": [list(e.member_model_ids) for e in ensembles],
            "heterogeneous_skipped_bins": skipped_bins,
            "seed": args.seed,
            "settings": {
                "calibration_bins": args.bins,
                "ensemble_rule": args.ensembles,
                "het_bins": args.het_bins,
                "axis_scaling": "none",
                "score_orientation": "lower_is_better",
            },
            "versions": _versions(),
        },
    )


def _trends_figure(points, rows, metric: str, path: Path, timestamp: bool) -> None:
    pts = [p for p in points if p.metric == metric]
    if not pts:
        return
    xs = np.array([p.ind_value for p in pts])
    ys = np.array([p.ood_value for p in pts])
    lo = min(xs.min(), ys.min())
    hi = max(xs.max(), ys.max())
    pad = 0.05 * (hi - lo) if hi > lo else 0.5
    lim = (lo - pad, hi + pad)
    panel = svgplot.Panel(60, 40, 420, 420, lim, lim, title=f"Trend: {metric}",
                          xlabel="InD score", ylabel="OOD score")
    panel.line([lim[0], lim[1]], [lim[0], lim[1]], svgplot.LINE_COLOR, width=1.0, dash="5,4")
    classes = {
        "single": ([p for p in pts if p.model_class == "single"], svgplot.SINGLE_COLOR),
        "ensemble": ([p for p in pts if p.model_class in ("ensemble", "heterogeneous")], svgplot.ENSEMBLE_COLOR),
    }
    for _, (grp, color) in classes.items():
        panel.scatter([p.ind_value for p in grp], [p.ood_value for p in grp], color, r=3.5, opacity=0.8)
    fit_colors = {"All": svgplot.LINE_COLOR, "Single Model": svgplot.SINGLE_COLOR, "Ensemble": svgplot.ENSEMBLE_COLOR}
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
    path.write_text(svgplot.document(540, 520, [panel], timestamp=timestamp))


# ----------------------------------------------------------------- improve


def _member_probs_for_spec(store: PredictionStore, spec: str, dataset: str) -> np.ndarray:
    ids = spec.split("+")
    for m in ids:
        if not store.has_prediction(m, dataset):
            raise ValidationError(f"model {m!r} has no prediction on {dataset!r}")
    if len(ids) == 1:
        return store.probs(ids[0], dataset)
    return store.ensemble_probs(ids, dataset)


def cmd_improve(args: argparse.Namespace) -> None:
    if args.subsample < 0:
        raise ValidationError(f"--subsample must be nonnegative (0 = off), got {args.subsample}")
    store = load_store(args.manifest)
    pair = _resolve_pair(store, args.pair)
    metric = METRIC_ALIASES.get(args.metric, args.metric)
    if metric in ("ece", "resce"):
        raise ValidationError("improvement analysis needs a per-point metric (01, nll, brier)")
    out = prepare_out_dir(args.out, args.force)

    per_dataset: dict = {}
    for dataset in pair:
        labels = store.labels(dataset)
        base = _member_probs_for_spec(store, args.base, dataset)
        alt_a = _member_probs_for_spec(store, args.alt_a, dataset)
        alt_b = _member_probs_for_spec(store, args.alt_b, dataset)
        control = _member_probs_for_spec(store, args.control, dataset)

        delta_a = per_point_improvement(base, alt_a, labels, metric)
        delta_b = per_point_improvement(base, alt_b, labels, metric)
        delta_c = per_point_improvement(base, control, labels, metric)
        base_scores = compute_metric(metric, base, labels)

        take = _subsample_indices(delta_a.shape[0], args.subsample, args.seed, tag=29)
        delta_a, delta_b, delta_c = delta_a[take], delta_b[take], delta_c[take]
        base_scores = base_scores[take]

        test = improvement_similarity_test(delta_a, delta_b, delta_c, alpha=args.alpha)
        r = pearson_r(delta_a, delta_b)

        write_csv(
            out / f"improve_{dataset}.csv",
            ["index", "delta_a", "delta_b", "control_delta", "base_score"],
            zip(take, delta_a, delta_b, delta_c, base_scores),
        )
        _improvement_figure(delta_a, delta_b, base_scores, out / f"improve_{dataset}.svg",
                            args.seed, not args.no_timestamp)
        per_dataset[dataset] = {
            "pearson_r": r,
            "mmd": {
                "statistic": test.statistic,
                "threshold": test.threshold,
                "formatted": test.formatted(),
                "alpha": test.alpha,
                "bandwidth": test.bandwidth,
                "m": test.m,
                "reject": test.reject,
            },
            "n": int(delta_a.shape[0]),
        }

    write_json(
        out / "result.json",
        {
            "command": "improve",
            "inputs": {
                "manifest": str(args.manifest),
                "pair": list(pair),
                "base": args.base,
                "alt_a": args.alt_a,
                "alt_b": args.alt_b,
                "control": args.control,
            },
            "metric": metric,
            "results": per_dataset,
            "seed": args.seed,
            "settings": {
                "alpha": args.alpha,
                "bandwidth_rule": "median_heuristic",
                "cloud_construction": "paired_2d",
                "subsample": args.subsample,
            },
            "versions": _versions(),
        },
    )


def _improvement_figure(delta_a, delta_b, base_scores, path: Path, seed: int, timestamp: bool) -> None:
    take = _subsample_indices(delta_a.shape[0], PLOT_POINT_CAP, seed, tag=31)
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
    path.write_text(svgplot.document(540, 520, [panel], timestamp=timestamp))


# ------------------------------------------------------------------ gp-demo


def cmd_gp_demo(args: argparse.Namespace) -> None:
    out = prepare_out_dir(args.out, args.force)
    exp = run_default_experiment(seed=args.seed, n_bins=args.bins)
    pred = exp.prediction

    write_csv(
        out / "gp_predictions.csv",
        ["x", "mean", "posterior_variance", "likelihood_variance", "split"],
        (
            (pred.x[i], pred.mean[i], pred.posterior_variance[i],
             pred.likelihood_variance[i], "ind" if pred.x[i] >= 0 else "ood")
            for i in range(pred.x.shape[0])
        ),
    )
    bin_rows = []
    for split in ("ind", "ood"):
        table = exp.tables[split]
        for b in range(table.counts.shape[0]):
            bin_rows.append(
                (split, table.edges[b], table.edges[b + 1], table.counts[b],
                 table.mean_posterior_variance[b])
            )
    write_csv(
        out / "gp_bins.csv",
        ["split", "bin_lo", "bin_hi", "count", "mean_posterior_variance"],
        bin_rows,
    )

    ind_t, ood_t = exp.tables["ind"], exp.tables["ood"]
    both = (ind_t.counts > 0) & (ood_t.counts > 0)
    ood_higher = bool(
        np.all(ood_t.mean_posterior_variance[both] > ind_t.mean_posterior_variance[both])
    ) if both.any() else None

    _gp_figure(exp, out / "gp.svg", not args.no_timestamp)
    write_json(
        out / "result.json",
        {
            "command": "gp-demo",
            "seed": args.seed,
            "summary": {
                "mean_posterior_variance_ind": float(pred.posterior_variance[pred.x >= 0].mean()),
                "mean_posterior_variance_ood": float(pred.posterior_variance[pred.x < 0].mean()),
                "populated_bins_both_splits": int(both.sum()),
                "ood_exceeds_ind_in_all_populated_bins": ood_higher,
            },
            "settings": {
                "n_train": 25,
                "train_domain": [0.0, 5.0],
                "eval_domain": [-5.0, 5.0],
                "n_eval": int(pred.x.shape[0]),
                "lengthscale": exp.model.lengthscale,
                "signal_variance": exp.model.signal_variance,
                "noise_variance": "sin^2(x) + 0.01",
                "likelihood_bins": args.bins,
                "likelihood_range": [0.01, 1.01],
            },
            "versions": _versions(),
        },
    )


def _gp_figure(exp, path: Path, timestamp: bool) -> None:
    pred = exp.prediction
    std2 = 2.0 * np.sqrt(pred.posterior_variance)
    ylim = svgplot.padded_limits(np.concatenate([pred.mean - std2, pred.mean + std2, exp.model.train_y]))
    p1 = svgplot.Panel(60, 40, 420, 300, (-5.0, 5.0), ylim, title="Posterior on [-5, 5]",
                       xlabel="x", ylabel="y")
    p1.band(pred.x, pred.mean - std2, pred.mean + std2, svgplot.IND_COLOR, opacity=0.25)
    p1.line(pred.x, pred.mean, svgplot.IND_COLOR, width=2.0)
    p1.line([0, 0], [ylim[0], ylim[1]], svgplot.LINE_COLOR, width=0.8, dash="3,3")
    p1.scatter(exp.model.train_x, exp.model.train_y, svgplot.LINE_COLOR, r=2.5, opacity=0.9)

    ind_t, ood_t = exp.tables["ind"], exp.tables["ood"]
    centers = 0.5 * (ind_t.edges[:-1] + ind_t.edges[1:])
    vals = np.concatenate([
        ind_t.mean_posterior_variance[np.isfinite(ind_t.mean_posterior_variance)],
        ood_t.mean_posterior_variance[np.isfinite(ood_t.mean_posterior_variance)],
    ])
    ylim2 = svgplot.padded_limits(vals) if vals.size else (0.0, 1.0)
    p2 = svgplot.Panel(560, 40, 420, 300, (float(centers[0]), float(centers[-1])), ylim2,
                       title="Posterior variance by likelihood variance",
                       xlabel="likelihood variance", ylabel="mean posterior variance")
    for table, color, name in ((ind_t, svgplot.IND_COLOR, "InD (x >= 0)"), (ood_t, svgplot.OOD_COLOR, "OOD (x < 0)")):
        mask = table.counts > 0
        p2.line(centers[mask], table.mean_posterior_variance[mask], color, width=2.0)
        p2.scatter(centers[mask], table.mean_posterior_variance[mask], color, r=2.5, opacity=0.9)
    p2.label("InD (x >= 0)", 570, 56, svgplot.IND_COLOR)
    p2.label("OOD (x < 0)", 570, 72, svgplot.OOD_COLOR)
    path.write_text(svgplot.document(1040, 400, [p1, p2], timestamp=timestamp))


# ------------------------------------------------------------------- report


def cmd_report(args: argparse.Namespace) -> None:
    root = Path(args.out)
    if not root.is_dir():
        raise ValidationError(f"run directory not found: {root}")
    index_path = root / "index.json"
    if index_path.exists() and not args.force:
        raise ValidationError(f"{index_path} exists; pass --force to overwrite")
    runs = []
    for result in sorted(root.rglob("result.json")):
        try:
            parsed = json.loads(result.read_text())
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{result} is not valid JSON: {exc}") from exc
        runs.append({"path": str(result.relative_to(root)), "result": parsed})
    write_json(index_path, {"command": "report", "n_runs": len(runs), "runs": runs,
                            "versions": _versions()})


# ------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ensdiag", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, manifest: bool = True):
        if manifest:
            p.add_argument("--manifest", required=True, help="path to manifest.json")
            p.add_argument("--pair", default=None, help="dataset pair as IND:OOD")
        p.add_argument("--out", required=True, help="output directory for this run")
        p.add_argument("--force", action="store_true", help="overwrite a non-empty output directory")
        p.add_argument("--seed", type=int, default=0, help="RNG seed")
        p.add_argument("--no-timestamp", action="store_true", help="omit the timestamp comment in SVG output")

    p = sub.add_parser("simulate", help="write a synthetic prediction store")
    add_common(p, manifest=False)
    p.add_argument("--n-points", type=int, default=1000)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--models", type=int, default=4)
    p.add_argument("--noise", type=float, default=0.25, help="member logit offset scale")
    p.add_argument("--shift", type=float, default=1.0, help="OOD input shift strength")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("decompose", help="per-point uncertainty and score-gap decompositions")
    add_common(p)
    p.add_argument("--members", default=None, help="ensemble members as a+b+c (default: all models)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("conditional", help="conditional diversity curves and permutation test")
    add_common(p)
    p.add_argument("--members", default=None, help="ensemble members as a+b+c (default: all models)")
    p.add_argument("--family", default="quadratic", help="quadratic or entropy")
    p.add_argument("--surrogates", type=int, default=100)
    p.add_argument("--bins", type=int, default=DEFAULT_GRID_SIZE, help="evaluation grid size")
    p.add_argument("--subsample", type=int, default=0, help="cap per-dataset sample size (0 = off)")
    p.add_argument("--integral-d", action="store_true", help="integral form of the d statistic")
    p.set_defaults(func=cmd_conditional)

    p = sub.add_parser("trends", help="linear trends of OOD score on InD score")
    add_common(p)
    p.add_argument("--metric", default="01,nll,brier,resce",
                   help="comma list from {01,nll,brier,ece,resce}")
    p.add_argument("--bins", type=int, default=15, help="calibration bins for ece/resce")
    p.add_argument("--ensembles", default="loo",
                   help="'loo' (leave-one-out), 'none', or path to a JSON list of member lists")
    p.add_argument("--het-bins", type=int, default=0,
                   help="form heterogeneous ensembles from this many accuracy bins")
    p.set_defaults(func=cmd_trends)

    p = sub.add_parser("improve", help="agreement between two per-point improvement profiles")
    add_common(p)
    p.add_argument("--base", required=True, help="base model id")
    p.add_argument("--alt-a", required=True, help="first alternative (id or a+b+c ensemble)")
    p.add_argument("--alt-b", required=True, help="second alternative (id or a+b+c ensemble)")
    p.add_argument("--control", required=True, help="control alternative (id or a+b+c ensemble)")
    p.add_argument("--metric", default="brier", help="per-point metric: 01, nll, or brier")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--subsample", type=int, default=0, help="cap sample size (0 = off)")
    p.set_defaults(func=cmd_improve)

    p = sub.add_parser("gp-demo", help="heteroskedastic GP oracle experiment")
    add_common(p, manifest=False)
    p.add_argument("--bins", type=int, default=20, help="likelihood-variance bins")
    p.set_defaults(func=cmd_gp_demo)

    p = sub.add_parser("report", help="index all result.json files under a run directory")
    p.add_argument("--out", required=True, help="run directory to index")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
