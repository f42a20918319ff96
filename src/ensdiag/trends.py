"""Linear accuracy-on-the-line style trends between paired test sets.

Each model (single network or ensemble) contributes one point: its mean
score on the in-distribution set against its mean score on the shifted
set. Scores keep the lower-is-better orientation and axes are left
untransformed. Effective robustness is the signed residual against a
fitted baseline, positive when a model does better under shift than the
baseline predicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .metrics import IDENTITY_TOL, calibration, compute_metric
from .store import EnsembleDef, PredictionStore

MODEL_CLASSES = ("single", "ensemble", "heterogeneous")
TABLE_CLASSES = ("All", "Single Model", "Ensemble")
TREND_METRICS = ("zero_one", "nll", "brier", "ece", "resce")


@dataclass
class TrendPoint:
    """One model's (ind, ood) mean-score pair for one metric."""

    model_id: str
    model_class: str
    metric: str
    ind_value: float
    ood_value: float

    def __post_init__(self) -> None:
        if self.model_class not in MODEL_CLASSES:
            raise ValidationError(f"unknown model class {self.model_class!r}")


@dataclass
class TrendFit:
    """Ordinary least squares fit of ood on ind with an intercept."""

    coefficient: float
    intercept: float
    std_error: float
    t_statistic: float
    p_value: float
    r2: float
    n: int


def fit_trend_xy(ind: np.ndarray, ood: np.ndarray) -> TrendFit:
    from scipy import special  # the one scipy use left; loaded here to keep start-up numpy-only

    ind = np.asarray(ind, dtype=np.float64)
    ood = np.asarray(ood, dtype=np.float64)
    if ind.shape != ood.shape or ind.ndim != 1:
        raise ValidationError("ind and ood must be 1-d arrays of equal length")
    n = ind.shape[0]
    if n < 3:
        raise ValidationError(f"trend fit needs at least 3 points, got {n}")
    if float(ind.var()) == 0.0:
        raise ValidationError("trend fit degenerate: ind values have zero variance")
    # Closed-form OLS, operation for operation as scipy.stats.linregress
    # computes it, so every field is bit-equal to linregress. As there, the
    # p-value comes from the t implied by r; the reported t is slope/stderr.
    ssxm, ssxym, _, ssym = np.cov(ind, ood, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.float64(np.nan if ssxym == 0 else 0.0)
    else:
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    slope = float(ssxym / ssxm)
    df = n - 2
    t_r = r * np.sqrt(df / ((1.0 - r + 1e-20) * (1.0 + r + 1e-20)))
    stderr = float(np.sqrt((1 - r**2) * ssym / ssxm / df))
    t_stat = slope / stderr if stderr > 0 else float("inf") * np.sign(slope or 1.0)
    return TrendFit(
        coefficient=slope,
        intercept=float(np.mean(ood) - slope * np.mean(ind)),
        std_error=stderr,
        t_statistic=float(t_stat),
        p_value=float(2 * special.stdtr(df, -np.abs(t_r))),
        r2=float(r) ** 2,
        n=n,
    )


def fit_trend(points: Sequence[TrendPoint]) -> TrendFit:
    ind = np.array([p.ind_value for p in points])
    ood = np.array([p.ood_value for p in points])
    return fit_trend_xy(ind, ood)


def effective_robustness(point: TrendPoint, baseline: TrendFit) -> float:
    """Predicted minus actual shifted score. Positive means the model beats
    the baseline line (scores are errors, so lower is better)."""
    predicted = baseline.intercept + baseline.coefficient * point.ind_value
    return float(predicted - point.ood_value)


def _scores(probs: np.ndarray, labels: np.ndarray, metrics: Sequence[str], n_bins: int) -> dict[str, float]:
    """Mean score of one prediction matrix for each metric, calibrating at most once."""
    out: dict[str, float] = {}
    if "ece" in metrics or "resce" in metrics:
        summary = calibration(probs, labels, n_bins=n_bins)
        out.update(ece=summary.ece, resce=summary.resce)
    for metric in metrics:
        if metric not in out:
            out[metric] = float(compute_metric(metric, probs, labels).mean())
    return out


def trend_points(
    store: PredictionStore,
    ensembles: Sequence[EnsembleDef],
    metrics: Sequence[str],
    pair: tuple[str, str],
    n_bins: int = 15,
    heterogeneous_ids: frozenset[str] = frozenset(),
    leave_one_out: bool = False,
) -> list[TrendPoint]:
    """Score every single model and every ensemble on both sides of a pair.

    Each model and ensemble is scored once per dataset for all metrics.
    Points come out metric by metric, singles before ensembles. Ensembles
    are formed by `PredictionStore.ensemble_probs`, except that with
    `leave_one_out` an ensemble of all the pair's M >= 3 models but one,
    k, is formed as (S - p_k) / (M - 1) from the running sum S of the
    singles as they are scored. Each model is then read twice per dataset
    rather than M times, and those ensembles agree with `form_ensemble`
    to within 1e-12 rather than bit for bit.
    """
    for metric in metrics:
        if metric not in TREND_METRICS:
            raise ValidationError(f"unknown trend metric {metric!r}; choose from {TREND_METRICS}")
    models = store.models_on_pair(pair)
    # Per ensemble, the one model it leaves out, or None to form it from its members.
    left_out: list[str | None] = [None] * len(ensembles)
    if leave_one_out and len(models) >= 3:
        for i, ens in enumerate(ensembles):
            rest = set(models).difference(ens.member_model_ids)
            if len(ens.member_model_ids) == len(models) - 1 and len(rest) == 1:
                left_out[i] = rest.pop()
    running_sum = any(k is not None for k in left_out)
    single_scores: list[list[dict]] = [[] for _ in models]
    ensemble_scores: list[list[dict]] = [[] for _ in ensembles]
    for dataset in pair:
        labels = store.labels(dataset)
        total = None
        for mid, out in zip(models, single_scores):
            probs = store.probs(mid, dataset)
            out.append(_scores(probs, labels, metrics, n_bins))
            if running_sum:
                total = probs.copy() if total is None else np.add(total, probs, out=total)
        for ens, k, out in zip(ensembles, left_out, ensemble_scores):
            if k is not None:
                probs = total - store.probs(k, dataset)
                probs /= len(models) - 1
            else:
                probs = store.ensemble_probs(ens.member_model_ids, dataset)
            out.append(_scores(probs, labels, metrics, n_bins))
    scored = [(mid, "single", *out) for mid, out in zip(models, single_scores)]
    scored += [
        (ens.ensemble_id, "heterogeneous" if ens.ensemble_id in heterogeneous_ids else "ensemble", *out)
        for ens, out in zip(ensembles, ensemble_scores)
    ]
    return [
        TrendPoint(model_id, cls, metric, ind[metric], ood[metric])
        for metric in metrics
        for model_id, cls, ind, ood in scored
    ]


@dataclass
class TrendRow:
    metric: str
    model_class: str
    fit: TrendFit


def trend_table(points: Sequence[TrendPoint]) -> list[TrendRow]:
    """Fit one row per metric for All, Single Model, and Ensemble classes.

    Classes with fewer than 3 points are omitted. Heterogeneous ensembles
    count toward the Ensemble row. When only one class is present its row
    coincides with All.
    """
    rows: list[TrendRow] = []
    metrics = sorted({p.metric for p in points})
    for metric in metrics:
        of_metric = [p for p in points if p.metric == metric]
        groups = {
            "All": of_metric,
            "Single Model": [p for p in of_metric if p.model_class == "single"],
            "Ensemble": [p for p in of_metric if p.model_class in ("ensemble", "heterogeneous")],
        }
        for cls in TABLE_CLASSES:
            grp = groups[cls]
            if len(grp) < 3:
                continue
            rows.append(TrendRow(metric, cls, fit_trend(grp)))
    return rows


@dataclass
class DiversityRatioReport:
    """Shift ratio of mean member variance against the single-model Brier slope.

    When single models and their ensemble lie on one line, the ratio of
    expected diversity across the shift equals that line's slope.
    """

    ratio: float
    per_ensemble_ratio: dict[str, float]
    c0: float
    c0_std_error: float
    discrepancy: float


def diversity_ratio_check(
    points: Sequence[TrendPoint],
    ensembles: Sequence[EnsembleDef],
) -> DiversityRatioReport:
    """Diversity ratio from the Brier trend points alone.

    By the Brier-gap identity an ensemble's mean variance diversity is its
    members' mean Brier score minus its own, so no predictions are read.
    `points` must hold the Brier points of every ensemble and its members.
    """
    brier_points = [p for p in points if p.metric == "brier"]
    singles = {p.model_id: p for p in brier_points if p.model_class == "single"}
    combined = {p.model_id: p for p in brier_points if p.model_class != "single"}
    if not ensembles:
        raise ValidationError("diversity ratio needs at least one ensemble")
    if len(singles) < 3:
        raise ValidationError(f"diversity ratio needs at least 3 single models, got {len(singles)}")
    per_ens: dict[str, float] = {}
    for ens in ensembles:
        members = ens.member_model_ids
        if len(members) < 2:
            raise ValidationError(f"ensemble {ens.ensemble_id!r} has fewer than two members")
        try:
            point = combined[ens.ensemble_id]
            member_points = [singles[m] for m in members]
        except KeyError as exc:
            raise ValidationError(f"no brier trend point for {exc.args[0]!r}") from exc
        div_ind = float(np.mean([p.ind_value for p in member_points])) - point.ind_value
        div_ood = float(np.mean([p.ood_value for p in member_points])) - point.ood_value
        if div_ind <= IDENTITY_TOL:
            raise ValidationError(f"ensemble {ens.ensemble_id!r} has zero mean diversity on the InD set")
        per_ens[ens.ensemble_id] = div_ood / div_ind

    fit = fit_trend(list(singles.values()))
    ratio = float(np.mean(list(per_ens.values())))
    return DiversityRatioReport(
        ratio=ratio,
        per_ensemble_ratio=per_ens,
        c0=fit.coefficient,
        c0_std_error=fit.std_error,
        discrepancy=abs(ratio - fit.coefficient),
    )
