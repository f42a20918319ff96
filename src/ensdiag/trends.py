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
from scipy import stats

from .decomposition import variance_diversity
from .errors import ValidationError
from .metrics import brier, calibration, compute_metric
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
    ind = np.asarray(ind, dtype=np.float64)
    ood = np.asarray(ood, dtype=np.float64)
    if ind.shape != ood.shape or ind.ndim != 1:
        raise ValidationError("ind and ood must be 1-d arrays of equal length")
    n = ind.shape[0]
    if n < 3:
        raise ValidationError(f"trend fit needs at least 3 points, got {n}")
    if float(ind.var()) == 0.0:
        raise ValidationError("trend fit degenerate: ind values have zero variance")
    res = stats.linregress(ind, ood)
    slope = float(res.slope)
    stderr = float(res.stderr)
    t_stat = slope / stderr if stderr > 0 else float("inf") * np.sign(slope or 1.0)
    return TrendFit(
        coefficient=slope,
        intercept=float(res.intercept),
        std_error=stderr,
        t_statistic=float(t_stat),
        p_value=float(res.pvalue),
        r2=float(res.rvalue) ** 2,
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
) -> list[TrendPoint]:
    """Score every single model and every ensemble on both sides of a pair.

    Each model and ensemble is scored once per dataset for all metrics.
    Points come out metric by metric, singles before ensembles.
    """
    for metric in metrics:
        if metric not in TREND_METRICS:
            raise ValidationError(f"unknown trend metric {metric!r}; choose from {TREND_METRICS}")
    ind_id, ood_id = pair
    labels = {d: store.labels(d) for d in pair}
    scored: list[tuple[str, str, dict, dict]] = []
    for mid in store.model_ids:
        if store.has_prediction(mid, ind_id) and store.has_prediction(mid, ood_id):
            ind, ood = [_scores(store.probs(mid, d), labels[d], metrics, n_bins) for d in pair]
            scored.append((mid, "single", ind, ood))
    for ens in ensembles:
        ind, ood = [
            _scores(store.ensemble_probs(ens.member_model_ids, d), labels[d], metrics, n_bins)
            for d in pair
        ]
        cls = "heterogeneous" if ens.ensemble_id in heterogeneous_ids else "ensemble"
        scored.append((ens.ensemble_id, cls, ind, ood))
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
    store: PredictionStore,
    ensembles: Sequence[EnsembleDef],
    pair: tuple[str, str],
) -> DiversityRatioReport:
    ind_id, ood_id = pair
    if not ensembles:
        raise ValidationError("diversity ratio needs at least one ensemble")
    per_ens: dict[str, float] = {}
    for ens in ensembles:
        div_ind = variance_diversity(store.member_probs(ens.member_model_ids, ind_id))
        div_ood = variance_diversity(store.member_probs(ens.member_model_ids, ood_id))
        denom = float(div_ind.mean())
        if denom == 0.0:
            raise ValidationError(f"ensemble {ens.ensemble_id!r} has zero mean diversity on {ind_id!r}")
        per_ens[ens.ensemble_id] = float(div_ood.mean()) / denom

    singles_ind, singles_ood = [], []
    for mid in store.model_ids:
        if store.has_prediction(mid, ind_id) and store.has_prediction(mid, ood_id):
            singles_ind.append(float(brier(store.probs(mid, ind_id), store.labels(ind_id)).mean()))
            singles_ood.append(float(brier(store.probs(mid, ood_id), store.labels(ood_id)).mean()))
    fit = fit_trend_xy(np.array(singles_ind), np.array(singles_ood))
    ratio = float(np.mean(list(per_ens.values())))
    return DiversityRatioReport(
        ratio=ratio,
        per_ensemble_ratio=per_ens,
        c0=fit.coefficient,
        c0_std_error=fit.std_error,
        discrepancy=abs(ratio - fit.coefficient),
    )
