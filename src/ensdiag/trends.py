"""Linear accuracy-on-the-line style trends between paired test sets.

Each model (single network or ensemble) contributes one point per metric:
its mean score on the in-distribution set against its mean score on the
shifted set. `trend_points` returns every model's points as one table, a
`TrendScores` of shape (models, TREND_METRICS, InD/OOD), and
`trend_table`, `effective_robustness` and `diversity_ratio_check` read
its columns and class masks. Scores keep the lower-is-better orientation
and axes are left untransformed. Effective robustness is the signed
residual against a fitted baseline, positive when a model does better
under shift than the baseline predicts.

An ensemble is a tuple of model ids, and its id is those ids joined by
``+``. `form_heterogeneous_ensembles` samples one from each accuracy bin
of the models; any other is the caller's: all the models but one, or a
listed tuple.

`trend_points` walks each dataset once in the row blocks of
store.member_blocks, which read every model once per block. Each
ensemble is formed in a spare slot of the block's stack, one
`score_sums` call scores the whole stack, and score sums and calibration
bin sums are added over the blocks. Memory grows with neither the number
of points nor the number of models or ensembles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import stream
from .errors import NumericalError, ValidationError
from .metrics import IDENTITY_TOL, SCORE_SUMS, ScoreSums, score_sums
from .store import PredictionStore, form_ensemble, member_blocks

# Each trend table row, in order, and the model classes its fit covers.
TABLE_CLASSES = {"All": ("single", "ensemble", "heterogeneous"), "Single Model": ("single",),
                 "Ensemble": ("ensemble", "heterogeneous")}
TREND_METRICS = (*SCORE_SUMS, "ece", "resce")
# Members of each accuracy-binned heterogeneous ensemble.
HET_ENSEMBLE_SIZE = 4


@dataclass
class TrendScores:
    """Every scored model's InD and OOD mean of each of TREND_METRICS.

    Model k is `ids[k]`, of class `classes[k]` ("single", "ensemble" or
    "heterogeneous"); `values[k, j]` holds its (InD, OOD) means of metric
    TREND_METRICS[j].
    """

    ids: list[str]
    classes: list[str]
    values: np.ndarray

    def column(self, metric: str) -> np.ndarray:
        """The (models, 2) view of one metric's InD and OOD means."""
        return self.values[:, TREND_METRICS.index(metric)]

    def mask(self, row: str) -> np.ndarray:
        """Which models the fit of TABLE_CLASSES row `row` covers."""
        return np.array([c in TABLE_CLASSES[row] for c in self.classes], dtype=bool)


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


def t_two_sided_p(t: float, df: int) -> float:
    """Two-sided p-value of a t statistic, 2 P(T > |t|) for Student's t with df degrees of freedom.

    It is the regularized incomplete beta I_x(df/2, 1/2) at x = df/(df + t^2),
    computed with math.lgamma and Lentz's continued fraction, on I_x(a, b)
    or on 1 - I_{1-x}(b, a) as x lies below or above (a + 1)/(a + b + 2).
    x and 1 - x = t^2/(df + t^2) are each formed from ln(t^2/df), never one
    as 1 minus the other, so neither loses digits when the other is near 1,
    and no t^2 overflows. Exactly 0 for infinite t, 1 for t = 0, nan for nan.
    """
    t = abs(float(t))
    if math.isnan(t):
        return math.nan
    if t == math.inf:
        return 0.0
    if t == 0.0:
        return 1.0
    a, b = 0.5 * df, 0.5
    u = 2.0 * math.log(t) - math.log(df)  # ln(t^2/df)
    tail = math.log1p(math.exp(-abs(u)))
    log_x, log_y = -(max(u, 0.0) + tail), -(max(-u, 0.0) + tail)  # ln x, ln(1 - x)
    # x^a (1 - x)^b / B(a, 1/2), with ln B(a, 1/2) = ln Gamma(1/2) - (ln Gamma(a + 1/2) - ln Gamma(a)).
    front = math.exp(a * log_x + b * log_y - 0.5 * math.log(math.pi) + _log_gamma_half_step(a))
    x = math.exp(log_x)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, math.exp(log_y)) / b


def _log_gamma_half_step(a: float) -> float:
    """ln Gamma(a + 1/2) - ln Gamma(a), to a few ulps of its value.

    The difference of two math.lgamma values loses digits as a grows (9e-12
    at a = 5,000), so from a = 25 on the Stirling series is differenced term
    by term; its first omitted term is below 1e-18 there.
    """
    if a < 25.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)

    def series(z: float) -> float:
        return 1 / (12 * z) - 1 / (360 * z**3) + 1 / (1260 * z**5) - 1 / (1680 * z**7) + 1 / (1188 * z**9)

    return 0.5 * math.log(a) + (a * math.log1p(0.5 / a) - 0.5) + (series(a + 0.5) - series(a))


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) = x^a (1 - x)^b / (a B(a, b)) * fraction, by
    modified Lentz; it converges fast for x < (a + 1)/(a + b + 2)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100_000):
        for coef in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + coef * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + coef / c
            c = c if abs(c) > tiny else tiny
            h *= c * d
        if abs(c * d - 1.0) < 1e-16:
            return h
    raise NumericalError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


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
        p_value=t_two_sided_p(t_r, df),
        r2=float(r) ** 2,
        n=n,
    )


def effective_robustness(baseline: TrendFit, ind: np.ndarray, ood: np.ndarray) -> np.ndarray:
    """Predicted minus actual shifted score of each model. Positive means the
    model beats the baseline line (scores are errors, so lower is better)."""
    return baseline.intercept + baseline.coefficient * ind - ood


def form_heterogeneous_ensembles(
    store: PredictionStore,
    pair: tuple[str, str],
    n_bins: int,
    seed: int = 0,
) -> tuple[list[tuple[str, ...]], list[dict]]:
    """Group the models predicted on both datasets of the pair into
    equal-width accuracy bins on its in-distribution side, and sample one
    ensemble of HET_ENSEMBLE_SIZE distinct models from each bin.

    Returns ``(ensembles, skipped)``. A bin holding at least one model but
    fewer than HET_ENSEMBLE_SIZE is skipped and recorded in `skipped`; an
    empty bin is skipped with no record. Sampling is without replacement
    and is deterministic for a fixed seed.
    """
    if n_bins < 1:
        raise ValidationError("n_bins must be >= 1")
    model_ids = store.models_on_pair(pair)
    if not model_ids:
        raise ValidationError(f"no models with predictions on both {pair[0]!r} and {pair[1]!r}")
    labels = store.labels[pair[0]]
    correct = np.zeros(len(model_ids))
    for rows, stack in member_blocks(store.member_probs(model_ids, pair[0])):
        correct += np.count_nonzero(stack.argmax(axis=2) == labels[rows], axis=1)
    values = correct / len(labels)
    lo, hi = float(values.min()), float(values.max())
    edges = np.linspace(lo, hi, n_bins + 1)
    width = hi - lo
    if width == 0.0:
        idx = np.zeros(len(model_ids), dtype=np.int64)
    else:
        idx = np.clip(((values - lo) / width * n_bins).astype(np.int64), 0, n_bins - 1)

    rng = stream(seed)
    ensembles: list[tuple[str, ...]] = []
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
        ensembles.append(tuple(sorted(rng.choice(in_bin, size=HET_ENSEMBLE_SIZE, replace=False).tolist())))
    return ensembles, skipped


def trend_points(
    store: PredictionStore,
    ensembles: Sequence[tuple[str, ...]],
    pair: tuple[str, str],
    n_bins: int = 15,
    heterogeneous: frozenset[tuple[str, ...]] = frozenset(),
) -> TrendScores:
    """Score every single model and every ensemble on both sides of a pair.

    Each dataset is walked once, one block of store.member_blocks at a
    time. A single is scored on its block rows. An ensemble of all the
    pair's M >= 3 models but one, k, is (S - p_k) / (M - 1), with S the
    block's sum in model order; it agrees with `form_ensemble` to within
    1e-12 rather than bit for bit. Any other ensemble is `form_ensemble`
    over its members' block rows. One `score_sums` call scores every model
    of a block for all of TREND_METRICS, one pass over each. The score and
    calibration bin sums are added up over the blocks, and the means, ECE
    and ResCE formed once.
    Each ensemble is checked by `PredictionStore.check_ensemble` first, so an
    empty or repeated one, or one naming a model off the pair, is one
    ValidationError naming it.
    The table's rows are the singles in the pair's model order, then the
    ensembles as given. An ensemble is named by its members joined with
    ``+``, and is of class "heterogeneous" when its tuple is in
    `heterogeneous`.
    """
    models = store.models_on_pair(pair)
    m = len(models)
    index = {k: i for i, k in enumerate(models)}
    # Per ensemble: the index of the one model it leaves out, or its members' indices.
    forms: list[int | list[int]] = []
    for ens in ensembles:
        store.check_ensemble(ens, pair, f"ensemble {'+'.join(ens)!r}")
        rest = set(models).difference(ens)
        all_but_one = m >= 3 and len(ens) == m - 1 and len(rest) == 1
        forms.append(index[rest.pop()] if all_but_one else [index[k] for k in ens])
    ids = [*models, *("+".join(ens) for ens in ensembles)]
    classes = ["single"] * m + ["heterogeneous" if ens in heterogeneous else "ensemble" for ens in ensembles]
    values = np.zeros((len(ids), len(TREND_METRICS), 2))
    if not models:
        return TrendScores(ids, classes, values)
    loo = any(isinstance(form, int) for form in forms)

    def walk(dataset: str) -> ScoreSums:
        """Score and bin sums over one dataset's blocks. A block's slots hold the
        models, one ensemble each, and the models' sum S if an ensemble leaves
        one out. The last block dies with this frame, before the next walk's."""
        labels, sums = store.labels[dataset], None
        for rows, stack in member_blocks(store.member_probs(models, dataset), spare=len(forms) + loo):
            if loo:
                np.sum(stack[:m], axis=0, out=stack[-1])
            for slot, form in zip(stack[m:], forms):
                if isinstance(form, list):
                    form_ensemble([stack[i] for i in form], out=slot)
                    continue
                np.subtract(stack[-1], stack[form], out=slot)
                slot /= m - 1
            part = score_sums(stack[:len(ids)], labels[rows], n_bins=n_bins)
            sums = part if sums is None else sums + part
        return sums

    for side, dataset in enumerate(pair):
        sums = walk(dataset)
        values[:, :len(SCORE_SUMS), side] = sums.scores / len(store.labels[dataset])
        for k in range(len(ids)):
            values[k, len(SCORE_SUMS):, side] = sums.calibration_errors(k)
    return TrendScores(ids, classes, values)


@dataclass
class TrendRow:
    metric: str
    model_class: str
    fit: TrendFit


def trend_table(scores: TrendScores, metrics: Sequence[str]) -> list[TrendRow]:
    """Fit one row per metric, in sorted order, for each row of TABLE_CLASSES,
    over the models of its classes in table order.

    A row is omitted when no line fits it: it has fewer than 3 models, or
    its models' InD scores have zero variance. When only one class is
    present its row coincides with All.
    """
    rows: list[TrendRow] = []
    for metric in sorted(metrics):
        column = scores.column(metric)
        for cls in TABLE_CLASSES:
            mask = scores.mask(cls)
            ind, ood = column[mask, 0], column[mask, 1]
            if len(ind) < 3 or float(ind.var()) == 0.0:
                continue
            rows.append(TrendRow(metric, cls, fit_trend_xy(ind, ood)))
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
    scores: TrendScores,
    ensembles: Sequence[tuple[str, ...]],
) -> DiversityRatioReport:
    """Diversity ratio from the Brier column of the trend scores alone.

    By the Brier-gap identity an ensemble's mean variance diversity is its
    members' mean Brier score minus its own, so no predictions are read.
    `scores` must hold every ensemble and its members. The members' mean
    is one 1-d `np.mean` per dataset, in member order.
    """
    brier = scores.column("brier")
    single = scores.mask("Single Model")
    singles, combined = (
        {k: i for i, (k, inside) in enumerate(zip(scores.ids, mask)) if inside}
        for mask in (single, scores.mask("Ensemble"))
    )
    if not ensembles:
        raise ValidationError("diversity ratio needs at least one ensemble")
    if len(singles) < 3:
        raise ValidationError(f"diversity ratio needs at least 3 single models, got {len(singles)}")
    per_ens: dict[str, float] = {}
    for members in ensembles:
        eid = "+".join(members)
        if len(members) < 2:
            raise ValidationError(f"ensemble {eid!r} has fewer than two members")
        try:
            k = combined[eid]
            rows = [singles[m] for m in members]
        except KeyError as exc:
            raise ValidationError(f"no brier trend point for {exc.args[0]!r}") from exc
        div_ind, div_ood = (float(np.mean(brier[rows, side])) - float(brier[k, side]) for side in (0, 1))
        if div_ind <= IDENTITY_TOL:
            raise ValidationError(f"ensemble {eid!r} has zero mean diversity on the InD set")
        per_ens[eid] = div_ood / div_ind

    fit = fit_trend_xy(brier[single, 0], brier[single, 1])
    ratio = float(np.mean(list(per_ens.values())))
    return DiversityRatioReport(
        ratio=ratio,
        per_ensemble_ratio=per_ens,
        c0=fit.coefficient,
        c0_std_error=fit.std_error,
        discrepancy=abs(ratio - fit.coefficient),
    )
