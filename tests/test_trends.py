"""Trend fits, effective robustness, and the diversity-ratio identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_store, random_simplex
import ensdiag.trends
from ensdiag.errors import ValidationError
from ensdiag.metrics import brier, calibration, compute_metric
from ensdiag.store import (
    EnsembleDef,
    PredictionStore,
    enumerate_homogeneous_ensembles,
    form_ensemble,
    form_heterogeneous_ensembles,
)
from ensdiag.trends import (
    TREND_METRICS,
    TrendPoint,
    diversity_ratio_check,
    effective_robustness,
    fit_trend,
    fit_trend_xy,
    trend_points,
    trend_table,
)

HAND_X = np.array([0.0, 1.0, 2.0, 3.0])
HAND_Y = np.array([0.0, 1.0, 2.0, 4.0])


def points_from_xy(x, y, model_class="single", metric="brier"):
    return [
        TrendPoint(f"m{i}", model_class, metric, float(a), float(b))
        for i, (a, b) in enumerate(zip(x, y))
    ]


class TestFitTrend:
    def test_exact_line(self):
        x = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        fit = fit_trend_xy(x, 2.0 * x + 1.0)
        assert fit.coefficient == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.n == 5

    def test_hand_computed_fit(self):
        fit = fit_trend_xy(HAND_X, HAND_Y)
        assert fit.coefficient == pytest.approx(1.3, abs=1e-12)
        assert fit.intercept == pytest.approx(-0.2, abs=1e-12)
        assert fit.r2 == pytest.approx(0.9657142857142857, abs=1e-12)
        assert fit.std_error == pytest.approx(0.1732050807568877, abs=1e-12)
        assert fit.t_statistic == pytest.approx(7.505553499465137, abs=1e-9)
        assert fit.p_value == pytest.approx(0.0172923701760092, abs=1e-12)

    def test_normal_equation_cross_check(self, rng):
        x = rng.uniform(0.0, 1.0, 40)
        y = 0.7 * x + 0.2 + rng.normal(0.0, 0.1, 40)
        fit = fit_trend_xy(x, y)
        slope_ref, intercept_ref = np.polyfit(x, y, 1)
        assert fit.coefficient == pytest.approx(slope_ref, abs=1e-12)
        assert fit.intercept == pytest.approx(intercept_ref, abs=1e-12)

    def test_needs_three_points(self):
        with pytest.raises(ValidationError):
            fit_trend_xy(np.array([0.0, 1.0]), np.array([0.0, 1.0]))

    def test_zero_variance_rejected(self):
        with pytest.raises(ValidationError):
            fit_trend_xy(np.full(5, 0.3), np.arange(5.0))

    def test_from_points(self):
        fit = fit_trend(points_from_xy(HAND_X, HAND_Y))
        assert fit.coefficient == pytest.approx(1.3, abs=1e-12)

    def test_recovery_within_three_se(self):
        # y = 0.5 x + 0.1 + noise; the slope CI should cover 0.5 almost always.
        hits = 0
        for seed in range(200):
            r = np.random.default_rng(seed)
            x = r.uniform(0.0, 1.0, 50)
            y = 0.5 * x + 0.1 + r.normal(0.0, 0.05, 50)
            fit = fit_trend_xy(x, y)
            if abs(fit.coefficient - 0.5) <= 3.0 * fit.std_error:
                hits += 1
        assert hits >= 198

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_r2_in_unit_interval(self, seed):
        r = np.random.default_rng(seed)
        x = r.normal(size=10)
        y = r.normal(size=10)
        fit = fit_trend_xy(x, y)
        assert 0.0 <= fit.r2 <= 1.0 + 1e-12


class TestEffectiveRobustness:
    def test_on_line_point(self):
        fit = fit_trend_xy(HAND_X, 2.0 * HAND_X + 1.0)
        assert effective_robustness(TrendPoint("m", "single", "brier", 0.5, 2.0), fit) == pytest.approx(0.0, abs=1e-12)

    def test_below_prediction_is_positive(self):
        fit = fit_trend_xy(HAND_X, 2.0 * HAND_X + 1.0)
        point = TrendPoint("m", "single", "brier", 0.5, 1.95)
        assert effective_robustness(point, fit) == pytest.approx(0.05, abs=1e-12)

    def test_residuals_average_to_zero(self, rng):
        x = rng.uniform(0.0, 1.0, 30)
        y = 0.4 * x + rng.normal(0.0, 0.05, 30)
        pts = points_from_xy(x, y)
        fit = fit_trend(pts)
        residuals = [effective_robustness(p, fit) for p in pts]
        assert abs(np.mean(residuals)) < 1e-9


def mixed_ensemble_store(rng):
    """Six models with leave-one-out ensembles plus two-member heterogeneous ones."""
    store = build_store(rng, models=tuple(f"m{k}" for k in range(6)), n=50, c=4)
    ensembles = enumerate_homogeneous_ensembles(store.model_ids, 5)
    report = form_heterogeneous_ensembles(store, "ind", 2, members_per_ensemble=2, seed=3)
    assert report.ensembles
    return store, ensembles + report.ensembles, frozenset(e.ensemble_id for e in report.ensembles)


class TestTrendPoints:
    def test_counts_and_values(self, rng):
        store = build_store(rng)
        ens = EnsembleDef("ens-a", ("m0", "m1", "m2", "m3"))
        pts = trend_points(store, [ens], ["brier"], ("ind", "ood"))
        assert len(pts) == 5
        singles = [p for p in pts if p.model_class == "single"]
        assert len(singles) == 4
        m0 = next(p for p in pts if p.model_id == "m0")
        expected = brier(store.probs("m0", "ind"), store.labels("ind")).mean()
        assert m0.ind_value == pytest.approx(expected)

    def test_unknown_metric(self, rng):
        store = build_store(rng)
        with pytest.raises(ValidationError):
            trend_points(store, [], ["auroc"], ("ind", "ood"))

    def test_one_sided_model_skipped(self, rng):
        store = build_store(rng)
        store.add_prediction("m9", "ind", random_simplex(rng, 60, 5))
        pts = trend_points(store, [], ["zero_one"], ("ind", "ood"))
        assert all(p.model_id != "m9" for p in pts)

    def test_heterogeneous_class_assignment(self, rng):
        store = build_store(rng)
        ens = EnsembleDef("mix", ("m0", "m1"))
        pts = trend_points(
            store, [ens], ["brier"], ("ind", "ood"), heterogeneous_ids=frozenset({"mix"})
        )
        assert next(p for p in pts if p.model_id == "mix").model_class == "heterogeneous"

    def test_equals_per_point_oracle(self, rng):
        store, ensembles, het_ids = mixed_ensemble_store(rng)
        pts = trend_points(store, ensembles, TREND_METRICS, ("ind", "ood"), n_bins=7,
                           heterogeneous_ids=het_ids)
        singles = [(m, (m,), "single") for m in store.model_ids]
        combos = [(e.ensemble_id, e.member_model_ids,
                   "heterogeneous" if e.ensemble_id in het_ids else "ensemble") for e in ensembles]

        def oracle(members, metric, dataset):
            probs = form_ensemble([store.probs(m, dataset) for m in members])
            labels = store.labels(dataset)
            if metric in ("ece", "resce"):
                return getattr(calibration(probs, labels, n_bins=7), metric)
            return compute_metric(metric, probs, labels).mean()

        expected = [
            (metric, pid, cls, oracle(members, metric, "ind"), oracle(members, metric, "ood"))
            for metric in TREND_METRICS
            for pid, members, cls in singles + combos
        ]
        got = [(p.metric, p.model_id, p.model_class, p.ind_value, p.ood_value) for p in pts]
        assert got == expected

    @pytest.mark.parametrize("metrics", [["brier"], ["ece", "nll"], list(TREND_METRICS)])
    def test_one_ensemble_and_calibration_per_dataset(self, rng, monkeypatch, metrics):
        store, ensembles, het_ids = mixed_ensemble_store(rng)
        calls = {"ensemble_probs": 0, "calibration": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(PredictionStore, "ensemble_probs",
                            counted("ensemble_probs", PredictionStore.ensemble_probs))
        monkeypatch.setattr(ensdiag.trends, "calibration", counted("calibration", calibration))
        trend_points(store, ensembles, metrics, ("ind", "ood"), heterogeneous_ids=het_ids)
        assert calls["ensemble_probs"] == 2 * len(ensembles)
        scored = len(store.model_ids) + len(ensembles)
        needs_calibration = "ece" in metrics or "resce" in metrics
        assert calls["calibration"] == (2 * scored if needs_calibration else 0)

    def test_invalid_class_rejected(self):
        with pytest.raises(ValidationError):
            TrendPoint("m", "committee", "brier", 0.1, 0.2)


class TestTrendTable:
    def test_single_class_all_row_matches(self, rng):
        x = rng.uniform(0.0, 1.0, 6)
        pts = points_from_xy(x, 0.8 * x + 0.05)
        rows = trend_table(pts)
        by_class = {r.model_class: r for r in rows}
        assert set(by_class) == {"All", "Single Model"}
        assert by_class["All"].fit == by_class["Single Model"].fit

    def test_same_line_classes_agree(self, rng):
        x1 = rng.uniform(0.0, 1.0, 5)
        x2 = rng.uniform(0.0, 1.0, 5)
        pts = points_from_xy(x1, 0.6 * x1 + 0.1, model_class="single")
        pts += points_from_xy(x2, 0.6 * x2 + 0.1, model_class="ensemble")
        rows = {r.model_class: r.fit for r in trend_table(pts)}
        assert abs(rows["Single Model"].coefficient - rows["Ensemble"].coefficient) < 1e-6
        assert abs(rows["All"].coefficient - rows["Ensemble"].coefficient) < 1e-6

    def test_all_row_pools_disjoint_classes(self, rng):
        x = rng.uniform(0.0, 1.0, 4)
        pts = points_from_xy(x, x, model_class="single")
        pts += points_from_xy(x + 0.01, x, model_class="ensemble")
        rows = {r.model_class: r.fit for r in trend_table(pts)}
        assert rows["All"].n == rows["Single Model"].n + rows["Ensemble"].n

    def test_heterogeneous_counts_as_ensemble(self, rng):
        x = rng.uniform(0.0, 1.0, 4)
        pts = points_from_xy(x, x, model_class="ensemble")
        pts += points_from_xy(x, x + 0.01, model_class="heterogeneous")
        rows = {r.model_class: r.fit for r in trend_table(pts)}
        assert rows["Ensemble"].n == 8

    def test_small_class_omitted(self, rng):
        x = rng.uniform(0.0, 1.0, 5)
        pts = points_from_xy(x, x, model_class="single")
        pts += points_from_xy(x[:2], x[:2], model_class="ensemble")
        classes = {r.model_class for r in trend_table(pts)}
        assert "Ensemble" not in classes

    def test_one_row_per_metric_and_class(self, rng):
        x = rng.uniform(0.0, 1.0, 5)
        pts = points_from_xy(x, x, metric="brier") + points_from_xy(x, x, metric="nll")
        rows = trend_table(pts)
        assert len(rows) == 4
        assert [r.metric for r in rows] == ["brier", "brier", "nll", "nll"]


def collinear_store(rng, c0, n=80, c=5, m=4):
    """Members shrunk toward the one-hot truth by sqrt(c0) on the shifted set,
    which scales both Brier scores and member variance by exactly c0."""
    labels = rng.integers(0, c, n)
    one_hot = np.eye(c)[labels]
    store = PredictionStore()
    store.register_dataset("ind", labels, c)
    store.register_dataset("ood", labels, c)
    for k in range(m):
        f = random_simplex(rng, n, c)
        store.add_prediction(f"m{k}", "ind", f)
        store.add_prediction(f"m{k}", "ood", one_hot + np.sqrt(c0) * (f - one_hot))
    return store, EnsembleDef("ens-all", tuple(f"m{k}" for k in range(m)))


class TestDiversityRatio:
    def test_identical_datasets(self, rng):
        store, ens = collinear_store(rng, c0=1.0)
        rep = diversity_ratio_check(store, [ens], ("ind", "ood"))
        assert rep.ratio == pytest.approx(1.0, abs=1e-12)
        assert rep.c0 == pytest.approx(1.0, abs=1e-9)

    def test_exact_collinear_construction(self, rng):
        store, ens = collinear_store(rng, c0=0.25)
        rep = diversity_ratio_check(store, [ens], ("ind", "ood"))
        assert rep.ratio == pytest.approx(0.25, abs=1e-12)
        assert abs(rep.ratio - rep.c0) < 1e-6
        assert rep.discrepancy == pytest.approx(abs(rep.ratio - rep.c0))
        assert list(rep.per_ensemble_ratio) == ["ens-all"]

    def test_needs_an_ensemble(self, rng):
        store, _ = collinear_store(rng, c0=0.5)
        with pytest.raises(ValidationError):
            diversity_ratio_check(store, [], ("ind", "ood"))

    def test_zero_diversity_rejected(self, rng):
        labels = rng.integers(0, 3, 20)
        probs = random_simplex(rng, 20, 3)
        store = PredictionStore()
        for ds in ("ind", "ood"):
            store.register_dataset(ds, labels, 3)
            store.add_prediction("m0", ds, probs)
            store.add_prediction("m1", ds, probs)
        ens = EnsembleDef("twins", ("m0", "m1"))
        with pytest.raises(ValidationError):
            diversity_ratio_check(store, [ens], ("ind", "ood"))
