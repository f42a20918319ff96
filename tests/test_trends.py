"""Ensemble formation, trend fits, effective robustness, and the diversity-ratio identity."""

import itertools
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import stdtr
from scipy.stats import linregress

from conftest import build_store, calibration_bins, ece_resce, random_datasets, random_simplex, read, write_kind_store
import ensdiag.store
import ensdiag.trends
from ensdiag.decomposition import decompose
from ensdiag.errors import ValidationError
from ensdiag.metrics import brier, compute_metric, score_sums
from ensdiag.store import PredictionStore, form_ensemble, load_store, member_blocks, write_store
from ensdiag.trends import (
    TREND_METRICS,
    TrendPoint,
    diversity_ratio_check,
    effective_robustness,
    fit_trend,
    fit_trend_xy,
    form_heterogeneous_ensembles,
    t_two_sided_p,
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


def _same(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


class TestFitMatchesLinregress:
    """The closed-form fit against scipy.stats.linregress: the p-value to 1e-10
    relative (an absolute 1e-300 floor covers subnormal tails), every other
    field bit for bit."""

    @staticmethod
    def check(x, y):
        fit = fit_trend_xy(x, y)
        ref = linregress(x, y)
        for got, want in ((fit.coefficient, ref.slope), (fit.intercept, ref.intercept),
                          (fit.std_error, ref.stderr), (fit.r2, ref.rvalue**2)):
            assert _same(got, float(want)), (got, want)
        p_ref = float(ref.pvalue)
        assert _same(fit.p_value, p_ref) or fit.p_value == pytest.approx(p_ref, rel=1e-10, abs=1e-300)
        if fit.std_error > 0:
            assert fit.t_statistic == fit.coefficient / fit.std_error
        else:
            assert fit.t_statistic == float("inf") * np.sign(fit.coefficient or 1.0)
        return fit

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 60),
           x_exp=st.integers(-6, 6), y_exp=st.integers(-6, 6),
           kind=st.sampled_from(["noisy", "line", "constant"]))
    @settings(max_examples=300, deadline=None)
    def test_random_fits(self, seed, n, x_exp, y_exp, kind):
        r = np.random.default_rng(seed)
        x = r.normal(size=n) * 10.0**x_exp + r.normal()
        if kind == "noisy":
            y = (r.normal() * x + r.normal(size=n)) * 10.0**y_exp
        elif kind == "line":
            y = r.choice([-1.0, 1.0]) * 10.0**y_exp * x + r.normal()
        else:
            y = np.full(n, r.choice([0.0, 0.5, r.normal()]))
        self.check(x, y)

    @pytest.mark.parametrize("slope", [2.0, -2.0])
    def test_exact_line_has_zero_stderr(self, slope):
        fit = self.check(np.arange(4.0), slope * np.arange(4.0))
        assert fit.std_error == 0.0
        assert fit.t_statistic == float("inf") * np.sign(slope)

    def test_constant_ood_has_undefined_r(self):
        fit = self.check(np.arange(5.0), np.full(5, 0.5))
        assert np.isnan(fit.r2) and np.isnan(fit.p_value) and fit.coefficient == 0.0


class TestTTail:
    """t_two_sided_p against scipy's stdtr and against closed forms."""

    @pytest.mark.parametrize("df", [1, 2, 3, 4, 5, 7, 10, 13, 20, 37, 49, 50, 51, 100, 333, 1000, 4999, 5000, 10_000])
    def test_matches_stdtr(self, df):
        for t in np.concatenate([np.logspace(-3, 20, 240), [0.5, 1.0, 2.0, 3.0]]):
            want = 2.0 * float(stdtr(df, -t))
            if want < 1e-300:
                continue
            assert t_two_sided_p(t, df) == pytest.approx(want, rel=1e-10, abs=0), (df, t)
            assert t_two_sided_p(-t, df) == t_two_sided_p(t, df)

    def test_closed_forms(self):
        # df = 1: 1 - (2/pi) atan|t|; df = 2: 1 - |t| / sqrt(2 + t^2). Both written
        # without cancellation for large |t|. scipy's own df=1 value at t=1e-8 is off by 3e-9.
        for t in np.logspace(-10, 10, 201):
            root = math.sqrt(2.0 + t * t)
            assert t_two_sided_p(t, 1) == pytest.approx(2.0 / math.pi * math.atan2(1.0, t), rel=1e-14, abs=0)
            want = 2.0 / (root * (root + t)) if t > 1.0 else 1.0 - t / root
            assert t_two_sided_p(t, 2) == pytest.approx(want, rel=1e-14, abs=0)
        assert t_two_sided_p(1e-8, 1) == pytest.approx(1.0 - 2.0 / math.pi * 1e-8, rel=1e-16)

    def test_special_values(self):
        for df in (1, 2, 58):
            assert t_two_sided_p(math.inf, df) == 0.0 and t_two_sided_p(-math.inf, df) == 0.0
            assert t_two_sided_p(0.0, df) == 1.0
            assert math.isnan(t_two_sided_p(math.nan, df))
            assert t_two_sided_p(1e-200, df) == 1.0
        # No t^2 is formed, so a tail beyond |t| = 1.3e154 still comes out, as 2 / (pi |t|) at df = 1.
        assert t_two_sided_p(1e200, 1) == pytest.approx(2.0 / math.pi * 1e-200, rel=1e-13)


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


PAIR = ("ind", "ood")


def _constant_accuracy_datasets(accuracies, n=50):
    """One model per requested accuracy on both datasets, exact by construction."""
    members = {}
    for i, acc in enumerate(accuracies):
        n_right = int(round(acc * n))
        probs = np.zeros((n, 2))
        probs[:n_right, 0] = 1.0
        probs[n_right:, 1] = 1.0
        members[f"m{i:02d}"] = probs
    return {ds: (np.zeros(n, dtype=np.int64), members) for ds in PAIR}


def _constant_accuracy_store(root, accuracies):
    return load_store(write_kind_store(root, "probs", _constant_accuracy_datasets(accuracies), [PAIR]))


class TestHeterogeneousEnsembles:
    def test_identical_accuracy_single_bin(self, tmp_path):
        store = _constant_accuracy_store(tmp_path, [0.8] * 4)
        ensembles, skipped = form_heterogeneous_ensembles(store, PAIR, n_bins=3, seed=1)
        assert len(ensembles) == 1
        assert len(ensembles[0]) == 4
        # The two empty bins are skipped with no record.
        assert skipped == []

    def test_forced_split(self, tmp_path):
        store = _constant_accuracy_store(tmp_path, [0.2, 0.22, 0.24, 0.26, 0.8, 0.82, 0.84, 0.86])
        ensembles, _ = form_heterogeneous_ensembles(store, PAIR, n_bins=2, seed=0)
        assert len(ensembles) == 2
        assert ("m00", "m01", "m02", "m03") in ensembles
        assert ("m04", "m05", "m06", "m07") in ensembles

    def test_seed_determinism(self, tmp_path):
        store = _constant_accuracy_store(tmp_path, [0.1 * i for i in range(1, 11)])
        a, _ = form_heterogeneous_ensembles(store, PAIR, n_bins=2, seed=7)
        b, _ = form_heterogeneous_ensembles(store, PAIR, n_bins=2, seed=7)
        assert a == b

    def test_small_bin_skipped_with_record(self, tmp_path):
        store = _constant_accuracy_store(tmp_path, [0.2, 0.22, 0.24, 0.26, 0.9])
        ensembles, skipped = form_heterogeneous_ensembles(store, PAIR, n_bins=2, seed=0)
        assert len(ensembles) == 1
        assert len(skipped) == 1

    def test_model_missing_on_ood_is_not_binned(self, tmp_path):
        datasets = _constant_accuracy_datasets([0.8] * 4)
        labels, members = datasets["ind"]
        datasets["ind"] = labels, {**members, "solo": np.tile([1.0, 0.0], (50, 1))}
        store = load_store(write_kind_store(tmp_path, "probs", datasets, [PAIR]))
        assert store.models_on_pair(PAIR) == ["m00", "m01", "m02", "m03"]
        for seed in range(8):
            ensembles, _ = form_heterogeneous_ensembles(store, PAIR, n_bins=1, seed=seed)
            assert ensembles[0] == ("m00", "m01", "m02", "m03")


def mixed_ensemble_store(rng, root):
    """Six models with leave-one-out ensembles plus one four-member heterogeneous one."""
    store = build_store(rng, root, models=tuple(f"m{k}" for k in range(6)), n=50, c=4)
    ensembles = list(itertools.combinations(store.model_ids, 5))
    binned, _ = form_heterogeneous_ensembles(store, ("ind", "ood"), 1, seed=3)
    assert len(binned) == 1
    return store, ensembles + binned, frozenset(binned)


class TestTrendPoints:
    def test_counts_and_values(self, rng, tmp_path):
        store = build_store(rng, tmp_path)
        pts = [p for p in trend_points(store, [("m0", "m1", "m2", "m3")], ("ind", "ood")) if p.metric == "brier"]
        assert len(pts) == 5
        singles = [p for p in pts if p.model_class == "single"]
        assert len(singles) == 4
        m0 = next(p for p in pts if p.model_id == "m0")
        expected = brier(read(store, "m0", "ind"), store.labels["ind"]).mean()
        assert m0.ind_value == pytest.approx(expected)

    def test_one_sided_model_skipped(self, rng, tmp_path):
        datasets = random_datasets(rng)
        datasets["ind"][1]["m9"] = random_simplex(rng, 60, 5)
        store = load_store(write_kind_store(tmp_path, "probs", datasets, [("ind", "ood")]))
        pts = trend_points(store, [], ("ind", "ood"))
        assert all(p.model_id != "m9" for p in pts)

    def test_heterogeneous_class_assignment(self, rng, tmp_path):
        store = build_store(rng, tmp_path)
        pts = trend_points(store, [("m0", "m1")], ("ind", "ood"), heterogeneous=frozenset({("m0", "m1")}))
        assert next(p for p in pts if p.model_id == "m0+m1").model_class == "heterogeneous"

    def test_equals_per_point_oracle(self, rng, tmp_path):
        store, ensembles, het = mixed_ensemble_store(rng, tmp_path)
        pts = trend_points(store, ensembles, ("ind", "ood"), n_bins=7, heterogeneous=het)
        singles = [(m, (m,), "single") for m in store.model_ids]
        combos = [("+".join(e), e, "heterogeneous" if e in het else "ensemble") for e in ensembles]

        def oracle(members, metric, dataset):
            models = store.model_ids
            if len(members) == len(models) - 1:
                # All models but one, k: (S - p_k) / (M - 1), with S the sum in model order.
                (k,) = set(models).difference(members)
                total = read(store, models[0], dataset).copy()
                for m in models[1:]:
                    total += read(store, m, dataset)
                probs = (total - read(store, k, dataset)) / (len(models) - 1)
            else:
                probs = form_ensemble([read(store, m, dataset) for m in members])
            labels = store.labels[dataset]
            if metric in ("ece", "resce"):
                return ece_resce(calibration_bins(probs, labels, 7))[metric]
            return compute_metric(metric, probs, labels).mean()

        expected = [
            (metric, pid, cls, oracle(members, metric, "ind"), oracle(members, metric, "ood"))
            for metric in TREND_METRICS
            for pid, members, cls in singles + combos
        ]
        got = [(p.metric, p.model_id, p.model_class, p.ind_value, p.ood_value) for p in pts]
        # Brier is summed as sum p^2 - 2 p_y + 1, so it agrees to 1e-12 relative; the rest bit for bit.
        assert [g[:3] for g in got] == [e[:3] for e in expected]
        for g, e in zip(got, expected):
            if g[0] == "brier":
                assert g[3:] == pytest.approx(e[3:], rel=1e-12, abs=0)
            else:
                assert g[3:] == e[3:], (g, e)

    @pytest.mark.parametrize("metrics", [["brier"], ["ece", "nll"], list(TREND_METRICS)])
    def test_one_ensemble_and_calibration_per_dataset(self, rng, tmp_path, monkeypatch, metrics):
        # 50 points of 6 models and 4 classes are one row block per dataset.
        store, ensembles, het = mixed_ensemble_store(rng, tmp_path)
        calls = {"form_ensemble": 0, "score_sums": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ensdiag.trends, "form_ensemble", counted("form_ensemble", form_ensemble))
        monkeypatch.setattr(ensdiag.trends, "score_sums", counted("score_sums", score_sums))
        pts = trend_points(store, ensembles, ("ind", "ood"), heterogeneous=het)
        # All-but-one ensembles come from the block sum; only the heterogeneous one is formed.
        assert calls["form_ensemble"] == 2 * len(het)
        # One scoring call per block scores every model for every metric, so
        # whichever metrics a caller reads, each has a point for every model.
        assert calls["score_sums"] == 2
        ids = [*store.model_ids, *("+".join(e) for e in ensembles)]
        for metric in metrics:
            assert [p.model_id for p in pts if p.metric == metric] == ids

    def test_invalid_class_rejected(self):
        with pytest.raises(ValidationError):
            TrendPoint("m", "committee", "brier", 0.1, 0.2)


def ensemble_forms(store, pair, tmp_path):
    """The ensembles of `trends --ensembles loo`, of an --ensembles file, and of --het-bins."""
    from ensdiag.cli import _load_ensembles

    listed = tmp_path / "ensembles.json"
    listed.write_text(json.dumps([["m0", "m1"], ["m2", "m4", "m5"], ["m5", "m3"]]))
    het, _ = form_heterogeneous_ensembles(store, pair, 1, seed=3)
    return {"loo": _load_ensembles("loo", store, pair), "file": _load_ensembles(str(listed), store, pair),
            "het-bins": het}


@pytest.mark.parametrize("m", range(3, 9))
def test_loo_ensembles_are_combinations_of_sorted_ids(rng, tmp_path, m):
    from ensdiag.cli import _load_ensembles

    ids = [f"m{k}" for k in rng.permutation(m)]
    store = build_store(rng, tmp_path, models=tuple(ids), n=4, c=3)
    assert store.model_ids == ids
    assert _load_ensembles("loo", store, PAIR) == list(itertools.combinations(sorted(ids), m - 1))


@pytest.mark.parametrize("form", ["loo", "file", "het-bins"])
def test_score_sums_match_per_point_scores_across_blocks(rng, tmp_path, form):
    # The fused scorer against compute_metric and direct calibration bins, summed
    # block by block as trend_points adds them, on ensembles formed with form_ensemble.
    store = build_store(rng, tmp_path / "store", models=tuple(f"m{k}" for k in range(6)), n=71, c=5)
    pair, n_bins = ("ind", "ood"), 7
    ensembles = ensemble_forms(store, pair, tmp_path)[form]
    assert ensembles
    with mock.patch.object(ensdiag.store, "BLOCK_ELEMENTS", 10 * 5 * 6):  # 10 rows a block, the last 1
        for dataset in pair:
            labels = store.labels[dataset]
            got, want_scores, want_bins = None, 0.0, 0.0
            blocks = 0
            for rows, block in member_blocks(store.member_probs(store.model_ids, dataset)):
                blocks += 1
                index = dict(zip(store.model_ids, block))
                matrices = [*block, *(form_ensemble([index[m] for m in e]) for e in ensembles)]
                part = score_sums(matrices, labels[rows], n_bins=n_bins)
                got = part if got is None else got + part
                want_scores = want_scores + np.array(
                    [[compute_metric(kind, p, labels[rows]).sum() for kind in ("zero_one", "nll", "brier")]
                     for p in matrices])
                want_bins = want_bins + np.array([calibration_bins(p, labels[rows], n_bins) for p in matrices])
            assert blocks == 8
            assert np.array_equal(got.scores[:, :2], want_scores[:, :2])
            np.testing.assert_allclose(got.scores[:, 2], want_scores[:, 2], rtol=1e-12, atol=0)
            assert np.array_equal(got.bins, want_bins)
            for k in range(len(matrices)):
                assert dict(zip(("ece", "resce"), got.calibration_errors(k))) == ece_resce(want_bins[k])


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


def dyadic_simplex(rng, n, c, bits=12):
    """random_simplex rows rounded down to multiples of 2**-bits, the last column
    taking the remainder: float32 holds them exactly and each row sums to 1 exactly."""
    q = np.floor(random_simplex(rng, n, c) * 2.0**bits)
    q[:, -1] = 2.0**bits - q[:, :-1].sum(axis=1)
    return q / 2.0**bits


def collinear_store(rng, root, c0, n=80, c=5, m=4):
    """Members shrunk toward the one-hot truth by sqrt(c0) on the shifted set,
    which scales both Brier scores and member variance by exactly c0. Members
    are dyadic, so for c0 = 1 or 1/4 both sets reach the store unrounded."""
    labels = rng.integers(0, c, n)
    one_hot = np.eye(c)[labels]
    members = {f"m{k}": dyadic_simplex(rng, n, c) for k in range(m)}
    shifted = {k: one_hot + np.sqrt(c0) * (f - one_hot) for k, f in members.items()}
    datasets = {"ind": (labels, members), "ood": (labels, shifted)}
    store = load_store(write_kind_store(root, "probs", datasets, [("ind", "ood")]))
    return store, tuple(members)


def ratio_check(store, ensembles, pair=("ind", "ood")):
    return diversity_ratio_check(trend_points(store, ensembles, pair), ensembles)


def stacked_ratio_oracle(store, ensembles, pair=("ind", "ood")):
    """The diversity ratio from member stacks and re-scored single-model Brier."""
    per_ens = {}
    for ens in ensembles:
        ind, ood = (
            decompose(store.member_probs(ens, d), store.labels[d])["quadratic"].diversity.mean()
            for d in pair
        )
        per_ens["+".join(ens)] = float(ood) / float(ind)
    singles = [m for m in store.model_ids if all((m, d) in store.members for d in pair)]
    ind, ood = (
        np.array([float(brier(read(store, m, d), store.labels[d]).mean()) for m in singles])
        for d in pair
    )
    return float(np.mean(list(per_ens.values()))), per_ens, fit_trend_xy(ind, ood)


def identical_members_store(rng, root, copies):
    """`copies` models with one shared prediction, plus two distinct ones."""
    labels = rng.integers(0, 4, 20)
    datasets = {}
    for ds in ("ind", "ood"):
        shared = random_simplex(rng, 20, 4)
        members = {f"t{k}": shared for k in range(copies)}
        datasets[ds] = labels, {**members, **{f"m{k}": random_simplex(rng, 20, 4) for k in range(2)}}
    return load_store(write_kind_store(root, "probs", datasets, [("ind", "ood")]))


class TestDiversityRatio:
    def test_identical_datasets(self, rng, tmp_path):
        store, ens = collinear_store(rng, tmp_path, c0=1.0)
        rep = ratio_check(store, [ens])
        assert rep.ratio == pytest.approx(1.0, abs=1e-12)
        assert rep.c0 == pytest.approx(1.0, abs=1e-9)

    def test_exact_collinear_construction(self, rng, tmp_path):
        store, ens = collinear_store(rng, tmp_path, c0=0.25)
        rep = ratio_check(store, [ens])
        assert rep.ratio == pytest.approx(0.25, abs=1e-12)
        assert abs(rep.ratio - rep.c0) < 1e-6
        assert rep.discrepancy == pytest.approx(abs(rep.ratio - rep.c0))
        assert list(rep.per_ensemble_ratio) == ["m0+m1+m2+m3"]

    def test_needs_an_ensemble(self, rng, tmp_path):
        store, _ = collinear_store(rng, tmp_path, c0=0.5)
        with pytest.raises(ValidationError):
            ratio_check(store, [])

    def test_zero_diversity_rejected(self, rng, tmp_path):
        store = identical_members_store(rng, tmp_path, copies=2)
        with pytest.raises(ValidationError, match="zero mean diversity"):
            ratio_check(store, [("t0", "t1")])

    def test_three_identical_members_rejected(self, rng, tmp_path):
        store = identical_members_store(rng, tmp_path, copies=3)
        ens = ("t0", "t1", "t2")
        pts = {p.model_id: p for p in trend_points(store, [ens], ("ind", "ood")) if p.metric == "brier"}
        # The Brier gap of identical members is zero only up to rounding.
        assert np.mean([pts[m].ind_value for m in ens]) != pts["t0+t1+t2"].ind_value
        with pytest.raises(ValidationError, match="zero mean diversity"):
            ratio_check(store, [ens])

    def test_incomplete_input_rejected(self, rng, tmp_path):
        store, ens = collinear_store(rng, tmp_path, c0=0.5)
        with pytest.raises(ValidationError, match="fewer than two members"):
            ratio_check(store, [("m0",)])
        with pytest.raises(ValidationError, match="no brier trend point for 'm0\\+m1\\+m2\\+m3'"):
            diversity_ratio_check(trend_points(store, [], ("ind", "ood")), [ens])
        two_models = build_store(rng, tmp_path / "two", models=("m0", "m1"))
        with pytest.raises(ValidationError, match="at least 3 single models"):
            ratio_check(two_models, [("m0", "m1")])

    def test_equals_stacked_oracle(self, rng, tmp_path):
        store, ensembles, het = mixed_ensemble_store(rng, tmp_path)
        pts = trend_points(store, ensembles, ("ind", "ood"), heterogeneous=het)
        rep = diversity_ratio_check(pts, ensembles)
        ratio, per_ens, fit = stacked_ratio_oracle(store, ensembles)
        assert rep.ratio == pytest.approx(ratio, rel=1e-12, abs=0)
        assert rep.per_ensemble_ratio.keys() == per_ens.keys()
        for eid, expected in per_ens.items():
            assert rep.per_ensemble_ratio[eid] == pytest.approx(expected, rel=1e-12, abs=0)
        # The single-model Brier points agree to 1e-12 relative, and so does their fit.
        assert rep.c0 == pytest.approx(fit.coefficient, rel=1e-12, abs=0)
        assert rep.c0_std_error == pytest.approx(fit.std_error, rel=1e-12, abs=0)

    def test_reads_no_predictions(self, rng, tmp_path, monkeypatch):
        store, ensembles, het = mixed_ensemble_store(rng, tmp_path)
        pts = trend_points(store, ensembles, ("ind", "ood"), heterogeneous=het)

        def refuse(*args, **kwargs):
            raise AssertionError("diversity_ratio_check read predictions")

        monkeypatch.setattr(PredictionStore, "member_probs", refuse)
        rep = diversity_ratio_check(pts, ensembles)
        assert len(rep.per_ensemble_ratio) == len(ensembles)


class TestLeaveOneOutRunningSum:
    def _loo_store(self, rng, root, m=6):
        store = build_store(rng, root, models=tuple(f"m{k}" for k in range(m)), n=70, c=6)
        return store, list(itertools.combinations(store.model_ids, m - 1))

    def test_ensembles_within_tolerance_of_form_ensemble(self, rng, tmp_path, monkeypatch):
        store, ensembles = self._loo_store(rng, tmp_path)
        seen = []

        def recording(matrices, labels, n_bins):
            matrices = [np.array(probs) for probs in matrices]
            seen.extend(matrices)
            return score_sums(matrices, labels, n_bins)

        monkeypatch.setattr(ensdiag.trends, "score_sums", recording)
        trend_points(store, ensembles, ("ind", "ood"))
        # 70 points of 6 models and 6 classes are one row block per dataset.
        m = len(store.model_ids)
        for side, dataset in enumerate(("ind", "ood")):
            formed = seen[side * (m + len(ensembles)) + m:(side + 1) * (m + len(ensembles))]
            for ens, probs in zip(ensembles, formed):
                exact = form_ensemble([read(store, k, dataset) for k in ens])
                assert np.abs(probs - exact).max() <= 1e-12

    def test_blocked_points_match_whole_matrix_oracle(self, rng, tmp_path):
        store, ensembles = self._loo_store(rng, tmp_path)
        listed = [("m0", "m1"), *ensembles]
        with mock.patch.object(ensdiag.store, "BLOCK_ELEMENTS", 9 * 6 * 6):  # 9 rows a block
            pts = trend_points(store, listed, ("ind", "ood"), n_bins=7)

        def oracle(members, metric, dataset):
            probs = form_ensemble([read(store, m, dataset) for m in members])
            labels = store.labels[dataset]
            if metric in ("ece", "resce"):
                return ece_resce(calibration_bins(probs, labels, 7))[metric]
            return compute_metric(metric, probs, labels).mean()

        members = {m: (m,) for m in store.model_ids} | {"+".join(e): e for e in listed}
        assert len(pts) == len(TREND_METRICS) * len(members)
        for p in pts:
            for dataset, value in (("ind", p.ind_value), ("ood", p.ood_value)):
                assert value == pytest.approx(oracle(members[p.model_id], p.metric, dataset), rel=1e-12, abs=1e-15)

    def test_other_ensembles_are_formed_from_members(self, rng, tmp_path):
        store, ensembles = self._loo_store(rng, tmp_path)
        listed = [("m0", "m1"), ensembles[0]]
        pair = [p for p in trend_points(store, listed, ("ind", "ood")) if p.metric == "nll"][-2]
        assert pair.model_id == "m0+m1"
        for dataset, value in (("ind", pair.ind_value), ("ood", pair.ood_value)):
            probs = form_ensemble([read(store, "m0", dataset), read(store, "m1", dataset)])
            assert value == compute_metric("nll", probs, store.labels[dataset]).mean()


def test_trend_points_peak_flat_in_member_count(tmp_path):
    # Leave-one-out ensembles of 32 stored members: a row block holds at most
    # BLOCK_ELEMENTS entries across all members, so loading and scoring peak
    # about as high as with 8.
    n, c = 2000, 50
    peaks = {}
    for m in (8, 32):
        rng = np.random.default_rng(m)
        datasets = [(d, rng.integers(0, c, n),
                     ((f"m{k:03d}", rng.standard_normal((n, c))) for k in range(m))) for d in ("ind", "ood")]
        manifest = write_store(tmp_path / str(m), c, datasets, [("ind", "ood")])
        tracemalloc.start()
        try:
            store = load_store(manifest)
            ensembles = list(itertools.combinations(store.model_ids, m - 1))
            trend_points(store, ensembles, ("ind", "ood"))
            peaks[m] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[32] - peaks[8] < n * c * 8 / 2


def test_trend_points_peak_flat_in_point_count(tmp_path):
    # At 200 classes both sizes span several row blocks, so only the O(N)
    # labels grow with N, never the block-sized work arrays.
    c, peaks = 200, {}
    for n in (2000, 8000):
        rng = np.random.default_rng(n)
        members = [(f"m{k:03d}", rng.standard_normal((n, c))) for k in range(4)]
        manifest = write_store(tmp_path / str(n), c, [("ind", rng.integers(0, c, n), members),
                                                      ("ood", rng.integers(0, c, 50),
                                                       [(m, v[:50]) for m, v in members])], [("ind", "ood")])
        del members
        tracemalloc.start()
        try:
            store = load_store(manifest)
            ensembles = list(itertools.combinations(store.model_ids, 3))
            trend_points(store, ensembles, ("ind", "ood"))
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # Held whole, one (N, C) float64 running sum alone would add 6000 * 200 * 8 bytes.
    assert peaks[8000] - peaks[2000] < 6000 * 200
    assert peaks[8000] < 1.2 * peaks[2000]


def test_trend_points_peak_flat_in_listed_ensemble_count(tmp_path):
    # Every listed ensemble takes a spare slot of the walk's blocks, and the
    # spare slots of a block hold at most BLOCK_ELEMENTS entries, so 64
    # ensembles peak no higher than 4 do.
    n, c, m = 2000, 50, 7
    rng = np.random.default_rng(64)
    datasets = [(d, rng.integers(0, c, n), [(f"m{k:03d}", rng.standard_normal((n, c))) for k in range(m)])
                for d in ("ind", "ood")]
    store = load_store(write_store(tmp_path, c, datasets, [("ind", "ood")]))
    listed = [e for size in (2, 3, 4) for e in itertools.combinations(store.model_ids, size)]
    peaks = {}
    for count in (4, 64):
        tracemalloc.start()
        try:
            trend_points(store, listed[:count], ("ind", "ood"))
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(listed) >= 64
    assert peaks[64] < 1.2 * peaks[4]


def test_ensemble_of_a_model_off_the_pair_rejected(rng, tmp_path):
    # zz is in no store, and the store's ensemble rule names an unknown model first.
    store = build_store(rng, tmp_path)
    with pytest.raises(ValidationError, match="'m0\\+zz' references unknown model 'zz'"):
        trend_points(store, [("m0", "zz")], PAIR)


@pytest.mark.parametrize("ensemble,expected", [
    ((), "ensemble '' has no members"),
    (("m0", "m0", "m1"), "ensemble 'm0\\+m0\\+m1' repeats model 'm0'"),
], ids=["empty", "repeated"])
def test_ensemble_breaking_the_store_rule_is_one_error(rng, tmp_path, ensemble, expected):
    # The library path keeps the rule --ensembles keeps: no traceback from
    # form_ensemble, and no silent weighting of a repeated member.
    store = build_store(rng, tmp_path)
    with pytest.raises(ValidationError, match=f"^{expected}$"):
        trend_points(store, [("m1", "m2"), ensemble], PAIR)
