"""Release gate: one test per acceptance criterion.

Each test appends a PASS/FAIL line to the shared list in conftest, so a
plain ``pytest`` run prints the whole criteria table in its terminal
summary. Assertions still fire per test, keeping failures attributable.
"""

import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import ACCEPTANCE_LINES, as_members, split_samples

from ensdiag.cli import main as cli_main
from ensdiag.conditional import permutation_test
from ensdiag.decomposition import decompose
from ensdiag.gp import posterior, run_default_experiment
from ensdiag.improvement import (
    median_heuristic_bandwidth,
    mmd2_unbiased,
    mmd_threshold,
)
from ensdiag.metrics import score_sums
from ensdiag.store import load_store
from ensdiag.trends import fit_trend_xy, trend_points, trend_table


def record(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  ({detail})"
    ACCEPTANCE_LINES.append(line)
    assert ok, f"{name}: {detail}"


def record_skip(name: str, reason: str) -> None:
    ACCEPTANCE_LINES.append(f"SKIP  {name}  ({reason})")
    pytest.skip(reason)


def all_records(members, labels):
    return decompose(as_members(members), labels).values()


def test_pointwise_identities_hold_in_bulk():
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(10_000):
        m = int(rng.integers(2, 9))
        c = int(rng.integers(2, 21))
        members = rng.dirichlet(np.ones(c), size=(m, 1))
        labels = rng.integers(0, c, 1)
        for rec in all_records(members, labels):
            worst = max(worst, float(np.abs(rec.residual()).max()))
    elapsed = time.monotonic() - t0
    record(
        "decomposition identities",
        worst < 1e-10 and elapsed < 10.0,
        f"worst residual {worst:.1e} over 10000 ensembles, {elapsed:.1f}s",
    )


def test_ensemble_never_scores_worse_than_member_mean():
    rng = np.random.default_rng(7)
    min_gap = np.inf
    iff_ok = True

    def check(members, labels):
        nonlocal min_gap, iff_ok
        records = decompose(as_members(members), labels)
        for rec in (records["brier_gap"], records["nll_gap"]):
            gap = rec.avg_member - rec.total
            min_gap = min(min_gap, float(gap.min()))
            iff_ok &= bool(np.all((np.abs(gap) < 1e-12) == (rec.diversity < 1e-12)))

    for _ in range(500):
        m = int(rng.integers(2, 9))
        c = int(rng.integers(2, 21))
        check(rng.dirichlet(np.ones(c), size=(m, 20)), rng.integers(0, c, 20))
    for _ in range(100):
        c = int(rng.integers(2, 21))
        p = rng.dirichlet(np.ones(c), size=(1, 10))
        check(np.repeat(p, 4, axis=0), rng.integers(0, c, 10))
    record(
        "jensen ordering",
        min_gap >= 0.0 and iff_ok,
        f"min gap {min_gap:.1e}, equality iff diversity < 1e-12: {iff_ok}",
    )


def test_resce_dominates_ece():
    rng = np.random.default_rng(11)
    ok = 0
    for _ in range(1000):
        probs = rng.dirichlet(np.ones(5), size=50)
        labels = rng.integers(0, 5, 50)
        ece, resce = score_sums([probs], labels, n_bins=15).calibration_errors(0)
        ok += resce >= ece - 1e-12
    labels = rng.integers(0, 5, 40)
    perfect_ece, perfect_resce = score_sums([np.eye(5)[labels]], labels, n_bins=15).calibration_errors(0)
    record(
        "calibration ordering",
        ok == 1000 and perfect_ece == 0.0 and perfect_resce == 0.0,
        f"resce >= ece in {ok}/1000 random sets; one-hot-correct gives ece="
        f"{perfect_ece}, resce={perfect_resce}",
    )


def test_null_shift_rejection_rate_is_calibrated():
    t0 = time.monotonic()
    rejects = 0
    small_d = 0
    for seed in range(100):
        si, so = split_samples(seed)
        res = permutation_test(si, so, n_surrogates=100, seed=seed)
        rejects += res.p_value < 0.05
        small_d += abs(res.d) < 0.02
    elapsed = time.monotonic() - t0
    rate = rejects / 100
    record(
        "conditional null calibration",
        0.02 <= rate <= 0.09 and small_d >= 90 and elapsed < 300.0,
        f"rejection rate {rate:.3f}, |d|<0.02 in {small_d}/100, {elapsed:.0f}s",
    )


def test_strong_shift_is_detected():
    hits = 0
    for seed in range(100):
        ind, (ood_avg, ood_div) = split_samples(seed)
        pooled_std = np.concatenate([ind[1], ood_div]).std(ddof=1)
        res = permutation_test(ind, (ood_avg, ood_div + 5.0 * pooled_std), n_surrogates=100, seed=seed)
        hits += res.p_value <= 1.0 / 101.0
    record(
        "conditional power",
        hits >= 95,
        f"p <= 1/101 in {hits}/100 shifted runs",
    )


def test_known_slope_recovered_within_three_standard_errors():
    hits = 0
    for seed in range(100):
        r = np.random.default_rng(seed)
        x = r.uniform(0.0, 1.0, 100)
        y = 0.038 * x + 0.01 + r.normal(0.0, 0.005, 100)
        fit = fit_trend_xy(x, y)
        hits += abs(fit.coefficient - 0.038) <= 3.0 * fit.std_error
    x = np.linspace(0.0, 1.0, 50)
    exact = fit_trend_xy(x, 0.038 * x + 0.01)
    resid = np.abs(0.038 * x + 0.01 - (exact.coefficient * x + exact.intercept)).max()
    record(
        "trend slope recovery",
        hits >= 99 and abs(exact.r2 - 1.0) < 1e-12 and resid < 1e-12,
        f"recovered in {hits}/100 seeds; exact line r2-1={exact.r2 - 1.0:.1e}, "
        f"max residual {resid:.1e}",
    )


def mmd2_loops(x, y, h):
    m, n = x.shape[0], y.shape[0]
    k = lambda a, b: np.exp(-np.sum((a - b) ** 2) / (2.0 * h * h))
    xx = sum(k(x[i], x[j]) for i in range(m) for j in range(m) if i != j)
    yy = sum(k(y[i], y[j]) for i in range(n) for j in range(n) if i != j)
    xy = sum(k(x[i], y[j]) for i in range(m) for j in range(n))
    return xx / (m * (m - 1)) + yy / (n * (n - 1)) - 2.0 * xy / (m * n)


def test_mmd_oracle_null_and_threshold():
    rng = np.random.default_rng(31)
    worst = 0.0
    for m in (5, 17, 50):
        x = rng.standard_normal((m, 2))
        y = rng.standard_normal((m, 2)) + 0.3
        h = median_heuristic_bandwidth(np.vstack([x, y]))
        worst = max(worst, abs(mmd2_unbiased(x, y, h) - mmd2_loops(x, y, h)))

    rejects = 0
    thr = mmd_threshold(100, 0.05)
    for trial in range(100):
        r = np.random.default_rng(trial)
        x = r.standard_normal((100, 2))
        y = r.standard_normal((100, 2))
        h = median_heuristic_bandwidth(np.vstack([x, y]))
        rejects += mmd2_unbiased(x, y, h) > thr
    rate = rejects / 100

    thr_big = mmd_threshold(10_000, 0.05)
    record(
        "mmd statistic and threshold",
        worst < 1e-12 and rate <= 0.07 and abs(thr_big - 0.069) < 1e-3,
        f"loop oracle gap {worst:.1e}, null rejection {rate:.2f}, "
        f"threshold(10000) {thr_big:.5f}",
    )


def test_gp_posterior_variance_higher_off_support():
    t0 = time.monotonic()
    ok = True
    for seed in range(20):
        exp = run_default_experiment(seed=seed)
        both = (exp.counts > 0).all(axis=0)
        ok &= bool(both.any())
        ok &= bool(np.all(exp.means[1, both] > exp.means[0, both]))
    elapsed = time.monotonic() - t0
    record(
        "gp region ordering",
        ok and elapsed < 5.0,
        f"ood > ind in every populated bin across 20 seeds, {elapsed:.2f}s",
    )


def test_single_point_posterior_variance_closed_form():
    var = posterior(np.array([0.0]), np.array([0.7]), np.array([0.0]))[1][0]
    target = 1.0 - 1.0 / 1.01
    record(
        "gp closed form",
        abs(var - target) < 1e-9,
        f"|posterior var - (1 - 1/1.01)| = {abs(var - target):.1e}",
    )


def _in_fresh_process(argv: list[str]) -> int:
    """Run one command as `python -m ensdiag`, as a shell user would."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "ensdiag", *argv], env=env, capture_output=True).returncode


def _drive_pipeline(root: Path, force: bool, run=cli_main) -> None:
    sim = root / "sim"
    manifest = sim / "manifest.json"
    extra = ["--force"] if force else []
    for argv in (
        ["simulate", "--n-points", "60", "--classes", "3", "--models", "4",
         "--seed", "1", "--out", sim],
        ["decompose", "--manifest", manifest, "--out", root / "dec"],
        ["conditional", "--manifest", manifest, "--surrogates", "11",
         "--seed", "9", "--out", root / "cond"],
        ["trends", "--manifest", manifest, "--metric", "01,brier",
         "--out", root / "tr"],
        ["improve", "--manifest", manifest, "--base", "m000",
         "--alt-a", "m000+m001", "--alt-b", "m000+m002", "--control", "m003",
         "--metric", "brier", "--out", root / "imp"],
        ["gp-demo", "--seed", "0", "--out", root / "gp"],
    ):
        assert run([str(a) for a in argv] + extra) == 0


def _snapshot(root: Path) -> dict:
    return {
        p.relative_to(root): p.read_bytes()
        for p in root.rglob("*")
        if p.suffix in (".csv", ".json")
    }


def test_cli_reruns_are_byte_identical(tmp_path):
    # Second pass reruns every command with identical argv, overwriting the
    # same output directories in place.
    _drive_pipeline(tmp_path, force=False)
    before = _snapshot(tmp_path)
    _drive_pipeline(tmp_path, force=True)
    after = _snapshot(tmp_path)
    diff = sorted(
        str(p)
        for p in set(before) | set(after)
        if before.get(p) != after.get(p)
    )
    record(
        "rerun determinism",
        len(before) > 0 and not diff,
        f"{len(before)} csv/json files byte-identical across reruns"
        + (f"; differing: {diff}" if diff else ""),
    )


def test_fresh_processes_and_a_traced_rerun_write_the_same_bytes(tmp_path):
    # The first pass runs each command in its own process; the second reruns
    # them all in this one, under tracemalloc, as a profiling harness would.
    _drive_pipeline(tmp_path, force=False, run=_in_fresh_process)
    before = _snapshot(tmp_path)
    tracemalloc.start()
    try:
        _drive_pipeline(tmp_path, force=True)
    finally:
        tracemalloc.stop()
    after = _snapshot(tmp_path)
    diff = sorted(str(p) for p in set(before) | set(after) if before.get(p) != after.get(p))
    record(
        "cross-process determinism",
        len(before) > 0 and not diff,
        f"{len(before)} csv/json files byte-identical between fresh processes and a traced in-process rerun"
        + (f"; differing: {diff}" if diff else ""),
    )


def test_released_dump_trend_row():
    manifest = os.environ.get("ENSDIAG_RELEASED_MANIFEST", "")
    if not manifest or not Path(manifest).is_file():
        record_skip(
            "released-dump trend row",
            "set ENSDIAG_RELEASED_MANIFEST to the released manifest to enable",
        )
    store = load_store(manifest)
    points = [p for p in trend_points(store, [], pair=store.pairs[0]) if p.metric == "zero_one"]
    rows = {(r.metric, r.model_class): r.fit for r in trend_table(points)}
    fit = rows[("zero_one", "All")]
    record(
        "released-dump trend row",
        abs(fit.coefficient - 0.038) <= 0.002
        and abs(fit.r2 - 0.853) <= 0.01
        and fit.n == 434,
        f"coefficient {fit.coefficient:.4f}, r2 {fit.r2:.4f}, n {fit.n}",
    )
