"""Output checks. Every failed check counts its command as a failed operation.

Each ``check_*`` function takes the command's output directory and returns
a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from gen import load_probs

RESIDUAL_TOL = 1e-10
D_REFERENCE_TOL = 1e-8
TREND_METRICS = 5
TREND_CLASSES = 3


def _result(out: Path) -> dict:
    return json.loads((out / "result.json").read_text())


def _csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_simulate(out: Path, shape, **_) -> list[str]:
    res = _result(out)
    manifest = json.loads((out / res["manifest"]).read_text())
    problems = []
    if len(manifest["models"]) != shape.models:
        problems.append(f"simulate wrote {len(manifest['models'])} models, expected {shape.models}")
    for d in manifest["datasets"]:
        if (d["n"], d["c"]) != (shape.n_ind, shape.classes):
            problems.append(f"simulate dataset {d['id']} has shape {d['n']}x{d['c']}")
    for model in manifest["models"]:
        for rel in model["files"].values():
            size = (out / rel).stat().st_size
            if size != shape.n_ind * shape.classes * 4:
                problems.append(f"simulate file {rel} holds {size} bytes")
    return problems


def check_decompose(out: Path, shape, **_) -> list[str]:
    res = _result(out)
    problems = []
    sizes = {"ind": shape.n_ind, "ood": shape.n_ood}
    for dataset, families in res["aggregates"].items():
        if len(families) != 4:
            problems.append(f"decompose {dataset}: {len(families)} families, expected 4")
        for family, agg in families.items():
            r = agg["max_abs_residual"]
            if not (_finite(r) and abs(r) <= RESIDUAL_TOL):
                problems.append(f"decompose {family}/{dataset}: max_abs_residual {r!r} > {RESIDUAL_TOL}")
            if agg["n"] != sizes[dataset]:
                problems.append(f"decompose {family}/{dataset}: n = {agg['n']}, expected {sizes[dataset]}")
            if len(_csv_rows(out / f"decompose_{family}_{dataset}.csv")) != sizes[dataset]:
                problems.append(f"decompose_{family}_{dataset}.csv has the wrong row count")
    if set(res["aggregates"]) != set(sizes):
        problems.append(f"decompose covered datasets {sorted(res['aggregates'])}")
    return problems


def check_conditional(out: Path, surrogates: int, d_reference: float | None = None, **_) -> list[str]:
    res = _result(out)
    problems = []
    d, p, d_surr = res["d_statistic"], res["p_value"], res["d_surrogates"]
    if res["n_surrogates"] != surrogates or len(d_surr) != surrogates:
        problems.append(f"conditional recorded {len(d_surr)} surrogates, expected {surrogates}")
    if not _finite(d, p, *d_surr):
        problems.append("conditional: non-finite d, p-value or surrogate")
    expected_p = (sum(1 for v in d_surr if v >= d) + 1) / (len(d_surr) + 1)
    if p != expected_p:
        problems.append(f"conditional p_value {p!r} != add-one rule {expected_p!r}")
    if d_reference is not None and not abs(d - d_reference) <= D_REFERENCE_TOL:
        problems.append(f"conditional d {d!r} differs from dense reference {d_reference!r}")
    rows = _csv_rows(out / "curves.csv")
    if len(rows) != res["settings"]["grid_size"] or not all(_finite(*map(float, r)) for r in rows):
        problems.append("conditional curves.csv has missing or non-finite rows")
    return problems


def check_trends(out: Path, **_) -> list[str]:
    res = _result(out)
    problems = []
    expected = TREND_METRICS * TREND_CLASSES
    if len(res["table"]) != expected:
        problems.append(f"trends table has {len(res['table'])} rows, expected {expected}")
    for row in res["table"]:
        vals = [row[k] for k in ("coefficient", "intercept", "std_error", "t_statistic", "p_value", "r2")]
        if not _finite(*vals):
            problems.append(f"trends row {row['metric']}/{row['model_class']} is not finite")
    csv_rows = _csv_rows(out / "trend_table.csv")
    if len(csv_rows) != expected or not all(_finite(*map(float, r[2:])) for r in csv_rows):
        problems.append("trend_table.csv has missing or non-finite rows")
    return problems


def check_improve(out: Path, shape, **_) -> list[str]:
    res = _result(out)
    problems = []
    sizes = {"ind": shape.n_ind, "ood": shape.n_ood}
    alpha = res["settings"]["alpha"]
    for dataset, r in res["results"].items():
        mmd = r["mmd"]
        m = mmd["m"]
        threshold = 4.0 / math.sqrt(m) * math.sqrt(math.log(1.0 / alpha))
        if not math.isclose(mmd["threshold"], threshold, rel_tol=1e-12, abs_tol=0.0):
            problems.append(f"improve {dataset}: threshold {mmd['threshold']!r} != {threshold!r}")
        if not _finite(mmd["statistic"], r["pearson_r"]):
            problems.append(f"improve {dataset}: non-finite statistic")
        if m != sizes[dataset]:
            problems.append(f"improve {dataset}: m = {m}, expected {sizes[dataset]}")
    if set(res["results"]) != set(sizes):
        problems.append(f"improve covered datasets {sorted(res['results'])}")
    return problems


def check_gp(out: Path, **_) -> list[str]:
    s = _result(out)["summary"]
    if not _finite(s["mean_posterior_variance_ind"], s["mean_posterior_variance_ood"]):
        return ["gp-demo: non-finite posterior variance summary"]
    if len(_csv_rows(out / "gp_predictions.csv")) == 0:
        return ["gp-demo: empty gp_predictions.csv"]
    return []


def check_report(out: Path, **_) -> list[str]:
    index = json.loads((out / "index.json").read_text())
    found = len(list(out.rglob("result.json")))
    if index["n_runs"] != found or len(index["runs"]) != found:
        return [f"report indexed {index['n_runs']} runs, {found} result.json files exist"]
    return []


CHECKS = {
    "simulate": check_simulate,
    "decompose": check_decompose,
    "conditional": check_conditional,
    "trends": check_trends,
    "improve": check_improve,
    "gp-demo": check_gp,
    "report": check_report,
}


def check_command(command: str, out: Path, **context) -> list[str]:
    """Run the check for one command; a missing or malformed output is a problem."""
    try:
        return CHECKS[command](out, **context)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{command}: unreadable output in {out}: {exc!r}"]


def snapshot(root: Path) -> dict[str, str]:
    """SHA-256 of every CSV and JSON file under ``root``, by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.suffix in (".csv", ".json")
    }


def differing(first: dict[str, str], again: dict[str, str]) -> list[str]:
    """Paths whose bytes differ, or that exist in only one snapshot."""
    return sorted(p for p in first.keys() | again.keys() if first.get(p) != again.get(p))


# ------------------------------------------------------- dense reference for d


def _quadratic(probs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    stack = np.stack(probs)
    avg = (1.0 - np.einsum("mij,mij->mi", stack, stack)).mean(axis=0)
    return avg, stack.var(axis=0).sum(axis=1)


def _dense_krr(x: np.ndarray, y: np.ndarray, grid: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    h = n ** (-1.0 / 6.0) * x.std(ddof=1)
    ridge = max(1e-3 * y.var(), 1e-8)
    gram = np.exp(-((x[:, None] - x[None, :]) ** 2) / (2.0 * h * h))
    alpha = np.linalg.solve(gram + ridge * n * np.eye(n), y)
    return np.exp(-((grid[:, None] - x[None, :]) ** 2) / (2.0 * h * h)) @ alpha


def reference_d(manifest: Path, grid_size: int = 100) -> float:
    """The ratio-of-sums ``d`` of the quadratic family from an LU solve of the
    full kernel system, written from the method's definition and independent
    of ``ensdiag``."""
    data = load_probs(manifest)
    (x_i, y_i), (x_o, y_o) = _quadratic(data["ind"][1]), _quadratic(data["ood"][1])
    pooled = np.concatenate([x_i, x_o])
    lo = max(np.percentile(pooled, 1.0), x_i.min(), x_o.min())
    hi = min(np.percentile(pooled, 99.0), x_i.max(), x_o.max())
    grid = np.linspace(lo, hi, grid_size)
    f_i, f_o = _dense_krr(x_i, y_i, grid), _dense_krr(x_o, y_o, grid)
    return float((f_o - f_i).sum() / f_i.sum())
