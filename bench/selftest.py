"""Self-test of the benchmark harness, at reduced sizes.

    python3 bench/selftest.py

Run from the root of a checkout. Every workload must complete its untraced
and traced passes with no failed operation and with the expected span
counts, and tampered outputs must each make the checker report a problem,
which counts the command as failed. Exits 1 if any expectation does not
hold.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import checks
import gen
import run
from workloads import WORKLOADS

SMALL = {
    "krr-large": gen.Shape(n_ind=300, n_ood=120, classes=10, models=5),
    "zoo-scores": gen.Shape(n_ind=400, n_ood=150, classes=20, models=5),
    "mmd-improve": gen.Shape(n_ind=300, n_ood=120, classes=10, models=5),
}


# Exact span counts of one traced pass: 2 observed fits plus 2 per surrogate, and
# one ensemble per leave-one-out member set, per metric and dataset.
EXPECTED_COUNTS = {
    "krr-large": {"conditional.fits": 2 + 2 * 12},
    "zoo-scores": {"trends.ensemble_forms": 5 * 2 * SMALL["zoo-scores"].models},
    "mmd-improve": {"conditional.fits": 2 + 2 * 400, "improvement.m": SMALL["mmd-improve"].n_ind},
}


def reduced_workloads(root: Path) -> list[str]:
    problems = []
    for name, wl in WORKLOADS.items():
        for traced in (False, True):
            bench = run.Bench(root, dataclasses.replace(wl, shape=SMALL[name]), seed=0, seconds=0)
            try:
                bench.prepare()
                layers = bench.trace()[0] if traced else bench.measure()
            finally:
                shutil.rmtree(bench.work, ignore_errors=True)
            failed = [p for c in bench.operations for p in c.problems]
            print(f"{name}{' traced' if traced else ''}: {len(bench.operations)} operations, {len(failed)} failed")
            problems += [f"{name}: {p}" for p in failed]
            for metric, expected in EXPECTED_COUNTS[name].items() if traced else ():
                if layers[metric] != expected:
                    problems.append(f"{name}: {metric} = {layers[metric]}, expected {expected}")
    return problems


def _edit(path: Path, change) -> None:
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def tampering(root: Path) -> list[str]:
    """Each tampered copy of a correct output must be caught."""
    sys.path.insert(0, str(root / "src"))
    from ensdiag.cli import main as ensdiag_main

    work = root / ".bench" / "work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    shape = SMALL["krr-large"]
    manifest = gen.write_store(shape, 0, WORKLOADS["krr-large"].tag, work / "store")
    reference = checks.reference_d(manifest)
    cond, dec = work / "conditional", work / "decompose"
    for argv in (["conditional", "--manifest", str(manifest), "--surrogates", "9", "--out", str(cond)],
                 ["decompose", "--manifest", str(manifest), "--out", str(dec)]):
        if ensdiag_main(argv) != 0:
            return [f"ensdiag {argv[0]} failed on the self-test store"]

    def check_cond():
        return checks.check_command("conditional", cond, shape=shape, surrogates=9, d_reference=reference)

    def check_dec():
        return checks.check_command("decompose", dec, shape=shape)

    def p_off_by_one(r):
        r["p_value"] += 1.0 / (r["n_surrogates"] + 1)

    def residual(r):
        r["aggregates"]["ood"]["entropy"]["max_abs_residual"] = 2e-10

    def d_shift(r):
        r["d_statistic"] += 2e-8

    cases = [("conditional p-value off by one surrogate", cond, check_cond, p_off_by_one),
             ("decompose residual of 2e-10", dec, check_dec, residual),
             ("conditional d 2e-8 from the dense reference", cond, check_cond, d_shift)]
    problems = []
    for what, out, check, change in cases:
        if check():
            problems.append(f"untampered output already fails: {check()}")
            continue
        original = (out / "result.json").read_text()
        _edit(out / "result.json", change)
        caught = check()
        print(f"{what}: {'caught' if caught else 'NOT caught'} {caught}")
        if not caught:
            problems.append(f"tampering not caught: {what}")
        (out / "result.json").write_text(original)

    before = checks.snapshot(work)
    csv = cond / "curves.csv"
    csv.write_text(csv.read_text().replace("1", "2", 1))
    if checks.differing(before, checks.snapshot(work)) != ["conditional/curves.csv"]:
        problems.append("a changed CSV byte was not reported as a determinism failure")
    shutil.rmtree(work)
    return problems


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "ensdiag" / "cli.py").is_file():
        print("error: run from the root of an ensdiag checkout", file=sys.stderr)
        return 2
    problems = reduced_workloads(root) + tampering(root)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
