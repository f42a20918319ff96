"""The ensdiag benchmark: real CLI commands on generated stores, timed from outside.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The benchmark writes the workload's store from the seed, then runs the
workload's ``ensdiag`` commands in sequence, one fresh process each, and
repeats that pass while another fits into S seconds (at least twice).
Every output is checked, and every pass after the first must reproduce
the first pass's CSV and JSON bytes. A command that exits non-zero or
fails a check is a failed operation.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics. With ``--trace 1`` each untraced pass is followed by
the same commands run in this process with spans around every layer
(spans.py), and the JSON holds the per-layer metrics. A record of each
run, with the environment, goes to ``.bench/results/``. NOTES.md explains
the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import checks
import gen
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
MIN_PASSES = 2
MIN_SETUP_SAMPLES = 6
RUN_DEADLINE_S = 170.0
COMMAND_METRICS = ("decompose", "conditional", "trends", "improve")


@dataclasses.dataclass
class CommandRun:
    label: str
    argv: list[str]
    code: int
    main_s: float
    setup_s: float = float("nan")
    peak_rss_mb: float = float("nan")
    problems: list[str] = dataclasses.field(default_factory=list)

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def out(self) -> Path:
        return Path(self.argv[self.argv.index("--out") + 1])


@dataclasses.dataclass
class Pass:
    wall_s: float
    commands: list[CommandRun]

    @property
    def main_s(self) -> float:
        return sum(c.main_s for c in self.commands)

    def command_s(self, command: str) -> float:
        return sum(c.main_s for c in self.commands if c.command == command)


class Bench:
    def __init__(self, root: Path, workload, seed: int, seconds: int) -> None:
        self.root, self.wl, self.seed, self.seconds = root, workload, seed, seconds
        self.started = time.monotonic()
        self.work = root / ".bench" / "work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.passes: list[Pass] = []  # untraced, timed
        self.traced: list[Pass] = []  # in-process with spans
        self.probe_setups: list[float] = []
        self.first_snapshot: dict[str, str] | None = None
        self.d_reference: float | None = None

    @property
    def operations(self) -> list[CommandRun]:
        return [c for p in self.passes + self.traced for c in p.commands]

    # ------------------------------------------------------------ processes

    def spawn(self, argv: list[str], name: str) -> tuple[int, float, float, float, float]:
        """Run child.py; return (exit code, spawn time, import time, main end, peak RSS MiB)."""
        timing, log = self.work / f"{name}.timing", self.work / f"{name}.stderr"
        timing.unlink(missing_ok=True)
        with open(log, "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(timing), *argv],
                                    env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(1.0, self.started + RUN_DEADLINE_S - spawned), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            imported, finished = map(float, timing.read_text().split())
        except (OSError, ValueError):
            imported = finished = float("nan")
        return proc.returncode, spawned, imported, finished, usage.ru_maxrss / 1024.0

    def run_pass(self) -> Pass:
        out = self.work / f"pass{len(self.passes)}"
        out.mkdir(parents=True)
        runs, first = [], None
        for label, argv in self.wl.commands(self.manifest, out, self.seed):
            code, spawned, imported, finished, rss = self.spawn(argv, label)
            last = time.monotonic()
            first = spawned if first is None else first
            run = CommandRun(label, argv, code, finished - imported, imported - spawned, rss)
            if code != 0:
                err = (self.work / f"{label}.stderr").read_text(errors="replace").strip()
                run.problems.append(f"{label} exited {code}: {err[-500:]}")
            runs.append(run)
        self.check(out, runs)
        return Pass(last - first, runs)

    def run_traced(self, tracer: spans.Tracer, ensdiag_main) -> Pass:
        out = self.work / f"traced{len(self.traced)}"
        out.mkdir(parents=True)
        runs = []
        gc.collect()
        tracemalloc.start()
        tracer.install()
        try:
            for label, argv in self.wl.commands(self.manifest, out, self.seed):
                tracer.run = f"traced{len(self.traced)}:{label}"
                error = ""
                t = time.perf_counter()
                try:
                    code = tracer.root(f"main:{label}", lambda: ensdiag_main(argv))
                except Exception as exc:  # a crash is a failed operation, not a harness error
                    code, error = 1, repr(exc)
                run = CommandRun(label, argv, code, time.perf_counter() - t)
                if code != 0:
                    run.problems.append(f"{label} (traced) exited {code} {error}")
                runs.append(run)
        finally:
            tracer.uninstall()
            tracemalloc.stop()
        self.check(out, runs)
        return Pass(float("nan"), runs)

    # ------------------------------------------------------------ checking

    def check(self, out: Path, runs: list[CommandRun]) -> None:
        """Check each command's output, then the pass against the first pass's bytes."""
        for run in runs:
            if run.code != 0:
                continue
            context = {"shape": self.wl.shape}
            if "--surrogates" in run.argv:
                context["surrogates"] = int(run.argv[run.argv.index("--surrogates") + 1])
                if "--subsample" not in run.argv:
                    context["d_reference"] = self.d_reference
            run.problems += checks.check_command(run.command, run.out, **context)
        snap = checks.snapshot(out)
        if self.first_snapshot is None:
            self.first_snapshot = snap
        else:
            by_label = {r.label: r for r in runs}
            for path in checks.differing(self.first_snapshot, snap):
                owner = by_label.get(path.split("/", 1)[0], runs[-1])
                owner.problems.append(f"{path} differs from the first pass")
        shutil.rmtree(out)
        os.sync()

    # ------------------------------------------------------------ runs

    def prepare(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.manifest = gen.write_store(self.wl.shape, self.seed, self.wl.tag, self.work / "store")
        if self.wl.name == "krr-large":
            self.d_reference = checks.reference_d(self.manifest)
        os.sync()  # so that writeback of the store does not land inside a timed pass
        self.t0 = time.monotonic()

    def another_fits(self, done: int, minimum: int, last: float) -> bool:
        return done < minimum or time.monotonic() - self.t0 + last <= self.seconds

    def measure(self) -> None:
        last = 0.0
        while self.another_fits(len(self.passes), MIN_PASSES, last):
            start = time.monotonic()
            self.passes.append(self.run_pass())
            last = time.monotonic() - start
        while len(self.setups()) < MIN_SETUP_SAMPLES:  # import-only processes
            code, spawned, imported, *_ = self.spawn([], "probe")
            if code != 0:  # the commands failed the same way and count as failed
                break
            self.probe_setups.append(imported - spawned)

    def setups(self) -> list[float]:
        return [c.setup_s for p in self.passes for c in p.commands] + self.probe_setups

    def trace(self) -> tuple[dict, spans.Tracer]:
        """Alternate untraced and traced passes; return per-layer metrics and the last tracer."""
        sys.path.insert(0, str(self.root / "src"))
        from ensdiag.cli import main as ensdiag_main

        layers, last = [], 0.0
        while self.another_fits(len(self.traced), 1, last):
            start = time.monotonic()
            self.passes.append(self.run_pass())
            tracer = spans.Tracer()
            self.traced.append(self.run_traced(tracer, ensdiag_main))
            layers.append(spans.layer_metrics(tracer.spans))
            last = time.monotonic() - start
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        untraced = statistics.median(p.main_s for p in self.passes)
        metrics["trace.overhead_frac"] = statistics.median(p.main_s for p in self.traced) / untraced - 1.0
        return metrics, tracer


def environment(root: Path) -> dict:
    import numpy as np
    import scipy

    sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")},
    }


def end_to_end(bench: Bench) -> dict[str, tuple[float, str]]:
    passes = bench.passes
    return {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "setup_s": (statistics.median(bench.setups()), "s"),
        "peak_rss_mb": (max(c.peak_rss_mb for p in passes for c in p.commands), "MiB"),
        "main_s": (statistics.median(p.main_s for p in passes), "s"),
    }


def summary(bench: Bench, failed: int) -> dict[str, tuple[float | None, str]]:
    """Every end-to-end figure for the reader, including ones not in the JSON."""
    ran = {c.command for c in bench.passes[0].commands}
    out = dict(end_to_end(bench))
    out["fail_frac"] = (failed / len(bench.operations), "1")
    for c in COMMAND_METRICS:
        out[f"{c}_s"] = (statistics.median(p.command_s(c) for p in bench.passes) if c in ran else None, "s")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "ensdiag" / "cli.py").is_file():
        print(f"error: {root} holds no src/ensdiag; run from the root of an ensdiag checkout",
              file=sys.stderr)
        return 2

    bench = Bench(root, WORKLOADS[args.workload], args.seed, args.seconds)
    try:
        bench.prepare()
        if args.trace:
            layer, tracer = bench.trace()
        else:
            bench.measure()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    ops = bench.operations
    failed = sum(bool(c.problems) for c in ops)
    for problem in (p for c in ops for p in c.problems):
        print(f"FAIL {problem}")
    print(f"{args.workload} seed {args.seed}: {len(bench.passes)} untraced and {len(bench.traced)} "
          f"traced passes, {len(ops)} operations, {failed} failed")

    results = root / ".bench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = {k: {"value": v, "unit": spans.LAYER_METRICS[k]} for k, v in layer.items()}
        tracer.write(results / f"{stem}-spans.jsonl")
        shown = {k: (m["value"], m["unit"]) for k, m in metrics.items()}
        if tracer.missing:
            print(f"not traced, no longer in the program: {', '.join(sorted(tracer.missing))}")
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end(bench).items()}
        shown = summary(bench, failed)
    for name, (value, unit) in shown.items():
        print(f"{name:>28} = " + ("not run" if value is None else f"{value:.6g} {unit}"))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(root),
        "metrics": metrics,
        "passes": [dataclasses.asdict(p) for p in bench.passes],
        "traced_passes": [dataclasses.asdict(p) for p in bench.traced],
        "probe_setups_s": bench.probe_setups,
        "not_traced": sorted(tracer.missing) if args.trace else [],
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
