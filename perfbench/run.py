"""Benchmark entry point for agendamech.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see ``workloads.py`` and ``BENCHMARK.json``) are closed loops
with one caller. ``--trace 0`` times the workload untraced and reports the
end-to-end metrics; ``--trace 1`` runs a fixed slice of the workload with
and without layer tracing and reports per-layer counts and times. The last
line of standard output is the result as JSON; the line before it is a
summary with the raw (unnormalized) timings, and the full record, with the
environment, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from timing import KERNEL_NOMINAL_MS, DriftClock, p95
from tracing import Tracer
from workloads import WORK, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 11
P95_MIN_OPS = 200  # p95 only with at least ten samples beyond it
MAX_COMPLAINTS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description="agendamech benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    """Runs ops of one workload, counting every attempt and failure."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.points = 0
        self._complaints = 0

    def attempt(self, key) -> tuple[float, bool]:
        """Time one op (the program call only) and check its output."""
        t0 = time.perf_counter()
        try:
            out = self.workload.run(key)
        except Exception:
            dt = time.perf_counter() - t0
            self._complain(key, traceback.format_exc())
            return dt, False
        dt = time.perf_counter() - t0
        try:
            ok = self.workload.check(key, out)
        except Exception:
            self._complain(key, traceback.format_exc())
            return dt, False
        if not ok:
            self._complain(key, "output differs from the reference\n")
        return dt, ok

    def _complain(self, key, text: str) -> None:
        if self._complaints < MAX_COMPLAINTS:
            self._complaints += 1
            sys.stderr.write(f"perfbench: op {key!r}: {text}")

    def counted(self, key, clock) -> None:
        dt, ok = self.attempt(key)
        clock.record(dt)
        self.attempted += 1
        self.failed += not ok
        self.points += self.workload.points(key)


def measure_setup(name: str, seed: int) -> tuple[float, float]:
    """Median fresh-interpreter set-up (import plus input building) over
    SETUP_REPEATS child processes: normalized by the kernel speed each child
    measured right after its set-up, and raw."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)]
    # The first set-up after other work can find modules out of the page
    # cache, so one child runs untimed first.
    subprocess.run(cmd, capture_output=True, timeout=120, check=True)
    norm, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        seconds, kernel_ms = (float(v) for v in proc.stdout.split()[-2:])
        norm.append(seconds * KERNEL_NOMINAL_MS / kernel_ms)
        raw.append(seconds)
    return statistics.median(norm), statistics.median(raw)


def timed_run(runner: Runner, seconds: float) -> dict:
    """Whole rounds until ``seconds`` have passed; end-to-end metrics."""
    clock = DriftClock()
    start = time.perf_counter()
    r = 0
    while True:
        for key in runner.workload.rounds.round(r):
            runner.counted(key, clock)
        r += 1
        if time.perf_counter() - start >= seconds:
            break
    clock.finish()
    norm, raw = clock.norm_s, clock.raw_s
    out = {
        "ops_per_s": runner.points / sum(norm),
        "latency_ms.p50": 1e3 * statistics.median(norm),
        "raw.ops_per_s": runner.points / sum(raw),
        "raw.latency_ms.p50": 1e3 * statistics.median(raw),
        "latency_samples": len(norm),
        "ref_kernel_ms": clock.kernel_ms,
    }
    if len(norm) >= P95_MIN_OPS:
        out["latency_ms.p95"] = 1e3 * p95(norm)
        out["raw.latency_ms.p95"] = 1e3 * p95(raw)
    return out


def traced_run(runner: Runner, seconds: float) -> dict:
    """Alternate untraced and traced passes over the workload's first
    ``trace_ops`` ops until ``seconds`` have passed (at least one pair).
    Counts come from the first traced pass and repeat exactly for a seed;
    times are drift-normalized medians over the traced passes."""
    workload = runner.workload
    keys = workload.rounds.first(workload.trace_ops)
    ops = sum(workload.points(k) for k in keys)
    passes = {False: [], True: []}
    layers = []
    kernel = []
    start = time.perf_counter()
    pair = 0
    while True:
        for with_trace in ((False, True) if pair % 2 == 0 else (True, False)):
            tracer = Tracer() if with_trace else None
            if tracer is not None:
                tracer.install()
            clock = DriftClock()
            try:
                for key in keys:
                    runner.counted(key, clock)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            clock.finish()
            passes[with_trace].append(sum(clock.norm_s))
            kernel.extend(clock.samples_ms)
            if tracer is not None:
                layers.append((tracer, KERNEL_NOMINAL_MS / clock.kernel_ms))
        pair += 1
        if time.perf_counter() - start >= seconds:
            break

    first = layers[0][0]
    totals = first.totals()

    def calls(name):
        return totals.get(name, [0])[0]

    def ms(name, col):
        return statistics.median(
            [t.totals().get(name, [0, 0.0, 0.0])[col] * 1e3 * f for t, f in layers])

    built = calls("transfers.foc_schedule")
    returned = totals.get("regimes.solve", [0, 0.0, 0.0, 0])[3]
    metrics = {
        "model.validate.calls": calls("model.validate"),
        "model.validate.busy_ms": ms("model.validate", 1),
        "solver_core.weighted_foc.calls": calls("solver_core.weighted_foc"),
        "solver_core.weighted_foc.busy_ms": ms("solver_core.weighted_foc", 1),
        "transfers.foc_schedule.built": built,
        "transfers.foc_schedule.busy_ms": ms("transfers.foc_schedule", 1),
        "transfers.allocation.calls": calls("transfers.allocation"),
        "regimes.solve.calls": calls("regimes.solve"),
        "regimes.solve.self_ms": ms("regimes.solve", 2),
        "regimes.solves_per_op": calls("regimes.solve") / ops,
        "regimes.schedule_use_ratio": returned / built if built else 0.0,
        "verify.oracle.calls": calls("verify.oracle"),
        "verify.oracle.busy_ms": ms("verify.oracle", 1),
        "cli.load_model.busy_ms": ms("cli.load_model", 1),
        "cli.sweep.self_ms": ms("cli.sweep", 2),
        "cli.sweep.threads": first.sweep_threads,
        "trace.overhead_frac": sum(passes[True]) / sum(passes[False]) - 1.0,
        "ref_kernel_ms": statistics.median(kernel),
    }
    detail = {
        "trace_ops": ops,
        "trace_keys": len(keys),
        "pairs": pair,
        "untraced_ops_per_s": [ops / t for t in passes[False]],
        "traced_ops_per_s": [ops / t for t in passes[True]],
        "missing_wrappers": first.missing,
        "counts_repeat": all(t.totals().keys() == totals.keys() and all(
            t.totals()[k][0] == totals[k][0] for k in totals) for t, _ in layers),
    }
    return {"metrics": metrics, "detail": detail}


def git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def sweep_thread_count(workload) -> int:
    """Threads the sweep's pool ran solves on, from one traced call."""
    tracer = Tracer()
    tracer.install()
    try:
        workload.run(workload.rounds.warmup()[0])
    finally:
        tracer.uninstall()
    return tracer.sweep_threads


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "agendamech" / "__init__.py").is_file():
        print("perfbench: src/agendamech not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # Metric names and units come from BENCHMARK.json; a run must measure
    # exactly the ones it lists.
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    # The sweep runs with the CLI's default thread pool.
    os.environ.pop("MECH_THREADS", None)
    # Compile first, so no run pays byte-compilation inside a timing.
    compileall.compile_dir(str(src / "agendamech"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    setup = None if args.trace else measure_setup(args.workload, args.seed)

    sys.path.insert(0, str(src))
    import agendamech as am
    if Path(am.__file__).resolve().parent != (src / "agendamech").resolve():
        print(f"perfbench: imported agendamech from {am.__file__}, not {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](am, args.seed)
    runner = Runner(workload)
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(root),
        "sweep_threads": sweep_thread_count(workload) if args.workload == "sweep" else None,
    }
    warm_ok = all(runner.attempt(key)[1]
                  for key in workload.rounds.warmup())

    if args.trace:
        traced = traced_run(runner, args.seconds)
        metrics, summary = traced["metrics"], traced["detail"]
        env["ref_kernel_ms"] = metrics["ref_kernel_ms"]
    else:
        summary = timed_run(runner, args.seconds)
        metrics = {
            "ops_per_s": summary["ops_per_s"],
            "latency_ms.p50": summary["latency_ms.p50"],
            "setup_s": setup[0],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        summary["raw.setup_s"] = setup[1]
        summary["error_rate"] = runner.failed / runner.attempted
        env["ref_kernel_ms"] = summary["ref_kernel_ms"]
    if units.keys() != metrics.keys():
        print(f"perfbench: BENCHMARK.json lists {sorted(units)}, run measured {sorted(metrics)}",
              file=sys.stderr)
        return 2

    correct = runner.failed == 0 and warm_ok
    if args.trace and (summary["missing_wrappers"] or not summary["counts_repeat"]):
        # A layer that was not wrapped would read 0 calls and 0 ms, which
        # looks like a gain; counts that differ between passes are unusable.
        print(f"perfbench: traced run unusable: missing wrappers {summary['missing_wrappers']}, "
              f"counts repeat {summary['counts_repeat']}", file=sys.stderr)
        correct = False

    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "summary": summary, "result": result}
    results = WORK.parent / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("# " + json.dumps({"workload": args.workload, "seed": args.seed,
                             "environment": env, "summary": summary}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
