"""Benchmark for the apportion package: one workload per run, closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli_roundtrip --seed 1 --seconds 50 --trace 0

Workloads (see ``workloads.py``): ``cli_roundtrip`` (CLI simulate then
estimate, CSV I/O and the 2-D hull), ``study`` (the convergence-study
subcommand with two workers) and ``high_dim`` (in-memory estimate at J=30,
K=10, greedy search over every row).  ``BENCHMARK.json`` gates the first
two; ``high_dim`` runs the same way when named, but its runs spread too
widely on a shared 2-core host to gate, and three workloads leave too
little time for runs long enough to steady the other two.

One client runs operations back to back for ``--seconds``, after one
untimed warm-up operation, cycling through the workload's pool of inputs,
and on past that until every input ran once.  Each input has its own seed
derived from ``--seed``, and every output is checked: a failed operation
is one that raises, exits nonzero, returns a Phi that is not
column-stochastic within 1e-10 or has entries outside [0, 1], misses the
workload's NRMSE tolerance, or differs from an earlier run of its input.
Fresh-interpreter imports for ``setup_s`` are spread over the window.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced operations, reports per-layer self times and counts
from the traced ones plus the tracing overhead, and writes the spans to
``perfbench/out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# One BLAS thread per process keeps the thread count at or below nproc,
# also for the study's two worker processes.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Fresh-interpreter imports for setup_s, spread evenly over the measuring
# window so that one slow phase of the shared host does not set the median.
SETUP_REPEATS = 5
MIN_TIMED_OPS = 2  # of each kind, in a traced run
STUDY_WORKERS = 2

# Latency is gated as the mean of the fastest tenth of operations, and
# throughput as the rows of one operation over that time: on a shared host,
# slow phases lasting seconds move the median of a run by up to a third,
# and the fastest tenth much less.  The median and the tail are printed
# next to them.
END_TO_END = (
    ("setup_s", "s"),
    ("op_low_decile_s", "s"),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
    ("ok_ops_frac", "frac"),
    ("phi_nrmse_p50", "1"),
)


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def time_setup() -> float:
    """Wall time for a fresh interpreter to import ``apportion.cli``.

    Call it after this process imported the package, so the bytecode is
    compiled and compiling it is not counted.
    """
    cmd = [sys.executable, "-c", "import apportion.cli"]
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=120)
    return time.perf_counter() - start


def percentile(values: list[float], p: int) -> float:
    if not values:
        return float("nan")
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail_percentile(times: list[float]) -> int | None:
    """Highest of p75..p99 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if len(times) * (100 - p) / 100 >= 10:
            return p
    return None


def _median_ratio(num: list[float], den: list[float]) -> float:
    ratios = [a / b for a, b in zip(num, den)]
    return statistics.median(ratios) if ratios else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="apportion benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="tiny inputs and one setup import (smoke test)"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "apportion" / "cli.py").is_file():
        print(f"perfbench: no apportion sources in {SRC}", file=sys.stderr)
        return 2

    # Set before numpy is imported here or in any child process.
    for var in THREAD_ENV:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    sys.path.insert(0, str(SRC))

    import numpy
    import scipy

    import apportion
    import tracing
    import workloads

    if Path(apportion.__file__).resolve().parent != SRC / "apportion":
        print(f"perfbench: apportion imported from {apportion.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    workload = workloads.build(args.workload, tiny=args.tiny)
    nproc = _nproc()
    workers = min(STUDY_WORKERS, nproc) if args.workload == "study" else 1
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "cpu": _cpu_model(),
        "workers": workers,
        **{var: os.environ[var] for var in THREAD_ENV},
    }
    print("env " + json.dumps(env, sort_keys=True))

    # In a traced run each input is run untraced and then traced, so the
    # overhead compares like with like; the study adds an untraced parallel
    # run of the same input for its parallel efficiency.  Traced operations
    # run serially so every span is recorded in this process.
    if args.trace:
        cycle = [(False, 1), (True, 1)] + ([(False, workers)] if workers > 1 else [])
    else:
        cycle = [(False, workers)]

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    tracer = tracing.Tracer()
    run = workloads.Run()
    setup_times = []
    setup_repeats = 0 if args.trace else 1 if args.tiny else SETUP_REPEATS
    try:
        seed0 = workloads.op_seed(args.seed, 0)
        workloads.run_op(workload, 0, None, seed0, workdir, None, False, cycle[0][1], run)
        start = time.perf_counter()
        deadline = start + args.seconds
        index = 1
        # Every input of the pool runs at least once, so phi_nrmse_p50
        # depends on the seed alone.
        min_ops = MIN_TIMED_OPS * len(cycle) if args.trace else workload.pool
        while time.perf_counter() < deadline or index <= min_ops:
            # Setup imports fall evenly over the window; the last one follows the loop.
            due = len(setup_times) * args.seconds / max(setup_repeats - 1, 1)
            if len(setup_times) < setup_repeats - 1 and time.perf_counter() - start >= due:
                setup_times.append(time_setup())
            step, position = divmod(index - 1, len(cycle))
            traced, op_workers = cycle[position]
            slot = step % workload.pool
            op_seed = workloads.op_seed(args.seed, slot + 1)
            workloads.run_op(
                workload, index, slot, op_seed, workdir, tracer, traced, op_workers, run
            )
            index += 1
        while len(setup_times) < setup_repeats:
            setup_times.append(time_setup())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    name = args.workload
    plain = run.times.get((False, workers), [])
    correct = run.failed == 0 and bool(plain)
    if args.trace:
        traced_times = run.times.get((True, 1), [])
        serial = run.times.get((False, 1), [])
        metrics = tracing.layer_metrics(tracer.spans, max(len(traced_times), 1))
        # Ratios of runs on the same input, then their median.
        metrics["trace.overhead_frac"] = _median_ratio(traced_times, serial) - 1.0
        metrics["evaluation.parallel_efficiency"] = _median_ratio(serial, plain) / workers
        units = {m: u for m, u, _ in tracing.PER_LAYER}
        metrics = {m: metrics[m] for m in units}
        trace_path = OUT / f"trace-{name}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        shares = tracing.module_shares(tracer.spans)
        print(f"{name} traced_ops {len(traced_times)} untraced_ops {len(serial)}")
        print(f"{name} trace_file {trace_path.relative_to(ROOT)}")
        print(
            f"{name} self_time_shares "
            + " ".join(f"{k}={v:.3f}" for k, v in shares.items() if v >= 0.005)
        )
    else:
        units = dict(END_TO_END)
        fastest = statistics.fmean(sorted(plain)[: math.ceil(len(plain) / 10)])
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_low_decile_s": fastest,
            "rows_per_s": run.rows / fastest,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ops_frac": 1.0 - run.failed / run.attempted,
            "phi_nrmse_p50": statistics.median(run.nrmses) if run.nrmses else float("nan"),
        }
        print(f"{name} ops {len(plain)} on {workload.pool} inputs (warm-up excluded)")
        for p in (50, tail_percentile(plain)):
            if p:
                print(f"{name} op_p{p}_s {percentile(plain, p):.6g} s")
        print(f"{name} failed_ops_frac {run.failed / run.attempted:.6g} 1")

    for metric, value in metrics.items():
        print(f"{name} {metric} {value:.6g} {units[metric]}")
    print(f"{name} digest {run.digest.hexdigest()[:16]} over {run.digest_ops} ops")

    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    with open(OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        record = {
            "env": env,
            "digest": run.digest.hexdigest(),
            "op_times": {f"traced={t} workers={w}": v for (t, w), v in run.times.items()},
            **result,
        }
        json.dump(record, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
