"""The benchmark's workloads: inputs from a seed, one timed operation, and
the checks on its outputs.

Each operation runs through module attributes (``cli.main``,
``estimator.apportion``) so that a traced run sees the same calls.
Checks and input generation use the functions imported below, bound
before any tracing starts, so they never show up as spans.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from apportion import cli, estimator
from apportion.estimator import ConcentrationMatrix, EstimatorConfig
from apportion.evaluation import align_rows, nrmse
from apportion.synthgen import (
    PARAMS_STREAM,
    PROFILE_STREAM,
    RngSpec,
    draw_ar1_params,
    make_ground_truth,
    population_mean_log_ar1,
    simulate_log_ar1,
    true_phi,
)
from tracing import span

DIGEST_OPS = 3  # warm-up plus the first two timed operations

# The package's own tolerances for a column-stochastic attribution matrix.
COLUMN_SUM_TOL = 1e-10
ENTRY_TOL = 1e-12


@dataclass
class Estimate:
    """One estimate an operation produced, with what is known of it."""

    phi_true: np.ndarray | None = None
    phi_hat: np.ndarray | None = None  # None when the program reports only NRMSE
    selected_rows: tuple[int, ...] = ()
    reported_nrmse: float | None = None


def check_estimate(est: Estimate, tolerance: float) -> tuple[float, str]:
    """NRMSE of a valid estimate, or NaN and the reason it is invalid."""
    nrmse_value = est.reported_nrmse
    if est.phi_hat is not None:
        phi = est.phi_hat
        if phi.shape != est.phi_true.shape or not np.isfinite(phi).all():
            return math.nan, f"phi shape {phi.shape} or non-finite entries"
        if phi.min() < -ENTRY_TOL or phi.max() > 1.0 + ENTRY_TOL:
            return math.nan, "phi entries outside [0, 1]"
        if np.max(np.abs(phi.sum(axis=0) - 1.0)) > COLUMN_SUM_TOL:
            return math.nan, "phi columns do not sum to 1 within 1e-10"
        alignment = align_rows(est.phi_true, phi)
        computed = nrmse(est.phi_true, phi[list(alignment.permutation)])
        if nrmse_value is not None and abs(nrmse_value - computed) > 1e-9:
            return math.nan, f"reported NRMSE {nrmse_value} != recomputed {computed}"
        nrmse_value = computed
    if nrmse_value is None or not math.isfinite(nrmse_value):
        return math.nan, "no finite NRMSE"
    if nrmse_value > tolerance:
        return math.nan, f"NRMSE {nrmse_value:.4g} above tolerance {tolerance}"
    return nrmse_value, ""


def selected_rows(est) -> tuple[int, ...]:
    """Row indices (into the normalized data) of the chosen profile rows."""
    cands = est.candidates
    if cands is None:
        return ()
    rows = []
    for h in est.h_star_hat:
        match = np.flatnonzero((cands.ystar == h).all(axis=1))
        rows.append(int(cands.indices[match[0]]) if match.size else -1)
    return tuple(rows)


def _read_body(path: Path, skip_columns: int) -> np.ndarray:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.asarray([[float(v) for v in row[skip_columns:]] for row in rows])


def _empty_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir())


class CliRoundtrip:
    """``apportion simulate`` then ``apportion estimate`` on its ``y.csv``."""

    name = "cli_roundtrip"
    # Each tolerance is about twice the largest NRMSE seen over 60 to 300
    # seeds at the workload's size; a wrong vertex choice lands far above.
    tolerance = 0.3

    def __init__(self, n: int = 10_000, J: int = 8, K: int = 3, pool: int = 60):
        # NRMSE varies between inputs (IQR about half the median), so
        # phi_nrmse_p50 needs many of them.
        self.n, self.J, self.K = n, J, K
        self.pool = pool

    def prepare(self, op_seed: int, workdir: Path):
        return op_seed, _empty_dir(workdir)

    def run(self, inputs, tracer, workers: int):
        op_seed, workdir = inputs
        sim, est = workdir / "sim", workdir / "est"
        args = ["--n", str(self.n), "--J", str(self.J), "--K", str(self.K)]
        with span(tracer, "cli.main", command="simulate") as attrs:
            code = cli.main(
                ["simulate", "--process", "ar1", *args, "--seed", str(op_seed), "--out", str(sim)]
            )
        if code != 0:
            raise RuntimeError(f"simulate exited {code}")
        attrs["bytes_written"] = _tree_bytes(sim)
        with span(tracer, "cli.main", command="estimate") as attrs:
            code = cli.main(
                ["estimate", "--input", str(sim / "y.csv"), "--K", str(self.K), "--out", str(est)]
            )
        if code != 0:
            raise RuntimeError(f"estimate exited {code}")
        attrs["bytes_written"] = _tree_bytes(est)
        return self.n, None

    def outputs(self, inputs, result) -> list[Estimate]:
        _, workdir = inputs
        scatter = _read_body(workdir / "est" / "hull_scatter.csv", 0)
        chosen = scatter[scatter[:, -1] == 1, 0]
        return [
            Estimate(
                phi_true=_read_body(workdir / "sim" / "phi_true.csv", 1),
                phi_hat=_read_body(workdir / "est" / "phi_hat.csv", 1),
                selected_rows=tuple(int(r) for r in chosen),
            )
        ]


class HighDim:
    """``apportion()`` in memory at J=30, K=10: retained rank 9 is above
    ``HULL_DIM_MAX``, so every row is a candidate for the greedy search.

    The profiles are Dirichlet rows drawn here, because
    ``make_ground_truth`` raises ``BudgetExceeded`` for K >= 6.
    """

    name = "high_dim"
    tolerance = 0.2

    def __init__(self, n: int = 10_000, J: int = 30, K: int = 10, pool: int = 16):
        # At n=2e4 one input takes up to twice as long as another (more swap
        # sweeps), and a run holds half as many operations.
        self.n, self.J, self.K = n, J, K
        self.pool = pool

    def prepare(self, op_seed: int, workdir: Path):
        rng = RngSpec(op_seed)
        H = rng.substream(PROFILE_STREAM).generator().dirichlet(np.ones(self.J), self.K)
        params = draw_ar1_params(self.K, rng.substream(PARAMS_STREAM))
        W = simulate_log_ar1(self.n, params, rng)
        phi = true_phi(population_mean_log_ar1(params), H)
        return ConcentrationMatrix(W @ H), phi.values

    def run(self, inputs, tracer, workers: int):
        y, _ = inputs
        return self.n, estimator.apportion(y, EstimatorConfig(K=self.K))

    def outputs(self, inputs, est) -> list[Estimate]:
        _, phi_true = inputs
        return [Estimate(phi_true, est.phi_hat.values, selected_rows(est))]


class Study:
    """``apportion convergence-study`` over a small grid: many small
    generate-and-estimate tasks, the only workload that uses workers."""

    name = "study"
    tolerance = 0.4

    def __init__(self, n_grid=(1000, 10000), replicates=4, J=8, K=4, pool=12):
        # Inputs differ in time by up to three times (C(m, 4) subsets for m
        # hull vertices), so a run covers many of them.
        self.n_grid, self.replicates, self.J, self.K = n_grid, replicates, J, K
        self.pool = pool

    def prepare(self, op_seed: int, workdir: Path):
        return op_seed, _empty_dir(workdir)

    def run(self, inputs, tracer, workers: int):
        op_seed, workdir = inputs
        out = workdir / "study"
        with span(tracer, "cli.main", command="convergence-study") as attrs:
            code = cli.main(
                [
                    "convergence-study",
                    "--process", "ar1",
                    "--J", str(self.J),
                    "--K", str(self.K),
                    "--n-grid", ",".join(str(n) for n in self.n_grid),
                    "--replicates", str(self.replicates),
                    "--search", "auto",
                    "--seed", str(op_seed),
                    "--workers", str(workers),
                    "--out", str(out),
                ]
            )
        if code != 0:
            raise RuntimeError(f"convergence-study exited {code}")
        attrs["bytes_written"] = _tree_bytes(out)
        return self.replicates * sum(self.n_grid), None

    def outputs(self, inputs, result) -> list[Estimate]:
        """One estimate per task, as reported in metrics.csv.  The first
        task is recomputed here, so its Phi is checked and its reported
        NRMSE cross-checked."""
        op_seed, workdir = inputs
        out = workdir / "study"
        with open(out / "manifest.json", encoding="utf-8") as fh:
            failures = json.load(fh)["config"]["failures"]
        if failures:
            raise RuntimeError(f"study tasks failed: {failures}")
        with open(out / "metrics.csv", encoding="utf-8", newline="") as fh:
            records = list(csv.DictReader(fh))
        expected = len(self.n_grid) * self.replicates
        if len(records) != expected:
            raise RuntimeError(f"{len(records)} study records, expected {expected}")
        first = next(
            r for r in records if int(r["n"]) == self.n_grid[0] and r["replicate"] == "0"
        )
        # Task 0 draws from stream block 0 of the op seed, as the study does.
        y, truth = make_ground_truth(self.n_grid[0], self.J, self.K, "ar1", RngSpec(op_seed))
        est = estimator.apportion(y, EstimatorConfig(K=self.K, search="auto"))
        checked = Estimate(
            truth.phi_true.values,
            est.phi_hat.values,
            selected_rows(est),
            float(first["nrmse"]),
        )
        others = [
            Estimate(reported_nrmse=float(r["nrmse"]))
            for r in records
            if r is not first
        ]
        return [checked, *others]


def op_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class Run:
    """Operation timings, failures and output digests of one run.  Times
    are kept in order for each mode, ``(traced, workers)``."""

    def __init__(self):
        self.times: dict[tuple[bool, int], list[float]] = {}
        self.rows = 0
        self.nrmses: list[float] = []
        self.first_output: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()
        self.digest_ops = 0


def _output_key(estimates: list[Estimate]) -> str:
    """Exact digest of what an operation produced, for repeats of an input."""
    h = hashlib.sha256()
    for est in estimates:
        h.update(repr(est.selected_rows).encode())
        h.update(est.phi_hat.tobytes() if est.phi_hat is not None else b"")
        h.update(repr(est.reported_nrmse).encode())
    return h.hexdigest()


def run_op(workload, index, slot, seed, workdir, tracer, traced, workers, run: Run) -> None:
    """Run, time and check operation ``index`` on input ``slot`` of the pool,
    made from ``seed``, recording it in ``run``; operation 0 is the untimed
    warm-up and has no slot.  A repeated input must give the same output,
    whatever the mode."""
    inputs = workload.prepare(seed, workdir)
    run.attempted += 1
    try:
        if traced:
            with tracer.installed(index):
                start = time.perf_counter()
                rows, result = workload.run(inputs, tracer, workers)
                elapsed = time.perf_counter() - start
        else:
            start = time.perf_counter()
            rows, result = workload.run(inputs, None, workers)
            elapsed = time.perf_counter() - start
        estimates = workload.outputs(inputs, result)
    except Exception:  # an operation that raises is a failed operation
        traceback.print_exc()
        run.failed += 1
        return
    values = []
    for est in estimates:
        value, reason = check_estimate(est, workload.tolerance)
        if reason:
            print(f"op {index} failed: {reason}", file=sys.stderr)
            run.failed += 1
            return
        values.append(value)
    if slot is not None:
        key = _output_key(estimates)
        if slot not in run.first_output:
            run.first_output[slot] = key
            run.nrmses.extend(values)
        elif run.first_output[slot] != key:
            print(f"op {index} failed: output differs from the first run of input {slot}",
                  file=sys.stderr)
            run.failed += 1
            return
    if run.digest_ops < DIGEST_OPS:
        run.digest_ops += 1
        for est in estimates:
            run.digest.update(repr(est.selected_rows).encode())
            if est.phi_hat is not None:
                # Adding 0.0 turns -0.0 into 0.0, so signs of zero do not change the digest.
                run.digest.update(repr((est.phi_hat.round(12) + 0.0).tolist()).encode())
            else:
                run.digest.update(repr(round(est.reported_nrmse, 12)).encode())
    if slot is not None:
        run.times.setdefault((traced, workers), []).append(elapsed)
        run.rows = rows


def build(name: str, tiny: bool = False):
    """The named workload at its benchmark size, or tiny for smoke tests."""
    if name == "cli_roundtrip":
        return CliRoundtrip(n=500, pool=3) if tiny else CliRoundtrip()
    if name == "high_dim":
        return HighDim(n=400, pool=3) if tiny else HighDim()
    if name == "study":
        return Study(n_grid=(200, 400), replicates=2, pool=2) if tiny else Study()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("cli_roundtrip", "high_dim", "study")
