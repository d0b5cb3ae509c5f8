"""Row alignment, error metrics, hull diagnostics, and the replicated
convergence study.

Metric conventions: NRMSE averages per-row RMSE normalized by the true
row norm; NFD is the Frobenius distance over the true Frobenius norm.
Estimated rows are aligned to true rows by minimizing the total squared
Euclidean distance before either metric is computed.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import time
import warnings
from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

from . import geometry
from .estimator import (
    SEARCH_MODES,
    ApportionmentEstimate,
    EstimatorConfig,
    apportion,
    check_integer,
    check_unique,
)
from .exceptions import (
    ApportionError,
    NotContainedWarning,
    ShapeMismatch,
    ZeroNormRow,
)
from .synthgen import (
    PROCESSES,
    REPLICATE_STRIDE,
    RngSpec,
    make_ground_truth,
)

# Points per minimum-norm-point batch; each step holds a (rows, s, s) KKT
# stack, s = slots + 1 + d: 28 MB at d=30 with 10 slots.
_MNP_BLOCK_ROWS = 2048


@dataclass(frozen=True)
class AlignmentResult:
    """permutation[i] is the estimated-row index assigned to true row i."""

    permutation: tuple[int, ...]
    total_sq_distance: float


@dataclass(frozen=True)
class MetricsRecord:
    """One study task; a failed task (``error`` set) has no metrics, so
    ``nrmse``, ``nfd`` and ``log_volume`` are None.  Equality ignores the
    wall-clock ``runtime_seconds``."""

    n: int
    replicate: int
    nrmse: float | None
    nfd: float | None
    runtime_seconds: float = field(compare=False)
    search_used: str
    log_volume: float | None = None
    error: str | None = None


@dataclass(frozen=True)
class StudyDesign:
    process: str = "ar1"
    J: int = 8
    K: int = 3
    n_grid: tuple[int, ...] = (100, 300, 1500, 10000)
    replicates: int = 50
    search: str = "greedy"
    master_seed: int = 0

    def __post_init__(self):
        for name in ("J", "K", "replicates", "master_seed"):
            object.__setattr__(self, name, check_integer(name, getattr(self, name)))
        n_grid = tuple(check_integer("n_grid entry", n) for n in self.n_grid)
        object.__setattr__(self, "n_grid", n_grid)
        check_unique("n_grid entry", n_grid)
        if self.process not in PROCESSES:
            raise ValueError(f"process must be one of {PROCESSES}")
        if self.search not in SEARCH_MODES:
            raise ValueError(f"search must be one of {SEARCH_MODES}")
        if not 2 <= self.K < self.J:
            raise ValueError("need 2 <= K < J")
        if self.replicates < 1 or not self.n_grid:
            raise ValueError("need at least one replicate and one sample size")
        if min(self.n_grid) < 1:
            raise ValueError("every n_grid entry must be >= 1")
        if self.master_seed < 0:
            raise ValueError(
                f"master_seed must be an integer >= 0, got {self.master_seed}"
            )


def align_rows(phi_true: np.ndarray, phi_hat: np.ndarray) -> AlignmentResult:
    """Best row matching under total squared Euclidean distance.

    Solves the K x K assignment problem on the squared row distances by
    shortest augmenting paths with dual potentials (Jonker and Volgenant
    1987), in O(K^3) for any K; see ``_min_cost_assignment``.  Ties: where
    several permutations reach the minimum, as with duplicated rows, the
    one returned is fixed by the cost matrix, by scipy's tie rules, and
    every one of them has the same ``total_sq_distance``.  Raises
    ShapeMismatch for unequal or non-2-D shapes and ValueError when a
    squared distance is not finite.
    """
    a = np.asarray(phi_true, dtype=float)
    b = np.asarray(phi_hat, dtype=float)
    if a.shape != b.shape or a.ndim != 2:
        raise ShapeMismatch(f"shapes {a.shape} and {b.shape} do not match")
    cost = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    if not np.isfinite(cost).all():
        raise ValueError("matrix contains invalid numeric entries")
    cols = _min_cost_assignment(cost.tolist())
    total = float(cost[np.arange(len(cols)), cols].sum())
    return AlignmentResult(tuple(cols), total)


def _min_cost_assignment(cost: list[list[float]]) -> list[int]:
    """cols minimizing sum(cost[i][cols[i]]) over permutations of a square,
    finite cost matrix.

    Shortest augmenting paths with dual potentials u, v (Kuhn 1955; Jonker
    and Volgenant 1987), in the form of Crouse (2016) that scipy's
    ``linear_sum_assignment`` runs, with the same order of operations and
    tie rules: row r joins the matching by a Dijkstra search over reduced
    costs cost[i][j] - u[i] - v[j] >= 0, scanning the unvisited columns in
    the order that search keeps them and, among equally short paths,
    preferring one that ends at a free column.  Python lists, not numpy
    arrays: each scan is only K long, and the same scan in numpy ran 2 to
    12 times slower at K = 3 to 60.
    """
    k = len(cost)
    u, v = [0.0] * k, [0.0] * k
    col4row, row4col, path = [-1] * k, [-1] * k, [-1] * k
    for r in range(k):
        short = [math.inf] * k
        # Reversed, so that a constant cost matrix gives the identity.
        remaining = list(range(k - 1, -1, -1))
        rows, cols = [r], []
        i, reach, sink = r, 0.0, -1
        while sink < 0:
            lowest, index = math.inf, -1
            cost_i, u_i = cost[i], u[i]
            for pos, j in enumerate(remaining):
                d = reach + cost_i[j] - u_i - v[j]
                if d < short[j]:
                    path[j], short[j] = i, d
                if short[j] < lowest or (short[j] == lowest and row4col[j] < 0):
                    lowest, index = short[j], pos
            reach = lowest
            j = remaining[index]
            remaining[index] = remaining[-1]
            remaining.pop()
            cols.append(j)
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
                rows.append(i)
        u[r] += reach
        for i in rows[1:]:
            u[i] += reach - short[col4row[i]]
        for j in cols:
            v[j] -= reach - short[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == r:
                break
    return col4row


def nrmse(phi_true: np.ndarray, phi_hat_aligned: np.ndarray) -> float:
    """Mean over rows of (row RMSE / true row norm)."""
    a = np.asarray(phi_true, dtype=float)
    b = np.asarray(phi_hat_aligned, dtype=float)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes {a.shape} and {b.shape} do not match")
    norms = np.linalg.norm(a, axis=1)
    if (norms == 0).any():
        raise ZeroNormRow("a true attribution row is all zeros")
    per_row = np.sqrt(((a - b) ** 2).mean(axis=1))
    return float((per_row / norms).mean())


def nfd(phi_true: np.ndarray, phi_hat_aligned: np.ndarray) -> float:
    """Frobenius distance normalized by the true Frobenius norm."""
    a = np.asarray(phi_true, dtype=float)
    b = np.asarray(phi_hat_aligned, dtype=float)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes {a.shape} and {b.shape} do not match")
    return float(np.linalg.norm(a - b) / np.linalg.norm(a))


def _distances_to_polytope(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to conv(vertices), exact up to
    rounding in any dimension: Wolfe's minimum-norm-point algorithm (Wolfe
    1976), in lockstep over the points, _MNP_BLOCK_ROWS at a time.

    For a point x, y is its nearest point so far minus x, a positive
    combination of a corral of at most (affine rank + 1) vertices.  A major
    step adds the vertex minimizing <y, v - x>, unless that beats |y|^2 by
    no more than rounding, that vertex is already in the corral (Wolfe's
    optimality test: a second copy would make the KKT system singular), the
    corral spans the vertices' affine hull, or |y| did not shrink since the
    last major step: then x is done.  A minor step solves the affine
    minimum-norm problem on every corral in one batched KKT solve (weights,
    multiplier and y; unused slots padded by identity rows).  If a weight
    is not positive, the weights move toward the solution until the first
    one reaches zero, and its vertex leaves.  Reaching the iteration cap
    raises RuntimeError.
    """
    if len(points) > _MNP_BLOCK_ROWS:
        blocks = np.split(points, range(_MNP_BLOCK_ROWS, len(points), _MNP_BLOCK_ROWS))
        return np.concatenate([_distances_to_polytope(b, vertices) for b in blocks])
    center = vertices.mean(axis=0)
    v, x = vertices - center, points - center
    (n, d), m = x.shape, len(v)
    slots = geometry._affine_rank(v) + 1
    sq = (v * v).sum(axis=1) - 2.0 * (x @ v.T) + (x * x).sum(axis=1)[:, None]
    # A major-step gap below this is rounding in |y|^2 - <y, v - x>.
    tol = 16 * np.finfo(float).eps * np.sqrt(sq.max(axis=1))
    index = np.zeros((n, slots), dtype=np.intp)
    index[:, 0] = sq.argmin(axis=1)
    active = np.tile(np.arange(slots) == 0, (n, 1))
    weight = active.astype(float)
    y = v[index[:, 0]] - x
    live, major, norm2 = np.ones(n, bool), np.ones(n, bool), np.full(n, np.inf)
    for _ in range(100 * (m + slots)):
        rows = np.flatnonzero(live & major)
        yr = y[rows]
        dots = yr @ v.T - (yr * x[rows]).sum(axis=1)[:, None]
        best = dots.argmin(axis=1)
        cur = (yr * yr).sum(axis=1)
        gap = cur - dots[np.arange(rows.size), best]
        done = (gap <= tol[rows] * np.sqrt(cur)) | active[rows].all(axis=1)
        done |= cur >= norm2[rows]
        done |= (active[rows] & (index[rows] == best[:, None])).any(axis=1)
        norm2[rows] = np.minimum(norm2[rows], cur)
        live[rows[done]] = False
        rows, best = rows[~done], best[~done]
        free = active[rows].argmin(axis=1)
        index[rows, free], active[rows, free] = best, True

        rows = np.flatnonzero(live)
        if not rows.size:
            return np.sqrt(norm2)
        act, w = active[rows], weight[rows]
        p = np.where(act[:, :, None], v[index[rows]] - x[rows, None, :], 0.0)
        # Unknowns (weights, multiplier, y): <v_i - x, y> = multiplier on the
        # corral, unused weights 0, weights sum to 1, y = sum weights (v_i - x).
        size = slots + 1 + d
        kkt = np.zeros((rows.size, size, size))
        kkt[:, :slots, :slots] = np.eye(slots, dtype=bool) & ~act[:, :, None]
        kkt[:, :slots, slots], kkt[:, slots, :slots] = -1.0 * act, act
        kkt[:, :slots, slots + 1 :], kkt[:, slots + 1 :, :slots] = p, -p.transpose(0, 2, 1)
        kkt[:, slots + 1 :, slots + 1 :] = np.eye(d)
        sol = np.linalg.solve(kkt, np.eye(size)[slots])
        alpha = np.where(act, sol[:, :slots], 0.0)
        blocked = act & (alpha <= 0.0)
        interior = ~blocked.any(axis=1)
        ratio = np.where(blocked, w / np.maximum(w - alpha, np.finfo(float).tiny), np.inf)
        first = ratio.argmin(axis=1)
        theta = np.minimum(ratio.min(axis=1), 1.0)[:, None]  # 1 where nothing blocks
        w = np.where(interior[:, None], alpha, w + theta * (alpha - w))
        w[np.arange(rows.size), first] *= interior  # drop the first weight to reach zero
        act &= w > 0.0
        weight[rows], active[rows] = np.where(act, w, 0.0), act
        # The solved y, not weights @ p, stays accurate on thin corrals.
        moved = (w[:, :, None] * p).sum(axis=1)
        y[rows] = np.where(interior[:, None], sol[:, slots + 1 :], moved)
        major[rows] = interior
    raise RuntimeError("minimum-norm-point iteration did not converge")


def hausdorff_to_polytope(ystar: np.ndarray, hstar: np.ndarray) -> float:
    """Directed Hausdorff distance from conv(hstar) to the sample hull.

    Exact: the maximum, over hstar's rows, of the distance to conv(ystar).
    The distance to a convex set is convex, so its maximum over conv(hstar)
    is reached at one of hstar's rows.  Warns NotContainedWarning when
    sample rows leave conv(hstar) by more than 1e-8 (the sample hull is
    contained in conv(hstar) for noiseless data, which is what makes the
    directed distance the Hausdorff one).  Raises ValueError for empty or
    non-finite inputs or rows off the simplex.
    """
    ystar = np.atleast_2d(np.asarray(ystar, dtype=float))
    hstar = np.atleast_2d(np.asarray(hstar, dtype=float))
    for name, mat in (("ystar", ystar), ("hstar", hstar)):
        if mat.size == 0 or not np.isfinite(mat).all():
            raise ValueError(f"{name} must be non-empty and finite")
        if np.max(np.abs(mat.sum(axis=1) - 1.0)) > 1e-8:
            raise ValueError(f"{name} rows must lie on the simplex")
    if ystar.shape[1] != hstar.shape[1]:
        raise ShapeMismatch("ystar and hstar must share the ambient dimension")

    outside = _distances_to_polytope(ystar, hstar)
    if outside.max() > 1e-8:
        warnings.warn(
            f"{int((outside > 1e-8).sum())} sample rows lie outside the "
            "reference polytope",
            NotContainedWarning,
            stacklevel=2,
        )
    return float(_distances_to_polytope(hstar, ystar).max())


def _run_study_task(design: StudyDesign, task: tuple[int, int, int]) -> MetricsRecord:
    n_index, n, replicate = task
    task_index = n_index * design.replicates + replicate
    rng = RngSpec(design.master_seed, task_index * REPLICATE_STRIDE)
    y, truth = make_ground_truth(n, design.J, design.K, design.process, rng)
    cfg = EstimatorConfig(K=design.K, search=design.search)
    start = time.perf_counter()
    try:
        est: ApportionmentEstimate = apportion(y, cfg)
    except ApportionError as exc:
        return MetricsRecord(
            n=n,
            replicate=replicate,
            nrmse=None,
            nfd=None,
            runtime_seconds=time.perf_counter() - start,
            search_used=design.search,
            error=str(exc),
        )
    elapsed = time.perf_counter() - start
    alignment = align_rows(truth.phi_true.values, est.phi_hat.values)
    aligned = est.phi_hat.values[list(alignment.permutation)]
    return MetricsRecord(
        n=n,
        replicate=replicate,
        nrmse=nrmse(truth.phi_true.values, aligned),
        nfd=nfd(truth.phi_true.values, aligned),
        runtime_seconds=elapsed,
        search_used=est.diagnostics.search_used,
        log_volume=est.diagnostics.log_volume,
    )


def convergence_study(design: StudyDesign, workers: int = 1) -> list[MetricsRecord]:
    """Replicated generate-and-estimate study over a sample-size grid: one
    record per (n, replicate), sorted by (n, replicate).

    Every (n, replicate) pair redraws the profile matrix and process
    parameters from its own stream block, so results are a pure function
    of the design and never depend on ``workers``; two designs that differ
    only in ``search`` see the same data, task for task.  ``workers`` is
    the number of processes, an integer >= 1: the caller plus up to
    ``workers - 1`` children made by ``os.fork``, at most one process per
    task.  Where ``os.fork`` does not exist the tasks run serially in the
    caller.  A task that raises anything but an ApportionError ends the
    study: in a child, as a RuntimeError naming its (n, replicate).
    """
    workers = check_integer("workers", workers)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    tasks = [
        (n_index, n, replicate)
        for n_index, n in enumerate(design.n_grid)
        for replicate in range(design.replicates)
    ]
    if not hasattr(os, "fork"):
        workers = 1
    # Largest n first, dealt round-robin, so every share gets a like mix.
    order = sorted(range(len(tasks)), key=lambda i: -tasks[i][1])
    shares = [order[s :: workers] for s in range(min(workers, len(tasks)))]
    records = _run_shares(design, tasks, shares)
    return sorted(records, key=lambda r: (r.n, r.replicate))


def _run_shares(design: StudyDesign, tasks, shares) -> list[MetricsRecord]:
    """The records of every share's tasks: share 0 in the caller, every
    other share in a forked child that pickles its records, or its failing
    task and error, into a pipe.  Every child is reaped before this
    returns or raises."""
    children = {}  # pid -> read end of its pipe
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _child(design, [tasks[i] for i in share], read_fd, write_fd)
            os.close(write_fd)
            children[pid] = read_fd
        records = [_run_study_task(design, tasks[i]) for i in shares[0]]
        for pid, read_fd in list(children.items()):
            with open(read_fd, "rb", closefd=False) as pipe:
                report = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(children.pop(pid))
            if code != 0 or not report:
                raise RuntimeError(
                    f"study worker {pid} exited with status {code} before reporting"
                )
            report = pickle.loads(report)
            if report[0] != "ok":
                _, n, replicate, error = report
                raise RuntimeError(
                    f"study task n={n}, replicate={replicate} failed in worker {pid}: {error}"
                )
            records += report[1]
        return records
    finally:
        for pid, read_fd in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_fd)


def _child(design: StudyDesign, share, read_fd: int, write_fd: int) -> NoReturn:
    """Run a share in a forked child and report on write_fd.  Never returns:
    it ends in os._exit, so it runs none of the parent's exit handlers and
    flushes none of its buffers."""
    code = 1
    try:
        os.close(read_fd)
        task, records = None, []
        try:
            for task in share:
                records.append(_run_study_task(design, task))
            report = ("ok", records)
        except Exception as exc:
            report = ("error", task[1], task[2], f"{type(exc).__name__}: {exc}")
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(report, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def summarize_records(records: list[MetricsRecord]) -> list[dict]:
    """Quartile summary per (n, search) over successful replicates."""
    rows = []
    keys = sorted({(r.n, r.search_used) for r in records})
    for n, search in keys:
        sel = [r for r in records if r.n == n and r.search_used == search and not r.error]
        if not sel:
            continue
        nr = np.array([r.nrmse for r in sel])
        nf = np.array([r.nfd for r in sel])
        q_nr = np.percentile(nr, [25, 50, 75])
        q_nf = np.percentile(nf, [25, 50, 75])
        rows.append(
            {
                "n": n,
                "search_used": search,
                "count": len(sel),
                "nrmse_q1": float(q_nr[0]),
                "nrmse_median": float(q_nr[1]),
                "nrmse_q3": float(q_nr[2]),
                "nfd_q1": float(q_nf[0]),
                "nfd_median": float(q_nf[1]),
                "nfd_q3": float(q_nf[2]),
            }
        )
    return rows
