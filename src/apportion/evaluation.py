"""Row alignment, error metrics, hull diagnostics, and the replicated
convergence study.

Metric conventions: NRMSE averages per-row RMSE normalized by the true
row norm; NFD is the Frobenius distance over the true Frobenius norm.
Estimated rows are aligned to true rows by minimizing the total squared
Euclidean distance before either metric is computed.
"""

from __future__ import annotations

import itertools
import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import geometry
from .estimator import ApportionmentEstimate, EstimatorConfig, apportion
from .exceptions import (
    ApportionError,
    DegenerateCloud,
    HullDimensionExceeded,
    NotContainedWarning,
    ShapeMismatch,
    ZeroNormRow,
)
from .synthgen import REPLICATE_STRIDE, RngSpec, make_ground_truth

STUDY_SEARCHES = ("greedy", "exhaustive", "auto", "both")


@dataclass(frozen=True)
class AlignmentResult:
    """permutation[i] is the estimated-row index assigned to true row i."""

    permutation: tuple[int, ...]
    total_sq_distance: float


@dataclass(frozen=True)
class MetricsRecord:
    n: int
    replicate: int
    nrmse: float
    nfd: float
    runtime_seconds: float
    search_used: str
    log_volume: float = math.nan
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
    n_candidates: int | None = None
    prune: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        if self.search not in STUDY_SEARCHES:
            raise ValueError(f"search must be one of {STUDY_SEARCHES}")
        if not 1 <= self.K < self.J:
            raise ValueError("need 1 <= K < J")
        if self.replicates < 1 or not self.n_grid:
            raise ValueError("need at least one replicate and one sample size")


def _brute_force_assignment(cost: np.ndarray) -> tuple[tuple[int, ...], float]:
    k = cost.shape[0]
    rows = np.arange(k)
    best_perm: tuple[int, ...] | None = None
    best_total = math.inf
    for perm in itertools.permutations(range(k)):
        total = float(cost[rows, perm].sum())
        if total < best_total:
            best_total = total
            best_perm = perm
    assert best_perm is not None
    return best_perm, best_total


def align_rows(phi_true: np.ndarray, phi_hat: np.ndarray) -> AlignmentResult:
    """Best row matching under total squared Euclidean distance.

    All K! permutations are enumerated for K <= 8 (lexicographically
    smallest wins ties); larger K solves the assignment problem.
    """
    a = np.asarray(phi_true, dtype=float)
    b = np.asarray(phi_hat, dtype=float)
    if a.shape != b.shape or a.ndim != 2:
        raise ShapeMismatch(f"shapes {a.shape} and {b.shape} do not match")
    cost = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    if a.shape[0] <= 8:
        perm, total = _brute_force_assignment(cost)
    else:
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(cost)
        perm = tuple(int(c) for c in cols)
        total = float(cost[rows, cols].sum())
    return AlignmentResult(perm, total)


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


def _barycentric_grid(k: int, subdivisions: int) -> np.ndarray:
    """All weight vectors with entries i/subdivisions summing to one."""
    if k == 1:
        return np.ones((1, 1))
    rows = []
    for bars in itertools.combinations(range(subdivisions + k - 1), k - 1):
        parts = []
        prev = -1
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(subdivisions + k - 2 - prev)
        rows.append(parts)
    return np.asarray(rows, dtype=float) / subdivisions


def _default_subdivisions(k: int) -> int:
    if k <= 4:
        return 20
    if k <= 6:
        return 8
    return 4


def _distances_to_simplex_hull(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Exact distance of each point to conv(vertices) by face enumeration."""
    k = vertices.shape[0]
    best = np.full(points.shape[0], np.inf)
    for size in range(1, k + 1):
        for face in itertools.combinations(range(k), size):
            anchor = vertices[face[0]]
            x = points - anchor
            if size == 1:
                dist = np.linalg.norm(x, axis=1)
                feasible = np.ones(points.shape[0], dtype=bool)
            else:
                edges = vertices[list(face[1:])] - anchor
                coords = x @ np.linalg.pinv(edges)
                resid = x - coords @ edges
                dist = np.linalg.norm(resid, axis=1)
                feasible = (coords.min(axis=1) >= -1e-12) & (
                    1.0 - coords.sum(axis=1) >= -1e-12
                )
            better = feasible & (dist < best)
            best[better] = dist[better]
    return best


def _sample_hull_points(ystar: np.ndarray) -> np.ndarray:
    if ystar.shape[0] <= 64:
        return ystar
    try:
        _, z = geometry.intrinsic_projection(ystar, rank_cap=ystar.shape[1] - 1)
        return ystar[geometry.hull_vertices(z)]
    except (DegenerateCloud, HullDimensionExceeded):
        return ystar


def _points_to_segment(coords: np.ndarray, lo: float, hi: float) -> np.ndarray:
    x = coords[:, 0]
    return np.clip(lo - x, 0.0, None) + np.clip(x - hi, 0.0, None)


def _points_to_polygon(points: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Vectorized distance from 2-D points to a convex polygon (0 inside)."""
    center = verts.mean(axis=0)
    order = np.argsort(np.arctan2(verts[:, 1] - center[1], verts[:, 0] - center[0]))
    ring = verts[order]
    area2 = float(
        np.sum(ring[:, 0] * np.roll(ring[:, 1], -1) - np.roll(ring[:, 0], -1) * ring[:, 1])
    )
    if area2 < 0:
        ring = ring[::-1]
    start = ring
    edge = np.roll(ring, -1, axis=0) - ring
    rel = points[:, None, :] - start[None, :, :]  # (G, E, 2)
    edge_len2 = (edge**2).sum(axis=1)
    t = np.einsum("gej,ej->ge", rel, edge)
    t = np.where(edge_len2 > 0, t / np.where(edge_len2 > 0, edge_len2, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    closest = start[None, :, :] + t[..., None] * edge[None, :, :]
    dist = np.linalg.norm(points[:, None, :] - closest, axis=2).min(axis=1)
    cross = edge[None, :, 0] * rel[:, :, 1] - edge[None, :, 1] * rel[:, :, 0]
    dist[(cross >= 0.0).all(axis=1)] = 0.0
    return dist


def _qp_distance(point: np.ndarray, vertices: np.ndarray) -> float:
    """Simplex-constrained least squares via SLSQP, with an exact affine
    re-projection on the detected support; each candidate value is the
    distance to a feasible hull point, so the minimum is a valid bound."""
    from scipy.optimize import minimize

    best = float(np.linalg.norm(vertices - point, axis=1).min())
    if best == 0.0:
        return best
    m = vertices.shape[0]

    def objective(lam):
        r = lam @ vertices - point
        return float(r @ r), 2.0 * (vertices @ r)

    res = minimize(
        objective,
        np.full(m, 1.0 / m),
        jac=True,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * m,
        constraints=[{"type": "eq", "fun": lambda lam: lam.sum() - 1.0}],
        options={"ftol": 1e-14, "maxiter": 200},
    )
    lam = np.clip(res.x, 0.0, None)
    total = lam.sum()
    if total > 0:
        lam = lam / total
        best = min(best, float(np.linalg.norm(lam @ vertices - point)))
        support = np.flatnonzero(lam > 1e-10)
        if support.size == 1:
            best = min(best, float(np.linalg.norm(point - vertices[support[0]])))
        elif support.size > 1:
            anchor = vertices[support[0]]
            edges = vertices[support[1:]] - anchor
            coords = (point - anchor) @ np.linalg.pinv(edges)
            if coords.min() >= -1e-12 and 1.0 - coords.sum() >= -1e-12:
                best = min(
                    best, float(np.linalg.norm(point - anchor - coords @ edges))
                )
    return best


def _distances_to_hull(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Distance from each point to conv(vertices), any ambient dimension.

    Splits each point into its component in the vertices' affine span
    (where the problem is solved exactly in 1-D/2-D, or by constrained
    least squares above) and the orthogonal remainder, combined in
    quadrature.
    """
    center = vertices.mean(axis=0)
    centered = vertices - center
    sing = np.linalg.svd(centered, compute_uv=False)
    tol = len(vertices) * np.finfo(float).eps * (sing[0] if sing.size else 0.0)
    rank = int(np.count_nonzero(sing > tol))
    rel = points - center
    if rank == 0:
        return np.linalg.norm(points - vertices[0], axis=1)
    basis = np.linalg.svd(centered, full_matrices=False)[2][:rank].T
    coords = rel @ basis
    ortho2 = ((rel - coords @ basis.T) ** 2).sum(axis=1)
    vert_coords = centered @ basis
    if rank == 1:
        in_span = _points_to_segment(
            coords, float(vert_coords.min()), float(vert_coords.max())
        )
    elif rank == 2:
        hull = geometry.hull_vertices(vert_coords)
        in_span = _points_to_polygon(coords, vert_coords[hull])
    else:
        in_span = np.array([_qp_distance(p, vert_coords) for p in coords])
    return np.sqrt(in_span**2 + ortho2)


def hausdorff_to_polytope(
    ystar: np.ndarray, hstar: np.ndarray, grid_subdivisions: int | None = None
) -> float:
    """Directed Hausdorff distance from conv(hstar) to the sample hull.

    Approximated as the maximum, over a deterministic barycentric grid of
    conv(hstar), of the distance to the convex hull of the sample rows.
    Warns NotContainedWarning when sample rows leave conv(hstar) by more
    than 1e-8 (the sample hull is contained in conv(hstar) for noiseless
    data, which is what makes the directed distance the Hausdorff one).
    """
    ystar = np.atleast_2d(np.asarray(ystar, dtype=float))
    hstar = np.atleast_2d(np.asarray(hstar, dtype=float))
    for name, mat in (("ystar", ystar), ("hstar", hstar)):
        if np.max(np.abs(mat.sum(axis=1) - 1.0)) > 1e-8:
            raise ValueError(f"{name} rows must lie on the simplex")
    if ystar.shape[1] != hstar.shape[1]:
        raise ShapeMismatch("ystar and hstar must share the ambient dimension")
    if grid_subdivisions is None:
        grid_subdivisions = _default_subdivisions(hstar.shape[0])

    outside = _distances_to_simplex_hull(ystar, hstar)
    if outside.max() > 1e-8:
        warnings.warn(
            f"{int((outside > 1e-8).sum())} sample rows lie outside the "
            "reference polytope",
            NotContainedWarning,
            stacklevel=2,
        )
    grid_points = _barycentric_grid(hstar.shape[0], grid_subdivisions) @ hstar
    hull_points = _sample_hull_points(ystar)
    return float(_distances_to_hull(grid_points, hull_points).max())


def _run_study_task(design: StudyDesign, task: tuple[int, int, int]):
    n_index, n, replicate = task
    task_index = n_index * design.replicates + replicate
    rng = RngSpec(design.master_seed, task_index * REPLICATE_STRIDE)
    y, truth = make_ground_truth(
        n, design.J, design.K, design.process, rng, design.n_candidates
    )
    searches = ("greedy", "exhaustive") if design.search == "both" else (design.search,)
    records = []
    for search in searches:
        cfg = EstimatorConfig(K=design.K, search=search, prune=design.prune)
        start = time.perf_counter()
        try:
            est: ApportionmentEstimate = apportion(y, cfg)
        except ApportionError as exc:
            records.append(
                MetricsRecord(
                    n=n,
                    replicate=replicate,
                    nrmse=math.nan,
                    nfd=math.nan,
                    runtime_seconds=time.perf_counter() - start,
                    search_used=search,
                    error=str(exc),
                )
            )
            continue
        elapsed = time.perf_counter() - start
        alignment = align_rows(truth.phi_true.values, est.phi_hat.values)
        aligned = est.phi_hat.values[list(alignment.permutation)]
        records.append(
            MetricsRecord(
                n=n,
                replicate=replicate,
                nrmse=nrmse(truth.phi_true.values, aligned),
                nfd=nfd(truth.phi_true.values, aligned),
                runtime_seconds=elapsed,
                search_used=est.diagnostics.search_used,
                log_volume=est.diagnostics.log_volume,
            )
        )
    return records


def convergence_study(design: StudyDesign, workers: int = 1) -> list[MetricsRecord]:
    """Replicated generate-and-estimate study over a sample-size grid.

    Every (n, replicate) pair redraws the profile matrix and process
    parameters from its own stream block, so results are a pure function
    of the design: replicate-level parallelism cannot change them.
    """
    tasks = [
        (n_index, n, replicate)
        for n_index, n in enumerate(design.n_grid)
        for replicate in range(design.replicates)
    ]
    runner = partial(_run_study_task, design)
    if workers <= 1:
        batches = [runner(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(tasks) // (4 * workers))
            batches = list(pool.map(runner, tasks, chunksize=chunk))
    records = [record for batch in batches for record in batch]
    records.sort(key=lambda r: (r.n, r.replicate, r.search_used))
    return records


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
