"""Convex-geometry and linear-algebra primitives.

Point clouds are plain (n, d) float arrays with rows as points.  All
functions here are pure and deterministic: ties in any argmax/argmin are
broken by the smallest index, and subset searches return the
lexicographically smallest maximizing index tuple.

The exhaustive max-volume search is screened, then exactly rescored: a
cheap elementwise Gram elimination bounds every subset's log-volume, and
only the subsets whose bound can reach the best exact score are scored by
the exact (slogdet) routine.  The result, including the lexicographic
tie-break, is bitwise that of scoring every subset exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .exceptions import (
    AllDegenerate,
    BudgetExceeded,
    DegenerateCloud,
    HullDimensionExceeded,
    RankDeficientWarning,
)

HULL_DIM_MAX = 8
EXHAUSTIVE_BUDGET = 2_000_000
SWAP_GAIN_TOL = 1e-12

# Gram determinants at or below this are treated as degenerate simplices.
_DET_FLOOR = 1e-300
_LOG_DET_FLOOR = math.log(_DET_FLOOR)

# Relative slack of the screened Gram determinant, in units of the product
# of the Gram diagonal (Hadamard's bound on the determinant).  Elimination
# on a Gram matrix is backward stable relative to that product, so the
# screen and the exact slogdet route both err by a small multiple of
# (K + d) * 2**-52 of it; bounds this wide hold the exact score with orders
# of magnitude to spare.  Near the best subset it is about 1e-6 in log-det
# units.
_SCREEN_SLACK = 1e-7
# The screened products of K - 1 squared edge lengths must stay within
# [1 / _SCREEN_SPAN, _SCREEN_SPAN]; blocks whose edges fall outside are
# scored exactly without a screen.
_SCREEN_SPAN = 1e250
# Margin against rounding when a score threshold is taken back to a
# determinant by exp().
_THRESHOLD_MARGIN = 1e-10


@dataclass(frozen=True)
class ProjectionBasis:
    """Affine map from row-stochastic J-space into intrinsic coordinates.

    A row y (with the last coordinate dropped and the stored mean
    subtracted) maps to y_c @ basis; the basis columns are orthonormal.
    """

    mean_offset: np.ndarray  # (J-1,)
    basis: np.ndarray  # (J-1, rank)
    rank: int

    def __post_init__(self):
        gram = self.basis.T @ self.basis
        if not np.allclose(gram, np.eye(self.rank), atol=1e-10):
            raise ValueError("basis columns are not orthonormal")
        if not 1 <= self.rank <= self.basis.shape[0]:
            raise ValueError("rank outside [1, J-1]")


@dataclass(frozen=True)
class VertexSubset:
    """K distinct candidate indices plus the simplex log-volume they span."""

    indices: tuple[int, ...]
    log_volume: float

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("subset indices must be distinct")
        if math.isnan(self.log_volume):
            raise ValueError("log_volume must be finite or -inf")


def intrinsic_projection(
    ystar: np.ndarray, rank_cap: int
) -> tuple[ProjectionBasis, np.ndarray]:
    """Project row-stochastic points into the affine span of their cloud.

    Drops the last coordinate, centers the rest, and keeps the leading
    right-singular directions.  The retained rank is the number of singular
    values above n * eps * sigma_1, further capped at ``rank_cap``.

    Returns the basis and the projected cloud Z (n, rank).

    Raises DegenerateCloud when the centered cloud has rank zero (all rows
    identical).
    """
    ystar = np.asarray(ystar, dtype=float)
    n = ystar.shape[0]
    if n < 2:
        raise DegenerateCloud("need at least two points to project")
    if rank_cap < 1:
        raise ValueError("rank_cap must be >= 1")
    row_sums = ystar.sum(axis=1)
    if np.max(np.abs(row_sums - 1.0)) > 1e-8:
        raise ValueError("rows must sum to 1 within 1e-8")

    reduced = ystar[:, :-1]
    mean_offset = reduced.mean(axis=0)
    centered = reduced - mean_offset
    _, sing, vt = np.linalg.svd(centered, full_matrices=False)
    tol = n * np.finfo(float).eps * (sing[0] if sing.size else 0.0)
    detected = int(np.count_nonzero(sing > tol))
    if detected == 0:
        raise DegenerateCloud("all rows identical: centered cloud has rank 0")
    rank = min(rank_cap, detected)
    basis = vt[:rank].T
    return ProjectionBasis(mean_offset, basis, rank), centered @ basis


def _affine_rank(z: np.ndarray) -> int:
    centered = z - z.mean(axis=0)
    sing = np.linalg.svd(centered, compute_uv=False)
    if sing.size == 0 or sing[0] == 0.0:
        return 0
    return int(np.count_nonzero(sing > len(z) * np.finfo(float).eps * sing[0]))


def hull_vertices(z: np.ndarray) -> np.ndarray:
    """Sorted indices of the extreme points of the cloud's convex hull.

    1-D clouds reduce to argmin/argmax; 2 up to ``HULL_DIM_MAX`` dimensions
    use qhull with one jittered retry on degenerate facet errors.  Points
    lying inside facets or edges are not vertices.  Of exact duplicate
    vertex rows at least one is returned; which one is not specified.

    Raises DegenerateCloud when the points span fewer than d dimensions
    (reduce the projection rank instead), HullDimensionExceeded above
    ``HULL_DIM_MAX`` (callers fall back to using every point).
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        raise ValueError("expected an (n, d) array")
    n, d = z.shape
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if d > HULL_DIM_MAX:
        raise HullDimensionExceeded(f"hull in {d} dims exceeds cap {HULL_DIM_MAX}")
    if n < d + 1:
        raise DegenerateCloud(f"{n} points cannot span a {d}-dimensional hull")
    if _affine_rank(z) < d:
        raise DegenerateCloud(f"points are affinely dependent below dimension {d}")

    if d == 1:
        return np.unique([int(np.argmin(z[:, 0])), int(np.argmax(z[:, 0]))])
    try:
        return np.unique(ConvexHull(z).vertices)
    except QhullError:
        scale = float(np.abs(z).max())
        jitter = np.random.default_rng(0).standard_normal(z.shape)
        try:
            return np.unique(ConvexHull(z + 1e-12 * scale * jitter).vertices)
        except QhullError as exc:
            raise DegenerateCloud(f"hull construction failed: {exc}") from exc


def _batch_log_volumes(points: np.ndarray, combos: np.ndarray) -> np.ndarray:
    """Log simplex volumes for each row of index combinations."""
    k = combos.shape[1]
    edges = points[combos[:, 1:]] - points[combos[:, :1]]
    gram = edges @ np.swapaxes(edges, 1, 2)
    sign, logdet = np.linalg.slogdet(gram)
    out = np.where(
        (sign > 0) & (logdet > _LOG_DET_FLOOR),
        0.5 * logdet - math.lgamma(k),
        -np.inf,
    )
    return out


def simplex_log_volume(vertices: np.ndarray) -> float:
    """Log of the (K-1)-volume of the simplex spanned by K points.

    vol = sqrt(det(M M^T)) / (K-1)! with M the edge matrix v_k - v_1.
    Returns -inf for degenerate simplices instead of raising.
    """
    v = np.asarray(vertices, dtype=float)
    k, d = v.shape
    if k < 2:
        raise ValueError("need at least two vertices")
    if d < k - 1:
        raise ValueError(f"{k} points need ambient dimension >= {k - 1}")
    edges = v[1:] - v[0]
    sign, logdet = np.linalg.slogdet(edges @ edges.T)
    if sign <= 0 or logdet <= _LOG_DET_FLOOR:
        return -math.inf
    return float(0.5 * logdet - math.lgamma(k))


def _leading_blocks(m: int, k: int, tail: np.ndarray):
    # tail holds every (k-1)-subset of range(m) in lexicographic order; the
    # ones inside {a+1, ..., m-1} are exactly its last C(m-a-1, k-1) rows.
    for a in range(m - k + 1):
        count = math.comb(m - a - 1, k - 1)
        block = np.empty((count, k), dtype=np.intp)
        block[:, 0] = a
        block[:, 1:] = tail[len(tail) - count :]
        yield block


def combo_blocks(m: int, k: int):
    """The k-subsets of range(m) in lexicographic order, as (rows, k) arrays.

    One block per leading index a, built by slicing the (k-1)-subset
    table, so no Python code runs per subset and memory holds one block
    plus that table rather than all C(m, k) subsets.  The trailing k-1
    columns of each block are a suffix of the previous block's, so work
    on them can be done once, on the first block.
    """
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    tail = np.empty((1, 0), dtype=np.intp)
    for width in range(1, k):
        tail = np.concatenate(list(_leading_blocks(m, width, tail)))
    yield from _leading_blocks(m, k, tail)


def _screened_determinants(
    edges: list[list[np.ndarray]], diag: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Gram determinants of many simplices, and Hadamard's bound for each.

    ``edges[i][j]`` holds coordinate j of edge i for every simplex, and
    ``diag[i]`` its squared length.  Off-diagonal Gram entries are
    elementwise sums of products; the determinant is the product of the
    pivots of elimination without pivoting, which a positive semi-definite
    Gram matrix allows.  A pivot that is not positive (the simplex is
    degenerate to rounding) gives determinant 0.
    """
    n = len(edges)
    gram = [[None] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = diag[i]
        for j in range(i + 1, n):
            gram[i][j] = sum(x * y for x, y in zip(edges[i], edges[j]))
    det = diag[0].copy()
    bound = diag[0].copy()
    positive = diag[0] > 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(n - 1):
            for j in range(i + 1, n):
                factor = gram[i][j] / gram[i][i]
                for q in range(j, n):
                    gram[j][q] = gram[j][q] - factor * gram[i][q]
            # Computed pivots never exceed the diagonal, so positive ones
            # keep det within [0, bound].
            positive &= gram[i + 1][i + 1] > 0.0
            det *= gram[i + 1][i + 1]
            bound *= diag[i + 1]
    return np.where(positive, det, 0.0), bound


def _screened_rows(
    columns: list[np.ndarray],
    lead: int,
    tails: list[np.ndarray],
    tail_coords: list[list[np.ndarray]],
    count: int,
    best_lv: float,
) -> np.ndarray | None:
    """Rows of the block led by ``lead`` whose exact score could be best.

    Returns None when the block's edge lengths are out of the screen's
    range, so every row must be scored exactly.  Otherwise the threshold
    is the best exact score so far, or the score of the block's best
    screened lower bound if higher; some scored row reaches either.  A
    skipped row's exact determinant is below its screened determinant
    plus the slack, which is below the threshold's determinant, so the
    row is strictly worse than the final best.
    """
    k = len(tails) + 1
    later = slice(lead + 1, None)
    with np.errstate(over="ignore", under="ignore"):
        sq = sum((c - c[lead]) ** 2 for c in columns)
    same = np.logical_and.reduce([c[later] == c[lead] for c in columns])
    span = _SCREEN_SPAN ** (1.0 / (k - 1))
    if not np.all(same | ((sq[later] >= 1.0 / span) & (sq[later] <= span))):
        return None
    edges = [
        [x[len(x) - count :] - c[lead] for x, c in zip(coords, columns)]
        for coords in tail_coords
    ]
    diag = [sq[t[len(t) - count :]] for t in tails]
    det, bound = _screened_determinants(edges, diag)
    slack = _SCREEN_SLACK * bound
    shift = math.lgamma(k)
    threshold = best_lv
    lower = float((det - slack).max())
    if lower > 0.0 and math.log(lower) > _LOG_DET_FLOOR + 1.0:
        threshold = max(threshold, 0.5 * math.log(lower) - shift)
    if threshold == -math.inf:
        return np.arange(count)
    log_cut = 2.0 * (threshold + shift)
    if log_cut > math.log(_SCREEN_SPAN) + 1.0:
        # Beyond every determinant the screen admits (bound <= span).
        return np.arange(0)
    cut = math.exp(log_cut) * (1.0 - _THRESHOLD_MARGIN)
    return np.flatnonzero(det + slack >= cut)


def max_volume_exhaustive(
    candidates: np.ndarray, k: int, budget: int = EXHAUSTIVE_BUDGET
) -> VertexSubset:
    """Globally best K-subset by simplex volume, enumerated exhaustively.

    Enumeration is lexicographic, one leading-index block at a time.  Each
    block is screened first, and only the subsets whose screened bound can
    reach the best exact score are scored exactly.  A skipped subset is
    strictly worse than the final best, so accepting a new subset only
    when strictly better resolves ties to the smallest index tuple,
    exactly as in a scan that scores every subset.
    """
    pts = np.asarray(candidates, dtype=float)
    m = pts.shape[0]
    if m < k:
        raise ValueError(f"need at least {k} candidates, got {m}")
    total = math.comb(m, k)
    if total > budget:
        raise BudgetExceeded(f"{total} subsets exceed budget {budget}")

    columns = [np.ascontiguousarray(pts[:, j]) for j in range(pts.shape[1])]
    best_lv = -math.inf
    best: tuple[int, ...] | None = None
    tails = None
    for combos in combo_blocks(m, k):
        if tails is None:
            # Later blocks' trailing columns are suffixes of these.
            tails = [np.ascontiguousarray(combos[:, i]) for i in range(1, k)]
            tail_coords = [[c[t] for c in columns] for t in tails]
        rows = None
        if k >= 2:
            rows = _screened_rows(
                columns, int(combos[0, 0]), tails, tail_coords, len(combos), best_lv
            )
        if rows is not None:
            if rows.size == 0:
                continue
            combos = combos[rows]
        lv = _batch_log_volumes(pts, combos)
        i = int(np.argmax(lv))
        if lv[i] > best_lv:
            best_lv = float(lv[i])
            best = tuple(int(c) for c in combos[i])
    if best is None or best_lv == -math.inf:
        raise AllDegenerate("every candidate subset spans a degenerate simplex")
    return VertexSubset(best, best_lv)


def _atgp_indices(pts: np.ndarray, k: int) -> list[int]:
    """Successive maximum-residual picks under orthogonal-complement projection."""
    chosen = [int(np.argmax((pts**2).sum(axis=1)))]
    for _ in range(k - 1):
        q = np.linalg.qr(pts[chosen].T)[0]
        resid = pts - (pts @ q) @ q.T
        norms = (resid**2).sum(axis=1)
        norms[chosen] = -1.0
        chosen.append(int(np.argmax(norms)))
    return chosen


def max_volume_greedy(
    candidates: np.ndarray, k: int, max_sweeps: int = 10
) -> VertexSubset:
    """Approximate max-volume K-subset: ATGP start, then swap sweeps.

    Each sweep tries replacing one vertex at a time by every candidate and
    accepts a swap only when the log-volume strictly improves by more than
    SWAP_GAIN_TOL; terminates after a sweep with no accepted swap.  The
    reported log-volume is scored with the indices in sorted order, as the
    exhaustive search scores them, so both report bitwise the same value
    for the same subset; the indices keep their search order.
    """
    pts = np.asarray(candidates, dtype=float)
    m = pts.shape[0]
    if m < k:
        raise ValueError(f"need at least {k} candidates, got {m}")

    current = _atgp_indices(pts, k)
    if k == 1:
        return VertexSubset((current[0],), 0.0)
    current_lv = float(_batch_log_volumes(pts, np.asarray([current]))[0])
    all_idx = np.arange(m, dtype=np.intp)
    for _ in range(max_sweeps):
        accepted = False
        for slot in range(k):
            combos = np.tile(np.asarray(current, dtype=np.intp), (m, 1))
            combos[:, slot] = all_idx
            lv = _batch_log_volumes(pts, combos)
            j = int(np.argmax(lv))
            if lv[j] > current_lv + SWAP_GAIN_TOL:
                current[slot] = j
                current_lv = float(lv[j])
                accepted = True
        if not accepted:
            break
    if current_lv == -math.inf:
        raise AllDegenerate("no K candidates are affinely independent")
    sorted_lv = _batch_log_volumes(pts, np.asarray([sorted(current)]))[0]
    return VertexSubset(tuple(current), float(sorted_lv))


def affine_right_inverse(hstar_hat: np.ndarray) -> np.ndarray:
    """Right inverse of the row-stochastic profile matrix augmented with ones.

    R = H_aug^T (H_aug H_aug^T)^+ with H_aug = [H* | 1_K]; when H_aug has
    full row rank, H_aug @ R = I_K.  Emits RankDeficientWarning (and still
    returns the pseudoinverse form) when the smallest singular value of
    H_aug falls below 1e-10 times the largest.
    """
    h = np.asarray(hstar_hat, dtype=float)
    if h.ndim != 2:
        raise ValueError("expected a (K, J) matrix")
    if h.min() < 0:
        raise ValueError("profile matrix must be non-negative")
    if np.max(np.abs(h.sum(axis=1) - 1.0)) > 1e-8:
        raise ValueError("profile rows must sum to 1 within 1e-8")
    haug = np.hstack([h, np.ones((h.shape[0], 1))])
    sing = np.linalg.svd(haug, compute_uv=False)
    if sing[-1] < 1e-10 * sing[0]:
        warnings.warn(
            "augmented profile matrix is numerically rank deficient",
            RankDeficientWarning,
            stacklevel=2,
        )
    return haug.T @ np.linalg.pinv(haug @ haug.T)
