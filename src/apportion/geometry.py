"""Convex-geometry and linear-algebra primitives.

Point clouds are plain (n, d) float arrays with rows as points.  All
functions here are pure and deterministic: ties in any argmax/argmin are
broken by the smallest index, and subset searches return the
lexicographically smallest maximizing index tuple.

The exhaustive max-volume search is a branch and bound over lexicographic
index prefixes, then an exact rescoring.  Adding a point x to a prefix S
multiplies the Gram determinant by dist^2(x, aff S) <= |x - p_a|^2, with
p_a the prefix's first point, so a prefix's determinant, widened by the
rounding slack and multiplied by the largest such squared distance once
per missing point, bounds every completion.  Prefixes whose bound falls
below the score of the greedy search's subset, or of the best subset
scored so far, are dropped: each of their completions scores strictly
below a score that some subset reaches.  The survivors are scored by the
exact (slogdet) routine in lexicographic order and a subset is accepted
only when strictly better, so the result, including the tie-break to the
smallest index tuple, is bitwise that of scoring every subset exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    AllDegenerate,
    BudgetExceeded,
    DegenerateCloud,
    HullFallbackWarning,
    RankDeficientWarning,
)

HULL_DIM_MAX = 8
# Search limits, read at call time: above EXHAUSTIVE_BUDGET subsets the
# exhaustive search raises and ``auto`` picks greedy.
EXHAUSTIVE_BUDGET = 2_000_000
MAX_SWEEPS = 10
SWAP_GAIN_TOL = 1e-12

# Gram determinants at or below this are treated as degenerate simplices.
_DET_FLOOR = 1e-300
_LOG_DET_FLOOR = math.log(_DET_FLOOR)

# Relative slack of a prefix's Gram determinant, in units of the product
# of its squared edge lengths (Hadamard's bound on the determinant).
# Modified Gram-Schmidt is column-wise backward stable (Bjorck & Paige
# 1992), so the computed determinant is that of edges each perturbed by a
# small multiple of d * 2**-52 of their length, and the exact slogdet
# route errs by a small multiple of (K + d) * 2**-52 of the same product;
# bounds this wide hold the exact score with orders of magnitude to spare.
# Near the best subset it is about 1e-6 in log-det units.
_SCREEN_SLACK = 1e-7
# Subsets led by a point whose squared edge lengths to later points
# (copies aside) leave [_SCREEN_SPAN**(-1/(K-1)), _SCREEN_SPAN**(1/(K-1))]
# are never pruned, so every bound stays within [1/_SCREEN_SPAN,
# _SCREEN_SPAN]; they are scored exactly.
_SCREEN_SPAN = 1e250
# Relative margin against rounding where a score threshold is taken back
# to a determinant by exp(), and on the largest squared edge length.
_THRESHOLD_MARGIN = 1e-10
# Prefixes extended at once by the branch and bound; its memory holds at
# most K such runs, whatever the number of subsets.
_FRONTIER_ROWS = 4096


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


def intrinsic_projection(ystar: np.ndarray, rank_cap: int) -> np.ndarray:
    """Project row-stochastic points into the affine span of their cloud.

    Drops the last coordinate, centers the rest, and keeps the leading
    right-singular directions.  The retained rank is the number of singular
    values above n * eps * sigma_1, further capped at ``rank_cap``.

    Returns the projected cloud Z (n, rank), whose columns are the centered
    rows' coordinates along those directions.

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
    centered = reduced - reduced.mean(axis=0)
    # The SVD of the triangular factor R has the cloud's singular values
    # and right-singular vectors without forming its n x (J-1) U.
    _, sing, vt = np.linalg.svd(np.linalg.qr(centered, mode="r"), full_matrices=False)
    detected = _numerical_rank(sing, n)
    if detected == 0:
        raise DegenerateCloud("all rows identical: centered cloud has rank 0")
    return centered @ vt[: min(rank_cap, detected)].T


def _numerical_rank(sing: np.ndarray, n: int) -> int:
    """Count of the descending singular values above n * eps * sigma_1."""
    if sing.size == 0:
        return 0
    return int(np.count_nonzero(sing > n * np.finfo(float).eps * sing[0]))


def _affine_rank(z: np.ndarray) -> int:
    return _numerical_rank(np.linalg.svd(z - z.mean(axis=0), compute_uv=False), len(z))


def hull_vertices(z: np.ndarray) -> np.ndarray:
    """Sorted indices of a superset of the cloud's convex-hull vertices.

    Up to ``HULL_DIM_MAX`` dimensions the set is exact: 1-D clouds reduce
    to argmin/argmax, 2 and more dimensions use qhull.  Points lying
    inside facets or edges are not vertices.  Of exact duplicate vertex
    rows at least one is returned; which one is not specified.  Above
    ``HULL_DIM_MAX``, where qhull's cost explodes, and wherever qhull
    cannot build the hull of a cloud of full affine rank (a cloud thin
    along some axis), every index is returned with a HullFallbackWarning.

    Raises DegenerateCloud, up to the cap, when the points span fewer than
    d dimensions (reduce the projection rank instead).
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        raise ValueError("expected an (n, d) array")
    n, d = z.shape
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if d > HULL_DIM_MAX:
        reason = f"hull dimension {d} above cap"
    else:
        if n < d + 1:
            raise DegenerateCloud(f"{n} points cannot span a {d}-dimensional hull")
        if _affine_rank(z) < d:
            raise DegenerateCloud(f"points are affinely dependent below dimension {d}")
        if d == 1:
            return np.unique([int(np.argmin(z[:, 0])), int(np.argmax(z[:, 0]))])
        from scipy.spatial import ConvexHull, QhullError

        try:
            return np.unique(ConvexHull(z).vertices)
        except QhullError:
            # Fixed text: qhull's own report varies across scipy versions.
            reason = "qhull could not build the hull"
    warnings.warn(
        f"{reason}; keeping all rows as candidates", HullFallbackWarning, stacklevel=2
    )
    return np.arange(n, dtype=np.intp)


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
    return float(_batch_log_volumes(v, np.arange(k)[None])[0])


def _anchor_reach(cols: list[np.ndarray], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per leading index a: R2(a), the largest |x - p_a|^2 over later x
    with a margin, and whether the subsets led by a may be pruned.

    They may not when some later point that is not a copy of p_a lies at
    a squared distance outside the screen's range.
    """
    m = len(cols[0])
    span = _SCREEN_SPAN ** (1.0 / max(k - 1, 1))
    reach, screened = np.zeros(m), np.ones(m, dtype=bool)
    step = max(1, _FRONTIER_ROWS // m)
    for lo in range(0, m, step):
        lead = np.arange(lo, min(lo + step, m))[:, None]
        later = np.arange(m) > lead
        with np.errstate(over="ignore", under="ignore"):
            sq = sum((c - c[lead]) ** 2 for c in cols)
        same = np.logical_and.reduce([c == c[lead] for c in cols])
        inside = same | ((sq >= 1.0 / span) & (sq <= span))
        screened[lead[:, 0]] = (inside | ~later).all(axis=1)
        reach[lead[:, 0]] = np.where(later, sq, 0.0).max(axis=1)
    return reach * (1.0 + _THRESHOLD_MARGIN), screened


def _branch_and_bound(
    pts: np.ndarray, k: int, seed: float
) -> tuple[tuple[int, ...] | None, float]:
    """First K-subset, in lexicographic order, of the best exact score.

    A run of prefixes (a, ..., c) is held as an index array plus, per row,
    the Gram determinant det, Hadamard's bound had on it (the product of
    the squared edge lengths |x - p_a|^2) and an orthonormal basis of the
    edges, one array per coordinate of each basis vector.  Extending by x
    multiplies det by dist^2(x, aff prefix), the squared residual of
    x - p_a after modified Gram-Schmidt against that basis, and had by
    |x - p_a|^2.  Returns (None, -inf) when nothing scores above -inf.
    """
    m, d = pts.shape
    cols = [np.ascontiguousarray(pts[:, j]) for j in range(d)]
    reach, screened = _anchor_reach(cols, k)
    best, best_lv = None, -math.inf

    def visit(idx, state):
        nonlocal best, best_lv
        level = idx.shape[1] - 1
        log_cut = 2.0 * (max(seed, best_lv) + math.lgamma(k))
        cut = math.inf  # above every bound of a prefix that may be pruned
        if log_cut <= math.log(_SCREEN_SPAN) + 1.0:
            cut = math.exp(log_cut) * (1.0 - _THRESHOLD_MARGIN)
        det, had = state[:2]
        with np.errstate(over="ignore", invalid="ignore"):
            bound = (det + _SCREEN_SLACK * had) * reach[idx[:, 0]] ** (k - 1 - level)
        keep = np.flatnonzero(~screened[idx[:, 0]] | (bound >= cut))
        if keep.size == 0:
            return
        idx, state = idx[keep], [s[keep] for s in state]
        if level == k - 1:
            lv = _batch_log_volumes(pts, idx)
            i = int(np.argmax(lv))
            if lv[i] > best_lv:
                best, best_lv = tuple(int(c) for c in idx[i]), float(lv[i])
            return
        # Extend by every x with last < x <= m - k + level + 1, in
        # lexicographic order, at most _FRONTIER_ROWS rows at a time.
        last = idx[:, -1]
        count = m - k + level + 1 - last
        ends = np.cumsum(count)
        for lo in range(0, int(ends[-1]), _FRONTIER_ROWS):
            flat = np.arange(lo, min(lo + _FRONTIER_ROWS, int(ends[-1])))
            parent = np.searchsorted(ends, flat, side="right")
            x = last[parent] + 1 + flat - (ends[parent] - count[parent])
            det, had, *basis = [s[parent] for s in state]
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                edge = [c[x] - c[idx[parent, 0]] for c in cols]
                sq = sum(e * e for e in edge)
                for j in range(0, len(basis), d):
                    r = sum(e * q for e, q in zip(edge, basis[j : j + d]))
                    edge = [e - r * q for e, q in zip(edge, basis[j : j + d])]
                dist = sum(e * e for e in edge)
                grown = [det * dist, had * sq]
                if level + 2 < k:
                    scale = np.where(dist > 0.0, 1.0 / np.sqrt(dist), 0.0)
                    grown += basis + [e * scale for e in edge]
            visit(np.column_stack([idx[parent], x]), grown)

    for lo in range(0, m - k + 1, _FRONTIER_ROWS):
        lead = np.arange(lo, min(lo + _FRONTIER_ROWS, m - k + 1))
        visit(lead[:, None], [np.ones(len(lead)), np.ones(len(lead))])
    return best, best_lv


def max_volume_exhaustive(candidates: np.ndarray, k: int) -> VertexSubset:
    """Globally best K-subset by simplex volume, by exhaustive branch and bound.

    The seed is the greedy search's ``log_volume``: its subset scored
    exactly, with the indices sorted as below (-inf when greedy finds
    none).  Prefixes are extended in lexicographic order, a bounded run at
    a time; a prefix is dropped when
    (det + _SCREEN_SLACK * had) * R2(a)**(K - 1 - j) is below the
    determinant of max(seed, best exact score so far), with j its edge
    count and R2(a) the largest |x - p_a|^2 over later x.  The survivors
    at K points are scored exactly, in lexicographic order, and a subset
    is accepted only when strictly better.  A dropped subset scores
    strictly below that threshold, which some scored or seed subset
    reaches, so the first maximum survives: the result, including the
    smallest-index-tuple tie-break, is bitwise that of scoring every
    subset exactly.  Raises BudgetExceeded when C(m, K) is above
    ``EXHAUSTIVE_BUDGET``.
    """
    pts = np.asarray(candidates, dtype=float)
    m = pts.shape[0]
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if m < k:
        raise ValueError(f"need at least {k} candidates, got {m}")
    total = math.comb(m, k)
    if total > EXHAUSTIVE_BUDGET:
        raise BudgetExceeded(f"{total} subsets exceed budget {EXHAUSTIVE_BUDGET}")

    try:
        seed = max_volume_greedy(pts, k).log_volume
    except AllDegenerate:
        seed = -math.inf
    best, best_lv = _branch_and_bound(pts, k, seed)
    if best is None:
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


def max_volume_greedy(candidates: np.ndarray, k: int) -> VertexSubset:
    """Approximate max-volume K-subset: ATGP start, then swap sweeps.

    Each sweep tries replacing one vertex at a time by every candidate and
    accepts a swap only when the log-volume strictly improves by more than
    SWAP_GAIN_TOL; terminates after a sweep with no accepted swap or after
    ``MAX_SWEEPS`` sweeps.  The reported log-volume is scored with the
    indices in sorted order, as the exhaustive search scores them, so both
    report bitwise the same value for the same subset; the indices keep
    their search order.
    """
    pts = np.asarray(candidates, dtype=float)
    m = pts.shape[0]
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if m < k:
        raise ValueError(f"need at least {k} candidates, got {m}")

    current = _atgp_indices(pts, k)
    current_lv = float(_batch_log_volumes(pts, np.asarray([current]))[0])
    all_idx = np.arange(m, dtype=np.intp)
    for _ in range(MAX_SWEEPS):
        accepted = False
        for slot in range(k):
            combos = np.tile(np.asarray(current, dtype=np.intp), (m, 1))
            combos[:, slot] = all_idx
            lv = _batch_log_volumes(pts, combos)
            # A repeated index spans a degenerate simplex, however rounding
            # scores it.
            lv[current[:slot] + current[slot + 1 :]] = -np.inf
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
