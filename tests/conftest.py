"""Shared test oracles, kept independent of the code paths they check."""

import itertools
import math

import numpy as np
from scipy.optimize import linprog


def lp_hull_vertices(points):
    """Brute-force extreme points: i is a vertex iff no convex combination
    of the other points reproduces it (LP feasibility per point)."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    verts = []
    for i in range(n):
        others = np.delete(np.arange(n), i)
        a_eq = np.vstack([pts[others].T, np.ones(n - 1)])
        b_eq = np.concatenate([pts[i], [1.0]])
        res = linprog(
            np.zeros(n - 1),
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=(0, None),
            method="highs",
        )
        if not res.success:
            verts.append(i)
    return np.asarray(verts, dtype=np.intp)


def face_enumeration_distances(points, vertices):
    """Exact distance of each point to conv(vertices) by enumerating every
    face: the nearest point lies in the relative interior of some affinely
    independent face, where it is the projection onto the face's span."""
    points = np.asarray(points, dtype=float)
    vertices = np.asarray(vertices, dtype=float)
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


def det_log_volume(vertices):
    """Simplex log-volume by direct Gram determinant, no slogdet."""
    v = np.asarray(vertices, dtype=float)
    k = v.shape[0]
    edges = v[1:] - v[0]
    det = float(np.linalg.det(edges @ edges.T))
    if det <= 0.0:
        return -math.inf
    return 0.5 * math.log(det) - math.lgamma(k)


def scalar_nrmse(phi_true, phi_hat):
    k, j = np.asarray(phi_true).shape
    total = 0.0
    for a in range(k):
        sq = 0.0
        norm = 0.0
        for b in range(j):
            sq += (phi_true[a][b] - phi_hat[a][b]) ** 2
            norm += phi_true[a][b] ** 2
        total += math.sqrt(sq / j) / math.sqrt(norm)
    return total / k


def scalar_nfd(phi_true, phi_hat):
    k, j = np.asarray(phi_true).shape
    num = 0.0
    den = 0.0
    for a in range(k):
        for b in range(j):
            num += (phi_true[a][b] - phi_hat[a][b]) ** 2
            den += phi_true[a][b] ** 2
    return math.sqrt(num) / math.sqrt(den)


def brute_force_align(phi_true, phi_hat):
    """Smallest total squared row distance over every permutation."""
    k = len(phi_true)
    best_perm, best_total = None, math.inf
    for perm in itertools.permutations(range(k)):
        total = 0.0
        for i in range(k):
            diff = np.asarray(phi_true[i]) - np.asarray(phi_hat[perm[i]])
            total += float(diff @ diff)
        if total < best_total:
            best_total, best_perm = total, perm
    return best_perm, best_total


def random_row_stochastic(rng, k, j, min_rank_ratio=1e-6):
    """Full-row-rank row-stochastic matrix."""
    while True:
        h = rng.dirichlet(np.ones(j), size=k)
        sing = np.linalg.svd(h, compute_uv=False)
        if sing[-1] > min_rank_ratio * sing[0]:
            return h


def aligned_estimate(phi_true, phi_hat):
    perm, _ = brute_force_align(phi_true, phi_hat)
    return np.asarray(phi_hat)[list(perm)]
