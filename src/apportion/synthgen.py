"""Ground-truth generators: profile matrices, emission processes, true
attribution matrices.

Reproducibility contract: every generator takes an RngSpec and identical
(master_seed, stream_id) pairs produce bitwise-identical output.  Streams
are Philox counter-based; a study replicate r owns the stream block
starting at r * 2**16, with per-source simulation substreams at offsets
1..K and the profile/parameter draws at offsets 2**15 and 2**15 + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .estimator import AttributionMatrix, ConcentrationMatrix, check_integer, compute_phi
from .exceptions import DegenerateCloud, GenerationFailed

REPLICATE_STRIDE = 1 << 16
PROFILE_STREAM = 1 << 15
PARAMS_STREAM = (1 << 15) + 1

AR_COEF = 0.8
PROCESSES = ("ar1", "mixture")


@dataclass(frozen=True)
class RngSpec:
    """Addressable random stream: (master_seed, stream_id) -> generator."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            value = check_integer(name, getattr(self, name))
            if value < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {value}")
            object.__setattr__(self, name, value)

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_id,)
        )
        return np.random.Generator(np.random.Philox(seq))

    def substream(self, offset: int) -> "RngSpec":
        return RngSpec(self.master_seed, self.stream_id + offset)


@dataclass(frozen=True)
class LogAR1Params:
    """Per-source log-AR(1) parameters; sigma_eps = 0 gives a constant series."""

    phi: np.ndarray
    mu_g: np.ndarray
    sigma_eps: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        mu = np.asarray(self.mu_g, dtype=float)
        sig = np.asarray(self.sigma_eps, dtype=float)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "mu_g", mu)
        object.__setattr__(self, "sigma_eps", sig)
        if not (phi.shape == mu.shape == sig.shape) or phi.ndim != 1:
            raise ValueError("phi, mu_g, sigma_eps must be equal-length vectors")
        if not all(np.isfinite(x).all() for x in (phi, mu, sig)):
            raise ValueError("phi, mu_g, sigma_eps must be finite")
        if not np.all(np.abs(phi) < 1.0):
            raise ValueError("|phi| < 1 required for stationarity")
        if not np.all(sig >= 0.0):
            raise ValueError("sigma_eps must be non-negative")

    @property
    def n_sources(self) -> int:
        return self.phi.shape[0]


@dataclass(frozen=True)
class LognormalMixtureParams:
    """Per-source lognormal mixture: ragged (weights, means, sds) tuples."""

    weights: tuple[np.ndarray, ...]
    means: tuple[np.ndarray, ...]
    sds: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not (len(self.weights) == len(self.means) == len(self.sds)):
            raise ValueError("one (weights, means, sds) triple per source")
        for name in ("weights", "means", "sds"):
            vecs = tuple(np.asarray(v, dtype=float) for v in getattr(self, name))
            object.__setattr__(self, name, vecs)
        for w, m, s in zip(self.weights, self.means, self.sds):
            if not (w.shape == m.shape == s.shape) or w.ndim != 1 or w.size < 1:
                raise ValueError("component vectors must match in length")
            if not all(np.isfinite(x).all() for x in (w, m, s)):
                raise ValueError("weights, means and sds must be finite")
            if abs(w.sum() - 1.0) > 1e-12 or w.min() < 0:
                raise ValueError("weights must lie on the simplex")
            if not np.all(s >= 0.0):
                raise ValueError("component sds must be non-negative")

    @property
    def n_sources(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class GroundTruth:
    """Everything the estimator is trying to recover."""

    W: np.ndarray  # (n, K) emissions
    H: np.ndarray  # (K, J) profiles, full row rank
    mu: np.ndarray  # (K,) population emission means
    phi_true: AttributionMatrix

    def __post_init__(self):
        if self.W.min() < 0 or self.H.min() < 0:
            raise ValueError("W and H must be non-negative")
        sing = np.linalg.svd(self.H, compute_uv=False)
        if sing[-1] <= 1e-10 * sing[0]:
            raise ValueError("H must have full row rank")


def _maximin_subset(points: np.ndarray, k: int) -> tuple[int, ...]:
    """K-subset maximizing the pairwise minimum distance, lexicographic ties.

    Threshold search (Erkut 1990; Pisinger 2006): the largest squared
    distance t at which {dist2 >= t} has a k-clique, by binary search, and
    its first clique in index order.  Exponential only on tied distances.
    """
    m = len(points)
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    # (rows, m, d) differences a block of rows at a time, not all (m, m, d);
    # every entry is the same sum over d, whatever the block size.
    dist2 = np.empty((m, m))
    step = max(1, 4096 // m)
    for i in range(0, m, step):
        diff = points[i : i + step, None, :] - points[None, :, :]
        dist2[i : i + step] = (diff**2).sum(axis=2)
    # Thresholds: 0, where every pair is an edge, and the upper triangle,
    # sorted in place; repeats do not move the largest one with a clique.
    values = np.concatenate([[0.0], *(dist2[i, i + 1 :] for i in range(m - 1))])
    values.sort()

    def first_clique(t: float) -> tuple[int, ...] | None:
        rows = np.packbits(dist2 >= t, axis=1, bitorder="little")
        adj = [int.from_bytes(row, "little") for row in rows]
        return next(_cliques(adj, (1 << m) - 1, k), None)

    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if first_clique(values[mid]) is None:
            hi = mid - 1
        else:
            lo = mid
    return first_clique(values[lo])


def _cliques(adj: list[int], cand: int, k: int):
    """k-cliques within bitmask cand in lexicographic order; adj[v]: v's neighbours."""
    while cand.bit_count() >= k:
        v = (cand & -cand).bit_length() - 1
        cand &= cand - 1
        for tail in _cliques(adj, cand & adj[v], k - 1) if k > 1 else [()]:
            yield (v,) + tail


def generate_profile_matrix(J: int, K: int, rng: RngSpec) -> np.ndarray:
    """Row-stochastic K x J profile matrix with well-separated rows.

    Draws 10·K iid Exp(1) candidate vectors, normalizes them onto the
    simplex, and keeps the K of them maximizing the pairwise minimum
    distance in projected coordinates, by an exact threshold and
    first-clique search over every draw (lexicographic ties; exponential
    only on tied distances).  Redraws, up to 100 times, on a degenerate
    cloud or rank-deficient rows.  K = J is allowed (distinct simplex
    points are linearly independent); estimation itself needs 2 <= K < J.
    """
    if not 1 <= K <= J:
        raise ValueError("need 1 <= K <= J")
    gen = rng.generator()
    for _ in range(100):
        cand = gen.standard_exponential((10 * K, J))
        cand /= cand.sum(axis=1, keepdims=True)
        try:
            z = geometry.intrinsic_projection(cand, J - 1)
        except DegenerateCloud:
            continue
        h = cand[list(_maximin_subset(z, K))]
        sing = np.linalg.svd(h, compute_uv=False)
        if sing[-1] > 1e-10 * sing[0]:
            return h
    raise GenerationFailed("no full-row-rank profile matrix in 100 attempts")


def simulate_log_ar1(n: int, params: LogAR1Params, rng: RngSpec) -> np.ndarray:
    """Stationary log-AR(1) emissions, one Philox substream per source.

    Source k draws its start c_1k from the stationary marginal, then its
    n - 1 innovations eps_ik.  The recursion c_ik = phi_k c_{i-1,k} + eps_ik
    is one lower-bidiagonal solve (LAPACK dgtsv) per distinct phi_k, over
    every source that shares it; emissions are exp(mu_k + c_ik).
    """
    # Each scipy module is imported by the function that uses it, so
    # `import apportion` loads numpy only.
    from scipy.linalg.lapack import dgtsv

    if n < 1:
        raise ValueError("n must be >= 1")
    # Row k holds source k's draws, so the transpose is the column-major
    # (n, K) right-hand side dgtsv takes.
    centered = np.empty((params.n_sources, n))
    for k in range(params.n_sources):
        gen = rng.substream(k + 1).generator()
        phi, sigma = float(params.phi[k]), float(params.sigma_eps[k])
        centered[k, 0] = gen.normal(0.0, sigma / math.sqrt(1.0 - phi * phi))
        centered[k, 1:] = gen.normal(0.0, sigma, size=n - 1)
    for phi in np.unique(params.phi) if n > 1 else ():
        # L c = (c_1, eps_2, ..., eps_n), L unit lower bidiagonal with
        # -phi below the diagonal.  |phi| < 1, so dgtsv never pivots: its
        # forward sweep is c_i = eps_i - (-phi) c_{i-1}, the recursion's
        # own product and sum, and its back substitution divides by 1 and
        # subtracts 0, so c is bitwise the sequential recursion.
        rows = params.phi == phi
        _, _, _, solved, info = dgtsv(
            np.full(n - 1, -phi), np.ones(n), np.zeros(n - 1), centered[rows].T
        )
        if info != 0:
            raise RuntimeError(f"dgtsv failed with info={info}")
        centered[rows] = solved.T
    return np.exp(np.add(params.mu_g, centered.T, order="C"))


def population_mean_log_ar1(params: LogAR1Params) -> np.ndarray:
    """Closed-form lognormal mean exp(mu + 0.5 sigma^2 / (1 - phi^2))."""
    var_stat = params.sigma_eps**2 / (1.0 - params.phi**2)
    return np.exp(params.mu_g + 0.5 * var_stat)


def draw_ar1_params(K: int, rng: RngSpec) -> LogAR1Params:
    """AR coefficient fixed at 0.8; mu ~ U(-0.5, 0.5); sigma ~ U(0.15, 0.5)."""
    if K < 1:
        raise ValueError("K must be >= 1")
    gen = rng.generator()
    mu_g = gen.uniform(-0.5, 0.5, K)
    sigma = gen.uniform(0.15, 0.5, K)
    return LogAR1Params(np.full(K, AR_COEF), mu_g, sigma)


def simulate_lognormal_mixture(
    n: int, params: LognormalMixtureParams, rng: RngSpec
) -> np.ndarray:
    """Iid rows; per source, log W is a finite normal mixture."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k_sources = params.n_sources
    out = np.empty((n, k_sources))
    for k in range(k_sources):
        gen = rng.substream(k + 1).generator()
        comps = gen.choice(params.weights[k].size, size=n, p=params.weights[k])
        logw = gen.normal(params.means[k][comps], params.sds[k][comps])
        out[:, k] = np.exp(logw)
    return out


def population_mean_mixture(params: LognormalMixtureParams) -> np.ndarray:
    """Mixture of lognormal means: sum_c pi_c exp(mu_c + sigma_c^2 / 2)."""
    return np.array(
        [
            float(np.sum(w * np.exp(m + 0.5 * s**2)))
            for w, m, s in zip(params.weights, params.means, params.sds)
        ]
    )


def draw_mixture_params(K: int, rng: RngSpec) -> LognormalMixtureParams:
    """C_k ~ Pois(3)+1; weights ~ Dirichlet(1); mu ~ U(-1,1); sd ~ U(0.1,1)."""
    if K < 1:
        raise ValueError("K must be >= 1")
    gen = rng.generator()
    weights, means, sds = [], [], []
    for _ in range(K):
        n_comp = int(gen.poisson(3.0)) + 1
        weights.append(gen.dirichlet(np.ones(n_comp)))
        means.append(gen.uniform(-1.0, 1.0, n_comp))
        sds.append(gen.uniform(0.1, 1.0, n_comp))
    return LognormalMixtureParams(tuple(weights), tuple(means), tuple(sds))


def true_phi(mu: np.ndarray, H: np.ndarray) -> AttributionMatrix:
    """Attribution fractions mu_k H_kj / sum_l mu_l H_lj from ground truth,
    by the estimator's own ``compute_phi``."""
    mu = np.asarray(mu, dtype=float)
    H = np.asarray(H, dtype=float)
    if mu.ndim != 1 or H.ndim != 2 or mu.shape[0] != H.shape[0]:
        raise ValueError("mu must have one entry per row of H")
    if mu.min() < 0 or mu.max() <= 0:
        raise ValueError("mu must be non-negative with a positive entry")
    return compute_phi(mu, H)


def make_ground_truth(
    n: int, J: int, K: int, process: str, rng: RngSpec
) -> tuple[ConcentrationMatrix, GroundTruth]:
    """Draw (H, params, W), return Y = W H plus the exact ground truth.

    H is ``generate_profile_matrix``'s maximin pick among 10·K candidate
    draws, and W holds the n rows of the chosen emission process.
    """
    if not 1 <= K < J:
        raise ValueError("need 1 <= K < J")
    if process not in PROCESSES:
        raise ValueError("process must be 'ar1' or 'mixture'")
    H = generate_profile_matrix(J, K, rng.substream(PROFILE_STREAM))
    if process == "ar1":
        params = draw_ar1_params(K, rng.substream(PARAMS_STREAM))
        W = simulate_log_ar1(n, params, rng)
        mu = population_mean_log_ar1(params)
    else:
        params = draw_mixture_params(K, rng.substream(PARAMS_STREAM))
        W = simulate_lognormal_mixture(n, params, rng)
        mu = population_mean_mixture(params)
    truth = GroundTruth(W=W, H=H, mu=mu, phi_true=true_phi(mu, H))
    return ConcentrationMatrix(W @ H), truth
