"""End-to-end estimation of the source attribution percentage matrix.

The pipeline: row-normalize the concentration matrix, project the
normalized rows into their intrinsic span, take the convex-hull vertices
as candidates, pick the max-volume K-subset as the profile estimate,
recover the scaled emission means from the mean row of Y through the
profile estimate's affine right inverse, and form the column-stochastic
attribution matrix.

``apportion`` is a pure, deterministic function of (Y, config): it uses no
randomness and breaks all ties by smallest index.
"""

from __future__ import annotations

import numbers
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from . import geometry
from .exceptions import (
    ApportionError,
    BudgetExceeded,
    DegenerateCloud,
    DroppedRowsWarning,
    NegativeMeanWarning,
    ZeroDenominator,
)
from .geometry import VertexSubset

SEARCH_MODES = ("auto", "greedy")


def check_integer(name: str, value) -> int:
    """``value`` as an int; ValueError unless it is an integer, such as a
    Python or numpy int, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_unique(name: str, values) -> None:
    """ValueError naming the first entry of ``values`` seen before."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{name} {value!r} is repeated")


def _default_names(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(count))


@dataclass(frozen=True)
class ConcentrationMatrix:
    """Observed n x J non-negative concentration data."""

    values: np.ndarray
    pollutant_names: tuple[str, ...] = ()

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 2:
            raise ValueError("expected an (n, J) matrix")
        if not np.isfinite(vals).all():
            raise ValueError("concentrations must be finite")
        if vals.min() < 0:
            raise ValueError("concentrations must be non-negative")
        # Not a column sum: that overflows, with a warning, near 1e308.
        if not (vals > 0).any(axis=0).all():
            raise ValueError("every pollutant column needs a nonzero entry")
        if not self.pollutant_names:
            object.__setattr__(
                self, "pollutant_names", _default_names("P", vals.shape[1])
            )
        elif len(self.pollutant_names) != vals.shape[1]:
            raise ValueError("one name per pollutant column required")
        check_unique("pollutant name", self.pollutant_names)

    @property
    def n_pollutants(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class RowNormalizedData:
    """Row-stochastic view of the kept (positive-sum) rows."""

    ystar: np.ndarray  # (n', J)
    kept_rows: np.ndarray  # (n',) indices into the original rows


@dataclass(frozen=True)
class EstimatorConfig:
    """Pipeline settings; the projection rank is K - 1, not a setting."""

    K: int
    search: str = "auto"

    def __post_init__(self):
        object.__setattr__(self, "K", check_integer("K", self.K))
        if self.K < 2:
            raise ValueError(
                "K must be >= 2: with one source every attribution fraction is 1"
            )
        if self.search not in SEARCH_MODES:
            raise ValueError(f"search must be one of {SEARCH_MODES}")


@dataclass(frozen=True)
class AttributionMatrix:
    """Column-stochastic K x J attribution fractions."""

    values: np.ndarray
    pollutant_names: tuple[str, ...] = ()

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 2:
            raise ValueError("expected a (K, J) matrix")
        if vals.min() < -1e-12 or vals.max() > 1.0 + 1e-12:
            raise ValueError("attribution entries must lie in [0, 1]")
        if np.max(np.abs(vals.sum(axis=0) - 1.0)) > 1e-10:
            raise ValueError("attribution columns must sum to 1 within 1e-10")
        if not self.pollutant_names:
            object.__setattr__(
                self, "pollutant_names", _default_names("P", vals.shape[1])
            )
        elif len(self.pollutant_names) != vals.shape[1]:
            raise ValueError("one name per pollutant column required")

    @property
    def source_labels(self) -> tuple[str, ...]:
        """``S1..SK``: sources are identified only up to their order."""
        return _default_names("S", self.values.shape[0])


@dataclass(frozen=True)
class CandidateSet:
    """Hull-vertex candidates in both ambient and projected coordinates.

    ``z`` holds the candidates' rows of ``geometry.intrinsic_projection``'s
    cloud; its column count r_B is the projection rank.
    """

    ystar: np.ndarray  # (m, J) candidate rows of Y*
    indices: np.ndarray  # (m,) row indices into the normalized data
    z: np.ndarray  # (m, r_B) projected coordinates


@dataclass(frozen=True)
class Diagnostics:
    """Why the estimate came out as it did.

    ``subset_rows`` holds the chosen profile rows as indices into the
    normalized data (the convention of ``CandidateSet.indices``), in the
    order of the rows of the profile estimate.  ``n_hull_vertices`` and
    ``n_candidates_after_prune`` keep the layout of ``diagnostics.json``:
    both count the candidates, every index ``geometry.hull_vertices``
    returns.
    """

    r_b: int
    n_hull_vertices: int
    n_candidates_after_prune: int
    log_volume: float
    search_used: str
    warnings: tuple[str, ...] = ()
    subset_rows: tuple[int, ...] = ()


@dataclass(frozen=True)
class ApportionmentEstimate:
    """Profile estimate, scaled means, attribution matrix, diagnostics."""

    h_star_hat: np.ndarray  # (K, J), row-stochastic
    m_tilde: np.ndarray  # (K,), concentration-sum units
    phi_hat: AttributionMatrix
    diagnostics: Diagnostics
    candidates: CandidateSet


@contextmanager
def _stage(name: str, caught: list):
    """Label an ApportionError with the stage and the warnings caught so far."""
    try:
        yield
    except ApportionError as exc:
        exc.stage = name
        exc.warnings = tuple(str(w.message) for w in caught)
        raise


def row_normalize(y: ConcentrationMatrix) -> RowNormalizedData:
    """The row-stochastic matrix Y*: each row of Y over its sum.

    A row with zero sum has no direction, so it is dropped, with a
    DroppedRowsWarning; ``kept_rows`` maps the remaining rows back to Y.
    Some row always remains: ConcentrationMatrix requires a positive entry
    in every column.
    """
    vals = y.values
    sums = vals.sum(axis=1)
    zero = sums <= 0.0
    if zero.any():
        warnings.warn(
            f"dropped {int(zero.sum())} zero-concentration rows",
            DroppedRowsWarning,
            stacklevel=2,
        )
    kept = np.flatnonzero(~zero)
    return RowNormalizedData(ystar=vals[kept] / sums[kept, None], kept_rows=kept)


def extract_candidates(data: RowNormalizedData, cfg: EstimatorConfig) -> CandidateSet:
    """Candidate rows of Y*: ``geometry.hull_vertices`` of the rows
    projected at rank K - 1, the rank of K noiseless sources, a superset
    of their hull vertices.  Where that keeps every row, it issues the
    HullFallbackWarning itself.

    Raises DegenerateCloud when the rows span fewer than K - 1 dimensions,
    as fewer than K rows always do: no K of them then span a simplex,
    however rounding scores it.  A cloud of full rank K - 1 has at least K
    hull vertices, so there are always at least K candidates.
    """
    z = geometry.intrinsic_projection(data.ystar, cfg.K - 1)
    if z.shape[1] < cfg.K - 1:
        raise DegenerateCloud(
            f"rows span {z.shape[1]} dimensions; K={cfg.K} sources need {cfg.K - 1}"
        )
    idx = geometry.hull_vertices(z)
    return CandidateSet(ystar=data.ystar[idx], indices=idx, z=z[idx])


def _select_max_volume(
    z: np.ndarray, cfg: EstimatorConfig
) -> tuple[VertexSubset, str]:
    if cfg.search == "auto":
        with suppress(BudgetExceeded):
            return geometry.max_volume_exhaustive(z, cfg.K), "exhaustive"
    return geometry.max_volume_greedy(z, cfg.K), "greedy"


def estimate_H_star(
    candidates: CandidateSet, cfg: EstimatorConfig
) -> tuple[np.ndarray, VertexSubset, str]:
    """Max-volume K-subset of the hull candidates, as rows of Y*.

    ``auto`` runs the exhaustive search and, past its budget, greedy.
    Returns (H*_hat, chosen subset, search label); the label
    ``"exhaustive"`` certifies the subset as max-volume, ``"greedy"`` does
    not.  Rows sum to one by construction because they are rows of Y*.
    """
    subset, used = _select_max_volume(candidates.z, cfg)
    return candidates.ystar[list(subset.indices)], subset, used


def estimate_mu_tilde(y: ConcentrationMatrix, hstar_hat: np.ndarray) -> np.ndarray:
    """Scaled emission means by the right-inverse identity.

    m^T = [col-mean(Y), mean row sum] @ R, with R the affine right inverse
    of ``hstar_hat``; negative entries, from mean rows outside the cone of
    the profile rows, are clipped to 0 with a NegativeMeanWarning.
    """
    rinv = geometry.affine_right_inverse(np.asarray(hstar_hat, dtype=float))
    ybar = y.values.mean(axis=0)
    m = np.concatenate([ybar, [ybar.sum()]]) @ rinv
    if (m < 0).any():
        warnings.warn(
            "negative mean estimates clipped to zero",
            NegativeMeanWarning,
            stacklevel=2,
        )
        m = np.clip(m, 0.0, None)
    return m


def compute_phi(
    m_tilde: np.ndarray,
    hstar_hat: np.ndarray,
    pollutant_names: tuple[str, ...] = (),
) -> AttributionMatrix:
    """Column-stochastic attribution fractions m_k H*_kj / sum_l m_l H*_lj."""
    m = np.asarray(m_tilde, dtype=float)
    h = np.asarray(hstar_hat, dtype=float)
    if m.ndim != 1 or h.ndim != 2 or m.shape[0] != h.shape[0]:
        raise ValueError("m_tilde must have one entry per profile row")
    if m.min() < 0:
        raise ValueError("m_tilde must be non-negative")
    num = m[:, None] * h
    den = num.sum(axis=0)
    bad = np.flatnonzero(den <= 0.0)
    if bad.size:
        j = int(bad[0])
        raise ZeroDenominator(j, pollutant_names[j] if pollutant_names else None)
    return AttributionMatrix(num / den, pollutant_names)


def apportion(y: ConcentrationMatrix, cfg: EstimatorConfig) -> ApportionmentEstimate:
    """Full pipeline from concentrations to the attribution estimate.

    One path for every K >= 2: row_normalize, extract_candidates,
    estimate_H_star, estimate_mu_tilde, compute_phi.  Deterministic given
    (y, cfg).  Pipeline warnings are collected into the diagnostics rather
    than re-emitted; errors carry the stage name and the warnings issued
    before them.
    """
    if cfg.K >= y.n_pollutants:
        raise ValueError("K must be smaller than the number of pollutants")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with _stage("row_normalize", caught):
            data = row_normalize(y)
        with _stage("extract_candidates", caught):
            cands = extract_candidates(data, cfg)
        with _stage("estimate_H_star", caught):
            hstar, subset, used = estimate_H_star(cands, cfg)
        with _stage("estimate_mu_tilde", caught):
            m_tilde = estimate_mu_tilde(y, hstar)
        with _stage("compute_phi", caught):
            phi = compute_phi(m_tilde, hstar, pollutant_names=y.pollutant_names)

    n_hull = len(cands.indices)
    diag = Diagnostics(
        r_b=cands.z.shape[1],
        n_hull_vertices=n_hull,
        n_candidates_after_prune=n_hull,
        log_volume=subset.log_volume,
        search_used=used,
        warnings=tuple(str(w.message) for w in caught),
        subset_rows=tuple(int(cands.indices[i]) for i in subset.indices),
    )
    return ApportionmentEstimate(hstar, m_tilde, phi, diag, cands)
