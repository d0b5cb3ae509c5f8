import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from conftest import det_log_volume, lp_hull_vertices

from apportion import geometry
from apportion.estimator import EstimatorConfig, extract_candidates, row_normalize
from apportion.exceptions import (
    AllDegenerate,
    BudgetExceeded,
    DegenerateCloud,
    HullFallbackWarning,
    RankDeficientWarning,
)
from apportion.geometry import (
    _batch_log_volumes,
    VertexSubset,
    affine_right_inverse,
    hull_vertices,
    intrinsic_projection,
    max_volume_exhaustive,
    max_volume_greedy,
    simplex_log_volume,
)
from apportion.synthgen import RngSpec, make_ground_truth


def exact_scan(pts, k):
    """Score every k-subset exactly in one batch; the first maximum wins.

    Returns (indices, log_volume), or None when every subset is degenerate.
    """
    combos = np.asarray(list(itertools.combinations(range(len(pts)), k)), dtype=np.intp)
    lv = _batch_log_volumes(np.asarray(pts, dtype=float), combos)
    i = int(np.argmax(lv))
    if lv[i] == -math.inf:
        return None
    return tuple(int(c) for c in combos[i]), float(lv[i])


def assert_matches_exact_scan(pts, k):
    expected = exact_scan(pts, k)
    if expected is None:
        with pytest.raises(AllDegenerate):
            max_volume_exhaustive(pts, k)
        return
    result = max_volume_exhaustive(pts, k)
    assert result.indices == expected[0]
    assert result.log_volume.hex() == expected[1].hex()


def triangle_cloud(rng, n, corners=None):
    """Points in a triangle: barycentric mixes plus the corners themselves."""
    if corners is None:
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    weights = rng.dirichlet(np.ones(3), size=n)
    return np.vstack([corners, weights @ corners])


class TestIntrinsicProjection:
    def test_identical_rows_degenerate(self):
        ystar = np.full((5, 3), 1.0 / 3.0)
        with pytest.raises(DegenerateCloud):
            intrinsic_projection(ystar, rank_cap=2)

    def test_identity_rows_span_triangle(self):
        z = intrinsic_projection(np.eye(3), rank_cap=8)
        assert z.shape == (3, 2)
        assert simplex_log_volume(z) > -math.inf

    def test_rank_matches_oracle_on_noiseless_product(self):
        rng = np.random.default_rng(11)
        hstar = rng.dirichlet(np.ones(8), size=3)
        wstar = rng.dirichlet(np.ones(3), size=200)
        ystar = wstar @ hstar
        z = intrinsic_projection(ystar, rank_cap=8)
        oracle = np.linalg.matrix_rank(ystar[:, :-1] - ystar[:, :-1].mean(axis=0))
        assert z.shape[1] == oracle == 2

    def test_rank_cap_truncates(self):
        rng = np.random.default_rng(4)
        ystar = rng.dirichlet(np.ones(6), size=40)
        z = intrinsic_projection(ystar, rank_cap=2)
        assert z.shape == (40, 2)

    def test_reconstruction_within_discarded_mass(self):
        rng = np.random.default_rng(5)
        ystar = rng.dirichlet(np.ones(7), size=60)
        reduced = ystar[:, :-1]
        centered = reduced - reduced.mean(axis=0)
        sing = np.linalg.svd(centered, compute_uv=False)
        for cap in (1, 2, 4, 6):
            z = intrinsic_projection(ystar, rank_cap=cap)
            # Z is the centered cloud in its leading right-singular
            # directions, so it keeps exactly the leading singular values.
            assert z.shape == (60, cap)
            np.testing.assert_allclose(
                np.linalg.svd(z, compute_uv=False), sing[:cap], rtol=1e-10
            )

    def test_rejects_off_simplex_rows(self):
        with pytest.raises(ValueError):
            intrinsic_projection(np.array([[0.5, 0.6], [0.2, 0.8]]), rank_cap=1)


class TestHullVertices:
    def test_interior_point_excluded(self):
        z = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.25, 0.25]])
        assert hull_vertices(z).tolist() == [0, 1, 2]

    def test_corners_recovered_in_dense_triangle(self):
        rng = np.random.default_rng(7)
        z = triangle_cloud(rng, 1000)
        verts = hull_vertices(z)
        assert {0, 1, 2} <= set(verts.tolist())

    def test_one_dimensional_min_max(self):
        z = np.array([[0.1], [0.7], [0.3]])
        assert hull_vertices(z).tolist() == [0, 1]

    def test_collinear_cloud_degenerate(self):
        z = np.column_stack([np.linspace(0, 1, 6), np.linspace(0, 2, 6)])
        with pytest.raises(DegenerateCloud):
            hull_vertices(z)

    def test_dimension_cap(self):
        # Above the cap every index is returned, a superset of the vertices.
        rng = np.random.default_rng(0)
        z = rng.normal(size=(40, geometry.HULL_DIM_MAX + 1))
        message = (
            f"^hull dimension {geometry.HULL_DIM_MAX + 1} above cap; "
            "keeping all rows as candidates$"
        )
        with pytest.warns(HullFallbackWarning, match=message):
            assert hull_vertices(z).tolist() == list(range(40))

    def test_thin_clouds_keep_every_vertex_where_qhull_fails(self):
        # Clouds of full numerical rank, one axis 1e-14 to 1e-13 thick.
        # Undoing that scale is an affine map, so qhull on the rescaled
        # cloud is the vertex oracle.  Where qhull raises on the thin
        # cloud, every row must stay a candidate.
        fallbacks = 0
        for d, seed in itertools.product(range(2, 6), range(30)):
            rng = np.random.default_rng([d, seed])
            n = int(rng.integers(d + 2, 101))
            thin = 10.0 ** rng.uniform(-14, -13)
            z = rng.normal(size=(n, d))
            z[:, -1] *= thin
            if geometry._affine_rank(z) < d:
                continue
            try:
                ConvexHull(z)
                continue
            except QhullError:
                fallbacks += 1
            rescaled = z.copy()
            rescaled[:, -1] /= thin
            oracle = set(ConvexHull(rescaled).vertices.tolist())
            with pytest.warns(
                HullFallbackWarning, match="^qhull could not build the hull; "
            ):
                verts = set(hull_vertices(z).tolist())
            assert oracle <= verts
        assert fallbacks >= 1

    @pytest.mark.parametrize("dim,n", [(2, 120), (3, 60)])
    def test_matches_lp_membership_oracle(self, dim, n):
        rng = np.random.default_rng(100 + dim)
        z = rng.normal(size=(n, dim))
        assert hull_vertices(z).tolist() == lp_hull_vertices(z).tolist()

    @pytest.mark.parametrize("scale", [1e-8, 1e8])
    def test_scaled_2d_cloud_matches_lp_oracle(self, scale):
        # The LP oracle's feasibility tolerances are absolute, so it runs
        # on the unscaled cloud; scaling leaves the vertex set unchanged.
        rng = np.random.default_rng(31)
        z = rng.normal(size=(80, 2))
        assert hull_vertices(scale * z).tolist() == lp_hull_vertices(z).tolist()

    def test_integer_grid_keeps_only_corners(self):
        z = np.array([[i, j] for i in range(11) for j in range(11)], dtype=float)
        assert hull_vertices(z).tolist() == lp_hull_vertices(z).tolist() == [0, 10, 110, 120]

    def test_points_on_hull_edges_are_not_vertices(self):
        rng = np.random.default_rng(12)
        corners = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        t = np.arange(1, 8)[:, None] / 8.0
        on_edges = [(1 - t) * corners[a] + t * corners[b] for a, b in ((0, 1), (1, 2), (2, 0))]
        z = np.vstack([triangle_cloud(rng, 30, corners)[3:], *on_edges, corners])
        z = z[rng.permutation(len(z))]
        verts = hull_vertices(z)
        assert verts.tolist() == lp_hull_vertices(z).tolist()
        assert sorted(map(tuple, z[verts])) == sorted(map(tuple, corners))

    @pytest.mark.parametrize("seed", range(6))
    def test_duplicate_vertex_rows_cover_every_extreme_position(self, seed):
        # Which twin is kept is not specified; by coordinates, every extreme
        # position has a candidate and no interior point is one.
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(25, 2))
        vertices = lp_hull_vertices(base)
        extreme = {tuple(p) for p in base[vertices]}
        z = np.vstack([base, base[vertices], base[rng.choice(len(base), size=10)]])
        z = z[rng.permutation(len(z))]
        kept = {tuple(p) for p in z[hull_vertices(z)]}
        assert kept == extreme

    def test_removing_interior_point_keeps_vertex_set(self):
        rng = np.random.default_rng(21)
        z = rng.normal(size=(40, 2))
        verts = set(hull_vertices(z).tolist())
        interior = next(i for i in range(len(z)) if i not in verts)
        reduced = np.delete(z, interior, axis=0)
        expected = {v if v < interior else v - 1 for v in verts}
        assert set(hull_vertices(reduced).tolist()) == expected


class TestSimplexLogVolume:
    def test_unit_right_triangle(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert simplex_log_volume(verts) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_collinear_is_minus_inf(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert simplex_log_volume(verts) == -math.inf

    def test_matches_determinant_oracle_in_3d(self):
        rng = np.random.default_rng(3)
        verts = rng.normal(size=(4, 3))
        edges = verts[1:] - verts[0]
        expected = math.log(abs(np.linalg.det(edges))) - math.log(math.factorial(3))
        assert simplex_log_volume(verts) == pytest.approx(expected, abs=1e-10)

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2**32 - 1))
    def test_permutation_and_rigid_motion_invariance(self, seed):
        rng = np.random.default_rng(seed)
        verts = rng.normal(size=(4, 5))
        base = simplex_log_volume(verts)
        perm = rng.permutation(4)
        assert simplex_log_volume(verts[perm]) == pytest.approx(base, abs=1e-9)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        moved = verts @ q.T + rng.normal(size=5)
        assert simplex_log_volume(moved) == pytest.approx(base, abs=1e-9)


class TestComboBlocks:
    """The blocks of combinations the exhaustive search scores exactly.

    With every subset degenerate the threshold never rises above -inf, so
    nothing is pruned and every subset reaches the exact scoring.
    """

    @staticmethod
    def scored_blocks(monkeypatch, m, k):
        blocks = []

        def recording(points, combos):
            blocks.append(combos.copy())
            return _batch_log_volumes(points, combos)

        def no_seed(*args, **kwargs):
            raise AllDegenerate("no seed")

        monkeypatch.setattr(geometry, "_batch_log_volumes", recording)
        monkeypatch.setattr(geometry, "max_volume_greedy", no_seed)
        try:
            max_volume_exhaustive(np.zeros((m, max(k - 1, 1))), k)
        except AllDegenerate:
            assert k > 1
        return blocks

    @pytest.mark.parametrize("m", range(1, 13))
    def test_concatenation_is_itertools_order(self, monkeypatch, m):
        for k in range(1, m + 1):
            expected = np.asarray(list(itertools.combinations(range(m), k)))
            for rows in (geometry._FRONTIER_ROWS, 7):
                monkeypatch.setattr(geometry, "_FRONTIER_ROWS", rows)
                blocks = self.scored_blocks(monkeypatch, m, k)
                assert max(map(len, blocks)) <= rows
                assert np.array_equal(np.concatenate(blocks), expected)

    @pytest.mark.parametrize("m,k", [(3, 0), (3, 4)])
    @pytest.mark.parametrize(
        "search", [max_volume_exhaustive, max_volume_greedy], ids=["exhaustive", "greedy"]
    )
    def test_rejects_out_of_range_k(self, search, m, k):
        with pytest.raises(ValueError, match="^need "):
            search(np.zeros((m, 2)), k)


class TestMaxVolumeExhaustive:
    def test_corners_beat_centroid(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0 / 3, 2.0 / 3]])
        assert max_volume_exhaustive(pts, 3).indices == (0, 1, 2)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(10, 2))
        result = max_volume_exhaustive(pts, 3)
        import itertools

        best = max(
            itertools.combinations(range(10), 3),
            key=lambda c: det_log_volume(pts[list(c)]),
        )
        assert result.indices == best
        assert result.log_volume == pytest.approx(
            det_log_volume(pts[list(best)]), abs=1e-12
        )

    def test_duplicate_corners_lexicographic_tie_break(self):
        pts = np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 0.0]]
        )
        assert max_volume_exhaustive(pts, 3).indices == (0, 1, 2)

    def test_budget_exceeded(self):
        rng = np.random.default_rng(0)
        assert math.comb(240, 3) > geometry.EXHAUSTIVE_BUDGET
        with pytest.raises(BudgetExceeded):
            max_volume_exhaustive(rng.normal(size=(240, 2)), 3)

    def test_all_degenerate(self):
        pts = np.column_stack([np.arange(5.0), np.arange(5.0)])
        with pytest.raises(AllDegenerate):
            max_volume_exhaustive(pts, 3)

    def test_result_independent_of_chunking(self):
        # Block-wise screened search against one exact batch over all subsets.
        rng = np.random.default_rng(61)
        pts = np.vstack(
            [rng.normal(size=(12, 2)), [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]]
        )
        assert_matches_exact_scan(pts, 3)
        # Every point twice: each maximal subset ties exactly with 2**3 - 1
        # others, and the lexicographically smallest must win.
        assert_matches_exact_scan(np.vstack([pts, pts]), 3)
        corners = pts[12:]
        assert_matches_exact_scan(np.vstack([corners, corners, pts]), 3)

    @pytest.mark.parametrize("scale", [1e130, 1e-130])
    def test_unscreened_blocks_match_exact_scan(self, scale):
        # Edge lengths outside the screen's range (one far point, or the
        # whole cloud at an extreme scale) are scored exactly; with the far
        # point, later blocks are screened against a best score above any
        # determinant the screen admits.
        rng = np.random.default_rng(62)
        for k in (3, 4):
            pts = np.vstack([np.eye(1, k - 1) * scale, rng.normal(size=(8, k - 1))])
            assert_matches_exact_scan(pts, k)
            assert_matches_exact_scan(rng.normal(size=(9, k - 1)) * scale, k)

    @settings(deadline=None, max_examples=80)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 5),
        st.sampled_from([-1, 1]),
        st.integers(0, 7),
        st.booleans(),
        st.booleans(),
    )
    def test_matches_exact_scan(self, seed, k, dim_offset, extra, duplicate, near):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(k + extra, k + dim_offset))
        if duplicate:
            pts = np.vstack([pts, pts[rng.integers(len(pts), size=2)]])
        if near:
            picks = pts[rng.integers(len(pts), size=2)]
            pts = np.vstack([pts, picks + 1e-13 * rng.normal(size=picks.shape)])
        assert_matches_exact_scan(pts, k)

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(3, 5),
        st.integers(2, 4),
        st.integers(0, 5),
    )
    @example(seed=2, k=3, d=2, extra=2)  # the exact scan finds no volume
    @example(seed=0, k=3, d=2, extra=2)  # rounding leaves one finite volume
    def test_collinear_matches_exact_scan(self, seed, k, d, extra):
        # Integer positions on an integer direction: the exact scan finds
        # every subset degenerate for most draws, and then the search must
        # raise AllDegenerate.
        rng = np.random.default_rng(seed)
        direction = rng.integers(1, 4, size=d).astype(float)
        positions = rng.integers(-8, 9, size=k + extra).astype(float)
        assert_matches_exact_scan(positions[:, None] * direction, k)

def study_candidates(seed):
    """Hull candidates of a study-shaped input (J=8, K=4, n=1e4)."""
    y, _ = make_ground_truth(10_000, 8, 4, "ar1", RngSpec(seed))
    return extract_candidates(row_normalize(y), EstimatorConfig(K=4)).z


def seed_cases():
    """Small clouds, with exact ties, near-duplicates and rounding-only
    volumes, for the seed and chunking tests: (points, k)."""
    rng = np.random.default_rng(63)
    pts = np.vstack([rng.normal(size=(9, 2)), [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
    cases = [(pts, 3), (np.vstack([pts, pts]), 3), (np.vstack([pts[9:], pts]), 3)]
    for k in (4, 5):
        cloud = rng.normal(size=(11, k - 1))
        cases.append((cloud, k))
        cases.append((np.vstack([cloud, cloud[:4], cloud[:2] + 1e-13]), k))
    cases.append((np.vstack([np.eye(1, 3) * 1e130, rng.normal(size=(9, 3))]), 4))
    # Collinear integer clouds: every subset is degenerate, and slogdet
    # scores some of them finite by rounding.
    for seed in range(10):
        for k in (4, 5):
            rng = np.random.default_rng(seed)
            direction = rng.integers(1, 4, size=3).astype(float)
            positions = rng.integers(-8, 9, size=k + 4).astype(float)
            cases.append((positions[:, None] * direction, k))
    return cases


class TestBranchAndBound:
    """The exhaustive search's result does not depend on its greedy seed,
    on how many prefixes it extends at once, or on its pruning, and the
    pruning does remove most subsets on study-shaped inputs."""

    @staticmethod
    def seeded_with(monkeypatch, mode, pts, k):
        combos = np.asarray(list(itertools.combinations(range(len(pts)), k)))
        lv = _batch_log_volumes(pts, combos)
        finite = np.flatnonzero(lv > -math.inf)

        def fake_greedy(candidates, kk, *args, **kwargs):
            if mode == "none" or finite.size == 0:
                raise AllDegenerate("no seed")
            pick = int(np.argmax(lv)) if mode == "optimum" else int(finite[np.argmin(lv[finite])])
            # Search order differs from sorted order; the seed is rescored.
            indices = tuple(int(i) for i in combos[pick][::-1])
            return VertexSubset(indices, float(lv[pick]))

        monkeypatch.setattr(geometry, "max_volume_greedy", fake_greedy)

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 5),
        st.integers(0, 7),
        st.booleans(),
        st.sampled_from(["optimum", "worst", "none"]),
    )
    def test_any_seed_matches_exact_scan(self, seed, k, extra, duplicate, mode):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(k + extra, k - 1))
        if duplicate:
            pts = np.vstack([pts, pts[rng.integers(len(pts), size=3)]])
        with pytest.MonkeyPatch.context() as mp:
            self.seeded_with(mp, mode, pts, k)
            assert_matches_exact_scan(pts, k)

    @pytest.mark.parametrize("mode", ["optimum", "worst", "none"])
    def test_any_seed_matches_exact_scan_on_fixed_cases(self, monkeypatch, mode):
        for pts, k in seed_cases():
            self.seeded_with(monkeypatch, mode, pts, k)
            assert_matches_exact_scan(pts, k)

    @pytest.mark.parametrize("rows", [1, 7])
    def test_result_independent_of_frontier_rows(self, monkeypatch, rows):
        def outcome(pts, k):
            try:
                result = max_volume_exhaustive(pts, k)
            except AllDegenerate:
                return None
            return result.indices, result.log_volume.hex()

        cases = seed_cases() + [(study_candidates(0), 4)] * (rows > 1)
        expected = [outcome(pts, k) for pts, k in cases]
        monkeypatch.setattr(geometry, "_FRONTIER_ROWS", rows)
        assert [outcome(pts, k) for pts, k in cases] == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_threshold_is_exact_without_slack(self, monkeypatch, seed):
        # With no rounding slack, only the margins keep the optimum: the
        # threshold must be the seed subset's own exact score, no higher.
        rng = np.random.default_rng(seed)
        monkeypatch.setattr(geometry, "_SCREEN_SLACK", 0.0)
        for k in (3, 4, 5):
            pts = rng.normal(size=(12, k - 1))
            self.seeded_with(monkeypatch, "optimum", pts, k)
            assert_matches_exact_scan(pts, k)

    @pytest.mark.parametrize("seed", range(3))
    def test_prunes_study_candidates(self, monkeypatch, seed):
        pts = study_candidates(seed)
        greedy = max_volume_greedy(pts, 4)
        scored = []

        def recording(points, combos):
            scored.append(len(combos))
            return _batch_log_volumes(points, combos)

        monkeypatch.setattr(geometry, "max_volume_greedy", lambda *a, **kw: greedy)
        monkeypatch.setattr(geometry, "_batch_log_volumes", recording)
        result = max_volume_exhaustive(pts, 4)
        assert sum(scored) <= 0.01 * math.comb(len(pts), 4)
        expected = exact_scan(pts, 4)
        assert result.indices == expected[0]
        assert result.log_volume.hex() == expected[1].hex()


class TestMaxVolumeGreedy:
    def test_exactly_k_candidates(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        result = max_volume_greedy(pts, 3)
        assert sorted(result.indices) == [0, 1, 2]

    def test_finds_corners_among_interior_points(self):
        rng = np.random.default_rng(9)
        pts = triangle_cloud(rng, 100)
        greedy = max_volume_greedy(pts, 3)
        exhaustive = max_volume_exhaustive(pts, 3)
        assert sorted(greedy.indices) == sorted(exhaustive.indices) == [0, 1, 2]

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(3, 5))
    # The same simplex as the exhaustive search's, found in another vertex
    # order; slogdet in that order scored it 1.8e-12 higher.
    @example(seed=120889764, k=5)
    def test_never_beats_exhaustive(self, seed, k):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(rng.integers(k, 15), k - 1))
        greedy = max_volume_greedy(pts, k)
        exhaustive = max_volume_exhaustive(pts, k)
        assert greedy.log_volume <= exhaustive.log_volume + 1e-12
        assert greedy.log_volume >= exhaustive.log_volume - 25.0  # sane, not junk

    def test_all_identical_points_degenerate(self):
        pts = np.ones((6, 2))
        with pytest.raises(AllDegenerate):
            max_volume_greedy(pts, 3)

    def test_sweep_cap_read_at_call_time(self, monkeypatch):
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(40, 3))
        start = tuple(geometry._atgp_indices(pts, 4))
        assert max_volume_greedy(pts, 4).indices != start
        monkeypatch.setattr(geometry, "MAX_SWEEPS", 0)
        assert max_volume_greedy(pts, 4).indices == start

    def test_collinear_swap_keeps_indices_distinct(self):
        # A swap onto an index already in the subset scores a rounded
        # finite volume; it must not be accepted over -inf.
        rng = np.random.default_rng(0)
        direction = rng.integers(1, 4, 3).astype(float)
        positions = rng.integers(-8, 9, 3).astype(float)
        with pytest.raises(AllDegenerate):
            max_volume_greedy(positions[:, None] * direction, 3)

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 5),
        st.integers(1, 4),
        st.integers(0, 5),
    )
    def test_collinear_distinct_or_all_degenerate(self, seed, k, d, extra):
        rng = np.random.default_rng(seed)
        direction = rng.integers(1, 4, size=d).astype(float)
        positions = rng.integers(-8, 9, size=k + extra).astype(float)
        try:
            result = max_volume_greedy(positions[:, None] * direction, k)
        except AllDegenerate:
            return
        assert len(set(result.indices)) == k


class TestAffineRightInverse:
    def test_identity_profile(self):
        r = affine_right_inverse(np.eye(2))
        haug = np.hstack([np.eye(2), np.ones((2, 1))])
        np.testing.assert_allclose(haug @ r, np.eye(2), atol=1e-12)

    def test_duplicate_rows_warn(self):
        h = np.tile(np.array([[0.25, 0.25, 0.5]]), (2, 1))
        with pytest.warns(RankDeficientWarning):
            affine_right_inverse(h)

    def test_random_full_rank_right_inverse(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            h = rng.dirichlet(np.ones(8), size=3)
            r = affine_right_inverse(h)
            haug = np.hstack([h, np.ones((3, 1))])
            assert np.abs(haug @ r - np.eye(3)).max() <= 1e-8


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: VertexSubset((0, 0), 0.0), ValueError, "subset indices must be distinct"),
        (
            lambda: VertexSubset((0, 1), math.nan),
            ValueError,
            "log_volume must be finite or -inf",
        ),
        (
            lambda: intrinsic_projection(np.array([[0.5, 0.5]]), 1),
            DegenerateCloud,
            "need at least two points to project",
        ),
        (lambda: intrinsic_projection(np.eye(3), 0), ValueError, "rank_cap must be >= 1"),
        (lambda: hull_vertices(np.zeros(3)), ValueError, "expected an (n, d) array"),
        (lambda: hull_vertices(np.zeros((3, 0))), ValueError, "dimension must be >= 1"),
        (
            lambda: hull_vertices(np.eye(2)),
            DegenerateCloud,
            "2 points cannot span a 2-dimensional hull",
        ),
        (
            lambda: simplex_log_volume(np.zeros((1, 2))),
            ValueError,
            "need at least two vertices",
        ),
        (
            lambda: simplex_log_volume(np.zeros((3, 1))),
            ValueError,
            "3 points need ambient dimension >= 2",
        ),
        (lambda: affine_right_inverse(np.ones(3)), ValueError, "expected a (K, J) matrix"),
        (
            lambda: affine_right_inverse(np.array([[1.5, -0.5]])),
            ValueError,
            "profile matrix must be non-negative",
        ),
        (
            lambda: affine_right_inverse(np.array([[0.5, 0.6]])),
            ValueError,
            "profile rows must sum to 1 within 1e-8",
        ),
    ],
    ids=[
        "subset-repeated-index",
        "subset-nan-volume",
        "projection-one-point",
        "projection-rank-cap",
        "hull-not-2d",
        "hull-no-dimension",
        "hull-too-few-points",
        "volume-one-vertex",
        "volume-low-dimension",
        "right-inverse-not-2d",
        "right-inverse-negative",
        "right-inverse-off-simplex",
    ],
)
def test_invalid_input_raises(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()
