import dataclasses
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment, nnls

from conftest import (
    brute_force_align,
    face_enumeration_distances,
    scalar_nfd,
    scalar_nrmse,
)

from apportion import evaluation, geometry
from apportion.evaluation import (
    StudyDesign,
    _distances_to_polytope,
    align_rows,
    convergence_study,
    hausdorff_to_polytope,
    nfd,
    nrmse,
    summarize_records,
)
from apportion.exceptions import (
    HullFallbackWarning,
    NotContainedWarning,
    ShapeMismatch,
    ZeroNormRow,
)
from apportion.synthgen import RngSpec, make_ground_truth


class TestAlignRows:
    def test_swapped_rows(self):
        rng = np.random.default_rng(1)
        phi = rng.dirichlet(np.ones(3), size=4).T  # wide, rows sum free
        result = align_rows(phi, phi[[1, 0, 2]])
        assert result.permutation == (1, 0, 2)
        assert result.total_sq_distance == 0.0

    def test_identity(self):
        rng = np.random.default_rng(2)
        phi = rng.uniform(size=(4, 6))
        result = align_rows(phi, phi)
        assert result.permutation == (0, 1, 2, 3)

    def test_matches_brute_force_for_k3(self):
        rng = np.random.default_rng(3)
        a, b = rng.uniform(size=(3, 8)), rng.uniform(size=(3, 8))
        result = align_rows(a, b)
        perm, total = brute_force_align(a, b)
        assert result.permutation == perm
        assert result.total_sq_distance == pytest.approx(total, rel=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
    def test_assignment_solver_agrees_with_brute_force(self, k):
        rng = np.random.default_rng(40 + k)
        a, b = rng.uniform(size=(k, 5)), rng.uniform(size=(k, 5))
        cost = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        rows, cols = linear_sum_assignment(cost)
        _, brute_total = brute_force_align(a, b)
        assert cost[rows, cols].sum() == pytest.approx(brute_total, rel=1e-12)
        assert align_rows(a, b).total_sq_distance == pytest.approx(
            brute_total, rel=1e-12
        )

    def test_large_k_uses_assignment(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(size=(9, 4))
        perm = rng.permutation(9)
        result = align_rows(a, a[perm])
        assert result.total_sq_distance == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_array_equal(a[perm][list(result.permutation)], a)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            align_rows(np.ones((2, 3)), np.ones((3, 3)))

    @pytest.mark.parametrize("kind", ["random", "integer", "duplicated"])
    def test_matches_scipy_oracle(self, kind):
        # Random costs have a unique optimum, so the permutation must match;
        # integer costs and duplicated rows tie, so only the total must.
        rng = np.random.default_rng(["random", "integer", "duplicated"].index(kind))
        for _ in range(10):
            for k in range(1, 31):
                j = int(rng.integers(1, 10))
                if kind == "integer":
                    a, b = rng.integers(0, 3, size=(2, k, j)).astype(float)
                else:
                    a, b = rng.uniform(size=(2, k, j))
                if kind == "duplicated":
                    b = a[rng.permutation(k)]
                    b[rng.integers(k)] = b[rng.integers(k)]
                cost = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
                rows, cols = linear_sum_assignment(cost)
                result = align_rows(a, b)
                assert sorted(result.permutation) == list(range(k))
                expected = float(cost[rows, cols].sum())
                assert result.total_sq_distance.hex() == expected.hex()
                if kind == "random":
                    assert result.permutation == tuple(cols.tolist())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_raises_value_error(self, bad, side):
        pair = [np.ones((3, 2)), np.zeros((3, 2))]
        pair[side][1, 0] = bad
        with pytest.raises(ValueError, match="invalid numeric entries"):
            align_rows(*pair)


class TestMetrics:
    def test_zero_when_equal(self):
        rng = np.random.default_rng(5)
        phi = rng.dirichlet(np.ones(4), size=3)
        assert nrmse(phi, phi) == 0.0
        assert nfd(phi, phi) == 0.0

    def test_scalar_collapse(self):
        assert nrmse(np.array([[1.0]]), np.array([[0.9]])) == pytest.approx(0.1)

    def test_nfd_of_zero_estimate_is_one(self):
        rng = np.random.default_rng(6)
        phi = rng.dirichlet(np.ones(3), size=3)
        assert nfd(phi, np.zeros_like(phi)) == pytest.approx(1.0)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_match_scalar_oracles(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.01, 1.0, size=(3, 8))
        b = rng.uniform(0.0, 1.0, size=(3, 8))
        assert nrmse(a, b) == pytest.approx(scalar_nrmse(a, b), abs=1e-12)
        assert nfd(a, b) == pytest.approx(scalar_nfd(a, b), abs=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**32 - 1))
    def test_invariant_under_joint_row_permutation(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.01, 1.0, size=(4, 5))
        b = rng.uniform(0.0, 1.0, size=(4, 5))
        perm = rng.permutation(4)
        assert nrmse(a[perm], b[perm]) == pytest.approx(nrmse(a, b), abs=1e-14)
        assert nfd(a[perm], b[perm]) == pytest.approx(nfd(a, b), abs=1e-14)

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(7)
        a = rng.dirichlet(np.ones(4), size=3)
        b = a.copy()
        b[0, 0] += 1e-6
        assert nrmse(a, b) > 0 and nfd(a, b) > 0

    def test_zero_norm_row_rejected(self):
        with pytest.raises(ZeroNormRow):
            nrmse(np.array([[0.0, 0.0]]), np.array([[0.0, 0.0]]))


class TestHausdorff:
    def test_zero_when_profiles_sampled(self):
        rng = np.random.default_rng(8)
        hstar = rng.dirichlet(np.ones(5), size=3)
        weights = rng.dirichlet(np.ones(3), size=60)
        ystar = np.vstack([hstar, weights @ hstar])
        assert hausdorff_to_polytope(ystar, hstar) <= 1e-6

    def test_centroid_against_equilateral_simplex(self):
        hstar = np.eye(3)
        ystar = np.full((1, 3), 1.0 / 3.0)
        expected = math.sqrt(2.0 / 3.0)  # corner-to-centroid distance
        assert hausdorff_to_polytope(ystar, hstar) == pytest.approx(
            expected, abs=1e-9
        )

    def test_nested_prefixes_non_increasing(self):
        y, truth = make_ground_truth(2000, 6, 3, "ar1", RngSpec(30))
        ystar = y.values / y.values.sum(axis=1, keepdims=True)
        hstar = truth.H / truth.H.sum(axis=1, keepdims=True)
        values = [
            hausdorff_to_polytope(ystar[:n], hstar) for n in (50, 400, 2000)
        ]
        assert values[1] <= values[0] + 1e-9
        assert values[2] <= values[1] + 1e-9

    def test_not_contained_warning(self):
        hstar = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        outside = np.array([[1.0, 0.0, 0.0]])
        with pytest.warns(NotContainedWarning):
            hausdorff_to_polytope(outside, hstar)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_three_dim_span_against_closed_form(self, k):
        # sample hull = simplex a I + b 1 shrunk toward the centroid
        # (a + k b = 1); every corner is farthest, and its nearest point is
        # the matching shrunk vertex, at distance
        # ||(k - 1) b e_1 - b (1 - e_1)|| = sqrt(k (k - 1)) b
        b = 0.075
        shrunk = (1.0 - k * b) * np.eye(k) + b
        value = hausdorff_to_polytope(shrunk, np.eye(k))
        assert value == pytest.approx(math.sqrt(k * (k - 1)) * b, abs=1e-12)

    def test_rejects_off_simplex(self):
        with pytest.raises(ValueError):
            hausdorff_to_polytope(np.array([[0.7, 0.7]]), np.eye(2))

    @pytest.mark.parametrize(
        "ystar, hstar",
        [
            ([[np.nan, 0.5, 0.5]], np.eye(3)),
            ([[np.inf, 0.0, 0.0]], np.eye(3)),
            (np.eye(3), [[np.nan, 0.5, 0.5], [0.0, 1.0, 0.0]]),
            (np.eye(3), np.empty((0, 3))),
            (np.empty((0, 3)), np.eye(3)),
        ],
        ids=[
            "nan-ystar",
            "inf-ystar",
            "nan-hstar",
            "empty-hstar",
            "empty-ystar",
        ],
    )
    def test_rejects_invalid_inputs(self, ystar, hstar):
        with pytest.raises(ValueError):
            hausdorff_to_polytope(np.asarray(ystar), np.asarray(hstar))

    def test_above_cap_sample_rows_without_hull(self):
        # Rank 11 sample rows, above geometry.HULL_DIM_MAX: the distance is
        # to conv(every row), with no hull step and so no fallback warning,
        # bitwise the value pinned when the rows went through the hull.
        rng = np.random.default_rng(61)
        ystar = rng.dirichlet(np.ones(12), size=80)
        with warnings.catch_warnings():
            warnings.simplefilter("error", HullFallbackWarning)
            value = hausdorff_to_polytope(ystar, np.eye(12))
        assert value.hex() == "0x1.95f5a8d85b647p-1"

    def test_no_hull_at_nine_sources(self, monkeypatch):
        # (J, K) = (12, 9), n = 3000: the shape at which a qhull step on the
        # sample rows took about a minute.  The diagnostic needs no hull.
        def no_hull(*args, **kwargs):
            raise AssertionError("hull_vertices called")

        y, truth = make_ground_truth(3000, 12, 9, "ar1", RngSpec(1))
        ystar = y.values / y.values.sum(axis=1, keepdims=True)
        hstar = truth.H / truth.H.sum(axis=1, keepdims=True)
        monkeypatch.setattr(geometry, "hull_vertices", no_hull)
        with warnings.catch_warnings():
            warnings.simplefilter("error", HullFallbackWarning)
            value = hausdorff_to_polytope(ystar, hstar)
        assert 0.0 < value < 1.0

    @settings(deadline=None, max_examples=100)
    @given(
        d=st.integers(1, 5),
        m=st.integers(1, 8),
        k=st.integers(1, 4),
        structure=st.sampled_from(["generic", "thin", "integer", "dependent"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_face_enumeration_max(self, d, m, k, structure, seed):
        # Sample rows and profiles in R^d, lifted onto the simplex's affine
        # span in R^(d+1) by appending 1 - (sum of coordinates).
        rng = np.random.default_rng(seed)
        ystar = _on_simplex(_polytope_case(rng, d, m, structure))
        hstar = _on_simplex(rng.normal(size=(k, d)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NotContainedWarning)
            value = hausdorff_to_polytope(ystar, hstar)
        expected = face_enumeration_distances(hstar, ystar).max()
        assert value == pytest.approx(expected, rel=0.0, abs=1e-12)

    def test_containment_count_matches_face_enumeration(self):
        rng = np.random.default_rng(11)
        hstar = rng.dirichlet(np.ones(6), size=4)
        inside = rng.dirichlet(np.ones(4), size=40) @ hstar
        # Leave conv(hstar) within its affine span (weights summing to one
        # with one negative entry), by 1e-9 to 1e-1.
        step = np.logspace(-9, -1, 40)[:, None]
        weights = np.hstack([-step, (1.0 + step) * rng.dirichlet(np.ones(3), size=40)])
        ystar = np.vstack([inside, weights @ hstar])
        expected = int((face_enumeration_distances(ystar, hstar) > 1e-8).sum())
        with pytest.warns(NotContainedWarning, match=f"^{expected} sample rows"):
            hausdorff_to_polytope(ystar, hstar)


def _polytope_case(rng, d, m, structure):
    if structure == "generic":
        return rng.normal(size=(m, d))
    if structure == "thin":
        vertices = rng.normal(size=(m, d))
        vertices[:, -1] *= 10.0 ** -rng.integers(2, 9)
        return vertices
    if structure == "integer":
        return rng.integers(-2, 3, size=(m, d)).astype(float)
    # affinely dependent: m points in an affine subspace of lower dimension
    rank = int(rng.integers(0, max(1, min(d, m - 1))))
    base = rng.normal(size=(rank + 1, d))
    return rng.dirichlet(np.ones(rank + 1), size=m) @ base


def _on_simplex(points):
    return np.hstack([points, 1.0 - points.sum(axis=1, keepdims=True)])


class TestDistancesToPolytope:
    @settings(deadline=None, max_examples=200)
    @given(
        d=st.integers(1, 5),
        m=st.integers(1, 8),
        structure=st.sampled_from(["generic", "thin", "integer", "dependent"]),
        duplicates=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_face_enumeration(self, d, m, structure, duplicates, seed):
        rng = np.random.default_rng(seed)
        vertices = _polytope_case(rng, d, m, structure)
        for _ in range(duplicates):
            vertices[rng.integers(m)] = vertices[rng.integers(m)]
        affine = rng.normal(size=(8, m))
        affine += (1.0 - affine.sum(axis=1, keepdims=True)) / m
        points = np.vstack(
            [
                rng.dirichlet(np.ones(m), size=8) @ vertices,  # inside
                rng.dirichlet(np.full(m, 0.2), size=8) @ vertices,  # near faces
                affine @ vertices,  # in the affine span, mostly outside
                2.0 * rng.normal(size=(8, d)),  # anywhere
                vertices,
            ]
        )
        if structure == "integer":
            points = np.vstack([points, rng.integers(-3, 4, size=(8, d))])
        np.testing.assert_allclose(
            _distances_to_polytope(points, vertices),
            face_enumeration_distances(points, vertices),
            rtol=0.0,
            atol=1e-12,
        )

    @pytest.mark.parametrize("block", [1, 7])
    def test_blocks_do_not_change_results(self, monkeypatch, block):
        rng = np.random.default_rng(12)
        vertices = rng.normal(size=(9, 4))
        inside = rng.dirichlet(np.ones(9), size=10) @ vertices
        points = np.vstack([2.0 * rng.normal(size=(40, 4)), inside])
        whole = _distances_to_polytope(points, vertices)
        monkeypatch.setattr(evaluation, "_MNP_BLOCK_ROWS", block)
        np.testing.assert_array_equal(_distances_to_polytope(points, vertices), whole)

    @pytest.mark.parametrize(
        "seed, row", [(2, 604), (4, 1466), (14, 583), (26, 1783), (29, 919), (44, 943)]
    )
    def test_best_vertex_already_in_corral_ends_the_point(self, seed, row):
        # 9-D points whose major step picks, by a rounding-level gap, a
        # vertex already in the corral: adding a second copy made the KKT
        # system singular (LinAlgError).
        y, _ = make_ground_truth(2000, 30, 10, "ar1", RngSpec(seed))
        ystar = y.values / y.values.sum(axis=1, keepdims=True)
        z = geometry.intrinsic_projection(ystar, 9)
        point, vertices = z[row : row + 1], z[:400]
        # Oracle: nonnegative least squares with the weights' sum-to-one
        # row scaled up to act as an equality constraint.
        big = 1e6
        weights, _ = nnls(
            np.vstack([vertices.T, np.full((1, len(vertices)), big)]),
            np.append(point[0], big),
        )
        expected = np.linalg.norm(weights @ vertices - point[0])
        value = _distances_to_polytope(point, vertices)
        np.testing.assert_allclose(value, [expected], rtol=0.0, atol=1e-12)

    def test_segment_and_square_closed_forms(self):
        segment = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        points = np.array([[-1.0, 0.0, 0.0], [1.0, 3.0, 4.0], [4.0, 0.0, 1.0]])
        np.testing.assert_allclose(
            _distances_to_polytope(points, segment),
            [1.0, 5.0, math.sqrt(5.0)],
            rtol=0.0,
            atol=1e-15,
        )
        square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]])
        points = np.array([[0.25, 0.75], [2.0, 0.5], [-3.0, -4.0], [0.5, 1.0]])
        np.testing.assert_allclose(
            _distances_to_polytope(points, square), [0.0, 1.0, 5.0, 0.0], rtol=0.0, atol=1e-15
        )


def _strip_runtime(records):
    return [dataclasses.replace(r, runtime_seconds=0.0) for r in records]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def small_both():
    design = StudyDesign(
        process="ar1",
        J=6,
        K=3,
        n_grid=(60, 150),
        replicates=4,
        search="both",
        master_seed=99,
    )
    return design, convergence_study(design)


class TestConvergenceStudy:
    def test_record_counts_and_labels(self, small_both):
        design, records = small_both
        assert len(records) == 2 * len(design.n_grid) * design.replicates
        assert {r.search_used for r in records} == {"greedy", "exhaustive"}
        assert all(not r.error for r in records)
        assert all(
            np.isfinite(r.nrmse) and r.nrmse >= 0 and np.isfinite(r.nfd)
            for r in records
        )

    def test_exhaustive_log_volume_dominates(self, small_both):
        _, records = small_both
        by_key = {(r.n, r.replicate, r.search_used): r for r in records}
        for (n, rep, search) in list(by_key):
            if search != "greedy":
                continue
            greedy = by_key[(n, rep, "greedy")]
            exhaustive = by_key[(n, rep, "exhaustive")]
            assert exhaustive.log_volume >= greedy.log_volume - 1e-12

    def test_worker_count_does_not_change_results(self, small_both):
        design, sequential = small_both
        for workers in (2, 3, 8):
            parallel = convergence_study(design, workers=workers)
            assert _strip_runtime(sequential) == _strip_runtime(parallel), workers
        _assert_no_child_left()

    def test_without_fork_runs_serially(self, small_both, monkeypatch):
        design, sequential = small_both
        monkeypatch.delattr(os, "fork")
        records = convergence_study(design, workers=4)
        assert _strip_runtime(records) == _strip_runtime(sequential)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_raises(self, workers):
        design = StudyDesign(J=5, K=3, n_grid=(60,), replicates=1)
        with pytest.raises(ValueError, match="^workers must be >= 1$"):
            convergence_study(design, workers=workers)

    @pytest.mark.parametrize(
        "workers, n_grid, replicates, expected",
        [(64, (60, 80), 2, 3), (3, (60, 80), 2, 2), (8, (60,), 1, 0), (1, (60, 80), 2, 0)],
    )
    def test_forks_capped_at_task_count(
        self, monkeypatch, workers, n_grid, replicates, expected
    ):
        forks, real_fork = [], os.fork

        def counting_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        design = StudyDesign(J=5, K=3, n_grid=n_grid, replicates=replicates)
        records = convergence_study(design, workers=workers)
        # The caller runs one share itself and forks one child per other share.
        assert len(forks) == expected
        assert len(records) == len(n_grid) * replicates

    def test_child_error_names_its_task(self, monkeypatch):
        caller, run_task = os.getpid(), evaluation._run_study_task

        def failing_in_children(design, task):
            if os.getpid() != caller:
                raise ZeroDivisionError("planted")
            return run_task(design, task)

        monkeypatch.setattr(evaluation, "_run_study_task", failing_in_children)
        design = StudyDesign(J=5, K=3, n_grid=(60, 80), replicates=2)
        # Largest n first, dealt round-robin: the child's first task is (80, 1).
        with pytest.raises(
            RuntimeError, match=r"n=80, replicate=1 failed .*: ZeroDivisionError: planted$"
        ):
            convergence_study(design, workers=2)
        _assert_no_child_left()

    def test_child_exit_before_report_names_status(self, monkeypatch):
        caller, run_task = os.getpid(), evaluation._run_study_task

        def exiting_in_children(design, task):
            if os.getpid() != caller:
                os._exit(3)
            return run_task(design, task)

        monkeypatch.setattr(evaluation, "_run_study_task", exiting_in_children)
        design = StudyDesign(J=5, K=3, n_grid=(60, 80), replicates=2)
        with pytest.raises(RuntimeError, match="exited with status 3 before reporting"):
            convergence_study(design, workers=4)
        _assert_no_child_left()

    def test_caller_error_reaps_children(self, monkeypatch):
        caller, run_task = os.getpid(), evaluation._run_study_task

        def failing_in_caller(design, task):
            if os.getpid() == caller:
                raise ZeroDivisionError("planted")
            return run_task(design, task)

        monkeypatch.setattr(evaluation, "_run_study_task", failing_in_caller)
        design = StudyDesign(J=5, K=3, n_grid=(60, 80), replicates=2)
        with pytest.raises(ZeroDivisionError, match="^planted$"):
            convergence_study(design, workers=3)
        _assert_no_child_left()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_failed_fork_reaps_children_and_closes_pipes(self, monkeypatch):
        forks, real_fork = [], os.fork

        def failing_second_fork():
            forks.append(1)
            if len(forks) == 2:
                raise BlockingIOError("planted")
            return real_fork()

        monkeypatch.setattr(os, "fork", failing_second_fork)
        design = StudyDesign(J=5, K=3, n_grid=(60, 80), replicates=2)
        open_fds = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError, match="^planted$"):
            convergence_study(design, workers=4)
        assert sorted(os.listdir("/proc/self/fd")) == open_fds
        _assert_no_child_left()

    def test_summary_rows(self, small_both):
        design, records = small_both
        summary = summarize_records(records)
        assert len(summary) == 2 * len(design.n_grid)
        for row in summary:
            assert row["count"] == design.replicates
            assert row["nrmse_q1"] <= row["nrmse_median"] <= row["nrmse_q3"]

    def test_design_validation(self):
        with pytest.raises(ValueError):
            StudyDesign(search="fastest")
        with pytest.raises(ValueError):
            StudyDesign(K=8, J=8)
        with pytest.raises(ValueError):
            StudyDesign(process="iid")
        # What the generator would reject, before any task runs.
        with pytest.raises(ValueError, match="n_grid entry"):
            StudyDesign(n_grid=(200, 0))
        # Repeated entries would share an n but draw from different streams.
        with pytest.raises(ValueError, match="^n_grid entry 300 is repeated$"):
            StudyDesign(n_grid=(100, 300, 1500, 300))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("J", 8.0),
            ("K", 3.5),
            ("replicates", 1.5),
            ("n_grid", (100.7, "300")),
            ("n_grid", (100, True)),
            ("master_seed", 1.5),
            ("master_seed", -1),
        ],
    )
    def test_sizes_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match="must be an integer"):
            StudyDesign(**{field: value})

    def test_numpy_integer_sizes_become_ints(self):
        design = StudyDesign(
            J=np.int64(8), K=np.int32(3), n_grid=(np.int64(100),), replicates=np.int64(2)
        )
        assert design == StudyDesign(n_grid=(100,), replicates=2)
        sizes = [design.J, design.K, design.replicates, *design.n_grid]
        assert all(type(v) is int for v in sizes)

    def test_failures_recorded_not_fatal(self):
        design = StudyDesign(
            process="ar1", J=6, K=3, n_grid=(3, 60), replicates=2, master_seed=5
        )
        records = convergence_study(design)
        failed = [r for r in records if r.error]
        fine = [r for r in records if not r.error]
        assert len(failed) == 2 and all(r.n == 3 for r in failed)
        assert all("[apportion]" in r.error and math.isnan(r.nrmse) for r in failed)
        assert len(fine) == 2 and all(np.isfinite(r.nrmse) for r in fine)
