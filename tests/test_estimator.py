import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import aligned_estimate, lp_hull_vertices, random_row_stochastic

from apportion import geometry
from apportion.estimator import (
    SEARCH_MODES,
    AttributionMatrix,
    ConcentrationMatrix,
    EstimatorConfig,
    apportion,
    compute_phi,
    estimate_H_star,
    estimate_mu_tilde,
    extract_candidates,
    row_normalize,
)
from apportion.exceptions import (
    DegenerateCloud,
    DroppedRowsWarning,
    HullFallbackWarning,
    NegativeMeanWarning,
    ZeroDenominator,
)
from apportion.synthgen import RngSpec, make_ground_truth, true_phi


def separable_data(rng, n=300, j=8, k=3, corner_scale=2.0):
    """Noiseless Y = WH whose W contains one pure row c_k e_k per source."""
    h = random_row_stochastic(rng, k, j)
    w = rng.lognormal(0.0, 0.4, size=(n, k))
    for source in range(k):
        w[source] = 0.0
        w[source, source] = corner_scale
    return ConcentrationMatrix(w @ h), w, h


class TestRowNormalize:
    def test_single_row(self):
        data = row_normalize(ConcentrationMatrix(np.array([[2.0, 2.0]])))
        assert data.ystar.tolist() == [[0.5, 0.5]]

    def test_zero_row_dropped_with_warning(self):
        y = ConcentrationMatrix(np.array([[0.0, 0.0], [1.0, 3.0]]))
        with pytest.warns(DroppedRowsWarning):
            data = row_normalize(y)
        assert data.ystar.tolist() == [[0.25, 0.75]]
        assert data.kept_rows.tolist() == [1]

    def test_round_trip_recovers_scales(self):
        rng = np.random.default_rng(2)
        ystar = rng.dirichlet(np.ones(5), size=50)
        r = rng.uniform(0.1, 10.0, size=50)
        data = row_normalize(ConcentrationMatrix(r[:, None] * ystar))
        np.testing.assert_allclose(data.ystar, ystar, atol=1e-12)


class TestExtractCandidates:
    def test_profile_rows_are_candidates(self):
        rng = np.random.default_rng(8)
        hstar = random_row_stochastic(rng, 3, 6)
        weights = rng.dirichlet(np.ones(3), size=200)
        ystar = np.vstack([hstar, weights @ hstar])
        data = row_normalize(ConcentrationMatrix(ystar))
        cands = extract_candidates(data, EstimatorConfig(K=3))
        for row in hstar:
            assert (np.abs(cands.ystar - row).max(axis=1) < 1e-12).any()

    def test_hull_count_matches_lp_oracle(self):
        rng = np.random.default_rng(3)
        y, _, _ = separable_data(rng, n=120, j=8, k=3)
        data = row_normalize(y)
        cfg = EstimatorConfig(K=3)
        cands = extract_candidates(data, cfg)
        assert len(cands.indices) >= 3
        from apportion.geometry import intrinsic_projection

        z = intrinsic_projection(data.ystar, cfg.K - 1)
        assert sorted(cands.indices.tolist()) == lp_hull_vertices(z).tolist()

    def test_too_few_rows(self):
        # Fewer than K rows span fewer than K - 1 dimensions.
        data = row_normalize(ConcentrationMatrix(np.array([[1.0, 2, 3, 4], [5, 1, 2, 7]])))
        with pytest.raises(DegenerateCloud) as err:
            extract_candidates(data, EstimatorConfig(K=3))
        assert str(err.value) == "rows span 1 dimensions; K=3 sources need 2"

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_k_rows_of_rank_k_minus_1_are_the_estimate(self, k):
        rng = np.random.default_rng(k)
        y = ConcentrationMatrix(rng.lognormal(size=(k, k + 3)))
        est = apportion(y, EstimatorConfig(K=k))
        np.testing.assert_array_equal(est.h_star_hat, row_normalize(y).ystar)
        assert est.diagnostics.subset_rows == tuple(range(k))
        assert est.diagnostics.search_used == "exhaustive"

    def test_high_rank_falls_back_to_all_rows(self):
        rng = np.random.default_rng(71)
        ystar = rng.dirichlet(np.ones(12), size=40)
        data = row_normalize(ConcentrationMatrix(ystar))
        cfg = EstimatorConfig(K=10)
        with pytest.warns(HullFallbackWarning):
            cands = extract_candidates(data, cfg)
        assert cands.indices.tolist() == list(range(40))
        assert cands.z.shape[1] == 9

    @pytest.mark.parametrize("search", ["auto", "greedy"])
    def test_k_above_data_rank_is_rejected(self, search):
        # Three sources span 2 dimensions; four sources need 3.  Without
        # the check the searches return a rounding-error simplex.
        y, _ = make_ground_truth(2000, 8, 3, "ar1", RngSpec(0))
        with pytest.raises(DegenerateCloud) as err:
            apportion(y, EstimatorConfig(K=4, search=search))
        assert err.value.stage == "extract_candidates"
        assert str(err.value) == (
            "[extract_candidates] rows span 2 dimensions; K=4 sources need 3"
        )


class TestEstimateHStar:
    def test_corner_candidates_win(self):
        rng = np.random.default_rng(13)
        hstar = random_row_stochastic(rng, 3, 8)
        weights = rng.dirichlet(np.ones(3), size=150)
        ystar = np.vstack([hstar, weights @ hstar])
        data = row_normalize(ConcentrationMatrix(ystar))
        cfg = EstimatorConfig(K=3)
        est, _, _ = estimate_H_star(extract_candidates(data, cfg), cfg)
        np.testing.assert_allclose(
            np.sort(est, axis=0), np.sort(hstar, axis=0), atol=1e-10
        )

    def test_separable_recovery_within_1e10(self):
        rng = np.random.default_rng(23)
        y, _, h = separable_data(rng)
        data = row_normalize(y)
        cfg = EstimatorConfig(K=3)
        est, _, _ = estimate_H_star(extract_candidates(data, cfg), cfg)
        hstar = h / h.sum(axis=1, keepdims=True)
        assert np.abs(np.sort(est, axis=0) - np.sort(hstar, axis=0)).max() <= 1e-10

    def test_greedy_matches_exhaustive_on_synthetic_draw(self):
        y, _ = make_ground_truth(100, 8, 3, "ar1", RngSpec(41))
        cands = extract_candidates(row_normalize(y), EstimatorConfig(K=3))
        _, sub_g, used_g = estimate_H_star(cands, EstimatorConfig(K=3, search="greedy"))
        _, sub_e, used_e = estimate_H_star(cands, EstimatorConfig(K=3))
        assert (used_g, used_e) == ("greedy", "exhaustive")
        same_subset = sorted(sub_g.indices) == sorted(sub_e.indices)
        assert same_subset or sub_e.log_volume - sub_g.log_volume <= 1e-9

    def test_auto_reads_budget_at_call_time(self, monkeypatch):
        y, _ = make_ground_truth(100, 8, 3, "ar1", RngSpec(41))
        m = apportion(y, EstimatorConfig(K=3)).diagnostics.n_hull_vertices
        monkeypatch.setattr(geometry, "EXHAUSTIVE_BUDGET", math.comb(m, 3))
        assert apportion(y, EstimatorConfig(K=3)).diagnostics.search_used == "exhaustive"
        for budget in (math.comb(m, 3) - 1, 0):
            monkeypatch.setattr(geometry, "EXHAUSTIVE_BUDGET", budget)
            # Past the budget neither mode raises BudgetExceeded; auto is greedy.
            auto = apportion(y, EstimatorConfig(K=3))
            greedy = apportion(y, EstimatorConfig(K=3, search="greedy"))
            assert auto.diagnostics == greedy.diagnostics
            assert auto.diagnostics.search_used == "greedy"
            np.testing.assert_array_equal(auto.phi_hat.values, greedy.phi_hat.values)


class TestEstimateMuTilde:
    def test_right_inverse_identity_recovers_means(self):
        rng = np.random.default_rng(31)
        hstar = random_row_stochastic(rng, 3, 8)
        w_tilde = rng.lognormal(0.0, 0.5, size=(400, 3))
        y = ConcentrationMatrix(w_tilde @ hstar)
        m = estimate_mu_tilde(y, hstar)
        np.testing.assert_allclose(m, w_tilde.mean(axis=0), atol=1e-10)

    def test_single_source_mean_is_average_row_sum(self):
        rng = np.random.default_rng(6)
        hstar = rng.dirichlet(np.ones(4))[None, :]
        w = rng.lognormal(0.0, 0.3, size=(100, 1))
        y = ConcentrationMatrix(w @ hstar)
        m = estimate_mu_tilde(y, hstar)
        assert m[0] == pytest.approx(y.values.sum(axis=1).mean(), rel=1e-12)

    def test_negative_means_clipped_with_warning(self):
        # Y lies outside the cone of the supplied profile rows, forcing a
        # negative right-inverse coefficient
        hstar = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
        y = ConcentrationMatrix(np.array([[1.0, 1e-6, 1e-6]] * 4))
        with pytest.warns(NegativeMeanWarning):
            m = estimate_mu_tilde(y, hstar)
        assert m.min() == 0.0
        assert m[0] == pytest.approx(16.0 / 11.0, rel=1e-9)


class TestComputePhi:
    def test_single_source_all_ones(self):
        phi = compute_phi(np.array([2.0]), np.array([[0.3, 0.7]]))
        assert phi.values.tolist() == [[1.0, 1.0]]

    def test_disjoint_sources_identity(self):
        phi = compute_phi(np.array([1.0, 1.0]), np.eye(2))
        np.testing.assert_array_equal(phi.values, np.eye(2))

    def test_matches_scalar_evaluation(self):
        m = np.array([2.0, 1.0])
        h = np.array([[0.5, 0.5], [1.0, 0.0]])
        phi = compute_phi(m, h)
        for j in range(2):
            den = m[0] * h[0, j] + m[1] * h[1, j]
            for k in range(2):
                assert phi.values[k, j] == pytest.approx(m[k] * h[k, j] / den, abs=1e-15)

    def test_zero_denominator_column(self):
        h = np.array([[0.5, 0.5, 0.0], [0.3, 0.7, 0.0]])
        with pytest.raises(ZeroDenominator) as err:
            compute_phi(np.array([1.0, 1.0]), h)
        assert err.value.column == 2

    def test_zero_denominator_names_pollutant_and_cause(self):
        h = np.array([[0.5, 0.0, 0.5], [0.3, 0.0, 0.7]])
        with pytest.raises(ZeroDenominator) as err:
            compute_phi(np.array([1.0, 1.0]), h, pollutant_names=("Al", "SO4", "Zn"))
        assert err.value.column == 1
        assert str(err.value) == (
            "column 1 ('SO4') has zero attribution denominator: no selected"
            " profile row puts mass on this pollutant, as happens when values"
            " below a detection limit are recorded as zeros"
        )

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2**32 - 1))
    def test_row_scaling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.uniform(0.1, 5.0, size=3)
        h = rng.dirichlet(np.ones(5), size=3)
        d = rng.uniform(0.01, 100.0, size=3)
        base = compute_phi(m, h).values
        scaled = compute_phi(m / d, d[:, None] * h).values
        np.testing.assert_allclose(scaled, base, atol=1e-12)


class TestApportion:
    def test_three_corner_toy_exact(self):
        rng = np.random.default_rng(51)
        y, w, h = separable_data(rng)
        est = apportion(y, EstimatorConfig(K=3))
        target = true_phi(w.mean(axis=0), h).values
        aligned = aligned_estimate(target, est.phi_hat.values)
        assert np.abs(aligned - target).max() <= 1e-8
        assert np.abs(est.h_star_hat.sum(axis=1) - 1.0).max() <= 1e-10

    def test_column_rescaling_keeps_phi(self):
        rng = np.random.default_rng(52)
        y, _, _ = separable_data(rng)
        scales = 10.0 ** rng.uniform(-3, 3, size=y.n_pollutants)
        base = apportion(y, EstimatorConfig(K=3)).phi_hat.values
        scaled = apportion(
            ConcentrationMatrix(y.values * scales), EstimatorConfig(K=3)
        ).phi_hat.values
        aligned = aligned_estimate(base, scaled)
        assert np.abs(aligned - base).max() <= 1e-8

    def test_duplicated_pollutant_column_still_runs(self):
        rng = np.random.default_rng(53)
        y, _, _ = separable_data(rng, j=5)
        doubled = ConcentrationMatrix(
            np.hstack([y.values, y.values[:, -1:]])
        )
        est = apportion(doubled, EstimatorConfig(K=3))
        assert np.abs(est.phi_hat.values.sum(axis=0) - 1.0).max() <= 1e-10

    def test_subset_rows_index_the_normalized_data(self):
        rng = np.random.default_rng(56)
        y, _, _ = separable_data(rng, n=80)
        # Leading zero rows are dropped, so normalized-data indices differ
        # from row numbers of Y.
        vals = np.vstack([np.zeros((2, y.values.shape[1])), y.values])
        est = apportion(ConcentrationMatrix(vals), EstimatorConfig(K=3))
        rows = est.diagnostics.subset_rows
        assert len(rows) == 3
        assert set(rows) <= set(est.candidates.indices.tolist())
        with pytest.warns(DroppedRowsWarning):
            data = row_normalize(ConcentrationMatrix(vals))
        np.testing.assert_array_equal(data.ystar[list(rows)], est.h_star_hat)

    def test_stage_label_on_failure(self):
        y = ConcentrationMatrix(np.tile([[1.0, 2.0, 1.0]], (5, 1)))
        with pytest.raises(DegenerateCloud) as err:
            apportion(y, EstimatorConfig(K=2))
        assert err.value.stage == "extract_candidates"
        assert err.value.warnings == ()

    def test_failure_keeps_the_warnings_issued_before_it(self):
        y = ConcentrationMatrix(np.array([[1.0, 2, 3, 4], [0, 0, 0, 0], [5, 1, 2, 7]]))
        with pytest.raises(DegenerateCloud, match="rows span 1 dimensions") as err:
            apportion(y, EstimatorConfig(K=3))
        assert err.value.stage == "extract_candidates"
        assert err.value.warnings == ("dropped 1 zero-concentration rows",)

    def test_deterministic(self):
        y, _ = make_ground_truth(200, 8, 3, "ar1", RngSpec(77))
        a = apportion(y, EstimatorConfig(K=3))
        b = apportion(y, EstimatorConfig(K=3))
        np.testing.assert_array_equal(a.phi_hat.values, b.phi_hat.values)
        assert a.diagnostics == b.diagnostics

    def test_above_cap_warning_in_diagnostics(self):
        rng = np.random.default_rng(72)
        y, _, _ = separable_data(rng, n=40, j=12, k=10)
        diag = apportion(y, EstimatorConfig(K=10)).diagnostics
        assert diag.warnings == (
            "hull dimension 9 above cap; keeping all rows as candidates",
        )
        assert (diag.r_b, diag.n_hull_vertices, diag.search_used) == (9, 40, "greedy")

    def test_zero_rows_reported_in_warnings(self):
        rng = np.random.default_rng(55)
        y, _, h = separable_data(rng, n=60)
        vals = np.vstack([y.values, np.zeros((2, y.values.shape[1]))])
        est = apportion(ConcentrationMatrix(vals), EstimatorConfig(K=3))
        assert any("zero-concentration" in w for w in est.diagnostics.warnings)


class TestAgainstReferencePipeline:
    def test_matches_frozen_straight_line_implementation(self):
        # the standalone script in scripts/ is an independent rewrite of
        # the same estimator; both must agree on identical inputs
        path = Path(__file__).resolve().parent.parent / "scripts" / "pilot_reference.py"
        spec = importlib.util.spec_from_file_location("pilot_reference", path)
        pilot = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(pilot)
        for seed in range(5):
            y, _ = make_ground_truth(400, 8, 3, "ar1", RngSpec(1000 + seed))
            ours = apportion(y, EstimatorConfig(K=3, search="greedy")).phi_hat.values
            reference = pilot.estimate_phi(y.values)
            aligned = aligned_estimate(reference, ours)
            assert np.abs(aligned - reference).max() <= 1e-12


class TestConcentrationMatrix:
    @pytest.mark.parametrize(
        "values",
        [np.zeros((4, 3)), np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 0.5]])],
        ids=["all-zero", "zero-column"],
    )
    def test_rejects_a_column_without_a_positive_entry(self, values):
        with pytest.raises(ValueError, match="every pollutant column"):
            ConcentrationMatrix(values)

    def test_rejects_a_repeated_pollutant_name(self):
        with pytest.raises(ValueError, match="^pollutant name 'a' is repeated$"):
            ConcentrationMatrix(np.ones((3, 4)), ("a", "a", "b", "c"))


class TestConfigValidation:
    def test_rejects_bad_search(self):
        # auto runs the exhaustive search within its budget.
        assert SEARCH_MODES == ("auto", "greedy")
        for search in ("random", "exhaustive"):
            with pytest.raises(ValueError, match="^search must be one of"):
                EstimatorConfig(K=3, search=search)

    @pytest.mark.parametrize("k", [3.0, np.float64(3.0), "3", True])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(ValueError, match="K must be an integer"):
            EstimatorConfig(K=k)

    def test_k_must_be_at_least_two(self):
        # One source has nothing to estimate: every fraction is 1.
        with pytest.raises(ValueError, match=r"^K must be >= 2: "):
            EstimatorConfig(K=1)

    def test_numpy_integer_k_becomes_int(self):
        cfg = EstimatorConfig(K=np.int64(3))
        assert type(cfg.K) is int and cfg == EstimatorConfig(K=3)

    def test_k_must_be_below_j(self):
        y = ConcentrationMatrix(np.ones((10, 3)) + np.eye(10, 3))
        with pytest.raises(ValueError):
            apportion(y, EstimatorConfig(K=3))


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: ConcentrationMatrix(np.ones(3)), "expected an (n, J) matrix"),
        (
            lambda: ConcentrationMatrix(np.ones((2, 3)), ("a", "b")),
            "one name per pollutant column required",
        ),
        (lambda: AttributionMatrix(np.ones(3)), "expected a (K, J) matrix"),
        (
            lambda: AttributionMatrix(np.array([[1.5, 1.0], [-0.5, 0.0]])),
            "attribution entries must lie in [0, 1]",
        ),
        (
            lambda: AttributionMatrix(np.array([[0.5, 0.5], [0.4, 0.5]])),
            "attribution columns must sum to 1 within 1e-10",
        ),
        (
            lambda: AttributionMatrix(np.eye(2), pollutant_names=("a",)),
            "one name per pollutant column required",
        ),
        (
            lambda: compute_phi(np.ones(3), np.eye(2)),
            "m_tilde must have one entry per profile row",
        ),
        (
            lambda: compute_phi(np.array([1.0, -1.0]), np.eye(2)),
            "m_tilde must be non-negative",
        ),
    ],
    ids=[
        "concentrations-not-2d",
        "concentrations-name-count",
        "attribution-not-2d",
        "attribution-outside-unit-interval",
        "attribution-column-sums",
        "attribution-name-count",
        "phi-shape-mismatch",
        "phi-negative-means",
    ],
)
def test_invalid_input_raises(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
