import hashlib
import itertools
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from apportion import geometry
from apportion.exceptions import DegenerateCloud, GenerationFailed
from apportion.synthgen import (
    GroundTruth,
    LogAR1Params,
    LognormalMixtureParams,
    RngSpec,
    _maximin_subset,
    draw_ar1_params,
    draw_mixture_params,
    generate_profile_matrix,
    make_ground_truth,
    population_mean_log_ar1,
    population_mean_mixture,
    simulate_log_ar1,
    simulate_lognormal_mixture,
    true_phi,
)


def maximin_reference(points, k):
    """First K-subset in itertools order with the largest minimum
    pairwise squared distance."""
    diff = points[:, None, :] - points[None, :, :]
    dist2 = (diff**2).sum(axis=2)
    best_val, best = -1.0, None
    for combo in itertools.combinations(range(len(points)), k):
        val = min((dist2[a, b] for a, b in itertools.combinations(combo, 2)), default=math.inf)
        if val > best_val:
            best_val, best = val, combo
    return best


def lag1_autocorr(x):
    return float(np.corrcoef(x[:-1], x[1:])[0, 1])


class TestProfileMatrix:
    def test_two_sources_on_segment(self):
        h = generate_profile_matrix(2, 2, RngSpec(1))
        np.testing.assert_allclose(h.sum(axis=1), 1.0, atol=1e-12)
        assert np.abs(h[0] - h[1]).max() > 1e-6

    def test_full_rank_by_oracle(self):
        h = generate_profile_matrix(8, 3, RngSpec(2))
        assert h.shape == (3, 8)
        assert h.min() > 0
        np.testing.assert_allclose(h.sum(axis=1), 1.0, atol=1e-12)
        assert np.linalg.matrix_rank(h) == 3

    def test_deterministic(self):
        a = generate_profile_matrix(6, 3, RngSpec(3, 5))
        b = generate_profile_matrix(6, 3, RngSpec(3, 5))
        np.testing.assert_array_equal(a, b)


    @pytest.mark.parametrize(
        "seed,digest",
        [
            (0, "f6788f1b0afffb70b20f133f5fe29f4ced972993931a16b0adc265f9666af624"),
            (1, "e28667a2e4d182a6f92c0838cead496d4d4c5d5901af8b1e1501047094585f30"),
            (2, "74116691cf1b2a38044ef0e79f41fa02bf7081d4fe6ea8ffd72732c813a570f4"),
        ],
    )
    def test_bytes_pinned(self, seed, digest):
        # Digests of the output of a plain itertools maximin enumeration
        # over the hull vertices of the 40 draws.
        h = generate_profile_matrix(8, 4, RngSpec(seed))
        assert hashlib.sha256(h.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "seed,digest",
        [
            (0, "11b4181a7bdd3066477a4cc86cdc0637ba6b60b09b5af4cd2362f203bd9c74e7"),
            (1, "f3c6487cfd2f30cc1623067f7ef22c2ed2f297353e177d7b348b19c63587e863"),
            (2, "f44fdb5413546126f97b736117c47d99d0408c3c57ad4a463c2c61b745ab1e3e"),
        ],
    )
    def test_bytes_pinned_simulate_shape(self, seed, digest):
        # The (J, K) = (8, 3) of `apportion simulate`, same reference.
        h = generate_profile_matrix(8, 3, RngSpec(seed))
        assert hashlib.sha256(h.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("J,K,n_candidates", [(8, 4, 40), (20, 8, 80)])
    def test_runs_no_hull(self, monkeypatch, J, K, n_candidates):
        def no_hull(*args, **kwargs):
            raise AssertionError("the profile generator must not build a hull")

        projected = []
        projection = geometry.intrinsic_projection

        def spy(points, *args, **kwargs):
            projected.append(points.shape)
            return projection(points, *args, **kwargs)

        monkeypatch.setattr(geometry, "hull_vertices", no_hull)
        monkeypatch.setattr(geometry, "intrinsic_projection", spy)
        h = generate_profile_matrix(J, K, RngSpec(0))
        assert h.shape == (K, J)
        assert projected == [(n_candidates, J)]

    @pytest.mark.parametrize("J", [2, 5, 8])
    def test_square_is_full_rank_and_row_stochastic(self, J):
        h = generate_profile_matrix(J, J, RngSpec(4))
        assert h.shape == (J, J)
        assert h.min() >= 0
        np.testing.assert_allclose(h.sum(axis=1), 1.0, atol=1e-12)
        assert np.linalg.matrix_rank(h) == J

    @pytest.mark.parametrize("J,K,n_candidates", [(8, 3, 30), (8, 4, 40), (9, 4, 40)])
    def test_pick_over_all_draws_equals_pick_over_hull_vertices(
        self, J, K, n_candidates
    ):
        # For K < J the maximin K-subset of these draws always lies on
        # their hull, and both picks break ties by index order, so skipping
        # the hull changes no output.  The hull is an oracle here only.
        for seed in range(30):
            gen = RngSpec(seed).generator()
            cand = gen.standard_exponential((n_candidates, J))
            cand /= cand.sum(axis=1, keepdims=True)
            z = geometry.intrinsic_projection(cand, rank_cap=J - 1)
            verts = geometry.hull_vertices(z)
            over_hull = tuple(verts[list(_maximin_subset(z[verts], K))])
            pick = _maximin_subset(z, K)
            assert pick == over_hull, seed
            h = generate_profile_matrix(J, K, RngSpec(seed))
            np.testing.assert_array_equal(h, cand[list(pick)])


@st.composite
def maximin_cases(draw):
    """(points, k): Gaussian points, rounded to an integer grid (many exactly
    tied distances), or resampled with replacement (duplicated rows)."""
    k = draw(st.integers(1, 6))
    extra = draw(st.integers(0, 7))
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["normal", "grid", "duplicates"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.normal(size=(k + extra, d))
    if kind == "grid":
        points = np.round(points)
    elif kind == "duplicates":
        points = points[rng.integers(0, len(points), len(points))]
    return points, k


class TestMaximinSubset:
    @settings(deadline=None, max_examples=100)
    @given(maximin_cases())
    @example((np.zeros((6, 2)), 4))  # all points identical
    @example((np.eye(5), 3))  # regular simplex: every distance tied
    @example((np.array([[0.0], [3.0], [1.0], [7.0]]), 4))  # k == m
    def test_matches_itertools_reference(self, case):
        points, k = case
        assert _maximin_subset(points, k) == maximin_reference(points, k)

    @pytest.mark.parametrize(
        "k,expected",
        [
            # One point per position, the first of each run of ties.
            (5, (0, 6, 12, 18, 24)),
            # Seven points on five positions always repeat one, so every
            # 7-subset scores 0 and the first one wins.
            (7, (0, 1, 2, 3, 4, 5, 6)),
        ],
    )
    def test_tied_one_dimensional_points(self, k, expected):
        # 30 points on 5 positions: too many subsets for the reference, and
        # a hard case for the clique search, which must prove that no
        # k-subset clears a threshold above the optimum.
        points = np.repeat(np.arange(5.0), 6)[:, None]
        start = time.perf_counter()
        assert _maximin_subset(points, k) == expected
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("m", [40, 103, 700])
    def test_distances_bitwise_equal_unblocked(self, monkeypatch, m):
        # The squared distances are built a block of rows at a time; each
        # entry must be the bits of the all-pairs expression.  The upper
        # triangle's rows reach np.concatenate as views of that matrix.
        seen = []
        concatenate = np.concatenate

        def spy(arrays, *args, **kwargs):
            seen.append(arrays[1].base.copy())
            return concatenate(arrays, *args, **kwargs)

        points = np.random.default_rng(m).normal(size=(m, 7))
        monkeypatch.setattr(np, "concatenate", spy)
        _maximin_subset(points, 2)
        diff = points[:, None, :] - points[None, :, :]
        assert seen[0].tobytes() == (diff**2).sum(axis=2).tobytes()

    def test_peak_memory_below_twice_the_distances(self):
        # The thresholds come from the upper triangle sorted in place, not
        # from a sorted copy of all m^2 distances.
        m = 1000
        cand = RngSpec(0).generator().standard_exponential((m, 8))
        cand /= cand.sum(axis=1, keepdims=True)
        z = geometry.intrinsic_projection(cand, rank_cap=7)
        tracemalloc.start()
        try:
            _maximin_subset(z, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * m * m * 8

    def test_rejects_k_above_point_count(self):
        with pytest.raises(ValueError):
            _maximin_subset(np.zeros((3, 2)), 4)


# Three distinct coefficients, one of them shared by sources 0 and 2.
_MIXED_AR1 = LogAR1Params(
    phi=[0.8, -0.5, 0.8, 0.0], mu_g=[0.3, -0.2, 0.1, 0.0], sigma_eps=[0.4, 0.15, 0.3, 0.2]
)


class TestLogAR1:
    def test_zero_noise_is_constant(self):
        params = LogAR1Params(
            np.array([0.8]), np.array([0.3]), np.array([0.0])
        )
        w = simulate_log_ar1(100, params, RngSpec(4))
        np.testing.assert_allclose(w, math.exp(0.3), rtol=1e-15)

    def test_independent_when_phi_zero(self):
        params = LogAR1Params(np.array([0.0]), np.array([0.0]), np.array([0.3]))
        w = simulate_log_ar1(100000, params, RngSpec(5))
        assert abs(lag1_autocorr(np.log(w[:, 0]))) < 0.05

    def test_autocorrelation_near_phi(self):
        params = LogAR1Params(np.array([0.8]), np.array([0.1]), np.array([0.4]))
        w = simulate_log_ar1(100000, params, RngSpec(6))
        assert lag1_autocorr(np.log(w[:, 0])) == pytest.approx(0.8, abs=0.02)

    def test_stationary_marginal_by_ks(self):
        # one KS test of size 1e5 per fixed time index, built from iid
        # replicate columns sharing the same parameters
        reps = 100000
        params = LogAR1Params(
            np.full(reps, 0.8), np.full(reps, 0.2), np.full(reps, 0.4)
        )
        w = simulate_log_ar1(3, params, RngSpec(7))
        sd = 0.4 / math.sqrt(1 - 0.64)
        crit = 1.63 / math.sqrt(reps)  # alpha = 0.01
        for i in (0, 2):
            stat = stats.kstest(np.log(w[i]), "norm", args=(0.2, sd)).statistic
            assert stat < crit

    @pytest.mark.parametrize("phi", [0.8, -0.5, 0.99, 0.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 1000, 100000])
    def test_bitwise_equals_sequential_recursion(self, n, phi):
        params = LogAR1Params(np.full(2, phi), np.array([0.3, -0.2]), np.array([0.4, 0.15]))
        rng = RngSpec(11)
        w = simulate_log_ar1(n, params, rng)
        for k in range(2):
            gen = rng.substream(k + 1).generator()
            sigma, mu = float(params.sigma_eps[k]), float(params.mu_g[k])
            start = gen.normal(0.0, sigma / math.sqrt(1.0 - phi * phi))
            driven = [start, *gen.normal(0.0, sigma, size=n - 1)]
            centered = itertools.accumulate(driven, lambda c, x: x + phi * c)
            expected = np.exp(mu + np.fromiter(centered, float, n))
            assert w[:, k].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 1000])
    def test_mixed_coefficients_equal_sequential_recursion(self, n):
        # Sources 0 and 2 share a solve; each column is still its own
        # source's recursion.
        w = simulate_log_ar1(n, _MIXED_AR1, RngSpec(12))
        for k, phi in enumerate(_MIXED_AR1.phi.tolist()):
            gen = RngSpec(12).substream(k + 1).generator()
            sigma, mu = float(_MIXED_AR1.sigma_eps[k]), float(_MIXED_AR1.mu_g[k])
            start = gen.normal(0.0, sigma / math.sqrt(1.0 - phi * phi))
            driven = [start, *gen.normal(0.0, sigma, size=n - 1)]
            centered = itertools.accumulate(driven, lambda c, x: x + phi * c)
            expected = np.exp(mu + np.fromiter(centered, float, n))
            assert w[:, k].tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "params,columns",
        [(draw_ar1_params(4, RngSpec(2)), [4]), (_MIXED_AR1, [1, 1, 2])],
        ids=["draw_ar1_params", "mixed"],
    )
    def test_one_dgtsv_call_per_distinct_coefficient(self, monkeypatch, params, columns):
        from scipy.linalg import lapack

        solve, calls = lapack.dgtsv, []

        def counting(dl, d, du, b):
            calls.append(b.shape)
            return solve(dl, d, du, b)

        monkeypatch.setattr(lapack, "dgtsv", counting)
        simulate_log_ar1(100, params, RngSpec(1))
        assert calls == [(100, c) for c in columns]

    def test_population_mean_trivial_cases(self):
        p0 = LogAR1Params(np.array([0.5]), np.array([0.0]), np.array([0.0]))
        assert population_mean_log_ar1(p0)[0] == 1.0
        p1 = LogAR1Params(np.array([0.8]), np.array([0.0]), np.array([0.6]))
        assert population_mean_log_ar1(p1)[0] == pytest.approx(math.exp(0.5), rel=1e-12)

    def test_rejects_nonstationary(self):
        with pytest.raises(ValueError):
            LogAR1Params(np.array([1.0]), np.array([0.0]), np.array([0.2]))


_VALID_PARAMS = {
    LogAR1Params: dict(phi=[0.8, 0.5], mu_g=[0.1, -0.2], sigma_eps=[0.3, 0.2]),
    LognormalMixtureParams: dict(weights=[0.4, 0.6], means=[0.0, 1.0], sds=[0.5, 0.2]),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "cls,field", [(cls, field) for cls, fields in _VALID_PARAMS.items() for field in fields]
)
def test_params_reject_non_finite(cls, field, bad):
    values = {name: np.array(v) for name, v in _VALID_PARAMS[cls].items()}
    values[field][1] = bad
    if cls is LognormalMixtureParams:
        values = {name: (v,) for name, v in values.items()}
    with pytest.raises(ValueError):
        cls(**values)


class TestDrawAR1Params:
    def test_paper_ranges(self):
        params = draw_ar1_params(50, RngSpec(8))
        assert np.all(params.phi == 0.8)
        assert params.mu_g.min() >= -0.5 and params.mu_g.max() <= 0.5
        assert params.sigma_eps.min() >= 0.15 and params.sigma_eps.max() <= 0.5

    def test_reproducible(self):
        a = draw_ar1_params(4, RngSpec(9))
        b = draw_ar1_params(4, RngSpec(9))
        np.testing.assert_array_equal(a.mu_g, b.mu_g)
        np.testing.assert_array_equal(a.sigma_eps, b.sigma_eps)

    def test_location_centered(self):
        params = draw_ar1_params(10000, RngSpec(10))
        assert abs(params.mu_g.mean()) < 0.02


class TestLognormalMixture:
    def test_single_component_zero_sd_constant(self):
        params = LognormalMixtureParams(
            (np.array([1.0]),), (np.array([0.4]),), (np.array([0.0]),)
        )
        w = simulate_lognormal_mixture(50, params, RngSpec(11))
        np.testing.assert_allclose(w, math.exp(0.4), rtol=1e-15)

    def test_deterministic(self):
        params = draw_mixture_params(3, RngSpec(12))
        a = simulate_lognormal_mixture(200, params, RngSpec(13))
        b = simulate_lognormal_mixture(200, params, RngSpec(13))
        np.testing.assert_array_equal(a, b)

    def test_population_mean_trivial_cases(self):
        single = LognormalMixtureParams(
            (np.array([1.0]),), (np.array([0.0]),), (np.array([0.0]),)
        )
        assert population_mean_mixture(single)[0] == 1.0
        half = LognormalMixtureParams(
            (np.array([0.5, 0.5]),), (np.zeros(2),), (np.zeros(2),)
        )
        assert population_mean_mixture(half)[0] == 1.0

    def test_population_mean_matches_quadrature(self):
        params = draw_mixture_params(3, RngSpec(14))
        closed = population_mean_mixture(params)
        for k in range(3):
            total = 0.0
            for pi, mu, sd in zip(params.weights[k], params.means[k], params.sds[k]):
                lo, hi = mu + sd**2 - 14 * sd, mu + sd**2 + 14 * sd
                val, _ = integrate.quad(
                    lambda x, m=mu, s=sd: math.exp(x) * stats.norm.pdf(x, m, s),
                    lo,
                    hi,
                )
                total += pi * val
            assert closed[k] == pytest.approx(total, abs=1e-6, rel=1e-6)


class TestDrawMixtureParams:
    def test_component_structure(self):
        params = draw_mixture_params(30, RngSpec(15))
        for w in params.weights:
            assert w.size >= 1
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
        for s in params.sds:
            assert s.min() >= 0.1 and s.max() <= 1.0

    def test_reproducible(self):
        a = draw_mixture_params(5, RngSpec(16))
        b = draw_mixture_params(5, RngSpec(16))
        for x, y in zip(a.weights, b.weights):
            np.testing.assert_array_equal(x, y)

    def test_component_count_mean(self):
        params = draw_mixture_params(10000, RngSpec(17))
        counts = np.array([w.size for w in params.weights])
        assert counts.mean() == pytest.approx(4.0, abs=0.1)


class TestTruePhi:
    def test_single_source(self):
        phi = true_phi(np.array([3.0]), np.array([[0.2, 0.8]]))
        assert phi.values.tolist() == [[1.0, 1.0]]

    def test_identity(self):
        phi = true_phi(np.array([1.0, 1.0]), np.eye(2))
        np.testing.assert_array_equal(phi.values, np.eye(2))

    def test_row_scaling_invariance(self):
        rng = np.random.default_rng(18)
        mu = rng.uniform(0.5, 2.0, 3)
        h = rng.dirichlet(np.ones(6), size=3)
        d = rng.uniform(0.01, 100.0, 3)
        base = true_phi(mu, h).values
        scaled = true_phi(mu / d, d[:, None] * h).values
        np.testing.assert_allclose(scaled, base, atol=1e-12)


class TestMakeGroundTruth:
    def test_ar1_configuration(self):
        y, truth = make_ground_truth(400, 8, 3, "ar1", RngSpec(19))
        assert y.values.shape == (400, 8)
        assert truth.W.shape == (400, 3) and truth.H.shape == (3, 8)
        assert y.values.min() >= 0 and np.isfinite(y.values).all()
        np.testing.assert_allclose(y.values, truth.W @ truth.H, rtol=1e-15)
        np.testing.assert_allclose(
            truth.phi_true.values,
            true_phi(truth.mu, truth.H).values,
            atol=1e-12,
        )

    def test_mixture_configuration(self):
        y, truth = make_ground_truth(100, 10, 5, "mixture", RngSpec(20))
        assert y.values.shape == (100, 10)
        assert truth.H.shape == (5, 10)

    def test_round_trip_determinism(self):
        y1, t1 = make_ground_truth(150, 8, 3, "ar1", RngSpec(21))
        y2, t2 = make_ground_truth(150, 8, 3, "ar1", RngSpec(21))
        np.testing.assert_array_equal(y1.values, y2.values)
        np.testing.assert_array_equal(t1.W, t2.W)
        np.testing.assert_array_equal(t1.H, t2.H)

    def test_rejects_bad_process(self):
        with pytest.raises(ValueError):
            make_ground_truth(50, 8, 3, "iid", RngSpec(23))

    @pytest.mark.parametrize(
        "seed,digest",
        [
            (0, "193641316d516d99c31d4639bd860b2f9eee98a8d4ed3671633962a4009dbda9"),
            (1, "ded134565870c069e59559b8d764efafc31bbd6b74c18dced847b183503b177f"),
            (2, "9e76c97628d64c8ed2521bed2f4e06cb7ffb64880c40d8b14a3a923da6f90e2b"),
        ],
    )
    def test_ar1_bytes_pinned(self, seed, digest):
        # Digests of the output when the recursion ran through
        # scipy.signal.lfilter.
        y, _ = make_ground_truth(1000, 8, 3, "ar1", RngSpec(seed))
        assert hashlib.sha256(y.values.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("J,K", [(12, 6), (12, 7), (20, 8), (30, 10)])
    def test_many_sources(self, J, K):
        y, truth = make_ground_truth(200, J, K, "ar1", RngSpec(24))
        assert y.values.shape == (200, J)
        assert truth.W.shape == (200, K) and truth.H.shape == (K, J)
        assert np.linalg.matrix_rank(truth.H) == K
        np.testing.assert_allclose(truth.phi_true.values.sum(axis=0), 1.0, atol=1e-12)


def _mixture(weights=((0.4, 0.6),), means=((0.0, 1.0),), sds=((0.5, 0.2),)):
    return LognormalMixtureParams(
        *(tuple(np.array(v, dtype=float) for v in field) for field in (weights, means, sds))
    )


_AR1 = LogAR1Params(phi=[0.8], mu_g=[0.0], sigma_eps=[0.3])


@pytest.mark.parametrize(
    "build,message",
    [
        (
            lambda: LogAR1Params(phi=[0.8, 0.5], mu_g=[0.1], sigma_eps=[0.3, 0.2]),
            "phi, mu_g, sigma_eps must be equal-length vectors",
        ),
        (
            lambda: LogAR1Params(phi=[0.8], mu_g=[0.1], sigma_eps=[-0.3]),
            "sigma_eps must be non-negative",
        ),
        (
            lambda: LognormalMixtureParams((np.ones(1),), (), (np.ones(1),)),
            "one (weights, means, sds) triple per source",
        ),
        (lambda: _mixture(means=((0.0,),)), "component vectors must match in length"),
        (lambda: _mixture(weights=((0.5, 0.6),)), "weights must lie on the simplex"),
        (lambda: _mixture(weights=((1.5, -0.5),)), "weights must lie on the simplex"),
        (lambda: _mixture(sds=((0.5, -0.2),)), "component sds must be non-negative"),
        (
            lambda: GroundTruth(W=-np.ones((2, 1)), H=np.ones((1, 3)), mu=np.ones(1), phi_true=None),
            "W and H must be non-negative",
        ),
        (
            lambda: GroundTruth(W=np.ones((2, 2)), H=np.ones((2, 3)), mu=np.ones(2), phi_true=None),
            "H must have full row rank",
        ),
        (lambda: generate_profile_matrix(3, 4, RngSpec(1)), "need 1 <= K <= J"),
        (lambda: generate_profile_matrix(3, 0, RngSpec(1)), "need 1 <= K <= J"),
        (lambda: simulate_log_ar1(0, _AR1, RngSpec(1)), "n must be >= 1"),
        (lambda: simulate_lognormal_mixture(0, _mixture(), RngSpec(1)), "n must be >= 1"),
        (lambda: draw_ar1_params(0, RngSpec(1)), "K must be >= 1"),
        (lambda: draw_mixture_params(0, RngSpec(1)), "K must be >= 1"),
        (lambda: true_phi(np.ones(3), np.eye(2)), "mu must have one entry per row of H"),
        (lambda: true_phi(np.ones((2, 1)), np.eye(2)), "mu must have one entry per row of H"),
        (
            lambda: true_phi(np.array([1.0, -1.0]), np.eye(2)),
            "mu must be non-negative with a positive entry",
        ),
        (lambda: true_phi(np.zeros(2), np.eye(2)), "mu must be non-negative with a positive entry"),
        (lambda: make_ground_truth(50, 8, 8, "ar1", RngSpec(1)), "need 1 <= K < J"),
        (lambda: make_ground_truth(50, 8, 0, "ar1", RngSpec(1)), "need 1 <= K < J"),
        (
            lambda: LognormalMixtureParams(([0.4, 0.7],), ([0.0, 1.0],), ([0.5, 0.2],)),
            "weights must lie on the simplex",
        ),
        (
            lambda: LognormalMixtureParams(([0.4, 0.6],), ([0.0],), ([0.5, 0.2],)),
            "component vectors must match in length",
        ),
        (lambda: RngSpec(-1), "master_seed must be an integer >= 0, got -1"),
        (lambda: RngSpec(1, -2), "stream_id must be an integer >= 0, got -2"),
        (lambda: RngSpec(1.5), "master_seed must be an integer, got 1.5"),
        (lambda: RngSpec(1, True), "stream_id must be an integer, got True"),
    ],
    ids=[
        "ar1-unequal-lengths",
        "ar1-negative-sigma",
        "mixture-triple-count",
        "mixture-component-lengths",
        "mixture-weights-sum",
        "mixture-weights-negative",
        "mixture-negative-sds",
        "truth-negative",
        "truth-rank-deficient",
        "profile-K-above-J",
        "profile-K-zero",
        "ar1-no-rows",
        "mixture-no-rows",
        "draw-ar1-no-sources",
        "draw-mixture-no-sources",
        "true-phi-mu-length",
        "true-phi-mu-not-vector",
        "true-phi-negative-mu",
        "true-phi-zero-mu",
        "ground-truth-K-equals-J",
        "ground-truth-K-zero",
        "mixture-list-weights-sum",
        "mixture-list-component-lengths",
        "rng-negative-seed",
        "rng-negative-stream",
        "rng-float-seed",
        "rng-bool-stream",
    ],
)
def test_invalid_input_raises(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_mixture_params_accept_lists():
    params = LognormalMixtureParams(([0.4, 0.6],), ([0.0, 1.0],), ([0.5, 0.2],))
    arrays = _mixture()
    for name in ("weights", "means", "sds"):
        (got,), (want,) = getattr(params, name), getattr(arrays, name)
        assert got.dtype == float
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(
        population_mean_mixture(params), population_mean_mixture(arrays)
    )


def test_rng_spec_takes_numpy_integers():
    spec = RngSpec(np.int64(3), np.uint32(5))
    assert spec == RngSpec(3, 5)
    assert type(spec.master_seed) is int and type(spec.stream_id) is int
    np.testing.assert_array_equal(
        spec.generator().random(4), RngSpec(3, 5).generator().random(4)
    )


def test_generation_fails_after_100_degenerate_draws(monkeypatch):
    calls = []

    def degenerate(cand, rank_cap):
        calls.append(len(cand))
        raise DegenerateCloud("all rows identical: centered cloud has rank 0")

    monkeypatch.setattr(geometry, "intrinsic_projection", degenerate)
    with pytest.raises(
        GenerationFailed, match="^no full-row-rank profile matrix in 100 attempts$"
    ):
        generate_profile_matrix(5, 3, RngSpec(1))
    assert calls == [30] * 100


def test_ar1_raises_when_dgtsv_fails(monkeypatch):
    from scipy.linalg import lapack

    def failing(dl, d, du, b):
        return dl, d, du, b, 3

    monkeypatch.setattr(lapack, "dgtsv", failing)
    with pytest.raises(RuntimeError, match="^dgtsv failed with info=3$"):
        simulate_log_ar1(5, _AR1, RngSpec(1))
