"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import dataclasses
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (
    aligned_estimate,
    brute_force_align,
    lp_hull_vertices,
    random_row_stochastic,
    scalar_nfd,
    scalar_nrmse,
)

from apportion.estimator import (
    ConcentrationMatrix,
    EstimatorConfig,
    apportion,
    estimate_mu_tilde,
)
from apportion.evaluation import (
    StudyDesign,
    align_rows,
    convergence_study,
    hausdorff_to_polytope,
    nfd,
    nrmse,
    summarize_records,
)
from apportion.geometry import hull_vertices
from apportion.synthgen import (
    RngSpec,
    draw_ar1_params,
    draw_mixture_params,
    make_ground_truth,
    population_mean_log_ar1,
    population_mean_mixture,
    simulate_log_ar1,
    simulate_lognormal_mixture,
    true_phi,
)

# Frozen from three pilot runs of scripts/pilot_reference.py (seeds 1..3,
# n=10000 median NRMSE 0.0529 / 0.0580 / 0.0522).
NRMSE_THRESHOLD_N10000 = 0.09

STUDY_SEED = 2024
PAIRED_SEED = 777
SPOT_SEED = 606


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:>2} {name}: PASS")


def planted_run(seed):
    """1000 ar1 rows with K rows mu_k e_k under them, so the data holds one
    exactly pure record per source."""
    _, truth = make_ground_truth(1000, 8, 3, "ar1", RngSpec(seed))
    truth = dataclasses.replace(truth, W=np.vstack([truth.W, np.diag(truth.mu)]))
    return ConcentrationMatrix(truth.W @ truth.H), truth


def test_01_exact_recovery():
    with criterion(1, "exact recovery with planted corners"):
        start = time.perf_counter()
        for seed in range(20):
            y, truth = planted_run(seed)
            est = apportion(y, EstimatorConfig(K=3))
            target = true_phi(truth.W.mean(axis=0), truth.H).values
            aligned = aligned_estimate(target, est.phi_hat.values)
            assert np.abs(aligned - target).max() <= 1e-8
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_02_scale_invariance():
    with criterion(2, "column-scale invariance of the estimate"):
        for seed in range(20):
            y, _ = planted_run(seed)
            scale_rng = np.random.default_rng(10_000 + seed)
            scales = 10.0 ** scale_rng.uniform(-3.0, 3.0, size=y.n_pollutants)
            base = apportion(y, EstimatorConfig(K=3)).phi_hat.values
            scaled = apportion(
                ConcentrationMatrix(y.values * scales), EstimatorConfig(K=3)
            ).phi_hat.values
            aligned = aligned_estimate(base, scaled)
            assert np.abs(aligned - base).max() <= 1e-8


def test_03_estimand_invariance():
    with criterion(3, "true attribution invariant to factor rescaling"):
        rng = np.random.default_rng(33)
        mu = rng.uniform(0.2, 3.0, size=4)
        h = random_row_stochastic(rng, 4, 9)
        base = true_phi(mu, h).values
        for _ in range(100):
            d = 10.0 ** rng.uniform(-3.0, 3.0, size=4)
            other = true_phi(mu * d, h / d[:, None]).values
            assert np.abs(other - base).max() <= 1e-12


def test_04_mean_recovery_identity():
    with criterion(4, "right-inverse identity recovers emission means"):
        rng = np.random.default_rng(44)
        for _ in range(20):
            hstar = random_row_stochastic(rng, 3, 8)
            w_tilde = rng.lognormal(0.0, 0.5, size=(500, 3))
            y = ConcentrationMatrix(w_tilde @ hstar)
            m = estimate_mu_tilde(y, hstar)
            assert np.abs(m - w_tilde.mean(axis=0)).max() <= 1e-10


def test_05_convergence_trend():
    with criterion(5, "median errors decrease over the sample-size grid"):
        start = time.perf_counter()
        design = StudyDesign(
            process="ar1",
            J=8,
            K=3,
            n_grid=(100, 300, 1500, 10000),
            replicates=50,
            search="greedy",
            master_seed=STUDY_SEED,
        )
        records = convergence_study(design)
        elapsed = time.perf_counter() - start
        assert not any(r.error for r in records)
        summary = {row["n"]: row for row in summarize_records(records)}
        med_nrmse = [summary[n]["nrmse_median"] for n in design.n_grid]
        med_nfd = [summary[n]["nfd_median"] for n in design.n_grid]
        assert all(b < a for a, b in zip(med_nrmse, med_nrmse[1:])), med_nrmse
        assert all(b < a for a, b in zip(med_nfd, med_nfd[1:])), med_nfd
        assert med_nrmse[-1] <= NRMSE_THRESHOLD_N10000, med_nrmse[-1]
        assert elapsed < 600.0, f"took {elapsed:.0f}s"


def test_06_full_scale_spot_check():
    with criterion(6, "single replicate at n=500000"):
        start = time.perf_counter()
        y, truth = make_ground_truth(500_000, 8, 3, "ar1", RngSpec(SPOT_SEED))
        est = apportion(y, EstimatorConfig(K=3, search="greedy"))
        alignment = align_rows(truth.phi_true.values, est.phi_hat.values)
        aligned = est.phi_hat.values[list(alignment.permutation)]
        elapsed = time.perf_counter() - start
        assert nrmse(truth.phi_true.values, aligned) <= 0.10
        assert nfd(truth.phi_true.values, aligned) <= 0.18
        assert elapsed < 300.0, f"took {elapsed:.0f}s"


def test_07_greedy_vs_exhaustive():
    with criterion(7, "exhaustive dominates greedy; accuracy indistinguishable"):
        design = StudyDesign(
            process="ar1",
            J=8,
            K=3,
            n_grid=(100, 300),
            replicates=50,
            search="greedy",
            master_seed=PAIRED_SEED,
        )
        # Each (n, replicate) draws from its own stream block, so the two
        # studies see the same data, task for task.
        greedy = convergence_study(design)
        # Every auto task is within budget, so auto runs the exhaustive search.
        exhaustive = convergence_study(dataclasses.replace(design, search="auto"))
        gaps = []
        for g, e in zip(greedy, exhaustive, strict=True):
            assert not g.error and not e.error
            assert (g.n, g.replicate) == (e.n, e.replicate)
            assert (g.search_used, e.search_used) == ("greedy", "exhaustive")
            assert e.log_volume >= g.log_volume - 1e-12
            gaps.append(abs(g.nrmse - e.nrmse))
        assert len(gaps) == 100
        assert float(np.median(gaps)) <= 0.01


def test_08_invariant_suite():
    with criterion(8, "stochasticity, hull, alignment, metric invariants"):
        # column/row stochasticity on a spread of estimates
        runs = [
            make_ground_truth(300, 8, 3, "ar1", RngSpec(81)),
            make_ground_truth(400, 10, 5, "mixture", RngSpec(82)),
            make_ground_truth(250, 6, 2, "ar1", RngSpec(83)),
        ]
        for y, _ in runs:
            k = 3 if y.n_pollutants == 8 else (5 if y.n_pollutants == 10 else 2)
            est = apportion(y, EstimatorConfig(K=k))
            phi = est.phi_hat.values
            assert np.abs(phi.sum(axis=0) - 1.0).max() <= 1e-10
            assert phi.min() >= 0.0 and phi.max() <= 1.0
            assert np.abs(est.h_star_hat.sum(axis=1) - 1.0).max() <= 1e-10

        # hull vertices match the LP-membership brute force (n <= 200, dims <= 3)
        for dim, n, seed in ((2, 200, 84), (3, 80, 85)):
            cloud = np.random.default_rng(seed).normal(size=(n, dim))
            assert hull_vertices(cloud).tolist() == lp_hull_vertices(cloud).tolist()

        # alignment equals brute force for K <= 6
        rng = np.random.default_rng(86)
        for k in range(2, 7):
            a, b = rng.uniform(size=(k, 7)), rng.uniform(size=(k, 7))
            result = align_rows(a, b)
            perm, total = brute_force_align(a, b)
            assert result.permutation == perm
            assert result.total_sq_distance == pytest.approx(total, rel=1e-12)

        # metric formulas match scalar oracles on 100 random pairs
        for _ in range(100):
            a = rng.uniform(0.01, 1.0, size=(3, 8))
            b = rng.uniform(0.0, 1.0, size=(3, 8))
            assert nrmse(a, b) == pytest.approx(scalar_nrmse(a, b), abs=1e-12)
            assert nfd(a, b) == pytest.approx(scalar_nfd(a, b), abs=1e-12)


def test_09_generator_fidelity():
    with criterion(9, "sample means and autocorrelation match theory"):
        n_mean = 500_000
        ar_params = draw_ar1_params(3, RngSpec(91))
        w = simulate_log_ar1(n_mean, ar_params, RngSpec(92))
        mu = population_mean_log_ar1(ar_params)
        assert (np.abs(w.mean(axis=0) - mu) / mu).max() <= 0.02

        mix_params = draw_mixture_params(3, RngSpec(93))
        w_mix = simulate_lognormal_mixture(n_mean, mix_params, RngSpec(94))
        mu_mix = population_mean_mixture(mix_params)
        assert (np.abs(w_mix.mean(axis=0) - mu_mix) / mu_mix).max() <= 0.02

        w_acf = simulate_log_ar1(100_000, ar_params, RngSpec(95))
        for k in range(3):
            g = np.log(w_acf[:, k])
            rho = float(np.corrcoef(g[:-1], g[1:])[0, 1])
            assert abs(rho - 0.8) <= 0.02


def test_10_hull_consistency_smoke():
    with criterion(10, "sample hull approaches the profile polytope"):
        y, truth = make_ground_truth(10_000, 8, 3, "ar1", RngSpec(101))
        ystar = y.values / y.values.sum(axis=1, keepdims=True)
        hstar = truth.H / truth.H.sum(axis=1, keepdims=True)
        values = [
            hausdorff_to_polytope(ystar[:n], hstar) for n in (100, 1000, 10_000)
        ]
        assert values[1] <= values[0] + 1e-9
        assert values[2] <= values[1] + 1e-9
        assert values[-1] < values[0]
