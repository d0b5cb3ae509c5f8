"""Source attribution percentage matrices from convex geometry.

Estimates the column-stochastic matrix of per-pollutant source
attribution fractions from a non-negative concentration matrix, with
synthetic-data generators and a Monte Carlo harness for verifying the
estimator's convergence behavior.
"""

from .estimator import (
    ApportionmentEstimate,
    AttributionMatrix,
    ConcentrationMatrix,
    Diagnostics,
    EstimatorConfig,
    RowNormalizedData,
    apportion,
    compute_phi,
    estimate_H_star,
    estimate_mu_tilde,
    extract_candidates,
    row_normalize,
)
from .evaluation import (
    AlignmentResult,
    MetricsRecord,
    StudyDesign,
    align_rows,
    convergence_study,
    hausdorff_to_polytope,
    nfd,
    nrmse,
    summarize_records,
)
from .geometry import (
    VertexSubset,
    affine_right_inverse,
    hull_vertices,
    intrinsic_projection,
    max_volume_exhaustive,
    max_volume_greedy,
    simplex_log_volume,
)
from .synthgen import (
    GroundTruth,
    LogAR1Params,
    LognormalMixtureParams,
    RngSpec,
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

__version__ = "0.1.0"

__all__ = [
    "AlignmentResult",
    "ApportionmentEstimate",
    "AttributionMatrix",
    "ConcentrationMatrix",
    "Diagnostics",
    "EstimatorConfig",
    "GroundTruth",
    "LogAR1Params",
    "LognormalMixtureParams",
    "MetricsRecord",
    "RngSpec",
    "RowNormalizedData",
    "StudyDesign",
    "VertexSubset",
    "affine_right_inverse",
    "align_rows",
    "apportion",
    "compute_phi",
    "convergence_study",
    "draw_ar1_params",
    "draw_mixture_params",
    "estimate_H_star",
    "estimate_mu_tilde",
    "extract_candidates",
    "generate_profile_matrix",
    "hausdorff_to_polytope",
    "hull_vertices",
    "intrinsic_projection",
    "make_ground_truth",
    "max_volume_exhaustive",
    "max_volume_greedy",
    "nfd",
    "nrmse",
    "population_mean_log_ar1",
    "population_mean_mixture",
    "row_normalize",
    "simplex_log_volume",
    "simulate_log_ar1",
    "simulate_lognormal_mixture",
    "summarize_records",
    "true_phi",
]
