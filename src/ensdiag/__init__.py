"""Diagnostics for deep-ensemble uncertainty, diversity, and robustness."""

__version__ = "0.1.0"

from .conditional import (
    ConditionalCurve,
    DStatResult,
    JointSample,
    d_statistic,
    evaluation_grid,
    joint_samples,
    krr_conditional_expectation,
    permutation_test,
    scott_bandwidth_1d,
)
from .decomposition import (
    DecompositionRecord,
    brier_jensen_gap,
    decompose_entropy,
    decompose_quadratic,
    nll_jensen_gap,
    variance_diversity,
)
from .errors import NumericalError, ValidationError
from .gp import (
    GpModel,
    GpPrediction,
    conditional_posterior_variance,
    generate_dataset,
    gp_fit,
    gp_predict,
    run_default_experiment,
)
from .improvement import (
    MmdTestResult,
    improvement_similarity_test,
    median_heuristic_bandwidth,
    mmd2_unbiased,
    mmd_threshold,
    pearson_r,
    per_point_improvement,
)
from .metrics import (
    CalibrationSummary,
    brier,
    calibration,
    compute_metric,
    entropy,
    nll,
    quad_uncertainty,
    zero_one_error,
)
from .simulate import SyntheticSpec, simulate_store, write_synthetic_store
from .store import (
    EnsembleDef,
    PredictionStore,
    enumerate_homogeneous_ensembles,
    form_ensemble,
    form_heterogeneous_ensembles,
    load_store,
    save_store,
    softmax,
)
from .trends import (
    DiversityRatioReport,
    TrendFit,
    TrendPoint,
    diversity_ratio_check,
    effective_robustness,
    fit_trend,
    fit_trend_xy,
    trend_points,
    trend_table,
)
