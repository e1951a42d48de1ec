"""Decorrelated local linear inference for additive models.

Estimates the pointwise derivative of one component of an additive
regression model, with confidence intervals and a zero-derivative test
that stay valid in the presence of (possibly high-dimensional) estimated
nuisance components.
"""

from .decorrelate import (
    DecorrelationWeights,
    GaussianWindow,
    SwapPlan,
    build_weights,
    shift_exact_gaussian,
    shift_general,
    shift_linear,
    swap_split,
    weight_estimation_error,
    window_shifts,
    window_tail_ratio,
)
from .errors import (
    BandwidthSelectionError,
    ConvergenceError,
    DataError,
    DLLError,
    InsufficientLocalDataError,
    InvalidBandwidthError,
    NumericalError,
    RankDeficientError,
    SampleTooSmallError,
    SingularDesignError,
    ZeroMassError,
)
from .estimator import (
    CrossFit,
    Dataset,
    DLLFit,
    PipelineOptions,
    confidence_interval,
    cross_fit,
    default_bandwidth,
    dll_pipeline,
    dll_point,
    evaluate,
    kde_density,
    noise_sd_estimate,
    oracle_pipeline,
    slope_normalizer,
    test_zero,
    variance_estimate,
)
from .kernel import (
    KernelSpec,
    base_kernel,
    effective_sample_size,
    kernel_weight,
    local_linear_slope,
)
from .linear import (
    ProjectionFit,
    kkt_check,
    lasso_coordinate_descent,
    ols_projection,
    scaled_lasso,
)
from .simulate import (
    MCReport,
    PairedReport,
    RepRecord,
    SimConfig,
    compare_naive,
    gen_design,
    gen_response,
    make_dataset,
    monte_carlo,
    monte_carlo_records,
    run_replication,
)
from .spline import (
    AdditiveFit,
    BasisSpec,
    CoordinateBasis,
    bspline_basis,
    default_penalties,
    fit_doubly_penalized,
    make_coordinate_basis,
    nuisance_fit_error,
    nuisance_residuals,
    predict_nuisance,
    sobolev_penalty_matrix,
    two_penalty_prox,
)
from .transforms import (
    EmpiricalCDF,
    HeavyTailTransform,
    KnownCDF,
    density_lower_bound,
    empirical_cdf_transform,
    heavy_tail_transform,
)

__version__ = "0.1.0"
