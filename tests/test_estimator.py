import numpy as np
import pytest

from dll.decorrelate import build_weights
from dll.errors import (
    BandwidthSelectionError,
    DataError,
    InsufficientLocalDataError,
    NumericalError,
    SampleTooSmallError,
    SingularDesignError,
)
from dll.estimator import (
    Dataset,
    PipelineOptions,
    confidence_interval,
    default_bandwidth,
    dll_pipeline,
    dll_point,
    kde_density,
    noise_sd_estimate,
    oracle_pipeline,
    slope_normalizer,
    variance_estimate,
)
from dll.estimator import test_zero as zero_slope_test
from dll.kernel import KernelSpec, kernel_weight, local_linear_slope
from dll.linear import sigma_floor

Z_975 = 1.959963984540054  # inverse-normal oracle, alpha = 0.05
Z_84 = 0.9944578832097532  # inverse-normal oracle, alpha = 0.32


def zero_shift_weights(x, spec):
    return build_weights(x, np.zeros_like(x), spec)


def test_slope_normalizer_symmetric_uniform():
    rng = np.random.default_rng(0)
    n = 100_000
    x = rng.uniform(-0.2, 0.2, n)
    spec = KernelSpec(0.0, 0.2)
    s = slope_normalizer(zero_shift_weights(x, spec), x, spec)
    # (2/3) h^2 density with density 1/(2h) on the window: h/3
    assert s == pytest.approx(spec.h / 3, rel=0.05)


def test_slope_normalizer_errors():
    spec = KernelSpec(0.0, 0.1)
    x = np.linspace(10, 11, 30)
    with pytest.raises(InsufficientLocalDataError):
        slope_normalizer(zero_shift_weights(np.linspace(-0.05, 0.05, 30), spec), x, spec)
    clustered = np.full(30, 1e-9)
    with pytest.raises(SingularDesignError):
        slope_normalizer(zero_shift_weights(clustered, spec), clustered, spec)


def test_dll_point_exact_linear_residuals():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, 200)
    spec = KernelSpec(0.0, 0.6)
    w = zero_shift_weights(x, spec)
    assert dll_point(w, 4.5 * x, x, spec) == pytest.approx(4.5, abs=1e-12)
    assert dll_point(w, np.full(200, 3.3), x, spec) == pytest.approx(0.0, abs=1e-12)


def test_dll_point_equals_local_linear_when_shifts_zero():
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.normal(size=300)
        r = rng.normal(size=300)
        spec = KernelSpec(float(rng.normal() * 0.2), float(rng.uniform(0.4, 1.0)))
        w = zero_shift_weights(x, spec)
        assert dll_point(w, r, x, spec) == pytest.approx(
            local_linear_slope(x, r, spec), rel=1e-10
        )


def test_dll_point_affine_residual_equivariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=400)
    r = rng.normal(size=400)
    spec = KernelSpec(0.1, 0.5)
    shifts = rng.normal(size=400) * 0.01
    w = build_weights(x, shifts, spec)
    base = dll_point(w, r, x, spec)
    a, b = 2.7, -1.3
    moved = dll_point(w, r + a + b * (x - spec.x0), x, spec)
    assert moved == pytest.approx(base + b, rel=1e-9, abs=1e-9)


def test_dll_point_univariate_sine_monte_carlo():
    rng = np.random.default_rng(4)
    n = 100_000
    x = rng.uniform(-1, 1, n)
    y = np.sin(x) + rng.normal(0, 0.3, n)
    spec = KernelSpec(0.0, 0.1)
    w = zero_shift_weights(x, spec)
    assert dll_point(w, y, x, spec) == pytest.approx(1.0, abs=0.05)


def test_noise_sd_estimate():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert noise_sd_estimate(y, y, 1) == pytest.approx(sigma_floor(y))
    fitted = np.full(4, y.mean())
    assert noise_sd_estimate(y, fitted, 1) == pytest.approx(np.std(y, ddof=1))
    with pytest.raises(SampleTooSmallError):
        noise_sd_estimate(y, y, 4)


def test_noise_sd_monte_carlo_consistency():
    errs = []
    for s in range(20):
        rng = np.random.default_rng(700 + s)
        n = 2000
        x1 = rng.normal(0, 1, n)
        x2 = rng.standard_normal((n, 3))
        y = np.sin(x1) + 0.5 * np.sin(x2[:, 0]) + rng.normal(0, 0.7, n)
        fit = dll_pipeline(Dataset(y=y, x1=x1, x2=x2), 0.0, PipelineOptions(seed=s))
        errs.append(abs(fit.sigma1 - 0.7))
    assert max(errs) <= 0.07


def test_variance_single_point_and_scaling():
    x = np.array([0.05, 10.0, 11.0, -12.0])
    spec = KernelSpec(0.0, 0.1)
    w = build_weights(x, np.zeros(4), spec)
    s_n = 0.7
    v = variance_estimate(w, x, spec, sigma1=0.5, s_n=s_n)
    kh = kernel_weight(x, spec)
    expected = 0.25 * (w.centered[0] ** 2 * kh[0] ** 2) / (4 * s_n) ** 2
    assert v == pytest.approx(expected)
    assert variance_estimate(w, x, spec, sigma1=1.0, s_n=s_n) == pytest.approx(4 * v)


def test_variance_uniform_design_constant():
    rng = np.random.default_rng(5)
    n = 100_000
    x = rng.uniform(0, 1, n)
    spec = KernelSpec(0.5, 0.05)
    w = zero_shift_weights(x, spec)
    s_n = slope_normalizer(w, x, spec)
    v = variance_estimate(w, x, spec, sigma1=0.7, s_n=s_n)
    assert v * n * spec.h**3 * 1.0 == pytest.approx(1.5 * 0.7**2, rel=0.15)


def test_confidence_interval_oracle_values():
    lo, hi = confidence_interval(0.0, 1.0, 0.05)
    assert lo == pytest.approx(-Z_975, abs=1e-6)
    assert hi == pytest.approx(Z_975, abs=1e-6)
    lo, hi = confidence_interval(1.0, 4.0, 0.32)
    assert lo == pytest.approx(1 - 2 * Z_84, abs=1e-6)
    assert hi == pytest.approx(1 + 2 * Z_84, abs=1e-6)
    lo, hi = confidence_interval(2.0, 0.0, 0.05)
    assert lo == hi == 2.0
    with pytest.raises(ValueError):
        confidence_interval(0.0, 1.0, 1.5)


def test_confidence_interval_literal_variant():
    lo, hi = confidence_interval(0.0, 4.0, 0.05, literal=True)
    assert hi == pytest.approx(4 * Z_975)
    lo_s, hi_s = confidence_interval(0.0, 4.0, 0.05)
    assert hi_s == pytest.approx(2 * Z_975)


def test_test_zero_decisions():
    assert not zero_slope_test(0.0, 1.0, 0.05)
    assert zero_slope_test(10.0, 1.0, 0.05)
    boundary = Z_975 * np.sqrt(2.0)
    assert zero_slope_test(boundary, 2.0, 0.05)  # closed rejection region
    with pytest.raises(ValueError):
        zero_slope_test(1.0, 1.0, 0.0)


def test_default_bandwidth_values():
    rng = np.random.default_rng(6)
    x = rng.normal(size=10_000)
    dens = kde_density(x, 0.0)
    assert dens == pytest.approx(1 / np.sqrt(2 * np.pi), rel=0.1)
    h1 = default_bandwidth(x, 0.0, c=1.0)
    assert h1 == pytest.approx((10_000 * dens) ** (-1 / 5))
    assert default_bandwidth(x, 0.0, c=2.0) == pytest.approx(2 * h1)
    with pytest.raises(SampleTooSmallError):
        default_bandwidth(x[:10], 0.0)
    with pytest.raises(BandwidthSelectionError):
        default_bandwidth(x, 80.0)


def test_pipeline_exact_linear_univariate():
    rng = np.random.default_rng(7)
    x1 = rng.uniform(-1, 1, 200)
    ds = Dataset(y=1 + 3 * x1, x1=x1, x2=np.empty((200, 0)))
    fit = dll_pipeline(ds, 0.0, PipelineOptions(h=0.5))
    assert fit.estimate == pytest.approx(3.0, abs=1e-8)
    assert fit.ci_low <= fit.estimate <= fit.ci_high


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["y", "x1", "x2"])
def test_dataset_rejects_non_finite(field, bad):
    rng = np.random.default_rng(13)
    arrays = {"y": rng.normal(size=50), "x1": rng.normal(size=50), "x2": rng.normal(size=(50, 2))}
    arrays[field].flat[7] = bad
    with pytest.raises(DataError, match=field):
        Dataset(**arrays)


def test_pipeline_non_finite_result_raises():
    rng = np.random.default_rng(14)
    x1 = rng.uniform(-1, 1, 200)
    ds = Dataset(y=2 * x1 + rng.normal(0, 0.5, 200), x1=x1, x2=np.empty((200, 0)))
    with pytest.raises(NumericalError, match="non-finite"):
        dll_pipeline(ds, 0.0, PipelineOptions(h=0.5, sigma1_override=np.inf))


def test_pipeline_rejects_small_samples():
    rng = np.random.default_rng(8)
    x1 = rng.uniform(-1, 1, 30)
    ds = Dataset(y=x1, x1=x1, x2=np.empty((30, 0)))
    with pytest.raises(SampleTooSmallError):
        dll_pipeline(ds, 0.0, PipelineOptions(h=0.5))


def test_pipeline_noiseless_linear_nuisance():
    # Bounded design with exact transforms: both components sit in the
    # spline span, so recovery is limited only by solver tolerances.
    def unif_cdf(v):
        return np.clip((np.asarray(v, float) + 2) / 4, 0.0, 1.0)

    errs = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = 500
        x2 = rng.uniform(-2, 2, (n, 2))
        x1 = rng.uniform(-2, 2, n)
        y = 1.0 + 2.0 * x1 + x2 @ np.array([1.0, -0.5])
        opts = PipelineOptions(
            seed=seed, rho_const=1e-3, lambda_const=1e-3,
            num_interior_knots=0, transform="known",
        )
        fit = dll_pipeline(
            Dataset(y=y, x1=x1, x2=x2), 0.0, opts, known_cdfs=[unif_cdf] * 3
        )
        errs.append(abs(fit.estimate - 2.0))
    assert max(errs) <= 1e-2


def test_pipeline_invariants_and_diagnostics():
    rng = np.random.default_rng(9)
    n = 300
    x2 = rng.standard_normal((n, 2))
    x1 = x2 @ np.array([0.4, -0.3]) + rng.normal(0, 1, n)
    y = np.sin(x1) + 0.5 * x2[:, 0] + rng.normal(0, 0.3, n)
    ds = Dataset(y=y, x1=x1, x2=x2)
    fit = dll_pipeline(ds, 0.0, PipelineOptions(seed=1))
    assert fit.ci_low <= fit.estimate <= fit.ci_high
    half = (fit.ci_high - fit.ci_low) / 2
    assert half == pytest.approx(Z_975 * np.sqrt(fit.variance), rel=1e-12)
    assert fit.variance > 0
    assert fit.n_effective >= 10
    assert fit.mode == "estimated"
    assert fit.diagnostics["window_tail_ratio"] > 0
    flags = fit.diagnostics["flags"]
    assert set(flags) >= {"h", "sigma2", "projection_method"}


def test_oracle_pipeline_differs_only_through_shifts():
    rng = np.random.default_rng(10)
    n = 400
    gamma = np.array([0.5, -0.5])
    x2 = rng.standard_normal((n, 2))
    x1 = x2 @ gamma + rng.normal(0, 1, n)
    y = np.sin(x1) + 0.3 * x2[:, 1] + rng.normal(0, 0.3, n)
    ds = Dataset(y=y, x1=x1, x2=x2)
    opts = PipelineOptions(seed=5, h=0.4)
    est = dll_pipeline(ds, 0.0, opts)
    orc = oracle_pipeline(ds, 0.0, gamma, 1.0, opts)
    assert orc.mode == "oracle"
    assert est.mode == "estimated"
    # same folds, same nuisance fits: sigma1 agrees exactly
    assert orc.sigma1 == pytest.approx(est.sigma1, rel=1e-12)
    assert orc.estimate != est.estimate  # shifts differ
    assert abs(orc.estimate - est.estimate) < 0.5


def test_oracle_pipeline_zero_gamma_matches_unconditional():
    rng = np.random.default_rng(11)
    n = 400
    x2 = rng.standard_normal((n, 1))
    x1 = rng.normal(0, 1, n)
    y = np.sin(x1) + rng.normal(0, 0.3, n)
    ds = Dataset(y=y, x1=x1, x2=x2)
    opts = PipelineOptions(seed=2, h=0.4)
    orc = oracle_pipeline(ds, 0.0, np.zeros(1), 1.0, opts)
    # with gamma = 0 the window center is x0/sigma for every observation:
    # all shifts equal, so centering makes them irrelevant
    est_zero_shift = dll_pipeline(ds, 0.0, opts)
    assert orc.estimate == pytest.approx(est_zero_shift.estimate, abs=0.1)


def test_pipeline_p0_variance_positive_and_test():
    rng = np.random.default_rng(12)
    n = 5000
    x1 = rng.uniform(-1, 1, n)
    y = 2 * x1 + rng.normal(0, 0.5, n)
    fit = dll_pipeline(Dataset(y=y, x1=x1, x2=np.empty((n, 0))), 0.0,
                       PipelineOptions(h=0.3))
    assert fit.variance > 0
    assert fit.reject_zero  # strong slope
    assert fit.ci_low <= 2.0 <= fit.ci_high


def test_pipeline_general_density_matches_exact_gaussian():
    def std_normal(t):
        return float(np.exp(-t * t / 2) / np.sqrt(2 * np.pi))

    rng = np.random.default_rng(13)
    n = 120
    x2 = rng.standard_normal((n, 2))
    x1 = x2 @ np.array([0.5, -0.3]) + rng.normal(0, 1, n)
    y = np.sin(x1) + 0.4 * x2[:, 0] + rng.normal(0, 0.3, n)
    ds = Dataset(y=y, x1=x1, x2=x2)
    base = PipelineOptions(seed=3, h=0.5)
    exact = dll_pipeline(ds, 0.0, PipelineOptions(**{**base.__dict__, "mode": "exact_gaussian"}))
    general = dll_pipeline(
        ds, 0.0,
        PipelineOptions(**{**base.__dict__, "mode": "general_density",
                           "error_density": std_normal}),
    )
    assert general.estimate == pytest.approx(exact.estimate, abs=1e-6)
    assert general.variance == pytest.approx(exact.variance, rel=1e-6)


def test_pipeline_mode_recorded_and_shift_underflow_counted():
    rng = np.random.default_rng(14)
    n = 100
    x2 = rng.standard_normal((n, 1))
    x1 = x2[:, 0] * 0.3 + rng.normal(0, 1, n)
    y = 2 * x1 + rng.normal(0, 0.2, n)
    fit = dll_pipeline(Dataset(y=y, x1=x1, x2=x2), 0.0,
                       PipelineOptions(seed=1, h=0.6, mode="exact_gaussian"))
    assert fit.diagnostics["flags"]["shift_underflow"] == 0


def test_pipeline_sigma2_per_fold_option():
    rng = np.random.default_rng(15)
    n = 240
    x2 = rng.standard_normal((n, 2))
    x1 = x2 @ np.array([0.6, -0.4]) + rng.normal(0, 1, n)
    y = np.sin(x1) + 0.5 * x2[:, 0] + rng.normal(0, 0.3, n)
    ds = Dataset(y=y, x1=x1, x2=x2)
    pooled = dll_pipeline(ds, 0.0, PipelineOptions(seed=2, h=0.5))
    per_fold = dll_pipeline(
        ds, 0.0, PipelineOptions(seed=2, h=0.5, sigma2_per_fold=True)
    )
    # same folds and fits; only the shift scale changes
    assert per_fold.sigma1 == pytest.approx(pooled.sigma1, rel=1e-12)
    assert abs(per_fold.estimate - pooled.estimate) < 0.2
