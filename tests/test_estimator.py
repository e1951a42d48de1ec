import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dll import estimator, spline
from dll.decorrelate import build_weights, swap_split
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
    cross_fit,
    default_bandwidth,
    dll_pipeline,
    dll_point,
    evaluate,
    kde_density,
    oracle_view,
    slope_normalizer,
    variance_estimate,
)
from dll.estimator import test_zero as zero_slope_test
from dll.kernel import KernelSpec, kernel_weight
from dll.linear import noise_sd_estimate, sigma_floor
from dll.simulate import SimConfig, make_dataset
from dll.transforms import EmpiricalCDF, KnownCDF, fit_empirical

Z_975 = 1.959963984540054  # inverse-normal oracle, alpha = 0.05
Z_84 = 0.9944578832097532  # inverse-normal oracle, alpha = 0.32


def zero_shift_weights(x, spec):
    return build_weights(x, np.zeros_like(x), spec)


def test_slope_normalizer_symmetric_uniform():
    rng = np.random.default_rng(0)
    n = 100_000
    x = rng.uniform(-0.2, 0.2, n)
    spec = KernelSpec(0.0, 0.2)
    s = slope_normalizer(zero_shift_weights(x, spec))
    # (2/3) h^2 density with density 1/(2h) on the window: h/3
    assert s == pytest.approx(spec.h / 3, rel=0.05)


def test_slope_normalizer_errors():
    spec = KernelSpec(0.0, 0.1)
    with pytest.raises(InsufficientLocalDataError):
        zero_shift_weights(np.linspace(10, 11, 30), spec)
    clustered = np.full(30, 1e-9)
    with pytest.raises(SingularDesignError):
        slope_normalizer(zero_shift_weights(clustered, spec))


@pytest.mark.parametrize("scale", [1e-100, 1e-12, 1e12, 1e100])
def test_estimate_scales_with_the_units_of_x1(scale):
    # x1 * a with h * a gives the estimate / a and the variance / a^2. The
    # singularity test used to compare the O(h) normalizing sum with h^2,
    # so every fit with a >= 1e12 raised.
    ds = make_dataset(replace(PROPERTY_CONFIG, n=200), 3)
    base = dll_pipeline(ds, 0.0, PipelineOptions(h=0.5))
    scaled = Dataset(y=ds.y, x1=ds.x1 * scale, x2=ds.x2)
    fit = dll_pipeline(scaled, 0.0, PipelineOptions(h=0.5 * scale))
    assert fit.estimate * scale == pytest.approx(base.estimate, rel=1e-15)
    assert fit.variance * scale**2 == pytest.approx(base.variance, rel=1e-15)


def test_dll_point_exact_linear_residuals():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, 200)
    spec = KernelSpec(0.0, 0.6)
    w = zero_shift_weights(x, spec)
    assert dll_point(w, 4.5 * x) == pytest.approx(4.5, abs=1e-12)
    assert dll_point(w, np.full(200, 3.3)) == pytest.approx(0.0, abs=1e-12)


def test_dll_point_equals_local_linear_when_shifts_zero():
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.normal(size=300)
        r = rng.normal(size=300)
        spec = KernelSpec(float(rng.normal() * 0.2), float(rng.uniform(0.4, 1.0)))
        w = zero_shift_weights(x, spec)
        # With the boxcar kernel the local linear slope is the OLS slope of
        # the in-window points.
        mask = np.abs(x - spec.x0) <= spec.h
        design = np.column_stack([np.ones(mask.sum()), x[mask]])
        ols_slope = np.linalg.lstsq(design, r[mask], rcond=None)[0][1]
        assert dll_point(w, r) == pytest.approx(ols_slope, rel=1e-10)


def test_dll_point_affine_residual_equivariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=400)
    r = rng.normal(size=400)
    spec = KernelSpec(0.1, 0.5)
    shifts = rng.normal(size=400) * 0.01
    w = build_weights(x, shifts, spec)
    base = dll_point(w, r)
    a, b = 2.7, -1.3
    moved = dll_point(w, r + a + b * (x - spec.x0))
    assert moved == pytest.approx(base + b, rel=1e-9, abs=1e-9)


def test_dll_point_univariate_sine_monte_carlo():
    rng = np.random.default_rng(4)
    n = 100_000
    x = rng.uniform(-1, 1, n)
    y = np.sin(x) + rng.normal(0, 0.3, n)
    spec = KernelSpec(0.0, 0.1)
    w = zero_shift_weights(x, spec)
    assert dll_point(w, y) == pytest.approx(1.0, abs=0.05)


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
    v = variance_estimate(w, sigma1=0.5, s_n=s_n)
    kh = kernel_weight(x, spec)
    expected = 0.25 * (w.centered[0] ** 2 * kh[0] ** 2) / (4 * s_n) ** 2
    assert v == pytest.approx(expected)
    assert variance_estimate(w, sigma1=1.0, s_n=s_n) == pytest.approx(4 * v)


def test_variance_of_a_huge_normalizer_underflows_to_zero():
    # (n * s_n) ** 2 was a power of Python floats, which raised
    # OverflowError, no DLLError, once |n * s_n| passed about 1.3e154.
    w = build_weights(np.array([0.05, 10.0, 11.0, -12.0]), np.zeros(4), KernelSpec(0.0, 0.1))
    for s_n in (1e160, -1e160, 1e300):
        assert variance_estimate(w, 1.0, s_n) == 0.0
    # Below the overflow numpy's power gives the bits of Python's.
    total = float(np.sum(w.centered**2 * w.kernel**2))
    for s_n in (0.7, -3e-5, 1e150):
        assert variance_estimate(w, 0.5, s_n) == 0.25 * total / (4 * s_n) ** 2


def test_variance_uniform_design_constant():
    rng = np.random.default_rng(5)
    n = 100_000
    x = rng.uniform(0, 1, n)
    spec = KernelSpec(0.5, 0.05)
    w = zero_shift_weights(x, spec)
    s_n = slope_normalizer(w)
    v = variance_estimate(w, sigma1=0.7, s_n=s_n)
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


@pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05, 0.1, 0.5])
def test_half_width_quantile_matches_ndtri(alpha):
    # The stdlib quantile (Wichura's AS241) and scipy's cephes ndtri both
    # round: they differ by up to 3 ulps on this grid (at alpha = 0.1).
    from scipy.special import ndtri

    want = float(ndtri(1 - alpha / 2))
    assert abs(estimator._half_width(1.0, alpha) - want) <= 4 * math.ulp(want)


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
    for far in (1e200, 1e308, -1e308):  # u overflows: a zero density, no warning
        assert kde_density(x, far) == 0.0
        with pytest.raises(BandwidthSelectionError):
            default_bandwidth(x, far)


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


@pytest.mark.parametrize(
    "field, shape, match",
    [
        ("y", (), "y must be 1-D"),
        ("y", (50, 1), "y must be 1-D"),
        ("x1", (50, 1), "x1 must be 1-D"),
        ("x2", (50, 2, 1), "x2 must be 2-D"),
        ("y", (49,), "inconsistent sample sizes"),
        ("x1", (51,), "inconsistent sample sizes"),
        ("x2", (49, 2), "inconsistent sample sizes"),
        ("x2", (49,), "inconsistent sample sizes"),
    ],
)
def test_dataset_rejects_misshapen_input(field, shape, match):
    arrays = {"y": np.zeros(50), "x1": np.zeros(50), "x2": np.zeros((50, 2))}
    arrays[field] = np.zeros(shape)
    with pytest.raises(DataError, match=match):
        Dataset(**arrays)


@pytest.mark.parametrize(
    "field, value",
    [
        ("y", ["a"] * 50),
        ("y", [[1, 2], [3]]),
        ("x1", {"a": 1}),
        ("y", np.zeros(50) + 1j),
    ],
    ids=["string", "ragged", "dict", "complex"],
)
def test_dataset_rejects_non_real_input(field, value):
    arrays = {"y": np.zeros(50), "x1": np.zeros(50), "x2": np.zeros((50, 2))}
    arrays[field] = value
    with pytest.raises(DataError, match=f"{field} must be an array of real numbers"):
        Dataset(**arrays)


def test_cross_fit_residuals():
    # With p = 0 each fold's nuisance is its intercept, so the residuals
    # are the outcome minus one constant, the folds' mean intercept, in a
    # new array.
    rng = np.random.default_rng(21)
    x1 = rng.uniform(-1, 1, 200)
    uni = Dataset(y=np.sin(x1) + rng.normal(0, 0.3, 200), x1=x1, x2=np.empty((200, 0)))
    cf = cross_fit(uni)
    level = (cf.additive[0].intercept + cf.additive[1].intercept) / 2
    np.testing.assert_allclose(uni.y - cf.residuals, level, rtol=0, atol=1e-12)
    assert not np.shares_memory(cf.residuals, uni.y)
    # With p > 0 each residual is y minus the opposite fold's nuisance
    # prediction, shifted to the mean of both folds' full-sample levels.
    ds = make_dataset(PROPERTY_CONFIG, 3)
    cf = cross_fit(ds, PipelineOptions(seed=3))
    nuisance = [fit.predict_sum(ds.x2, exclude=0) for fit in cf.additive]
    level = (nuisance[0].mean() + nuisance[1].mean()) / 2
    for idx, other in ((cf.plan.fold_a, 1), (cf.plan.fold_b, 0)):
        expected = ds.y[idx] - (nuisance[other][idx] - nuisance[other].mean() + level)
        np.testing.assert_allclose(cf.residuals[idx], expected, rtol=0, atol=1e-12)


def test_cross_fit_counts_the_clamped_entries_of_both_folds():
    # An entry is clamped where it lies outside the range of its column in
    # the fold whose fit evaluates it.
    ds = make_dataset(PROPERTY_CONFIG, 4)
    cf = cross_fit(ds)
    x_all = np.column_stack([ds.x1, ds.x2])
    expected = 0
    for idx, train in ((cf.plan.fold_a, cf.plan.fold_b), (cf.plan.fold_b, cf.plan.fold_a)):
        lo, hi = x_all[train].min(axis=0), x_all[train].max(axis=0)
        expected += np.count_nonzero((x_all[idx] < lo) | (x_all[idx] > hi))
    assert cf.flags["transform_clamped"] == expected > 0


@pytest.mark.parametrize("transform", ["empirical", "known"])
def test_cross_fit_keeps_transforms_only_for_active_coordinates(transform):
    # A fold fit keeps the transform of each active coordinate and None for
    # the others; its predictions are those of a fit that keeps every
    # coordinate's transform, bit for bit. Column x2_1 has ties, so its
    # empirical transform is sorted again after the fit, not gathered in a
    # rank column's sort order. 1,200 rows span several gather blocks, and
    # column x2_8 is shifted in one fold, so each of its entries lies
    # outside the other fold's range and every block adds to the count.
    cfg = SimConfig(
        n=1200, p=8, gamma_true=(0.5, 0.5) + (0.0,) * 6,
        nuisance_components=((0, "sine", (1.0, 1.0)), (3, "sine", (0.8, 0.7))),
    )
    ds = make_dataset(cfg, 6)
    x2 = ds.x2.copy()
    x2[:, 0] = np.round(x2[:, 0], 1)
    x2[swap_split(cfg.n, 0).fold_b, 7] += 10
    ds = Dataset(ds.y, ds.x1, x2)
    known = None if transform == "empirical" else cfg.known_cdfs()
    cf = cross_fit(ds, PipelineOptions(transform=transform), known)
    x_all = np.column_stack([ds.x1, ds.x2])
    for fit, idx in zip(cf.additive, (cf.plan.fold_a, cf.plan.fold_b)):
        assert {0, 1, 4} <= set(fit.active_set) and len(fit.active_set) < fit.n_coordinates
        kept = [j for j, tr in enumerate(fit.transforms) if tr is not None]
        assert kept == list(fit.active_set)
        every = tuple(
            EmpiricalCDF.fit(x_all[idx, j]) if known is None else KnownCDF(known[j])
            for j in range(fit.n_coordinates)
        )
        for ours, theirs in zip(
            fit.predict_sums(ds.x1, ds.x2), replace(fit, transforms=every).predict_sums(ds.x1, ds.x2)
        ):
            assert ours.tobytes() == theirs.tobytes()
    clamped = 0
    for idx, train in ((cf.plan.fold_a, cf.plan.fold_b), (cf.plan.fold_b, cf.plan.fold_a)):
        lo, hi = x_all[train].min(axis=0), x_all[train].max(axis=0)
        clamped += np.count_nonzero((x_all[idx] < lo) | (x_all[idx] > hi))
    assert cf.flags["transform_clamped"] == (clamped if known is None else 0)
    assert clamped > cfg.n


def traced_cross_fit_peak(n: int) -> float:
    """The traced heap peak of a cross-fit with empirical transforms on an
    n x 30 sample (numpy reports its arrays to tracemalloc) over the bytes
    of y, x1 and x2."""
    cfg = SimConfig(
        n=n, p=30, gamma_true=(0.5, 0.5, 0.5) + (0.0,) * 27,
        nuisance_components=((0, "sine", (1.0, 1.0)),),
    )
    cross_fit(make_dataset(replace(cfg, n=100), 1))  # first-call set-up untraced
    ds = make_dataset(cfg, 5)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cross_fit(ds)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / (ds.y.nbytes + ds.x1.nbytes + ds.x2.nbytes)


def test_cross_fit_working_set_is_a_small_multiple_of_the_data():
    # It was 3.68 with a stacked copy of [x1, x2] alive through both fold
    # fits and int64 sort orders, and 2.07 with every column's sorted copy
    # kept to the end and full-width int64 sort and gather indices. It was
    # 1.28 with each column sorted on its own, the fold matrix gathered in
    # row blocks, transforms kept for the active coordinates only and the
    # rank gather indexed a few rows at a time. It is 1.07 with no fold
    # copied at all: least squares and the projection rows read row blocks,
    # the transforms one column at a time, the rank scores sum over tiles
    # of the sample and predictions run in row blocks.
    assert traced_cross_fit_peak(4000) < 1.3


def test_cross_fit_working_set_is_a_small_multiple_of_the_data_at_20000_rows():
    # Without fold copies the peak is set by buffers of fixed size and by
    # what the fits keep, so it shrinks against a growing sample: 0.79 at
    # 20,000 rows, where the fold copies took it to 1.19.
    assert traced_cross_fit_peak(20_000) < 0.95


def test_pipeline_non_finite_result_raises():
    rng = np.random.default_rng(14)
    x1 = rng.uniform(-1, 1, 200)
    ds = Dataset(y=2 * x1 + rng.normal(0, 0.5, 200), x1=x1, x2=np.empty((200, 0)))
    with pytest.raises(NumericalError, match="non-finite"):
        dll_pipeline(ds, 0.0, PipelineOptions(h=0.5, sigma1_override=1e200))


def test_pipeline_rejects_small_samples():
    rng = np.random.default_rng(8)
    x1 = rng.uniform(-1, 1, 30)
    ds = Dataset(y=x1, x1=x1, x2=np.empty((30, 0)))
    with pytest.raises(SampleTooSmallError):
        dll_pipeline(ds, 0.0, PipelineOptions(h=0.5))


def test_pipeline_noiseless_linear_nuisance():
    # Bounded design with exact transforms: linear components sit in any
    # cubic spline span, so recovery is limited only by solver tolerances.
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
            seed=seed, rho_const=1e-3, lambda_const=1e-3, transform="known"
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
    assert fit.diagnostics["window_tail_ratio"] > 0
    flags = fit.diagnostics["flags"]
    assert set(flags) >= {"h", "sigma2", "projection_method"}


def oracle_fit(cf, x0, options, law):
    """The evaluation of ``cf`` with the oracle weights of ``law``."""
    view, view_options = oracle_view(cf, law, options)
    return evaluate(view, x0, view_options)


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
    orc = oracle_fit(cross_fit(ds, opts), 0.0, opts, (gamma, 1.0))
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
    orc = oracle_fit(cross_fit(ds, opts), 0.0, opts, (np.zeros(1), 1.0))
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


@pytest.mark.parametrize("transform", ["empirical", "known"])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_p0_cross_fit_is_the_local_linear_slope(transform, seed):
    # With p = 0 the cross-fitted nuisance and window shifts are constants,
    # which the centered weights annihilate: the estimate is the plug-in
    # local linear slope of y.
    cfg = SimConfig(n=400, p=0, gamma_true=(), f1=("sine", (1.0, 1.0)), seed=seed)
    ds = make_dataset(cfg, seed)
    opts = estimator.check_window(ds, 0.0, PipelineOptions(seed=seed, transform=transform))
    fit = evaluate(cross_fit(ds, opts, cfg.known_cdfs()), 0.0, opts)
    spec = KernelSpec(0.0, opts.h)
    slope = dll_point(zero_shift_weights(ds.x1, spec), ds.y)
    assert fit.estimate == pytest.approx(slope, rel=1e-12, abs=0)


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


@pytest.mark.parametrize(
    "field, value",
    [
        ("alpha", 1.5),
        ("alpha", 1e-300),  # 1 - alpha/2 rounds to 1
        ("seed", -1),
        ("h", 0.0),
        ("h", math.inf),
        ("h", math.nan),
        ("h", 2e154),  # h**2 overflows
        ("rho_const", -1.0),
        ("rho_const", math.inf),
        ("lambda_const", -2.0),
        ("lambda_const", float("nan")),
        ("lambda_const", math.inf),
        ("sigma1_override", 0.0),
        ("sigma1_override", -0.5),
        ("sigma1_override", math.inf),
        ("sigma1_override", math.nan),
    ],
)
def test_pipeline_options_reject_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        PipelineOptions(**{field: value})


def test_pipeline_options_accept_boundary_values():
    PipelineOptions(rho_const=0.0, lambda_const=0.0)


@pytest.mark.parametrize("field", ["bandwidth_const", "lasso_const", "num_interior_knots"])
def test_pipeline_options_have_no_retired_tuning_fields(field):
    # The plug-in constant, the scaled Lasso's constant and the knot count
    # are fixed: default_bandwidth, scaled_lasso and default_interior_knots.
    with pytest.raises(TypeError):
        PipelineOptions(**{field: 1.5})


@pytest.mark.parametrize("density", [5, "laplace", np.float64(0.5)])
def test_pipeline_options_reject_an_error_density_that_is_not_callable(density):
    # error_density=5 used to construct and fail in the first evaluate with
    # a TypeError, which is no DLLError.
    with pytest.raises(ValueError, match="error_density"):
        PipelineOptions(mode="general_density", error_density=density)


@pytest.mark.parametrize("seed", [1.5, 2.0, True, "3", np.float64(1.0), -1, np.int64(-2)])
def test_pipeline_options_reject_a_seed_that_is_no_integer(seed):
    # A float seed used to construct and fail later, in swap_split, with
    # numpy's TypeError.
    with pytest.raises(ValueError, match="seed"):
        PipelineOptions(seed=seed)


def test_pipeline_options_accept_numpy_integer_seeds():
    for seed in (np.int64(7), np.uint8(7), np.int32(7)):
        options = PipelineOptions(seed=seed)
        assert np.array_equal(swap_split(40, options.seed).fold_a, swap_split(40, 7).fold_a)


@pytest.mark.parametrize(
    "field, value",
    [
        ("mode", "bogus"),
        ("mode", "oracle_known"),
        ("transform", "rank"),
    ],
)
def test_pipeline_options_reject_unknown_choice(field, value):
    with pytest.raises(ValueError, match=field):
        PipelineOptions(**{field: value})


def test_general_density_mode_requires_a_density():
    with pytest.raises(ValueError, match="error_density"):
        PipelineOptions(mode="general_density")
    PipelineOptions(mode="general_density", error_density=std_normal_pdf)


# Golden (estimate, variance, ci_low, ci_high) of each pipeline path on
# fixed inputs. Every variance and CI end follows the cross-fitted sigma1,
# the root mean square of the out-of-fold residuals.
PARITY_GAMMA = np.array([0.5, -0.3])
PARITY_GOLDEN = {
    "p0": (
        1.7684180919674615, 0.01462571037839867,
        1.5313863132076986, 2.005449870727224,
    ),
    "default": (
        0.898270389197032, 0.3096629771483781,
        -0.19239801825274838, 1.9889387966468122,
    ),
    "exact_gaussian": (
        1.3435353659336395, 0.03257097271808162,
        0.9898122391148384, 1.69725849275242,
    ),
    "general_density": (
        1.3435353659342157, 0.032570972718068386,
        0.9898122391154867, 1.6972584927529244,
    ),
    "oracle": (
        1.3215381803976147, 0.032628814500061304,
        0.9675011099232631, 1.6755752508719433,
    ),
}
PARITY_WEIGHT_ERROR = 0.0034876769734130675


def std_normal_pdf(t):
    return float(np.exp(-t * t / 2) / np.sqrt(2 * np.pi))


def parity_dataset(p):
    if p == 0:
        rng = np.random.default_rng(41)
        x1 = rng.uniform(-1, 1, 200)
        y = np.sin(2 * x1) + rng.normal(0, 0.3, 200)
        return Dataset(y=y, x1=x1, x2=np.empty((200, 0)))
    rng = np.random.default_rng(42)
    x2 = rng.standard_normal((160, 2))
    x1 = x2 @ PARITY_GAMMA + rng.normal(0, 1, 160)
    y = np.sin(x1) + 0.4 * np.sin(x2[:, 0]) + rng.normal(0, 0.3, 160)
    return Dataset(y=y, x1=x1, x2=x2)


def parity_fit(path):
    if path == "p0":
        return dll_pipeline(parity_dataset(0), 0.1, PipelineOptions(h=0.5))
    ds = parity_dataset(2)
    if path == "default":  # plug-in bandwidth
        return dll_pipeline(
            ds, 0.0, PipelineOptions(seed=3), true_projection=(PARITY_GAMMA, 1.0)
        )
    opts = PipelineOptions(seed=3, h=0.5)
    if path == "oracle":
        return oracle_fit(cross_fit(ds, opts), 0.0, opts, (PARITY_GAMMA, 1.0))
    return dll_pipeline(
        ds, 0.0, replace(opts, mode=path, error_density=std_normal_pdf)
    )


@pytest.mark.parametrize("path", sorted(PARITY_GOLDEN))
def test_pipeline_matches_golden_values(path):
    fit = parity_fit(path)
    got = (fit.estimate, fit.variance, fit.ci_low, fit.ci_high)
    np.testing.assert_allclose(got, PARITY_GOLDEN[path], rtol=1e-12, atol=0)
    if path == "default":
        assert fit.diagnostics["weight_error"] == pytest.approx(
            PARITY_WEIGHT_ERROR, rel=1e-12
        )


def test_one_cross_fit_serves_every_evaluation():
    ds = parity_dataset(2)
    opts = PipelineOptions(seed=3, h=0.5)
    cf = cross_fit(ds, opts)
    for mode in ("exact_gaussian", "general_density"):
        mode_opts = replace(opts, mode=mode, error_density=std_normal_pdf)
        assert evaluate(cf, 0.0, mode_opts) == dll_pipeline(ds, 0.0, mode_opts)
    oracle = oracle_fit(cf, 0.0, opts, (PARITY_GAMMA, 1.0))
    assert oracle == oracle_fit(cross_fit(ds, opts), 0.0, opts, (PARITY_GAMMA, 1.0))
    assert oracle.sigma1 == cf.sigma1
    # The view changes the weights only: the same residuals and noise scale,
    # and the estimated sigma2 still in the cross-fit's flags.
    view, view_opts = oracle_view(cf, (PARITY_GAMMA, 1.0), opts)
    assert view.residuals is cf.residuals and view.sigma1 == cf.sigma1
    assert view_opts == replace(opts, mode="exact_gaussian")
    assert oracle.diagnostics["flags"]["sigma2"] == cf.sigma2


def test_pipeline_checks_the_window_before_fitting(monkeypatch):
    import dll.estimator as estimator

    def no_fit(*args, **kwargs):
        raise AssertionError("cross_fit ran before the window check")

    cf = cross_fit(parity_dataset(2))
    monkeypatch.setattr(estimator, "cross_fit", no_fit)
    with pytest.raises(InsufficientLocalDataError):
        dll_pipeline(parity_dataset(2), 40.0, PipelineOptions(h=0.1))
    with pytest.raises(BandwidthSelectionError):
        dll_pipeline(parity_dataset(2), 80.0)
    for x0 in (math.nan, math.inf):
        for h in (None, 0.5):
            with pytest.raises(DataError, match="x0 must be finite"):
                dll_pipeline(parity_dataset(2), x0, PipelineOptions(h=h))
    with pytest.raises(DataError, match="x0 must be finite"):
        evaluate(cf, math.nan, PipelineOptions(h=0.5))


def test_group_lasso_nuisance_satisfies_group_lasso_kkt():
    # Without the smoothness penalty (rho = 0) the additive fit is a group
    # Lasso. In the whitened coordinates of each block (identity Gram
    # matrix) it solves mean(r^2) + lam * sum_b ||theta_b||, whose optimality
    # conditions on the scores z_b = B_b' r / n of the final residual are
    # ||z_b|| <= lam / 2 for a zero block and z_b = (lam / 2) theta_b /
    # ||theta_b|| for an active one. Tolerance: the last sweep lowered the
    # objective F by at most FIT_TOL * F; each block update is an exact
    # minimization of a function 2-strongly convex in that block, so the
    # squared moves of that sweep sum to at most FIT_TOL * F, and the moves
    # made after a block's update shift its score by at most their sum,
    # below sqrt(p * FIT_TOL * F).
    rng = np.random.default_rng(0)
    n, p = 300, 12
    x = rng.normal(size=(n, p))
    y = np.sin(x[:, 0]) + 0.5 * x[:, 1] ** 2 + 0.3 * x[:, 2] + rng.normal(0, 0.5, n)
    z = np.column_stack([EmpiricalCDF.fit(x[:, j])(x[:, j]) for j in range(p)])
    _, tied, ranked = fit_empirical(x)
    _, lam = spline.default_penalties(n, p)
    fit = spline.fit_doubly_penalized(tied, y, (0.0, lam), ranked=ranked)
    assert fit.converged and fit.penalties[0] == 0.0
    assert 0 < len(fit.active_set) < p
    design = spline._WhitenedDesign(list(fit.bases), tied, ranked)
    resid = y - fit.intercept - sum(fit.component(j, z[:, j]) for j in fit.active_set)
    half = fit.penalties[1] / 2
    tol = math.sqrt(p * spline.FIT_TOL * fit.objective_trace[-2])
    for j in range(p):
        score = design.scores(j, j + 1, resid)
        if j in fit.active_set:
            theta = design.scores(j, j + 1, fit.component(j, z[:, j]))
            gap = np.linalg.norm(score - half * theta / np.linalg.norm(theta))
            assert gap <= tol
        else:
            assert np.linalg.norm(score) <= half + tol


# Two exact-arithmetic properties of the whole pipeline. A constant added
# to y goes into the additive fits' intercepts, and the centered weights
# annihilate constants. Reflecting x1 and x0 reflects the projections,
# shifts and weights, while the x1 component's fit mirrors itself: the
# rank transform of -x1 is 1 - z, and the Gaussian CDF is symmetric. In
# floating point the fits then differ by rounding only. Over the 32 pairs
# the tests below draw, the relative gaps stayed below 4e-14. The bound 1e-9
# leaves four orders of magnitude for rounding, while a real dependence
# on c or on the sign of x1 moves the estimate on the scale of its
# standard error. The scale is the larger of |estimate| and the standard
# error, so an estimate near zero does not inflate the ratio.
PROPERTY_CONFIG = SimConfig(
    n=300,
    p=5,
    gamma_true=(0.5, -0.5, 0.0, 0.0, 0.0),
    nuisance_components=((0, "sine", (1.0, 1.0)), (1, "sine", (0.8, 0.7))),
)
PROPERTY_RTOL = 1e-9
property_examples = settings(max_examples=8, derandomize=True, deadline=None)


def property_fit(transform, seed, x0, y_shift=0.0, sign=1.0):
    data = make_dataset(PROPERTY_CONFIG, seed)
    known = PROPERTY_CONFIG.known_cdfs() if transform == "known" else None
    return dll_pipeline(
        Dataset(data.y + y_shift, sign * data.x1, data.x2),
        sign * x0,
        PipelineOptions(transform=transform, seed=seed),
        known,
    )


def property_gap(fit, expected):
    scale = max(abs(expected), math.sqrt(fit.variance))
    return abs(fit.estimate - expected) / scale


@pytest.mark.parametrize("transform", ["empirical", "known"])
@property_examples
@given(
    seed=st.integers(0, 10_000),
    x0=st.floats(-0.5, 0.5),
    c=st.floats(-50.0, 50.0),
)
def test_pipeline_estimate_invariant_to_outcome_shift(transform, seed, x0, c):
    base = property_fit(transform, seed, x0)
    shifted = property_fit(transform, seed, x0, y_shift=c)
    assert property_gap(shifted, base.estimate) <= PROPERTY_RTOL


@pytest.mark.parametrize("transform", ["empirical", "known"])
@property_examples
@given(seed=st.integers(0, 10_000), x0=st.floats(-0.5, 0.5))
def test_pipeline_estimate_odd_under_reflection(transform, seed, x0):
    base = property_fit(transform, seed, x0)
    reflected = property_fit(transform, seed, x0, sign=-1.0)
    assert property_gap(reflected, -base.estimate) <= PROPERTY_RTOL
