import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dll.decorrelate import build_weights
from dll.errors import (
    InsufficientLocalDataError,
    InvalidBandwidthError,
    SingularDesignError,
)
from dll.estimator import dll_point
from dll.kernel import KernelSpec, effective_sample_size, kernel_weight


# The base kernel K(u), the indicator of [-1, 1], is the weight at x0 = 0, h = 1.
UNIT = KernelSpec(0.0, 1.0)


def plug_in_slope(x, y, spec):
    """The plug-in local linear slope: the DLL ratio with zero window shifts."""
    return dll_point(build_weights(x, np.zeros_like(x), spec), y)


def test_base_kernel_pointwise():
    assert kernel_weight(0.0, UNIT) == 1.0
    assert kernel_weight(1.5, UNIT) == 0.0
    assert kernel_weight(1.0, UNIT) == 1.0  # closed support
    assert kernel_weight(-1.0, UNIT) == 1.0


def test_kernel_moment_identities():
    # Independent quadrature oracle; split at the discontinuities. The
    # second moment is 2/3 raw; the 1/3 constant that drives the
    # linearized shift is the kernel-normalized moment.
    total, _ = quad(kernel_weight, -2, 2, args=(UNIT,), points=[-1, 1])
    first, _ = quad(lambda u: u * kernel_weight(u, UNIT), -2, 2, points=[-1, 1])
    second, _ = quad(lambda u: u * u * kernel_weight(u, UNIT), -1, 1)
    assert abs(total - 2.0) < 1e-10
    assert abs(first) < 1e-10
    assert abs(second - 2 / 3) < 1e-10
    assert abs(second / total - 1 / 3) < 1e-10


def test_kernel_weight_values():
    spec = KernelSpec(x0=1.0, h=0.5)
    assert kernel_weight(1.0, spec) == pytest.approx(2.0)
    assert kernel_weight(1.0 + 2 * 0.5, spec) == 0.0
    assert kernel_weight(1.5, spec) == pytest.approx(2.0)  # boundary inside
    xs = np.array([0.4, 1.2, 3.0])
    np.testing.assert_allclose(kernel_weight(xs, spec), [0.0, 2.0, 0.0])


def test_invalid_bandwidth():
    with pytest.raises(InvalidBandwidthError):
        KernelSpec(x0=0.0, h=0.0)
    with pytest.raises(InvalidBandwidthError):
        KernelSpec(x0=0.0, h=-1.0)
    # Every window formula squares h, so h**2 must be finite too; the
    # check itself warns of no overflow.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for h in (1e300, np.float64(2e154), np.inf, np.nan):
            with pytest.raises(InvalidBandwidthError):
                KernelSpec(x0=0.0, h=h)
    assert KernelSpec(x0=0.0, h=1e153).h == 1e153


def test_local_linear_exact_line():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1, 1, 60)
    spec = KernelSpec(0.0, 0.8)
    assert plug_in_slope(xs, 3 * xs + 1, spec) == pytest.approx(3.0, abs=1e-12)
    assert plug_in_slope(xs, np.full(60, 2.5), spec) == pytest.approx(0.0, abs=1e-12)


def test_local_linear_symmetric_quadratic():
    xs = np.concatenate([np.linspace(0.05, 0.9, 30), -np.linspace(0.05, 0.9, 30)])
    spec = KernelSpec(0.0, 1.0)
    assert plug_in_slope(xs, xs**2, spec) == pytest.approx(0.0, abs=1e-12)


def test_local_linear_equals_wls_oracle():
    # Boxcar weights are constant inside the window, so the estimate must
    # equal the plain OLS slope of the in-window points.
    rng = np.random.default_rng(7)
    for _ in range(25):
        xs = rng.normal(size=200)
        ys = rng.normal(size=200)
        spec = KernelSpec(float(rng.normal() * 0.3), float(rng.uniform(0.4, 1.2)))
        mask = np.abs(xs - spec.x0) <= spec.h
        if mask.sum() < 10:
            continue
        xw, yw = xs[mask], ys[mask]
        design = np.column_stack([np.ones(mask.sum()), xw])
        slope_oracle = np.linalg.lstsq(design, yw, rcond=None)[0][1]
        est = plug_in_slope(xs, ys, spec)
        assert est == pytest.approx(slope_oracle, rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.floats(min_value=0.1, max_value=10, allow_nan=False),
)
def test_local_linear_affine_invariance(seed, shift, scale):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1, 1, 80)
    ys = rng.normal(size=80)
    spec = KernelSpec(0.0, 0.9)
    base = plug_in_slope(xs, ys, spec)
    assert plug_in_slope(xs, ys + shift, spec) == pytest.approx(base, abs=1e-8)
    assert plug_in_slope(xs, scale * ys, spec) == pytest.approx(
        scale * base, rel=1e-9, abs=1e-9
    )


def test_local_linear_insufficient_data():
    spec = KernelSpec(0.0, 0.1)
    xs = np.linspace(5, 6, 50)  # entirely outside the window
    with pytest.raises(InsufficientLocalDataError):
        plug_in_slope(xs, xs, spec)
    # The ratio needs no minimum count; the pipeline's window check does.
    xs = np.array([0.0, 0.01, -0.01, 5, 5, 5, 5, 5, 5, 5, 5.0])
    assert plug_in_slope(xs, 2 * xs, spec) == pytest.approx(2.0)


def test_local_linear_identical_x_singular():
    spec = KernelSpec(0.0, 1.0)
    xs = np.zeros(20)
    with pytest.raises(SingularDesignError):
        plug_in_slope(xs, np.arange(20.0), spec)


def test_local_linear_singular_denominator():
    # Two clusters collapsing to nearly one point: denominator below the
    # scale-aware tolerance.
    xs = np.concatenate([np.zeros(15), np.full(15, 1e-15)])
    spec = KernelSpec(0.0, 1.0)
    with pytest.raises(SingularDesignError):
        plug_in_slope(xs, np.arange(30.0), spec)


def test_effective_sample_size_counts():
    spec = KernelSpec(0.0, 1.0)
    assert effective_sample_size(np.array([0.0, 0.5, 2.0]), spec) == 2
    assert effective_sample_size(np.array([]), spec) == 0


def test_effective_sample_size_binomial_oracle():
    # Uniform(0,1), window [0.45, 0.55]: count ~ Binomial(n, 0.1), so the
    # expected 2*n*h*density = 10^4 with binomial concentration.
    rng = np.random.default_rng(42)
    n = 100_000
    xs = rng.uniform(0, 1, n)
    spec = KernelSpec(0.5, 0.05)
    count = effective_sample_size(xs, spec)
    assert abs(count - 2 * n * 0.05 * 1.0) <= 3 * np.sqrt(n * 0.05 * 2)
