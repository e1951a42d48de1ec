from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dll.decorrelate import (
    build_weights,
    shift_general,
    shift_linear,
    swap_split,
    weight_estimation_error,
    window_shifts,
    window_tail_ratio,
)
from dll.errors import InsufficientLocalDataError, ZeroMassError
from dll.kernel import KernelSpec, kernel_weight
from dll.linear import scaled_lasso


def normal_density(t):
    return float(np.exp(-t * t / 2) / np.sqrt(2 * np.pi))


def exact_shift(mu, half, sigma2):
    """Exact Gaussian shift of the window with center ``mu`` and half-width
    ``half`` on the standardized scale: one projection ``-mu * sigma2`` at
    x0 = 0 with bandwidth ``half * sigma2`` (exact for sigma2 = 1)."""
    shifts, _ = window_shifts(
        np.array([-mu * sigma2]), sigma2, KernelSpec(0.0, half * sigma2), "exact_gaussian"
    )
    return float(shifts[0])


def quadrature_shift_oracle(mu, half, sigma2):
    num, _ = quad(lambda t: (t - mu) * normal_density(t), mu - half, mu + half,
                  epsabs=1e-14)
    den, _ = quad(normal_density, mu - half, mu + half, epsabs=1e-14)
    return sigma2 * num / den


def test_swap_split_partition():
    plan = swap_split(4, seed=0)
    assert set(plan.fold_a) | set(plan.fold_b) == {0, 1, 2, 3}
    assert set(plan.fold_a) & set(plan.fold_b) == set()
    assert len(plan.fold_a) == len(plan.fold_b) == 2


def test_swap_split_deterministic_and_odd():
    a = swap_split(101, seed=9)
    b = swap_split(101, seed=9)
    np.testing.assert_array_equal(a.fold_a, b.fold_a)
    np.testing.assert_array_equal(a.fold_b, b.fold_b)
    plan = swap_split(1001, seed=3)
    assert len(plan.fold_a) == 501 and len(plan.fold_b) == 500
    with pytest.raises(ValueError):
        swap_split(3, seed=0)


def test_exact_shift_symmetric_window_is_zero():
    assert exact_shift(0.0, 0.4, 1.0) == 0.0


def test_exact_shift_matches_quadrature():
    for mu, half, s2 in [(0.1, 0.2, 1.0), (0.5, 0.3, 2.0), (-1.2, 0.05, 0.7),
                         (2.0, 1.0, 1.0)]:
        got = exact_shift(mu, half, s2)
        assert got == pytest.approx(quadrature_shift_oracle(mu, half, s2), abs=1e-8)


def test_exact_shift_grid_against_quadrature():
    mus = np.linspace(-2, 2, 10)
    halves = np.linspace(0.05, 1.0, 10)
    for mu in mus:
        for half in halves:
            got = exact_shift(float(mu), float(half), 1.0)
            assert got == pytest.approx(
                quadrature_shift_oracle(float(mu), float(half), 1.0), abs=1e-8
            )


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=3.0, allow_nan=False),
    st.floats(min_value=0.01, max_value=1.5, allow_nan=False),
)
def test_exact_shift_odd_in_center(mu, half):
    plus = exact_shift(mu, half, 1.3)
    minus = exact_shift(-mu, half, 1.3)
    assert plus == pytest.approx(-minus, rel=1e-12, abs=1e-300)


def test_exact_shift_small_window_bound():
    for half in (0.01, 0.005, 0.002):
        for mu in (0.5, 1.5, -2.0):
            val = exact_shift(mu, half, 2.0)
            assert abs(val) <= half**2 * abs(mu) * 2.0


def test_exact_shift_tail_underflow_fallback():
    # Window mass far in the tail underflows; the linearized value is used.
    vals, underflow = window_shifts(
        np.array([-45.0]), 1.0, KernelSpec(0.0, 0.1), "exact_gaussian"
    )
    assert underflow
    assert vals[0] == pytest.approx(-1.0 * 45.0 * 0.1**2 / 3)


def test_linear_shift_values():
    spec = KernelSpec(x0=1.0, h=0.3)
    assert shift_linear(1.0, 1.0, spec) == 0.0
    spec0 = KernelSpec(x0=0.0, h=0.3)
    assert shift_linear(1.0, 1.0, spec0) == pytest.approx(0.03)
    assert shift_linear(1.0, 2.0, spec0) == pytest.approx(0.03 / 4)


def test_exact_minus_linear_scales_as_fourth_power():
    hs = np.array([0.4, 0.2, 0.1, 0.05])
    diffs = []
    for h in hs:
        exact = exact_shift(0.3, h, 1.0)
        lin = shift_linear(-0.3, 1.0, KernelSpec(0.0, h))
        diffs.append(abs(exact - lin))
    slope = np.polyfit(np.log(hs), np.log(diffs), 1)[0]
    assert 3.3 <= slope <= 4.7


def test_general_shift_consistency_with_gaussian():
    assert shift_general(normal_density, 0.5, 0.3, 1.0) == pytest.approx(
        exact_shift(0.5, 0.3, 1.0), abs=1e-8
    )
    assert shift_general(normal_density, 0.0, 0.4, 1.0) == pytest.approx(
        0.0, abs=1e-12
    )


def test_general_shift_laplace_riemann_oracle():
    lap = lambda t: 0.5 * np.exp(-abs(t))
    got = shift_general(lap, 0.5, 0.3, 1.0)
    ts = np.linspace(0.2, 0.8, 2_000_001)
    vals = 0.5 * np.exp(-np.abs(ts))
    oracle = np.trapezoid((ts - 0.5) * vals, ts) / np.trapezoid(vals, ts)
    assert got == pytest.approx(oracle, abs=1e-6)


def test_general_shift_zero_mass():
    with pytest.raises(ZeroMassError):
        shift_general(lambda t: 0.0, 0.0, 0.5, 1.0)


def test_build_weights_symmetric_design():
    x = np.concatenate([np.linspace(-0.9, -0.1, 9), np.linspace(0.1, 0.9, 9)])
    spec = KernelSpec(0.0, 1.0)
    w = build_weights(x, np.zeros_like(x), spec)
    np.testing.assert_allclose(w.offset - w.centered, 0.0, atol=1e-15)  # no centering shift
    np.testing.assert_allclose(w.centered, x)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_build_weights_centering_identity(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 200))
    x = rng.normal(size=n) * rng.uniform(0.2, 2)
    shifts = rng.normal(size=n) * 0.1
    spec = KernelSpec(float(rng.normal() * 0.2), float(rng.uniform(0.3, 1.5)))
    kh = kernel_weight(x, spec)
    if not np.any(kh > 0):
        return
    w = build_weights(x, shifts, spec)
    raw = w.offset - shifts
    lhs = abs(np.sum(w.centered * kh))
    scale = np.sum(np.abs(raw) * kh)
    assert lhs <= 1e-10 * max(scale, 1e-30)
    np.testing.assert_allclose(w.centered, raw - np.sum(raw * kh) / np.sum(kh))


def test_build_weights_carry_their_window():
    x = np.array([-0.4, 0.1, 0.3, 2.0])
    spec = KernelSpec(0.1, 0.5)
    w = build_weights(x, np.full(4, 0.2), spec)
    assert w.spec == spec
    np.testing.assert_array_equal(w.offset, x - 0.1)
    np.testing.assert_array_equal(w.kernel, kernel_weight(x, spec))
    with pytest.raises(ValueError, match="window"):
        weight_estimation_error(w, build_weights(x, np.full(4, 0.2), KernelSpec(0.1, 0.6)))


def test_build_weights_empty_window():
    with pytest.raises(InsufficientLocalDataError):
        build_weights(np.array([5.0, 6.0]), np.zeros(2), KernelSpec(0.0, 0.5))


def test_window_shifts_match_the_scalar_shifts():
    rng = np.random.default_rng(21)
    proj = rng.normal(size=40)
    sigma2 = rng.uniform(0.5, 2.0, size=40)
    spec = KernelSpec(0.2, 0.3)
    for mode, scalar in (
        ("exact_gaussian", lambda v, s: window_shifts(
            np.array([v]), s, spec, "exact_gaussian")[0][0]),
        ("general_density", lambda v, s: shift_general(
            normal_density, (spec.x0 - v) / s, spec.h / s, s)),
    ):
        shifts, underflow = window_shifts(proj, sigma2, spec, mode, normal_density)
        expected = [scalar(v, s) for v, s in zip(proj, sigma2)]
        np.testing.assert_allclose(shifts, expected, rtol=1e-14, atol=1e-300)
        assert underflow == 0
        pooled, _ = window_shifts(proj, 1.3, spec, mode, normal_density)
        per_row, _ = window_shifts(proj, np.full(40, 1.3), spec, mode, normal_density)
        np.testing.assert_allclose(pooled, per_row, rtol=1e-15, atol=0)
    with pytest.raises(ValueError, match="error density"):
        window_shifts(proj, 1.0, spec, "general_density")
    with pytest.raises(ValueError, match="unknown weight mode"):
        window_shifts(proj, 1.0, spec, "oracle_known")


def test_decorrelation_property_monte_carlo():
    # Exact-law weights: the kernel-weighted sample covariance with any
    # bounded function of the nuisance covariates vanishes at the 1/sqrt(n)
    # scale.
    rng = np.random.default_rng(9)
    n, p = 100_000, 3
    gamma = np.array([0.8, -0.5, 0.3])
    x2 = rng.standard_normal((n, p))
    x1 = x2 @ gamma + rng.normal(0, 1.0, n)
    spec = KernelSpec(0.3, 0.1)
    shifts, _ = window_shifts(x2 @ gamma, 1.0, spec, "exact_gaussian")
    w = build_weights(x1, shifts, spec)
    kh = kernel_weight(x1, spec)
    tests = [
        np.sin(x2 @ gamma),
        np.tanh(x2[:, 0] ** 2),
        np.cos(x2[:, 1]) + 0.5 * np.tanh(x2[:, 2]),
    ]
    for delta in tests:
        prod = w.centered * delta * kh
        assert abs(np.mean(prod)) <= 4 * np.std(prod) / np.sqrt(n)


def test_weight_error_zero_for_identical():
    rng = np.random.default_rng(3)
    x = rng.normal(size=500)
    spec = KernelSpec(0.0, 0.5)
    w = build_weights(x, np.zeros(500), spec)
    assert weight_estimation_error(w, w) == 0.0


def test_weight_error_constant_offset():
    rng = np.random.default_rng(4)
    x = rng.normal(size=2000)
    spec = KernelSpec(0.0, 0.5)
    oracle = build_weights(x, np.zeros(2000), spec)
    shifted = build_weights(x, np.zeros(2000), spec)
    bumped = replace(shifted, centered=shifted.centered + 0.07)
    kh = kernel_weight(x, spec)
    expected = 0.07 * np.sqrt(np.mean(kh))
    assert weight_estimation_error(bumped, oracle) == pytest.approx(expected)


def test_weight_error_lemma_shape_bound():
    # Estimated weights from the scaled Lasso stay within a constant
    # multiple of the theoretical shape sqrt(k log p / n) + h^2 (log n)^1.5.
    n, p, k, h = 400, 300, 3, 0.2
    spec = KernelSpec(0.0, h)
    shape = np.sqrt(k * np.log(p) / n) + h**2 * np.log(n) ** 1.5
    ratios = []
    for s in range(20):
        rng = np.random.default_rng(500 + s)
        gamma = np.zeros(p)
        gamma[:3] = (0.6, -0.6, 0.6)
        x2 = rng.standard_normal((n, p))
        x1 = x2 @ gamma + rng.normal(0, 1.0, n)
        fit = scaled_lasso(x2, x1)
        shifts = h**2 * (x2 @ fit.gamma - spec.x0) / (3 * fit.sigma2**2)
        w = build_weights(x1, shifts, spec)
        oracle_shifts, _ = window_shifts(x2 @ gamma, 1.0, spec, "exact_gaussian")
        oracle = build_weights(x1, oracle_shifts, spec)
        ratios.append(weight_estimation_error(w, oracle) / h**2 / shape)
    assert max(ratios) <= 1.0
    assert np.median(ratios) <= 0.5


def test_window_tail_ratio():
    val = window_tail_ratio(0.5, 0.1, np.array([3.0, 4.0]), 2.0, 100)
    expected = (0.5 + 0.1 + 5.0 * np.sqrt(np.log(100))) / 2.0
    assert val == pytest.approx(expected)
    assert window_tail_ratio(0.5, 0.1, np.array([]), 2.0, 100) == pytest.approx(0.3)
