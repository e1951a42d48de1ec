import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import kstest, rankdata

from dll.transforms import (
    EmpiricalCDF,
    HeavyTailTransform,
    KnownCDF,
    density_lower_bound,
    empirical_cdf_transform,
    heavy_tail_transform,
)


def test_rank_transform_small_cases():
    np.testing.assert_allclose(
        empirical_cdf_transform([3.0, 1.0, 2.0]), [3 / 4, 1 / 4, 2 / 4]
    )
    np.testing.assert_allclose(empirical_cdf_transform([5.0, 5.0, 5.0]), [0.5] * 3)


@pytest.mark.parametrize("ties", [False, True])
def test_rank_transform_equals_average_ranks(ties):
    rng = np.random.default_rng(17)
    for n in (1, 2, 7, 500):
        column = rng.normal(size=n)
        if ties:
            column = np.round(column, 1)
        expected = rankdata(column, method="average") / (n + 1)
        np.testing.assert_array_equal(empirical_cdf_transform(column), expected)


def test_import_does_not_load_scipy_stats():
    code = "import sys, dll, dll.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_empirical_transform_ks_against_uniform():
    rng = np.random.default_rng(0)
    z = empirical_cdf_transform(rng.normal(size=10_000))
    stat = kstest(z, "uniform").statistic
    assert stat < 0.02


def test_known_cdf_uniformity_ks():
    rng = np.random.default_rng(1)
    n = 10_000
    tr = KnownCDF(ndtr)
    z = tr(rng.normal(size=n))
    # 95% critical value of the one-sample KS statistic
    assert kstest(z, "uniform").statistic < 1.36 / np.sqrt(n)


def test_empirical_out_of_sample_interpolation_and_clamp():
    tr = EmpiricalCDF.fit(np.array([0.0, 1.0, 2.0, 3.0]))
    n = 4
    assert tr(0.0) == pytest.approx(1 / (n + 1))
    assert tr(3.0) == pytest.approx(n / (n + 1))
    assert tr(1.5) == pytest.approx((2 / 5 + 3 / 5) / 2)
    assert tr(-10.0) == pytest.approx(1 / (n + 1))  # clamped left
    assert tr(10.0) == pytest.approx(n / (n + 1))  # clamped right
    assert tr.clamp_count(np.array([-1.0, 0.5, 99.0])) == 2


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_transforms_monotone_and_in_range(seed):
    rng = np.random.default_rng(seed)
    column = rng.normal(size=50) * rng.uniform(0.5, 3)
    tr = EmpiricalCDF.fit(column)
    grid = np.sort(rng.normal(size=40) * 2)
    vals = tr(grid)
    assert np.all(np.diff(vals) >= 0)
    assert np.all((vals > 0) & (vals < 1))
    heavy = HeavyTailTransform(t_func=lambda x: np.sign(x) * np.abs(x) ** 1.5)
    hv = heavy(grid)
    assert np.all(np.diff(hv) >= 0)
    assert np.all((hv >= 0) & (hv <= 1))


def test_heavy_tail_point_values():
    spec = HeavyTailTransform(t_func=lambda x: x, c0=1.0)
    assert heavy_tail_transform(0.0, spec) == pytest.approx(0.5)
    assert heavy_tail_transform(40.0, spec) == pytest.approx(1.0)
    assert heavy_tail_transform(-40.0, spec) == pytest.approx(0.0, abs=1e-12)
    power = HeavyTailTransform(t_func=lambda x: np.sign(x) * np.abs(x) ** 1.5)
    # independent oracle via the error function
    from math import erf, sqrt

    phi_one = 0.5 * (1 + erf(1 / sqrt(2)))
    assert heavy_tail_transform(1.0, power) == pytest.approx(phi_one, abs=1e-12)


def test_heavy_tail_mixture_validation():
    with pytest.raises(ValueError):
        HeavyTailTransform(t_func=lambda x: x, c0=0.0)
    with pytest.raises(ValueError):
        HeavyTailTransform(t_func=lambda x: x, c0=0.5)  # no bounded component


def ramp_g0(c_support):
    def g0(x):
        return np.clip((np.asarray(x, float) + c_support) / (2 * c_support), 0.0, 1.0)

    return g0


def test_heavy_tail_mixture_values():
    spec = HeavyTailTransform(
        t_func=lambda x: x, c0=0.5, g0=ramp_g0(1.0), c_support=1.0
    )
    x = np.array([-5.0, 0.0, 5.0])
    expected = 0.5 * ndtr(x) + 0.5 * np.clip((x + 1) / 2, 0, 1)
    np.testing.assert_allclose(spec(x), expected)


def test_density_lower_bound_copula_exact():
    assert density_lower_bound(KnownCDF(ndtr), lambda x: np.exp(-x * x / 2)) == 1.0
    assert density_lower_bound(EmpiricalCDF.fit(np.arange(5.0)), lambda x: x) == 1.0


def test_density_lower_bound_grid_too_coarse():
    spec = HeavyTailTransform(t_func=lambda x: 2 * x)
    with pytest.raises(ValueError):
        density_lower_bound(spec, lambda x: np.exp(-x * x / 2), grid_size=50)


def test_density_lower_bound_matches_histogram_oracle():
    # Standard normal source, transform Phi(2x): exact transformed density
    # q(t) = phi(x)/(2 phi(2x)) at x = ndtri(t)/2, minimized at 0.5.
    spec = HeavyTailTransform(t_func=lambda x: 2.0 * x, c0=1.0, c_support=1.0)
    src = lambda x: np.exp(-np.asarray(x) ** 2 / 2) / np.sqrt(2 * np.pi)
    bound = density_lower_bound(spec, src, grid_size=2001, x_range=(-6, 6))

    rng = np.random.default_rng(7)
    n_draws = 1_000_000
    draws = ndtr(2.0 * rng.normal(size=n_draws))
    counts, edges = np.histogram(draws, bins=50, range=(0.05, 0.95))
    width = edges[1] - edges[0]
    hist_min = counts.min() / (n_draws * width)
    assert bound == pytest.approx(hist_min, rel=0.2)


def test_density_lower_bound_tail_term_structure():
    # With c0 -> 0 and the bounded component flat outside [-C, C], the
    # tail part of the bound reduces to F'/(2 c0 H'): tiny c0 makes it
    # explode while the interior term stays put.
    src = lambda x: np.exp(-np.asarray(x) ** 2 / 2) / np.sqrt(2 * np.pi)
    interior_minima = []
    for c0 in (1e-2, 1e-3):
        spec = HeavyTailTransform(
            t_func=lambda x: x, c0=c0, g0=ramp_g0(1.0), c_support=1.0
        )
        xs = np.linspace(-6, 6, 2001)
        h_prime = np.gradient(ndtr(xs), xs[1] - xs[0])
        tail = np.abs(xs) >= 1.0
        tail_formula = src(xs[tail]) / (2 * c0 * h_prime[tail])
        bound = density_lower_bound(spec, src, grid_size=2001, x_range=(-6, 6))
        interior = ~tail
        g0_prime = np.gradient(ramp_g0(1.0)(xs), xs[1] - xs[0])
        denom = (1 - c0) * g0_prime[interior] + c0 * h_prime[interior]
        interior_formula = src(xs[interior]) / denom
        expected = min(np.nanmin(tail_formula), np.nanmin(interior_formula))
        assert bound == pytest.approx(expected, rel=1e-6)
        interior_minima.append(np.nanmin(interior_formula))
        assert np.nanmin(tail_formula) > np.nanmin(interior_formula)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=300))
def test_empirical_train_values_equal_the_transform(seed, n):
    # A training value maps to the top rank of its tie group over n + 1.
    rng = np.random.default_rng(seed)
    column = np.round(rng.normal(size=n), int(rng.integers(0, 3)))
    tr = EmpiricalCDF.fit(column)
    np.testing.assert_array_equal(tr.train_values, tr(column))
    top = np.array([np.sum(column <= v) for v in column]) / (n + 1)
    np.testing.assert_array_equal(tr.train_values, top)
