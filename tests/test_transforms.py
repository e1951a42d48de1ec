import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import kstest, rankdata

from dll import transforms
from dll.transforms import EmpiricalCDF, KnownCDF, grid_ranks


def test_rank_transform_small_cases():
    np.testing.assert_allclose(
        EmpiricalCDF.fit([3.0, 1.0, 2.0]).train_values, [3 / 4, 1 / 4, 2 / 4]
    )


def test_rank_transform_equals_ranks_without_ties():
    rng = np.random.default_rng(17)
    for n in (1, 2, 7, 500):
        column = rng.normal(size=n)
        expected = rankdata(column, method="average") / (n + 1)
        np.testing.assert_array_equal(EmpiricalCDF.fit(column).train_values, expected)


def test_grid_ranks_finds_the_tie_free_rank_columns():
    # A tie-free column's transform is a permutation of the grid and is
    # found with its ranks; a tie, or a value off the grid, leaves it out.
    rng = np.random.default_rng(18)
    n = 300
    x = rng.normal(size=(n, 4))
    x[5, 1] = x[9, 1]
    z = np.column_stack([EmpiricalCDF.fit(col).train_values for col in x.T])
    z[0, 3] = np.nextafter(z[0, 3], 1.0)
    cols, ranks = grid_ranks(z)
    assert cols.tolist() == [0, 2]
    for col, rank in zip(cols, ranks):
        np.testing.assert_array_equal(rank, rankdata(x[:, col]) - 1)


def test_ndtr_is_scipy_ndtr_bit_for_bit():
    grid = np.linspace(-40, 40, 160_001)
    np.testing.assert_array_equal(transforms.ndtr(grid).view(np.int64),
                                  ndtr(grid).view(np.int64))


def test_empirical_transform_ks_against_uniform():
    rng = np.random.default_rng(0)
    z = EmpiricalCDF.fit(rng.normal(size=10_000)).train_values
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
