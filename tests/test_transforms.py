import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import kstest, rankdata

from dll import transforms
from dll.transforms import EmpiricalCDF, KnownCDF, count_outside, fit_empirical, rank_grid


def test_rank_transform_small_cases():
    column = np.array([3.0, 1.0, 2.0])
    np.testing.assert_allclose(EmpiricalCDF.fit(column)(column), [3 / 4, 1 / 4, 2 / 4])


def test_rank_transform_equals_ranks_without_ties():
    rng = np.random.default_rng(17)
    for n in (1, 2, 7, 500):
        column = rng.normal(size=n)
        expected = rankdata(column, method="average") / (n + 1)
        np.testing.assert_array_equal(EmpiricalCDF.fit(column)(column), expected)


def test_fit_empirical_finds_the_tie_free_rank_columns():
    # A tie-free column's transform is a permutation of the grid and is
    # returned as its sort order, which gives its ranks; a tie leaves it out.
    rng = np.random.default_rng(18)
    n = 300
    x = rng.normal(size=(n, 4))
    x[5, 1] = x[9, 1]
    _, z, (cols, orders) = fit_empirical(x)
    assert cols.tolist() == [0, 2, 3] and orders.dtype == np.int32
    for col, order in zip(cols, orders):
        rank = np.empty(n)
        rank[order] = np.arange(n)
        np.testing.assert_array_equal(rank, rankdata(x[:, col]) - 1)
    np.testing.assert_array_equal(z[:, 0], EmpiricalCDF.fit(x[:, 1])(x[:, 1]))


def per_column_fit(column):
    """The reference: one argsort per column, then each value's top rank."""
    order = np.argsort(column)
    s = column[order]
    values = np.empty(column.size)
    values[order] = rank_grid(column.size)[np.searchsorted(s, s, "right") - 1]
    return s, values


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.one_of(st.sampled_from([1, 2, 500]), st.integers(min_value=3, max_value=40)),
    st.integers(min_value=1, max_value=4),
)
def test_fit_empirical_matches_the_per_column_fit(seed, n, c):
    # Bit for bit, against EmpiricalCDF.fit and the per-column reference:
    # each column's order statistics, and its transformed training values,
    # given as a sort order for a tie-free column and as values otherwise.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c))
    x[:, ::2] = np.round(x[:, ::2], int(rng.integers(0, 3)))
    # A rank column's values gathered in its sort order are its order
    # statistics, which is how a fit builds the transforms it keeps.
    ranges, z, (cols, orders) = fit_empirical(x)
    tied = [j for j in range(c) if np.unique(x[:, j]).size < n]
    assert cols.tolist() == [j for j in range(c) if j not in tied]
    assert z.shape == (n, len(tied)) and orders.shape == (len(cols), n)
    values = np.empty((n, c))
    values[:, tied] = z
    for j, order in zip(cols, orders):
        values[order, j] = rank_grid(n)
        assert x[order, j].tobytes() == np.sort(x[:, j]).tobytes()
    for j in range(c):
        order_stats, train_values = per_column_fit(x[:, j])
        tr = EmpiricalCDF.fit(x[:, j])
        assert tr.order_stats.tobytes() == order_stats.tobytes()
        assert ranges[j].tobytes() == order_stats[[0, -1]].tobytes()
        for expected in (train_values, tr(x[:, j])):
            assert values[:, j].tobytes() == expected.tobytes()


class ColumnReader:
    """The columns of a matrix as a sequence that records each read."""

    def __init__(self, x):
        self.x, self.reads = x, []

    def __len__(self):
        return self.x.shape[1]

    def __getitem__(self, j):
        self.reads.append(j)
        return self.x[:, j].copy()


def test_fit_empirical_reads_one_column_at_a_time():
    # Fed a sequence of columns, each read once and in order, the fit
    # returns the bytes of the fit of the stacked matrix: for tied and
    # tie-free columns, and for columns whose minimum is a -0.0 and 0.0
    # pair, which tie and whose range keeps the sign that sorts first.
    rng = np.random.default_rng(20)
    x = rng.normal(size=(400, 5))
    x[:, 1] = np.round(x[:, 1], 1)
    x[:, 3:] = np.abs(x[:, 3:])
    x[:2, 3] = -0.0, 0.0
    x[5:7, 4] = 0.0, -0.0
    reader = ColumnReader(x)
    for ours, theirs in zip(fit_empirical(reader), fit_empirical(x)):
        ours, theirs = (ours, theirs) if isinstance(ours, tuple) else ((ours,), (theirs,))
        for a, b in zip(ours, theirs):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert reader.reads == list(range(5))
    ranges, _, (cols, _) = fit_empirical(x)
    assert cols.tolist() == [0, 2] and np.all(ranges[3:, 0] == 0)


def test_count_outside_sums_the_per_column_counts():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(200, 5))
    x[:, 1] = np.round(x[:, 1])
    ranges, _, _ = fit_empirical(x)
    new = 1.5 * rng.normal(size=(300, 5))
    new[0, 2], new[1, 2] = ranges[2]  # the ends are inside
    per_column = [
        sum(v < x[:, j].min() or v > x[:, j].max() for v in new[:, j]) for j in range(5)
    ]
    assert count_outside(ranges, new) == sum(per_column) > 0
    # No columns, as the nuisance of a p = 0 fold, clamp nothing.
    assert count_outside(ranges[:0], new[:, :0]) == 0


def test_ndtr_is_scipy_ndtr_bit_for_bit():
    # A grid, normal draws at three scales, and each branch edge of Cephes'
    # ndtr (|x| = 1, sqrt 2, 8 sqrt 2 and sqrt(2 MAXLOG)) with its two
    # neighbouring doubles, besides infinities, signed zeros, subnormals,
    # huge values and NaNs of either sign, which come back as the
    # canonical NaN. No step may warn, even where erfc underflows.
    rng = np.random.default_rng(3)
    edges = np.array([1.0, np.sqrt(2), 8 * np.sqrt(2), np.sqrt(2 * transforms._MAXLOG)])
    edges = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
    special = [np.inf, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e308,
               np.finfo(float).max]
    x = np.concatenate([
        np.linspace(-40, 40, 160_001),
        rng.normal(0, 1, 20_000), rng.normal(0, 3, 20_000), rng.normal(0, 30, 20_000),
        edges, -edges, special, np.negative(special), [np.nan, -np.nan],
    ])
    inputs = [x, x[-49:].reshape(7, 7).T, np.empty((0, 3))]  # a transposed 2-D view
    scalars = [-1.5, 0.25, 9.0, -np.nan]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = [transforms.ndtr(v) for v in inputs + scalars]
    for got, v in zip(ours, inputs + scalars):
        want = ndtr(v)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        np.testing.assert_array_equal(np.asarray(got).view(np.int64),
                                      np.asarray(want).view(np.int64))


def test_empirical_transform_ks_against_uniform():
    rng = np.random.default_rng(0)
    draws = rng.normal(size=10_000)
    z = EmpiricalCDF.fit(draws)(draws)
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
    ranges = fit_empirical(np.array([[0.0], [1.0], [2.0], [3.0]]))[0]
    assert count_outside(ranges, np.array([[-1.0], [0.5], [99.0]])) == 2


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
    top = np.array([np.sum(column <= v) for v in column]) / (n + 1)
    np.testing.assert_array_equal(EmpiricalCDF.fit(column)(column), top)
