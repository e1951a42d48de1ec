"""Monotone maps from covariates to [0,1] for the spline additive fit.

Two variants: the rank-based empirical CDF, whose training values lie
on the grid ``rank_grid(n)`` = k/(n+1), k = 1..n, with ties at the top
rank of their group (strictly inside (0,1), where spline bases do not
degenerate), and a user-supplied exact CDF (such as a ``GaussianCDF``).
``fit_empirical`` transforms the training columns of a matrix, or of a
sequence of columns, and returns a column without ties, a permutation of
that grid, as its sort order.
``ndtr``, the standard normal CDF, is the package's one route to scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


def ndtr(x):
    """Standard normal CDF, elementwise: ``scipy.special.ndtr``.

    scipy is imported on the first call, so only the paths that evaluate
    a Gaussian CDF (known-CDF transforms, exact Gaussian window shifts)
    load it; ``dll fit`` with the default options does not.
    """
    from scipy.special import ndtr as scipy_ndtr

    return scipy_ndtr(x)


def rank_grid(n: int) -> np.ndarray:
    """The empirical CDF's levels ``k / (n + 1)``, k = 1..n."""
    return np.arange(1, n + 1) / (n + 1)


@dataclass(frozen=True)
class EmpiricalCDF:
    """Empirical CDF transform fitted on a training column.

    New values interpolate the empirical CDF piecewise-linearly between
    order statistics and are clamped to [1/(n+1), n/(n+1)]. A training
    value maps to the top rank of its tie group over n + 1 (its count of
    values at or below it).
    """

    order_stats: np.ndarray

    @classmethod
    def fit(cls, column) -> "EmpiricalCDF":
        column = np.asarray(column, dtype=float).ravel()
        if column.size < 1:
            raise ValueError("need at least one observation")
        # Sorted by argsort, as fit_empirical sorts: np.sort may order a
        # -0.0 and a 0.0 the other way round.
        return cls(column[np.argsort(column)])

    def __call__(self, x):
        grid = rank_grid(self.order_stats.size)
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.order_stats, grid, left=grid[0], right=grid[-1])
        return float(out) if out.ndim == 0 else out


def fit_empirical(x_cols) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The empirical-CDF transform of every column of ``x_cols``, applied
    to its training values, with one argsort per column.

    ``x_cols`` is an (n, c) matrix or a sequence of its c columns, each
    read once and in order, so a caller can gather one column at a time
    and never build the matrix. A tie-free (rank) column maps row
    ``order[i]`` to ``rank_grid(n)[i]``, so it is returned in
    ``ranked = (cols, orders)``, its index and sort order; ``z`` holds the
    transformed values of the others. ``ranges`` (c, 2) holds each
    column's training [min, max], outside which its transform clamps. No
    ``EmpiricalCDF`` is built for a rank column: its order statistics are
    the column gathered in its sort order. The orders are int32 below
    2**31 rows: the spline fit keeps them throughout, and half the bytes
    of the default index type suffice."""
    columns = np.asarray(x_cols, dtype=float).T if isinstance(x_cols, np.ndarray) else x_cols
    c = len(columns)
    first = np.asarray(columns[0], dtype=float) if c else np.empty(0)
    n = first.size
    if n < 1:
        raise ValueError("need at least one column and one observation")
    orders = np.empty((c, n), dtype=np.int32 if n < 2**31 else np.intp)
    ranges = np.empty((c, 2))
    tied = np.zeros(c, dtype=bool)
    z = []
    for j in range(c):
        column = np.asarray(columns[j], dtype=float) if j else first
        orders[j] = order = np.argsort(column)
        ordered = column[order]
        ranges[j] = ordered[0], ordered[-1]
        tied[j] = (ordered[1:] == ordered[:-1]).any()
        if tied[j]:
            z.append(EmpiricalCDF(ordered)(column))
    z = np.column_stack(z or [np.empty((n, 0))])
    cols = np.flatnonzero(~tied)
    return ranges, z, (cols, orders[cols] if tied.any() else orders)


def count_outside(ranges: np.ndarray, x_matrix: np.ndarray) -> int:
    """Entries of ``x_matrix`` outside the training range ``ranges[j]`` =
    (min, max) of their column j (``fit_empirical``'s ``ranges``), where
    its empirical transform clamps."""
    lo, hi = ranges.T
    return int(np.count_nonzero((x_matrix < lo) | (x_matrix > hi)))


@dataclass(frozen=True)
class KnownCDF:
    """Transform through an exact marginal CDF."""

    cdf: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x):
        out = np.asarray(self.cdf(np.asarray(x, dtype=float)), dtype=float)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class GaussianCDF:
    """CDF of a centered normal law with standard deviation ``scale``.

    A frozen value rather than a closure, so it pickles, and a fit whose
    CDFs are all Gaussian transforms its columns with one ``ndtr`` call.
    """

    scale: float

    def __call__(self, x):
        return ndtr(np.asarray(x, dtype=float) / self.scale)
