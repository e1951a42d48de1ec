"""Monotone maps from covariates to [0,1] for the spline additive fit.

Two variants: the rank-based empirical CDF, whose training values lie
on the grid ``rank_grid(n)`` = k/(n+1), k = 1..n, with ties at the top
rank of their group (strictly inside (0,1), where spline bases do not
degenerate), and a user-supplied exact CDF (such as a ``GaussianCDF``).
``fit_empirical`` fits a matrix from one argsort, and returns a column
without ties, a permutation of that grid, as its sort order.
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
        return fit_empirical(np.reshape(column, (-1, 1)))[0][0]

    def __call__(self, x):
        grid = rank_grid(self.order_stats.size)
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.order_stats, grid, left=grid[0], right=grid[-1])
        return float(out) if out.ndim == 0 else out


def fit_empirical(x_cols: np.ndarray) -> tuple[tuple[EmpiricalCDF, ...], np.ndarray, tuple]:
    """The EmpiricalCDF of every column of ``x_cols`` (n, c) from one
    argsort, with the transformed columns: a tie-free (rank) column maps row
    ``order[i]`` to ``rank_grid(n)[i]``, so it is returned in ``ranked =
    (cols, orders)``, its index and sort order; ``z`` holds the others.
    The orders are int32 below 2**31 rows: the spline fit keeps them
    throughout, and half the bytes of the default index type suffice."""
    x_cols = np.asarray(x_cols, dtype=float)
    if x_cols.shape[0] < 1:
        raise ValueError("need at least one observation")
    order = np.argsort(x_cols.T, axis=1)
    if x_cols.shape[0] < 2**31:
        order = order.astype(np.int32)
    ordered = np.take_along_axis(x_cols.T, order, axis=1)
    transforms = tuple(EmpiricalCDF(s) for s in ordered)
    tied = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    z = [tr(x) for tr, x, t in zip(transforms, x_cols.T, tied) if t]
    z = np.column_stack(z or [np.empty((len(x_cols), 0))])
    cols = np.flatnonzero(~tied)
    return transforms, z, (cols, order[cols] if tied.any() else order)


def count_clamped(transforms: tuple[EmpiricalCDF, ...], x_matrix: np.ndarray) -> int:
    """Entries of ``x_matrix`` outside the training range of their column's
    transform (one per column, possibly none), where it clamps."""
    lo, hi = np.array([tr.order_stats[[0, -1]] for tr in transforms]).reshape(-1, 2).T
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
