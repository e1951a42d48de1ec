"""Monotone maps from covariates to [0,1] for the spline additive fit.

Two variants: the rank-based empirical CDF, whose training values lie
on the grid ``rank_grid(n)`` = k/(n+1), k = 1..n, with ties at the top
rank of their group (strictly inside (0,1), where spline bases do not
degenerate), and a user-supplied exact CDF (such as a ``GaussianCDF``).
``grid_ranks`` recognises the columns that are a permutation of that
grid, which is what the empirical CDF makes of a column without ties.
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


def grid_ranks(z_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns of ``z_matrix`` that are exactly a permutation of
    ``rank_grid(n)``, and their ranks minus one, one row per such column.

    The test is exact: ``rint(z * (n + 1))`` must reproduce z and take
    each value 1..n once.
    """
    n = z_matrix.shape[0]
    rank = np.rint(z_matrix * (n + 1))
    cols = np.flatnonzero((rank / (n + 1) == z_matrix).all(axis=0))
    rank = rank[:, cols].T.astype(np.intp)
    # Ranks run from 0 to n + 1 here; each of 1..n must appear once.
    counts = np.bincount((rank + (n + 2) * np.arange(cols.size)[:, None]).ravel(),
                         minlength=cols.size * (n + 2))
    once = (counts.reshape(cols.size, n + 2)[:, 1:-1] == 1).all(axis=1)
    return cols[once], rank[once] - 1


@dataclass(frozen=True)
class EmpiricalCDF:
    """Empirical CDF transform fitted on a training column.

    New values interpolate the empirical CDF piecewise-linearly between
    order statistics and are clamped to [1/(n+1), n/(n+1)]. A training
    value maps to the top rank of its tie group over n + 1 (its count of
    values at or below it); ``train_values`` holds these, equal to the
    transform of the training column.
    """

    order_stats: np.ndarray
    train_values: np.ndarray

    @classmethod
    def fit(cls, column) -> "EmpiricalCDF":
        column = np.asarray(column, dtype=float)
        if column.size < 1:
            raise ValueError("need at least one observation")
        order = np.argsort(column)
        s = column[order]
        values = np.empty(column.size)
        values[order] = rank_grid(column.size)[np.searchsorted(s, s, "right") - 1]
        return cls(s, values)

    def __call__(self, x):
        grid = rank_grid(self.order_stats.size)
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.order_stats, grid, left=grid[0], right=grid[-1])
        return float(out) if out.ndim == 0 else out

    def clamp_count(self, x) -> int:
        """Number of evaluation points outside the training range."""
        x = np.asarray(x, dtype=float)
        return int(np.sum((x < self.order_stats[0]) | (x > self.order_stats[-1])))


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
