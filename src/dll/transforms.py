"""Monotone maps from covariates to [0,1] for the spline additive fit.

Three variants: the rank-based empirical CDF (values strictly inside
(0,1)), a user-supplied exact CDF (such as a ``GaussianCDF``), and a
heavier-tail mixture ``(1 - c0) * G0(x) + c0 * Phi(T(x))`` that
compresses the tails more slowly than the exact quantile map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr


def empirical_cdf_transform(column) -> np.ndarray:
    """Rank-based transform rank/(n+1), average ranks for ties.

    Keeps values off the endpoints of [0,1], where spline bases
    degenerate.
    """
    column = np.asarray(column, dtype=float)
    if column.size < 1:
        raise ValueError("need at least one observation")
    order = np.argsort(column)
    s = column[order]
    # Ties share the mean of their 1-based positions, a half-integer, so the
    # ranks are exact; sorted queries keep the two searches cache-friendly.
    ranks = np.empty(column.size)
    below = np.searchsorted(s, s, "left")
    ranks[order] = (below + np.searchsorted(s, s, "right") + 1) / 2
    return ranks / (column.size + 1)


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
        values[order] = np.searchsorted(s, s, "right") / (column.size + 1)
        return cls(s, values)

    def __call__(self, x):
        n = self.order_stats.size
        grid = np.arange(1, n + 1) / (n + 1)
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.order_stats, grid, left=1 / (n + 1), right=n / (n + 1))
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


@dataclass(frozen=True)
class HeavyTailTransform:
    """Mixture transform (1-c0)*G0(x) + c0*Phi(T(x)).

    ``T`` must be strictly increasing; ``G0`` non-decreasing with range
    [0,1] and zero derivative outside ``[-c_support, c_support]``. The
    pure case c0=1 reduces to Phi(T(x)).
    """

    t_func: Callable[[np.ndarray], np.ndarray]
    c0: float = 1.0
    g0: Callable[[np.ndarray], np.ndarray] | None = None
    c_support: float = 1.0

    def __post_init__(self) -> None:
        if not (0 < self.c0 <= 1):
            raise ValueError(f"c0 must lie in (0, 1], got {self.c0}")
        if self.g0 is None and self.c0 != 1.0:
            raise ValueError("c0 < 1 requires a bounded-support component g0")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = self.c0 * ndtr(np.asarray(self.t_func(x), dtype=float))
        if self.g0 is not None and self.c0 < 1.0:
            out = out + (1 - self.c0) * np.asarray(self.g0(x), dtype=float)
        out = np.asarray(out)
        return float(out) if out.ndim == 0 else out


def heavy_tail_transform(x, spec: HeavyTailTransform):
    """Evaluate a heavy-tail transform at ``x``."""
    return spec(x)


def density_lower_bound(
    spec: HeavyTailTransform | KnownCDF | EmpiricalCDF,
    source_density: Callable[[np.ndarray], np.ndarray],
    grid_size: int = 400,
    x_range: tuple[float, float] = (-8.0, 8.0),
) -> float:
    """Lower bound for the density of the transformed variable on [0,1].

    For CDF-based transforms the transformed variable is exactly uniform,
    so the bound is 1. For the heavy-tail mixture the bound is the
    smaller of the tail ratio ``F'(x) / (2 c0 H'(x))`` over
    ``|x| >= c_support`` and the interior ratio
    ``F'(x) / ((1-c0) G0'(x) + c0 H'(x))`` over ``|x| <= c_support``,
    with ``H(x) = Phi(T(x))``; derivatives of the user-supplied maps are
    taken by central differences on the grid.
    """
    if isinstance(spec, (KnownCDF, EmpiricalCDF)):
        return 1.0
    if grid_size < 100:
        raise ValueError(f"grid too coarse: grid_size={grid_size} < 100")
    xs = np.linspace(x_range[0], x_range[1], grid_size)
    step = xs[1] - xs[0]
    f_prime = np.asarray(source_density(xs), dtype=float)

    def deriv(func) -> np.ndarray:
        vals = np.asarray(func(xs), dtype=float)
        return np.gradient(vals, step)

    h_prime = deriv(lambda z: ndtr(np.asarray(spec.t_func(z), dtype=float)))
    g0_prime = deriv(spec.g0) if spec.g0 is not None else np.zeros_like(xs)

    tail = np.abs(xs) >= spec.c_support
    interior = ~tail
    candidates = []
    with np.errstate(divide="ignore", invalid="ignore"):
        if tail.any():
            ratio = f_prime[tail] / (2 * spec.c0 * h_prime[tail])
            candidates.append(np.nanmin(ratio[np.isfinite(ratio)]))
        if interior.any():
            denom = (1 - spec.c0) * g0_prime[interior] + spec.c0 * h_prime[interior]
            ratio = f_prime[interior] / denom
            candidates.append(np.nanmin(ratio[np.isfinite(ratio)]))
    return float(min(candidates))
