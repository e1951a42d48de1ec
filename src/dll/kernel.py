"""Boxcar kernel machinery and the univariate local linear slope estimator.

The window around the evaluation point is the closed interval
``[x0 - h, x0 + h]``; the rescaled kernel has constant weight ``1/h``
inside the window and zero outside, so weighted local fits coincide with
unweighted fits restricted to the window. The base kernel, the indicator
of ``[-1, 1]``, is ``kernel_weight(u, KernelSpec(0.0, 1.0))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientLocalDataError,
    InvalidBandwidthError,
    SingularDesignError,
)

# Defaults shared across the package.
MIN_WINDOW_POINTS = 10
SINGULARITY_RTOL = 1e-12


@dataclass(frozen=True)
class KernelSpec:
    """Evaluation point and bandwidth defining the local window."""

    x0: float
    h: float

    def __post_init__(self) -> None:
        if not (self.h > 0):
            raise InvalidBandwidthError(f"bandwidth must be > 0, got {self.h}")


def kernel_weight(x, spec: KernelSpec):
    """Rescaled kernel weight: 1/h inside the window, 0 outside."""
    x = np.asarray(x, dtype=float)
    out = np.where(np.abs(x - spec.x0) <= spec.h, 1.0 / spec.h, 0.0)
    return float(out) if out.ndim == 0 else out


def in_window(x, spec: KernelSpec):
    """Boolean mask of points falling inside the closed window."""
    x = np.asarray(x, dtype=float)
    return np.abs(x - spec.x0) <= spec.h


def effective_sample_size(x, spec: KernelSpec) -> int:
    """Number of observations inside the window (about ``2*n*h*density``)."""
    return int(np.count_nonzero(in_window(x, spec)))


def local_linear_slope(
    x,
    y,
    spec: KernelSpec,
    min_points: int = MIN_WINDOW_POINTS,
) -> float:
    """Local linear estimate of the regression derivative at ``spec.x0``.

    With the boxcar kernel the estimate equals the OLS slope of the
    in-window points: the weights are the window-centered ``x - x0``
    values, and the kernel factor is constant within the window.

    Raises InsufficientLocalDataError when fewer than ``min_points``
    in-window points (or fewer than 2 distinct x values) are available,
    and SingularDesignError when the normalizing sum is numerically zero.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("x and y must have equal length")
    mask = in_window(x, spec)
    m = int(np.count_nonzero(mask))
    if m < max(2, min_points):
        raise InsufficientLocalDataError(
            f"{m} in-window points, need at least {max(2, min_points)}"
        )
    xs = x[mask]
    if np.unique(xs).size < 2:
        raise InsufficientLocalDataError("in-window x values are all identical")
    kh = kernel_weight(x, spec)
    centered = x - spec.x0
    w = centered - np.sum(centered * kh) / np.sum(kh)
    denom = np.sum(w * centered * kh)
    if abs(denom) < SINGULARITY_RTOL * spec.h**2 * m:
        raise SingularDesignError(f"normalizing sum {denom:.3e} is numerically zero")
    return float(np.sum(w * y * kh) / denom)
