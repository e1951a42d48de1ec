"""Boxcar kernel machinery.

The window around the evaluation point is the closed interval
``[x0 - h, x0 + h]``; the rescaled kernel has constant weight ``1/h``
inside the window and zero outside, so weighted local fits coincide with
unweighted fits restricted to the window. The base kernel, the indicator
of ``[-1, 1]``, is ``kernel_weight(u, KernelSpec(0.0, 1.0))``. The local
linear slope itself is ``estimator.dll_point`` on zero-shift weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidBandwidthError

# Fewest in-window points the pipeline accepts at an evaluation point.
MIN_WINDOW_POINTS = 10


@dataclass(frozen=True)
class KernelSpec:
    """Evaluation point and bandwidth defining the local window."""

    x0: float
    h: float

    def __post_init__(self) -> None:
        if not valid_bandwidth(self.h):
            raise InvalidBandwidthError(f"bandwidth h must be > 0 with h**2 finite, got {self.h}")


def valid_bandwidth(h: float) -> bool:
    """``h > 0`` with a finite ``h**2`` (a float product overflows to inf, not an error)."""
    return 0 < float(h) and float(h) * float(h) < np.inf


def kernel_weight(x, spec: KernelSpec):
    """Rescaled kernel weight: 1/h inside the window, 0 outside."""
    x = np.asarray(x, dtype=float)
    out = np.where(np.abs(x - spec.x0) <= spec.h, 1.0 / spec.h, 0.0)
    return float(out) if out.ndim == 0 else out


def effective_sample_size(x, spec: KernelSpec) -> int:
    """Number of observations inside the window (about ``2*n*h*density``)."""
    x = np.asarray(x, dtype=float)
    return int(np.count_nonzero(np.abs(x - spec.x0) <= spec.h))
