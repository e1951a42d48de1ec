"""Decorrelated local-regression weights.

The raw weight of an observation is its window offset ``x1 - x0`` minus a
shift equal to (an estimate of) the conditional mean of that offset given
the nuisance covariates, restricted to the kernel window. Subtracting the
kernel-weighted average then centers the weights empirically, so they
annihilate constants exactly and are nearly uncorrelated with any
function of the nuisance covariates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InsufficientLocalDataError, ZeroMassError
from .kernel import KernelSpec, kernel_weight
from .transforms import ndtr

UNDERFLOW_MASS = 1e-300
SIMPSON_TOL = 1e-10
SIMPSON_DEPTH = 20

SHIFT_MODES = ("linear", "exact_gaussian", "general_density")


@dataclass(frozen=True)
class SwapPlan:
    """Random two-fold partition used to cross-apply nuisance estimates."""

    fold_a: np.ndarray
    fold_b: np.ndarray


def swap_split(n: int, seed: int) -> SwapPlan:
    """Uniformly random partition into two near-equal folds.

    Deterministic given the seed; for odd ``n`` the first fold gets the
    extra element.
    """
    if n < 4:
        raise ValueError(f"need n >= 4 to split, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    half = (n + 1) // 2
    return SwapPlan(np.sort(perm[:half]), np.sort(perm[half:]))


def _phi(t: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)


def shift_linear(x2_dot_gamma, sigma2, spec: KernelSpec):
    """Small-bandwidth linearization of the conditional window shift
    (elementwise, so the arguments may be arrays)."""
    return spec.h**2 * (x2_dot_gamma - spec.x0) / (3 * sigma2**2)


def _exact_gaussian_shifts(
    proj: np.ndarray, sigma2, spec: KernelSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Exact conditional window shifts for Gaussian projection errors.

    Closed form of the truncated-normal mean offset
    ``sigma2 * int (t - mu) phi(t) dt / int phi(t) dt`` over
    ``[mu - L, mu + L]``, with window center ``mu = (x0 - proj) / sigma2``
    and half-width ``L = h / sigma2``. Returns (shifts, underflow_mask);
    where the window mass underflows, the linearized shift is substituted
    (such points carry no kernel weight anyway).
    """
    mu = (spec.x0 - proj) / sigma2
    half_width = spec.h / sigma2
    # Work on |mu| and restore the sign afterwards so the map is exactly
    # odd in the window center.
    amu = np.abs(mu)
    lo, hi = amu - half_width, amu + half_width
    upper, lower = ndtr(np.stack([hi, lo]))
    mass = upper - lower
    underflow = mass < UNDERFLOW_MASS
    numer = _phi(lo) - _phi(hi) - amu * mass
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = np.sign(mu) * (sigma2 * numer / mass)
    return np.where(underflow, shift_linear(proj, sigma2, spec), exact), underflow


def _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    m = (a + b) / 2
    lm, rm = (a + m) / 2, (m + b) / 2
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6 * (fa + 4 * flm + fm)
    right = (b - m) / 6 * (fm + 4 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15 * tol:
        return left + right + (left + right - whole) / 15
    return _adaptive_simpson(
        f, a, m, fa, flm, fm, left, tol / 2, depth - 1
    ) + _adaptive_simpson(f, m, b, fm, frm, fb, right, tol / 2, depth - 1)


def adaptive_simpson(f: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive Simpson quadrature, absolute tolerance 1e-10."""
    fa, fb, fm = f(a), f(b), f((a + b) / 2)
    whole = (b - a) / 6 * (fa + 4 * fm + fb)
    return _adaptive_simpson(f, a, b, fa, fm, fb, whole, SIMPSON_TOL, SIMPSON_DEPTH)


def shift_general(
    density: Callable[[float], float], mu: float, half: float, sigma2: float
) -> float:
    """Conditional window shift under a user-supplied standardized density.

    The window is ``[mu - half, mu + half]`` on the standardized
    projection-residual scale: ``mu = (x0 - projection) / sigma2`` and
    ``half = h / sigma2``.
    """
    mass = adaptive_simpson(density, mu - half, mu + half)
    if mass <= UNDERFLOW_MASS:
        raise ZeroMassError("density places no mass on the window")
    moment = adaptive_simpson(lambda t: (t - mu) * density(t), mu - half, mu + half)
    return sigma2 * moment / mass


def window_shifts(
    proj: np.ndarray,
    sigma2,
    spec: KernelSpec,
    mode: str,
    error_density: Callable[[float], float] | None = None,
) -> tuple[np.ndarray, int]:
    """Shifts of all observations, given their projections ``x2 @ gamma``
    and projection-error scales (one, or one each), and the underflow count.
    """
    proj = np.asarray(proj, dtype=float)
    if mode == "linear":
        return shift_linear(proj, sigma2, spec), 0
    if mode == "exact_gaussian":
        shifts, underflow = _exact_gaussian_shifts(proj, sigma2, spec)
        return shifts, int(np.sum(underflow))
    if mode == "general_density":
        if error_density is None:
            raise ValueError("general_density mode requires an error density")
        scales = np.broadcast_to(sigma2, proj.shape)
        shifts = [
            shift_general(error_density, (spec.x0 - v) / s, spec.h / s, s)
            for v, s in zip(proj, scales)
        ]
        return np.array(shifts), 0
    raise ValueError(f"unknown weight mode {mode!r}")


@dataclass(frozen=True)
class DecorrelationWeights:
    """Centered decorrelation weights with their kernel window: its ``spec``
    and each observation's ``offset`` ``x1 - x0`` and ``kernel`` weight."""

    spec: KernelSpec
    offset: np.ndarray
    kernel: np.ndarray
    centered: np.ndarray


def build_weights(
    x1: np.ndarray, shifts: np.ndarray, spec: KernelSpec
) -> DecorrelationWeights:
    """Assemble decorrelated weights and center them on the kernel window.

    With zero shifts the weights are the centered window offsets, and
    ``estimator.dll_point`` on them is the plug-in local linear slope.
    """
    x1 = np.asarray(x1, dtype=float)
    shifts = np.asarray(shifts, dtype=float)
    if x1.shape != shifts.shape:
        raise ValueError("x1 and shifts must have equal length")
    kh = kernel_weight(x1, spec)
    total = float(np.sum(kh))
    if total == 0.0:
        raise InsufficientLocalDataError("no observations inside the kernel window")
    offset = x1 - spec.x0
    raw = offset - shifts
    centering = float(np.sum(raw * kh) / total)
    return DecorrelationWeights(spec, offset, kh, raw - centering)


def weight_estimation_error(
    weights: DecorrelationWeights, oracle: DecorrelationWeights
) -> float:
    """Kernel-weighted RMS distance from the oracle weights on the same window."""
    if weights.spec != oracle.spec:
        raise ValueError("weights and oracle must share their kernel window")
    diff = weights.centered - oracle.centered
    return float(np.sqrt(np.mean(diff**2 * weights.kernel)))


def window_tail_ratio(
    x0: float, h: float, gamma: np.ndarray, sigma2: float, n: int
) -> float:
    """Diagnostic: standardized upper reach of the window.

    ``(x0 + h + ||gamma||_2 sqrt(log n)) / sigma2``; the estimator is
    reliable when this times h is small.
    """
    gnorm = float(np.linalg.norm(np.asarray(gamma, dtype=float))) if np.size(gamma) else 0.0
    return (x0 + h + gnorm * math.sqrt(math.log(max(n, 2)))) / sigma2
