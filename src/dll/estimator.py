"""Point estimate, variance, confidence interval and test for the
derivative of the component of interest, plus the cross-fitted pipeline.

The pipeline: split the sample in two folds; on each fold estimate the
linear projection of the variable of interest on the nuisance covariates
and the additive nuisance fit; swap fits across folds so every
observation is evaluated with estimates independent of it; build
decorrelated weights; combine with the nuisance-adjusted residuals into
the weighted local slope and its variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
from scipy.special import ndtri

from . import spline
from .decorrelate import (
    DecorrelationWeights,
    GaussianWindow,
    SwapPlan,
    _exact_gaussian_shifts,
    build_weights,
    shift_general,
    swap_split,
    weight_estimation_error,
    window_tail_ratio,
)
from .errors import (
    BandwidthSelectionError,
    DataError,
    InsufficientLocalDataError,
    NumericalError,
    SampleTooSmallError,
    SingularDesignError,
)
from .kernel import MIN_WINDOW_POINTS, KernelSpec, effective_sample_size, kernel_weight
from .linear import ProjectionFit, ols_projection, scaled_lasso, sigma_floor
from .transforms import EmpiricalCDF, KnownCDF


@dataclass(frozen=True)
class Dataset:
    """Observed sample: outcome, variable of interest, nuisance matrix."""

    y: np.ndarray
    x1: np.ndarray
    x2: np.ndarray  # shape (n, p); p may be 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "x1", np.asarray(self.x1, dtype=float))
        x2 = np.asarray(self.x2, dtype=float)
        if x2.ndim == 1:
            x2 = x2.reshape(len(x2), -1) if x2.size else x2.reshape(self.y.size, 0)
        object.__setattr__(self, "x2", x2)
        if not (self.y.shape[0] == self.x1.shape[0] == self.x2.shape[0]):
            raise ValueError("inconsistent sample sizes")
        for name in ("y", "x1", "x2"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise DataError(f"{name} holds NaN or infinite values")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.x2.shape[1]


@dataclass(frozen=True)
class PipelineOptions:
    """Tunables for the cross-fitted pipeline; every field has a default."""

    h: float | None = None
    alpha: float = 0.05
    mode: str = "linear"  # linear | exact_gaussian | general_density
    seed: int = 0
    bandwidth_const: float = 0.5
    min_window: int = MIN_WINDOW_POINTS
    projection: str = "auto"  # auto | ols | scaled_lasso
    lasso_const: float = 1.01
    sigma2_per_fold: bool = False
    smoothness: int = 2
    num_interior_knots: int | None = None
    knot_placement: str = "quantile"
    rho_const: float = spline.DEFAULT_RHO_CONST
    lambda_const: float = spline.DEFAULT_LAMBDA_CONST
    nuisance: str = "doubly_penalized"  # | group_lasso (smoothness penalty off)
    transform: str = "empirical"  # | known (requires known_cdfs)
    sigma1_override: float | None = None
    ci_literal: bool = False
    error_density: Callable[[float], float] | None = None

    def __post_init__(self) -> None:
        if not (0 < self.alpha < 1):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.h is not None and not (self.h > 0):
            raise ValueError(f"h must be > 0 when given, got {self.h}")
        if not (self.bandwidth_const > 0):
            raise ValueError(f"bandwidth_const must be > 0, got {self.bandwidth_const}")
        if not (self.lasso_const > 1):
            raise ValueError(f"lasso_const must exceed 1, got {self.lasso_const}")
        if not (self.rho_const >= 0 and self.lambda_const >= 0):
            raise ValueError(
                f"rho_const and lambda_const must be >= 0, got {self.rho_const}, "
                f"{self.lambda_const}"
            )
        if self.num_interior_knots is not None and self.num_interior_knots < 0:
            raise ValueError(
                f"num_interior_knots must be >= 0 when given, got {self.num_interior_knots}"
            )


@dataclass(frozen=True)
class DLLFit:
    """Result of the decorrelated local linear fit at one point."""

    estimate: float
    s_n: float
    sigma1: float
    variance: float
    ci_low: float
    ci_high: float
    alpha: float
    reject_zero: bool
    n_effective: int
    mode: str  # estimated | oracle
    diagnostics: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class PipelineInternals:
    """Intermediate objects of one pipeline run, for diagnostics."""

    spec: KernelSpec
    plan: SwapPlan | None
    projection_a: ProjectionFit | None
    projection_b: ProjectionFit | None
    additive_a: spline.AdditiveFit | None
    additive_b: spline.AdditiveFit | None
    weights: DecorrelationWeights
    residuals: np.ndarray
    sigma2: float | None


def slope_normalizer(
    weights: DecorrelationWeights, x1: np.ndarray, spec: KernelSpec
) -> float:
    """Normalizing sum: mean of weight * offset * kernel weight."""
    x1 = np.asarray(x1, dtype=float)
    kh = kernel_weight(x1, spec)
    if not np.any(kh > 0):
        raise InsufficientLocalDataError("no observations inside the kernel window")
    value = float(np.mean(weights.centered * (x1 - spec.x0) * kh))
    if abs(value) < 1e-12 * spec.h**2:
        raise SingularDesignError(f"normalizing sum {value:.3e} is numerically zero")
    return value


def dll_point(
    weights: DecorrelationWeights,
    residuals: np.ndarray,
    x1: np.ndarray,
    spec: KernelSpec,
) -> float:
    """Decorrelated local linear estimate of the derivative at x0."""
    residuals = np.asarray(residuals, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    s_n = slope_normalizer(weights, x1, spec)
    kh = kernel_weight(x1, spec)
    return float(np.mean(weights.centered * residuals * kh) / s_n)


def noise_sd_estimate(y: np.ndarray, fitted: np.ndarray, df: int) -> float:
    """Degrees-of-freedom corrected residual standard deviation."""
    y = np.asarray(y, dtype=float)
    fitted = np.asarray(fitted, dtype=float)
    n = y.shape[0]
    if df >= n:
        raise SampleTooSmallError(f"df={df} must be smaller than n={n}")
    rss = float(np.sum((y - fitted) ** 2))
    return max(math.sqrt(rss / (n - df)), sigma_floor(y))


def variance_estimate(
    weights: DecorrelationWeights,
    x1: np.ndarray,
    spec: KernelSpec,
    sigma1: float,
    s_n: float,
) -> float:
    """Variance of the weighted local slope estimator.

    ``sigma1^2 / (n S_n)^2`` times the sum of squared centered weights
    times squared kernel weights.
    """
    if s_n == 0:
        raise SingularDesignError("normalizing sum is zero")
    x1 = np.asarray(x1, dtype=float)
    n = x1.shape[0]
    kh = kernel_weight(x1, spec)
    total = float(np.sum(weights.centered**2 * kh**2))
    return sigma1**2 * total / (n * s_n) ** 2


def confidence_interval(
    estimate: float, variance: float, alpha: float, literal: bool = False
) -> tuple[float, float]:
    """Two-sided normal interval centered at the estimate.

    The half-width is ``z_(alpha/2) * sqrt(variance)``; with
    ``literal=True`` the square root is skipped (for comparison only).
    """
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0, 1)")
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    z = float(ndtri(1 - alpha / 2))
    half = z * (variance if literal else math.sqrt(variance))
    return estimate - half, estimate + half


def test_zero(
    estimate: float, variance: float, alpha: float, literal: bool = False
) -> bool:
    """Reject the zero-derivative hypothesis (closed rejection region)."""
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0, 1)")
    z = float(ndtri(1 - alpha / 2))
    half = z * (variance if literal else math.sqrt(variance))
    return bool(abs(estimate) >= half)


def kde_density(x1: np.ndarray, x0: float) -> float:
    """Gaussian kernel density estimate at a point, Silverman bandwidth."""
    x1 = np.asarray(x1, dtype=float)
    n = x1.size
    sd = float(np.std(x1, ddof=1))
    q75, q25 = np.percentile(x1, [75, 25])
    spread = min(sd, (q75 - q25) / 1.34) if q75 > q25 else sd
    if spread <= 0:
        raise BandwidthSelectionError("sample has no spread")
    bw = 0.9 * spread * n ** (-1 / 5)
    u = (x0 - x1) / bw
    return float(np.mean(np.exp(-0.5 * u * u)) / (bw * math.sqrt(2 * math.pi)))


def default_bandwidth(x1: np.ndarray, x0: float, c: float = 0.5) -> float:
    """Plug-in bandwidth ``c * (n * density(x0))^(-1/5)``."""
    x1 = np.asarray(x1, dtype=float)
    n = x1.size
    if n < 20:
        raise SampleTooSmallError(f"need n >= 20 for bandwidth selection, got {n}")
    dens = kde_density(x1, x0)
    if dens < 1e-6:
        raise BandwidthSelectionError(
            f"estimated density at x0={x0} is {dens:.2e}; supply h manually"
        )
    return c * (n * dens) ** (-1 / 5)


def _fit_transforms(
    x_cols: np.ndarray, options: PipelineOptions, known_cdfs
) -> tuple:
    """One transform per coordinate, fitted on the given training columns."""
    n_coords = x_cols.shape[1]
    if options.transform == "known":
        if known_cdfs is None or len(known_cdfs) != n_coords:
            raise ValueError("transform='known' requires one CDF per coordinate")
        return tuple(KnownCDF(cdf) for cdf in known_cdfs)
    return tuple(EmpiricalCDF.fit(x_cols[:, j]) for j in range(n_coords))


def _clamp_count(transforms, x_cols: np.ndarray) -> int:
    total = 0
    for j, tr in enumerate(transforms):
        if isinstance(tr, EmpiricalCDF):
            total += tr.clamp_count(x_cols[:, j])
    return total


def _fit_additive(
    x_cols: np.ndarray, y: np.ndarray, options: PipelineOptions, known_cdfs
) -> spline.AdditiveFit:
    """Transform the training columns and run the penalized additive fit."""
    n, n_coords = x_cols.shape
    transforms = _fit_transforms(x_cols, options, known_cdfs)
    z = np.column_stack([transforms[j](x_cols[:, j]) for j in range(n_coords)])
    rho, lam = spline.default_penalties(
        n, n_coords, options.smoothness, options.rho_const, options.lambda_const
    )
    if options.nuisance == "group_lasso":
        rho = 0.0
    spec = spline.BasisSpec(
        degree=3,
        num_interior_knots=options.num_interior_knots,
        placement=options.knot_placement,
    )
    return spline.fit_doubly_penalized(
        z, y, (rho, lam), spec, m=options.smoothness, transforms=transforms
    )


def _fit_projection(
    x2: np.ndarray, x1: np.ndarray, options: PipelineOptions
) -> ProjectionFit:
    n, p = x2.shape
    method = options.projection
    if method == "auto":
        method = "ols" if n > max(4 * p, p + 10) else "scaled_lasso"
    if method == "ols":
        return ols_projection(x2, x1)
    return scaled_lasso(x2, x1, options.lasso_const)


def _shifts_for(
    x2: np.ndarray,
    gamma: np.ndarray,
    sigma2: float,
    spec: KernelSpec,
    mode: str,
    options: PipelineOptions,
) -> tuple[np.ndarray, int]:
    """Per-observation window shifts; returns (shifts, underflow count)."""
    proj = x2 @ gamma if x2.shape[1] else np.zeros(x2.shape[0])
    if mode == "linear":
        return spec.h**2 * (proj - spec.x0) / (3 * sigma2**2), 0
    if mode in ("exact_gaussian", "oracle_known"):
        mu = (spec.x0 - proj) / sigma2
        vals, underflow = _exact_gaussian_shifts(mu, spec.h / sigma2, sigma2)
        return vals, int(np.sum(underflow))
    if mode == "general_density":
        if options.error_density is None:
            raise ValueError("general_density mode requires options.error_density")
        half = spec.h / sigma2
        vals = np.array(
            [
                shift_general(
                    options.error_density,
                    GaussianWindow((spec.x0 - v) / sigma2, half),
                    sigma2,
                )
                for v in proj
            ]
        )
        return vals, 0
    raise ValueError(f"unknown weight mode {mode!r}")


def _assemble_fit(
    weights: DecorrelationWeights,
    residuals: np.ndarray,
    x1: np.ndarray,
    spec: KernelSpec,
    sigma1: float,
    options: PipelineOptions,
    mode_label: str,
    diagnostics: dict[str, Any],
) -> DLLFit:
    s_n = slope_normalizer(weights, x1, spec)
    estimate = float(np.mean(weights.centered * residuals * kernel_weight(x1, spec)) / s_n)
    variance = variance_estimate(weights, x1, spec, sigma1, s_n)
    if not (math.isfinite(estimate) and math.isfinite(variance)):
        raise NumericalError(f"non-finite estimate {estimate} or variance {variance}")
    ci_low, ci_high = confidence_interval(
        estimate, variance, options.alpha, literal=options.ci_literal
    )
    reject = test_zero(estimate, variance, options.alpha, literal=options.ci_literal)
    return DLLFit(
        estimate=estimate,
        s_n=s_n,
        sigma1=sigma1,
        variance=variance,
        ci_low=ci_low,
        ci_high=ci_high,
        alpha=options.alpha,
        reject_zero=reject,
        n_effective=effective_sample_size(x1, spec),
        mode=mode_label,
        diagnostics=diagnostics,
    )


def _run_pipeline(
    dataset: Dataset,
    x0: float,
    options: PipelineOptions,
    known_cdfs=None,
    true_projection: tuple[np.ndarray, float] | None = None,
    oracle: bool = False,
) -> tuple[DLLFit, PipelineInternals]:
    y, x1, x2 = dataset.y, dataset.x1, dataset.x2
    n, p = dataset.n, dataset.p
    if n < 40:
        raise SampleTooSmallError(f"pipeline needs n >= 40, got {n}")
    if oracle and true_projection is None:
        raise ValueError("oracle mode requires the true projection parameters")

    h = options.h if options.h is not None else default_bandwidth(
        x1, x0, options.bandwidth_const
    )
    spec = KernelSpec(x0, h)
    if effective_sample_size(x1, spec) < options.min_window:
        raise InsufficientLocalDataError(
            f"only {effective_sample_size(x1, spec)} in-window points, "
            f"need {options.min_window}"
        )
    flags: dict[str, Any] = {"h": h}

    if p == 0:
        # Univariate reduction: no projection, no nuisance; centered
        # window offsets are the weights and the outcome is the residual.
        weights = build_weights(x1, np.zeros(n), spec, mode=options.mode)
        residuals = y.copy()
        if options.sigma1_override is not None:
            sigma1 = options.sigma1_override
        else:
            uni = _fit_additive(x1[:, None], y, options, known_cdfs)
            fitted = uni.predict_sum(x1[:, None])
            sigma1 = noise_sd_estimate(y, fitted, uni.active_dimension + 1)
        diagnostics = {
            "weight_error": None,
            "window_tail_ratio": None,
            "flags": flags,
        }
        fit = _assemble_fit(
            weights, residuals, x1, spec, sigma1,
            options, "oracle" if oracle else "estimated", diagnostics,
        )
        internals = PipelineInternals(
            spec, None, None, None, None, None, weights, residuals, None
        )
        return fit, internals

    plan = swap_split(n, options.seed)
    a, b = plan.fold_a, plan.fold_b
    x_all = np.column_stack([x1, x2])

    proj: dict[str, ProjectionFit] = {}
    additive: dict[str, spline.AdditiveFit] = {}
    for name, idx in (("a", a), ("b", b)):
        proj[name] = _fit_projection(x2[idx], x1[idx], options)
        additive[name] = _fit_additive(x_all[idx], y[idx], options, known_cdfs)
    flags["projection_method"] = proj["a"].method
    flags["projection_converged"] = proj["a"].converged and proj["b"].converged
    flags["additive_converged"] = additive["a"].converged and additive["b"].converged

    # Cross-application: each observation is evaluated with the fits from
    # the opposite fold. The two fold fits are aligned to a common level
    # (their average mean over the full sample): a constant offset that
    # differs by fold is not annihilated by the global centering of the
    # weights, so it would leak into the estimate as extra noise.
    nuis_all = {g: additive[g].predict_sum(x2, exclude=0) for g in ("a", "b")}
    full_all = {g: additive[g].predict_sum(x_all) for g in ("a", "b")}
    nuis_level = {g: float(np.mean(nuis_all[g])) for g in ("a", "b")}
    full_level = {g: float(np.mean(full_all[g])) for g in ("a", "b")}
    nuis_mid = (nuis_level["a"] + nuis_level["b"]) / 2
    full_mid = (full_level["a"] + full_level["b"]) / 2

    gamma_for = np.empty((n, p))
    nuis = np.empty(n)
    full = np.empty(n)
    clamped = 0
    for idx, other in ((a, "b"), (b, "a")):
        fit_o = additive[other]
        gamma_for[idx] = proj[other].gamma
        nuis[idx] = nuis_all[other][idx] - nuis_level[other] + nuis_mid
        full[idx] = full_all[other][idx] - full_level[other] + full_mid
        if fit_o.transforms is not None:
            clamped += _clamp_count(fit_o.transforms, x_all[idx])
    flags["transform_clamped"] = clamped

    cross_resid = x1 - np.einsum("ij,ij->i", x2, gamma_for)
    sigma2_pooled = max(
        float(np.sqrt(np.mean(cross_resid**2))), sigma_floor(x1)
    )
    flags["sigma2"] = sigma2_pooled

    underflow = 0
    if oracle:
        gamma_true, sigma2_true = true_projection
        shifts, underflow = _shifts_for(
            x2, np.asarray(gamma_true, dtype=float), sigma2_true,
            spec, "oracle_known", options,
        )
        weights = build_weights(x1, shifts, spec, mode="oracle_known")
    else:
        shifts = np.empty(n)
        for idx, other in ((a, "b"), (b, "a")):
            sig = proj[other].sigma2 if options.sigma2_per_fold else sigma2_pooled
            vals, uf = _shifts_for(
                x2[idx], proj[other].gamma, sig, spec, options.mode, options
            )
            shifts[idx] = vals
            underflow += uf
        weights = build_weights(x1, shifts, spec, mode=options.mode)
    flags["shift_underflow"] = underflow

    residuals = y - nuis
    if options.sigma1_override is not None:
        sigma1 = options.sigma1_override
    else:
        df = round((additive["a"].active_dimension + additive["b"].active_dimension) / 2) + 1
        sigma1 = noise_sd_estimate(y, full, df)

    weight_err = None
    if true_projection is not None:
        gamma_true, sigma2_true = true_projection
        oracle_shifts, _ = _shifts_for(
            x2, np.asarray(gamma_true, dtype=float), sigma2_true,
            spec, "oracle_known", options,
        )
        oracle_weights = build_weights(x1, oracle_shifts, spec, mode="oracle_known")
        weight_err = weight_estimation_error(weights, oracle_weights, x1, spec)

    ratio_gamma = (
        np.asarray(true_projection[0], dtype=float)
        if oracle
        else (proj["a"].gamma + proj["b"].gamma) / 2
    )
    ratio_sigma = true_projection[1] if oracle else sigma2_pooled
    diagnostics = {
        "weight_error": weight_err,
        "window_tail_ratio": window_tail_ratio(x0, h, ratio_gamma, ratio_sigma, n),
        "flags": flags,
    }
    fit = _assemble_fit(
        weights, residuals, x1, spec, sigma1,
        options, "oracle" if oracle else "estimated", diagnostics,
    )
    internals = PipelineInternals(
        spec, plan, proj["a"], proj["b"], additive["a"], additive["b"],
        weights, residuals, sigma2_pooled,
    )
    return fit, internals


def dll_pipeline(
    dataset: Dataset,
    x0: float,
    options: PipelineOptions = PipelineOptions(),
    known_cdfs=None,
    true_projection: tuple[np.ndarray, float] | None = None,
) -> DLLFit:
    """Full cross-fitted decorrelated local linear fit.

    When the true projection parameters are supplied (simulation only)
    the diagnostics include the kernel-weighted error of the estimated
    weights against the oracle weights.
    """
    return _run_pipeline(dataset, x0, options, known_cdfs, true_projection)[0]


def oracle_pipeline(
    dataset: Dataset,
    x0: float,
    true_gamma: np.ndarray,
    true_sigma2: float,
    options: PipelineOptions = PipelineOptions(),
    known_cdfs=None,
) -> DLLFit:
    """Pipeline variant with weights built from the known conditional law.

    The nuisance fit is still estimated and cross-fitted; only the window
    shifts use the exact conditional distribution of the variable of
    interest given the nuisance covariates.
    """
    return _run_pipeline(
        dataset,
        x0,
        options,
        known_cdfs,
        true_projection=(np.asarray(true_gamma, dtype=float), true_sigma2),
        oracle=True,
    )[0]
