"""Point estimate, variance, confidence interval and test for the
derivative of the component of interest, plus the cross-fitted pipeline.

The pipeline has two steps. ``cross_fit`` splits the sample in two
folds; on each fold it estimates the linear projection of the variable
of interest on the nuisance covariates and the additive nuisance fit,
and it swaps the fits across folds so every observation is evaluated
with estimates independent of it. ``evaluate`` then builds decorrelated
weights at a point and combines them with the nuisance-adjusted
residuals into the weighted local slope and its variance.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from statistics import NormalDist
from typing import Any, Callable

import numpy as np

from . import linear, spline
from .decorrelate import (
    SHIFT_MODES,
    DecorrelationWeights,
    SwapPlan,
    build_weights,
    swap_split,
    weight_estimation_error,
    window_shifts,
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
from .kernel import MIN_WINDOW_POINTS, KernelSpec, effective_sample_size, valid_bandwidth
from .linear import ProjectionFit, _row_blocks, noise_sd_estimate, ols_projection, scaled_lasso
from .transforms import EmpiricalCDF, count_outside, fit_empirical, map_columns


def _real_array(name: str, value) -> np.ndarray:
    """``value`` as a float array, or a DataError naming the field."""
    try:
        array = np.asarray(value)
        if np.iscomplexobj(array):
            raise TypeError("complex values")
        return array.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{name} must be an array of real numbers: {exc}") from None


def check_seed(seed) -> None:
    """A seed is an integer >= 0 (a numpy integer too, but not a bool),
    checked at construction: numpy's generators reject others only when
    a fit draws from them, with a TypeError, which is no DLLError."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")


@dataclass(frozen=True)
class Dataset:
    """Observed sample: outcome, variable of interest, nuisance matrix.

    ``y`` and ``x1`` are 1-D and ``x2`` is (n, p), a 1-D ``x2`` being one
    column, all of real numbers; anything else (a value that is not a
    real number, a ragged or misshapen array, unequal lengths or a
    non-finite value) raises DataError naming the field.
    """

    y: np.ndarray
    x1: np.ndarray
    x2: np.ndarray  # shape (n, p); p may be 0

    def __post_init__(self) -> None:
        y, x1, x2 = (_real_array(name, getattr(self, name)) for name in ("y", "x1", "x2"))
        if x2.ndim == 1:
            x2 = x2.reshape(len(x2), -1) if x2.size else x2.reshape(y.size, 0)
        for name, value, ndim in (("y", y, 1), ("x1", x1, 1), ("x2", x2, 2)):
            if value.ndim != ndim:
                raise DataError(f"{name} must be {ndim}-D, got shape {value.shape}")
        if not (y.shape[0] == x1.shape[0] == x2.shape[0]):
            raise DataError(
                f"inconsistent sample sizes: y has {y.shape[0]} rows, x1 {x1.shape[0]}, "
                f"x2 {x2.shape[0]}"
            )
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)
        for name in ("y", "x1", "x2"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise DataError(f"{name} holds NaN or infinite values")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.x2.shape[1]


_CHOICES = {
    "mode": SHIFT_MODES,
    "transform": ("empirical", "known"),
}


@dataclass(frozen=True)
class PipelineOptions:
    """Tunables for the cross-fitted pipeline; every field has a default."""

    h: float | None = None
    alpha: float = 0.05
    mode: str = "linear"  # one of decorrelate.SHIFT_MODES
    seed: int = 0
    bandwidth_const: float = 0.5
    lasso_const: float = linear.DEFAULT_PENALTY_CONST
    num_interior_knots: int | None = None
    rho_const: float = spline.DEFAULT_RHO_CONST
    lambda_const: float = spline.DEFAULT_LAMBDA_CONST
    transform: str = "empirical"  # | known (requires known_cdfs)
    sigma1_override: float | None = None
    error_density: Callable[[float], float] | None = None

    def __post_init__(self) -> None:
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(
                    f"{name} must be one of {allowed}, got {getattr(self, name)!r}"
                )
        if self.mode == "general_density" and self.error_density is None:
            raise ValueError("mode 'general_density' requires error_density")
        if not (0 < self.alpha < 1 and 1 - self.alpha / 2 < 1):  # a finite normal quantile
            raise ValueError(f"alpha must lie in (0, 1) with 1 - alpha/2 < 1, got {self.alpha}")
        check_seed(self.seed)
        if self.h is not None and not valid_bandwidth(self.h):
            raise ValueError(f"h must be > 0 with h**2 finite when given, got {self.h}")
        # Chained comparisons with math.inf also reject NaN.
        if not (0 < self.bandwidth_const < math.inf):
            raise ValueError(
                f"bandwidth_const must be finite and > 0, got {self.bandwidth_const}"
            )
        if not (1 < self.lasso_const < math.inf):
            raise ValueError(f"lasso_const must be finite and exceed 1, got {self.lasso_const}")
        if not (0 <= self.rho_const < math.inf and 0 <= self.lambda_const < math.inf):
            raise ValueError(
                f"rho_const and lambda_const must be finite and >= 0, got {self.rho_const}, "
                f"{self.lambda_const}"
            )
        if self.sigma1_override is not None and not (0 < self.sigma1_override < math.inf):
            raise ValueError(
                f"sigma1_override must be finite and > 0 when given, got {self.sigma1_override}"
            )
        k = self.num_interior_knots
        if k is not None and (isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 0):
            raise ValueError(f"num_interior_knots must be an integer >= 0 when given, got {k!r}")
        if self.error_density is not None and not callable(self.error_density):
            raise ValueError(f"error_density must be callable, got {self.error_density!r}")


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
    diagnostics: dict[str, Any] = field(default_factory=dict)
    # The weights behind the estimate; not part of the reports.
    weights: DecorrelationWeights | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True, eq=False)
class CrossFit:
    """Cross-fitted nuisance estimates, shared by every evaluation point.

    ``projection_rows`` holds each observation's ``x2 @ gamma`` from the
    opposite fold (``None`` gives zero window shifts, the plug-in
    weights); ``sigma2`` is the pooled projection-error scale, ``gamma``
    the folds' mean coefficients and ``flags`` the fit diagnostics that
    every evaluation reports. With p == 0 the projection is empty, each
    fold fits x1 alone, and the constant nuisance and window shifts are
    annihilated by the centered weights.
    """

    dataset: Dataset
    residuals: np.ndarray
    sigma1: float
    flags: dict[str, Any]
    plan: SwapPlan
    projections: tuple[ProjectionFit, ...]
    additive: tuple[spline.AdditiveFit, ...]
    sigma2: float
    gamma: np.ndarray
    projection_rows: np.ndarray | None = None


def slope_normalizer(weights: DecorrelationWeights) -> float:
    """Normalizing sum: mean of weight * offset * kernel weight."""
    value = float(np.mean(weights.centered * weights.offset * weights.kernel))
    if abs(value) < 1e-12 * weights.spec.h**2:
        raise SingularDesignError(f"normalizing sum {value:.3e} is numerically zero")
    return value


def dll_point(weights: DecorrelationWeights, residuals: np.ndarray) -> float:
    """Decorrelated local linear estimate of the derivative at x0."""
    residuals = np.asarray(residuals, dtype=float)
    s_n = slope_normalizer(weights)
    return float(np.mean(weights.centered * residuals * weights.kernel) / s_n)


def variance_estimate(weights: DecorrelationWeights, sigma1: float, s_n: float) -> float:
    """Variance of the estimator: ``sigma1^2 / (n S_n)^2`` times the sum of
    squared centered weights times squared kernel weights."""
    if s_n == 0:
        raise SingularDesignError("normalizing sum is zero")
    n = weights.centered.shape[0]
    total = float(np.sum(weights.centered**2 * weights.kernel**2))
    # numpy's power overflows to inf where Python's raises OverflowError;
    # both call the C pow, so finite results agree bit for bit. The caller
    # reports an infinite variance as a NumericalError, so numpy's overflow
    # warning would only repeat it.
    with np.errstate(over="ignore"):
        return float(np.float64(sigma1) ** 2 * total / (n * s_n) ** 2)


def _half_width(variance: float, alpha: float) -> float:
    """Normal half-width ``z_(alpha/2) * sqrt(variance)``."""
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0, 1)")
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    return NormalDist().inv_cdf(1 - alpha / 2) * math.sqrt(variance)


def confidence_interval(
    estimate: float, variance: float, alpha: float
) -> tuple[float, float]:
    """Two-sided normal interval centered at the estimate."""
    half = _half_width(variance, alpha)
    return estimate - half, estimate + half


def test_zero(estimate: float, variance: float, alpha: float) -> bool:
    """Reject the zero-derivative hypothesis (closed rejection region)."""
    return bool(abs(estimate) >= _half_width(variance, alpha))


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
    # Far from the data u overflows to inf: default_bandwidth reports the 0.
    with np.errstate(over="ignore"):
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


class _FoldColumns:
    """The columns ``x1[idx], x2[idx, 0], x2[idx, 1], ...`` of a fold as a
    sequence, each gathered only when it is read."""

    def __init__(self, x1: np.ndarray, x2: np.ndarray, idx: np.ndarray):
        self.x1, self.x2, self.idx = x1, x2, idx

    def __len__(self) -> int:
        return self.x2.shape[1] + 1

    def __getitem__(self, j: int) -> np.ndarray:
        if not 0 <= j < len(self):
            raise IndexError(j)
        return self.x2[self.idx, j - 1] if j else self.x1[self.idx]


def _fold_matrix(x1: np.ndarray, x2: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``np.column_stack([x1[idx], x2[idx]])``, filled in place."""
    x_cols = np.empty((len(idx), x2.shape[1] + 1))
    x_cols[:, 0] = x1[idx]
    for start, block in _row_blocks(x2, idx):
        x_cols[start : start + len(block), 1:] = block
    return x_cols


def _fit_additive(
    x1: np.ndarray, x2: np.ndarray, idx: np.ndarray, y: np.ndarray,
    options: PipelineOptions, known_cdfs,
) -> tuple[spline.AdditiveFit, np.ndarray | None]:
    """The penalized additive fit of ``y`` on the transformed fold columns
    ``[x1[idx], x2[idx]]`` (cubic splines on quantile knots,
    second-derivative smoothness penalty), with the empirical transforms'
    training ranges (see ``fit_empirical``; none for known CDFs).

    The empirical transform reads the fold's columns one at a time, so
    no coordinate matrix is built; the known CDFs map a fold matrix (see
    ``map_columns``) that lives only until its columns are mapped. The
    fit keeps a transform only for each active coordinate (the others are
    None): its known CDF as given, or an empirical one built after the
    fit from the column's fold values, gathered in a rank column's sort
    order or sorted again where the column has ties."""
    if options.transform == "empirical":
        ranges, z, ranked = fit_empirical(_FoldColumns(x1, x2, idx))
    elif known_cdfs is None:
        raise ValueError("transform='known' requires one CDF per coordinate")
    else:
        ranges, z, ranked = None, map_columns(known_cdfs, _fold_matrix(x1, x2, idx)), None
    n, n_coords = len(idx), x2.shape[1] + 1
    penalties = spline.default_penalties(
        n, n_coords, rho_const=options.rho_const, lambda_const=options.lambda_const
    )
    fit = spline.fit_doubly_penalized(z, y, penalties, options.num_interior_knots, ranked=ranked)
    transforms = [None] * n_coords
    orders = {} if ranked is None else dict(zip(ranked[0].tolist(), ranked[1]))
    for j in fit.active_set:
        column = x2[:, j - 1] if j else x1
        if ranked is None:
            transforms[j] = known_cdfs[j]
        elif j in orders:
            transforms[j] = EmpiricalCDF(column[idx[orders[j]]])
        else:
            transforms[j] = EmpiricalCDF.fit(column[idx])
    return replace(fit, transforms=tuple(transforms)), ranges


def _fit_projection(
    x2: np.ndarray, x1: np.ndarray, options: PipelineOptions, rows: np.ndarray | None = None
) -> ProjectionFit:
    """The projection of ``x1[rows]`` on ``x2[rows]`` (all rows when None):
    least squares, which reads the rows in place, when the sample is
    large against p, and the scaled Lasso, on a copy of them, otherwise."""
    n, p = len(x2) if rows is None else len(rows), x2.shape[1]
    if n > max(4 * p, p + 10):
        return ols_projection(x2, x1, rows)
    if rows is not None:
        x2, x1 = x2[rows], x1[rows]
    return scaled_lasso(x2, x1, options.lasso_const)


def _check_size(n: int, options: PipelineOptions) -> None:
    """n >= 40, and no more spline basis functions than the smaller fold has
    rows: such a fit fails only after building a Gram matrix of about k x k
    per coordinate."""
    if n < 40:
        raise SampleTooSmallError(f"pipeline needs n >= 40, got {n}")
    k = options.num_interior_knots
    if k is not None and k + spline.DEGREE + 1 > n // 2:
        raise SampleTooSmallError(
            f"{k} interior knots give {k + spline.DEGREE + 1} basis functions, more than "
            f"the smaller fold's {n // 2} rows"
        )


def _kernel_window(x1: np.ndarray, x0: float, options: PipelineOptions) -> KernelSpec:
    """Window at x0 (given or plug-in bandwidth), checked to hold enough points."""
    if not math.isfinite(x0):
        raise DataError(f"x0 must be finite, got {x0}")
    h = options.h if options.h is not None else default_bandwidth(
        x1, x0, options.bandwidth_const
    )
    spec = KernelSpec(x0, h)
    in_window = effective_sample_size(x1, spec)
    if in_window < MIN_WINDOW_POINTS:
        raise InsufficientLocalDataError(
            f"only {in_window} in-window points, need {MIN_WINDOW_POINTS}"
        )
    return spec


def check_window(dataset: Dataset, x0: float, options: PipelineOptions) -> PipelineOptions:
    """``options`` with the bandwidth at x0 fixed, after checking the sample
    size and that the window holds enough points. Call it before
    ``cross_fit``, so that a bad x0 or h fails before any fit is paid for."""
    _check_size(dataset.n, options)
    return replace(options, h=_kernel_window(dataset.x1, x0, options).h)


def cross_fit(
    dataset: Dataset, options: PipelineOptions = PipelineOptions(), known_cdfs=None
) -> CrossFit:
    """The nuisance fits, which do not depend on x0, h or the weight rule.

    Splits the sample in two folds, fits the projection of x1 on x2 and
    the additive model of y on each, and evaluates every observation with
    the fits of the opposite fold.

    The working set is kept small: every step reads a fold through its
    row indices, and none copies the fold's ``x2``. The least squares
    projection and the projection rows read it a block of rows at a time,
    the empirical transforms one column at a time (only known CDFs
    transform a fold matrix, freed before the additive fit), the spline
    fit scores its rank columns over tiles of the sample, and each fit
    maps each of its active columns once and evaluates each active
    component once, in row blocks, for both the nuisance and the full
    prediction.
    """
    y, x1, x2 = dataset.y, dataset.x1, dataset.x2
    n = dataset.n
    _check_size(n, options)
    plan = swap_split(n, options.seed)
    folds = (plan.fold_a, plan.fold_b)
    proj = [_fit_projection(x2, x1, options, i) for i in folds]
    additive, ranges = zip(*(_fit_additive(x1, x2, i, y[i], options, known_cdfs) for i in folds))

    # Cross-application: each observation is evaluated with the fits from
    # the opposite fold. The two fold fits are aligned to a common level
    # (their average mean over the full sample): a constant offset that
    # differs by fold is not annihilated by the global centering of the
    # weights, so it would leak into the estimate as extra noise.
    nuis_all, full_all = zip(*(fit.predict_sums(x1, x2) for fit in additive))
    nuis_level = [float(np.mean(v)) for v in nuis_all]
    full_level = [float(np.mean(v)) for v in full_all]
    nuis_mid = (nuis_level[0] + nuis_level[1]) / 2
    full_mid = (full_level[0] + full_level[1]) / 2

    rows, nuis, full = (np.empty(n) for _ in range(3))
    clamped = 0
    for idx, other in ((folds[0], 1), (folds[1], 0)):
        nuis[idx] = nuis_all[other][idx] - nuis_level[other] + nuis_mid
        full[idx] = full_all[other][idx] - full_level[other] + full_mid
        if ranges[other] is not None:
            clamped += count_outside(ranges[other][:1], x1[idx, None])
        for start, block in _row_blocks(x2, idx):
            rows[idx[start : start + len(block)]] = block @ proj[other].gamma
            if ranges[other] is not None:
                clamped += count_outside(ranges[other][1:], block)

    sigma2 = noise_sd_estimate(x1, rows, 0)
    sigma1 = options.sigma1_override
    if sigma1 is None:
        df = round((additive[0].active_dimension + additive[1].active_dimension) / 2) + 1
        sigma1 = noise_sd_estimate(y, full, df)
    flags = {
        "projection_method": proj[0].method,
        "projection_converged": proj[0].converged and proj[1].converged,
        "additive_converged": additive[0].converged and additive[1].converged,
        "transform_clamped": clamped,
        "sigma2": sigma2,
    }
    return CrossFit(
        dataset, y - nuis, sigma1, flags, plan, tuple(proj), tuple(additive),
        sigma2, (proj[0].gamma + proj[1].gamma) / 2, rows,
    )


def _weights(
    cf: CrossFit, spec: KernelSpec, options: PipelineOptions
) -> tuple[DecorrelationWeights, int]:
    """Decorrelated weights and the count of window-mass underflows."""
    if cf.projection_rows is None:
        return build_weights(cf.dataset.x1, np.zeros(cf.dataset.n), spec), 0
    shifts, underflow = window_shifts(
        cf.projection_rows, cf.sigma2, spec, options.mode, options.error_density
    )
    return build_weights(cf.dataset.x1, shifts, spec), underflow


def oracle_view(
    cf: CrossFit, law: tuple[np.ndarray, float], options: PipelineOptions
) -> tuple[CrossFit, PipelineOptions]:
    """The cross-fit and options whose weights are the oracle weights of a
    simulation: the exact Gaussian shifts of the known law
    ``law = (gamma, sigma2)`` of x1 given x2. The nuisance fits, residuals
    and noise scale stay the cross-fitted ones."""
    gamma, sigma2 = law
    gamma = np.asarray(gamma, dtype=float)
    view = replace(cf, projection_rows=cf.dataset.x2 @ gamma, sigma2=sigma2, gamma=gamma)
    return view, replace(options, mode="exact_gaussian")


def evaluate(cf: CrossFit, x0: float, options: PipelineOptions = PipelineOptions()) -> DLLFit:
    """Estimate, variance, CI and test at x0 from one cross-fit, with the
    weights of its projection rows and ``sigma2`` under ``options.mode``.
    Other weights come from a ``dataclasses.replace`` variant of the
    cross-fit: ``oracle_view``'s, or with ``projection_rows=None`` the
    plug-in ones."""
    spec = _kernel_window(cf.dataset.x1, x0, options)
    try:  # a window far wider than the data overflows the weights' products
        with np.errstate(over="raise"):
            weights, underflow = _weights(cf, spec, options)
            s_n = slope_normalizer(weights)
            estimate = dll_point(weights, cf.residuals)
            variance = variance_estimate(weights, cf.sigma1, s_n)
    except FloatingPointError as exc:
        raise NumericalError(f"the window at x0={x0}, h={spec.h} overflows: {exc}") from None
    diagnostics = {
        "weight_error": None,
        "window_tail_ratio": window_tail_ratio(x0, spec.h, cf.gamma, cf.sigma2, cf.dataset.n),
        "flags": {"h": spec.h, **cf.flags, "shift_underflow": underflow},
    }
    if not (math.isfinite(estimate) and math.isfinite(variance)):
        raise NumericalError(f"non-finite estimate {estimate} or variance {variance}")
    ci_low, ci_high = confidence_interval(estimate, variance, options.alpha)
    return DLLFit(
        estimate=estimate,
        s_n=s_n,
        sigma1=cf.sigma1,
        variance=variance,
        ci_low=ci_low,
        ci_high=ci_high,
        alpha=options.alpha,
        reject_zero=test_zero(estimate, variance, options.alpha),
        n_effective=int(np.count_nonzero(weights.kernel)),
        diagnostics=diagnostics,
        weights=weights,
    )


def dll_pipeline(
    dataset: Dataset,
    x0: float,
    options: PipelineOptions = PipelineOptions(),
    known_cdfs=None,
    true_projection: tuple[np.ndarray, float] | None = None,
) -> DLLFit:
    """Full cross-fitted decorrelated local linear fit at one point.

    The sample size, bandwidth and window are checked before any fit.
    When the true projection parameters are supplied (simulation only)
    the diagnostics include the kernel-weighted error of the estimated
    weights against the oracle weights.
    """
    options = check_window(dataset, x0, options)
    cf = cross_fit(dataset, options, known_cdfs)
    fit = evaluate(cf, x0, options)
    if true_projection is None:
        return fit
    view, view_options = oracle_view(cf, true_projection, options)
    oracle, _ = _weights(view, fit.weights.spec, view_options)
    error = weight_estimation_error(fit.weights, oracle)
    return replace(fit, diagnostics={**fit.diagnostics, "weight_error": error})

