"""Linear projection of the variable of interest on the nuisance covariates.

Two fitting routes produce the projection coefficients and the residual
standard deviation: plain least squares when the sample comfortably
exceeds the dimension, and the scaled Lasso (joint minimization over
coefficients and noise level with an L1 penalty proportional to the noise
estimate) in high dimension. Both run on numpy alone, so neither loads
scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RankDeficientError, SampleTooSmallError

DEFAULT_PENALTY_CONST = 1.01  # must exceed 1
KKT_TOL = 1e-8
MAX_OUTER = 50
MAX_SWEEPS = 10_000
COEF_TOL = 1e-9
SIGMA_RTOL = 1e-6
# The full sweep skips a zero coordinate only if its score is below the
# penalty by this fraction of the score's bound (see _cd_lasso).
SCREEN_MARGIN = 1e-9


def sigma_floor(x1) -> float:
    """Lower bound for reported residual standard deviations.

    Prevents noise estimates from collapsing to zero on interpolating
    fits; scales with the response spread, with an absolute fallback for
    constant responses.
    """
    sd = float(np.std(np.asarray(x1, dtype=float)))
    return 1e-8 * sd if sd > 0 else 1e-8


def noise_sd_estimate(y: np.ndarray, fitted: np.ndarray, df: int) -> float:
    """Degrees-of-freedom corrected residual standard deviation,
    ``sqrt(RSS / (n - df))``, floored at ``sigma_floor(y)``."""
    y = np.asarray(y, dtype=float)
    fitted = np.asarray(fitted, dtype=float)
    n = y.shape[0]
    if df >= n:
        raise SampleTooSmallError(f"df={df} must be smaller than n={n}")
    rss = float(np.sum((y - fitted) ** 2))
    return max(math.sqrt(rss / (n - df)), sigma_floor(y))


@dataclass(frozen=True)
class ProjectionFit:
    """Linear projection fit: coefficients and residual scale."""

    gamma: np.ndarray
    sigma2: float
    method: str  # "ols" | "scaled_lasso"
    iterations: int
    converged: bool
    kkt_residual: float = 0.0
    objective_trace: tuple[float, ...] = field(default_factory=tuple)

    @property
    def support_size(self) -> int:
        return int(np.count_nonzero(self.gamma))


def ols_projection(x2: np.ndarray, x1: np.ndarray) -> ProjectionFit:
    """Least squares projection of ``x1`` on the columns of ``x2``.

    No intercept: the projection is defined through uncentered second
    moments. numpy's SVD least squares solves it; the design counts as
    rank deficient when a singular value is at most
    ``max(n, p) * eps`` times the largest (``rcond=None``). The residual
    scale is ``noise_sd_estimate`` with p degrees of freedom; with p = 0
    (no nuisance covariates) it is the root mean square of ``x1``.
    """
    x2 = np.asarray(x2, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    n, p = x2.shape
    if n <= p + 1:
        raise SampleTooSmallError(f"need n > p + 1, got n={n}, p={p}")
    gamma, _, rank, _ = np.linalg.lstsq(x2, x1, rcond=None)
    if rank < p:
        raise RankDeficientError("design matrix is rank deficient")
    sigma2 = noise_sd_estimate(x1, x2 @ gamma, p)
    return ProjectionFit(gamma, sigma2, "ols", iterations=0, converged=True)


def kkt_check(x: np.ndarray, y: np.ndarray, lam: float, beta: np.ndarray) -> float:
    """Maximum violation of the Lasso stationarity conditions.

    For active coordinates the correlation of the residual must equal
    ``lam * sign(beta_j)``; for inactive ones it must not exceed ``lam``
    in magnitude. Returns the largest violation (0 at an exact solution).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = np.asarray(beta, dtype=float)
    n = x.shape[0]
    grad = x.T @ (y - x @ beta) / n
    active = beta != 0
    viol_active = np.abs(grad[active] - lam * np.sign(beta[active]))
    viol_inactive = np.maximum(np.abs(grad[~active]) - lam, 0.0)
    worst = 0.0
    if viol_active.size:
        worst = max(worst, float(viol_active.max()))
    if viol_inactive.size:
        worst = max(worst, float(viol_inactive.max()))
    return worst


def _column_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What every ``_cd_lasso`` call on ``x`` needs: a row-contiguous copy
    of ``x.T`` and the columns' mean squares and root mean squares."""
    col_sq = np.einsum("ij,ij->j", x, x) / x.shape[0]
    return np.ascontiguousarray(x.T), col_sq, np.sqrt(col_sq)


def _cd_lasso(
    x: np.ndarray,
    y: np.ndarray,
    lam: float,
    beta0: np.ndarray | None,
    stats: tuple[np.ndarray, np.ndarray, np.ndarray],
    max_sweeps: int = MAX_SWEEPS,
    kkt_tol: float = KKT_TOL,
) -> tuple[np.ndarray, int, bool]:
    """Coordinate descent for (1/2n)||y - x b||^2 + lam ||b||_1.

    Active-set strategy: cycle over the current support until no
    coordinate moves more than COEF_TOL, then run a full sweep to admit
    violators; finish when the stationarity residual is below ``kkt_tol``.

    The full sweep screens: at a zero coordinate it scores every zero
    coordinate up to the next nonzero one with one matrix-vector product
    and skips those whose score is below ``lam`` by more than
    SCREEN_MARGIN times the bound ``||x_j|| ||r|| / n`` of the score. The
    product and the per-coordinate dot product differ by less than
    ``2 n eps`` times that bound, so for n up to about two million a
    skipped coordinate is one the scalar update leaves at zero. A zero
    coordinate that stays zero leaves the residual untouched, so the
    scores stay valid until an update moves it; the iterates are those of
    the plain coordinate-by-coordinate sweep, bit for bit. ``stats`` is
    ``_column_stats(x)``.
    """
    n, p = x.shape
    xt, col_sq, col_norm = stats
    beta = np.zeros(p) if beta0 is None else np.asarray(beta0, dtype=float).copy()
    resid = y - x @ beta
    sweeps = 0

    def step(j) -> float:
        """Exact update of coordinate j; returns how far it moved."""
        nonlocal resid
        if col_sq[j] == 0.0:
            return 0.0
        old = beta[j]
        rho = x[:, j] @ resid / n + col_sq[j] * old
        shrunk = abs(rho) - lam
        new = (np.sign(rho) * shrunk if shrunk > 0 else 0.0) / col_sq[j]
        if new == old:
            return 0.0
        resid += x[:, j] * (old - new)
        beta[j] = new
        return abs(new - old)

    def sweep(indices) -> float:
        return max((step(j) for j in indices), default=0.0)

    def full_sweep() -> float:
        max_delta = 0.0
        j = 0
        while j < p:
            if beta[j] != 0.0:
                max_delta = max(max_delta, step(j))
                j += 1
                continue
            later = np.flatnonzero(beta[j + 1 :])
            k = j + 1 + int(later[0]) if later.size else p
            grad = xt[j:k] @ resid / n
            slack = SCREEN_MARGIN * np.sqrt(resid @ resid / n) * col_norm[j:k]
            for i in j + np.flatnonzero(np.abs(grad) >= lam - slack):
                moved = step(i)
                if moved:
                    max_delta = max(max_delta, moved)
                    k = i + 1
                    break
            j = k
        return max_delta

    while sweeps < max_sweeps:
        sweeps += 1
        delta = full_sweep()
        active = np.flatnonzero(beta)
        while delta > COEF_TOL and sweeps < max_sweeps:
            sweeps += 1
            delta = sweep(active)
        if kkt_check(x, y, lam, beta) <= kkt_tol:
            return beta, sweeps, True
    return beta, sweeps, kkt_check(x, y, lam, beta) <= kkt_tol


def _scaled_lasso_objective(x, y, lam0, gamma, sig) -> float:
    n = x.shape[0]
    rss = float(np.sum((y - x @ gamma) ** 2))
    return rss / (2 * n * sig) + sig / 2 + lam0 * float(np.abs(gamma).sum())


def scaled_lasso(
    x2: np.ndarray,
    x1: np.ndarray,
    a_const: float = DEFAULT_PENALTY_CONST,
) -> ProjectionFit:
    """Joint estimate of projection coefficients and noise level.

    Minimizes ``RSS/(2 n sig) + sig/2 + sqrt(2 A log p / n) ||gamma||_1``
    by alternating a Lasso step at fixed noise level (penalty
    ``sig * lam0``) with the closed-form noise update ``sig = ||r||/sqrt(n)``.
    Convergence is declared at a relative noise change below 1e-6; the
    alternation keeps polishing toward the fixed point while iterations
    remain so the reported solution satisfies stationarity tightly.

    Columns are internally rescaled to unit root-mean-square (uncentered,
    so no implicit intercept); coefficients are reported on the original
    scale.
    """
    if not a_const > 1:
        raise ValueError(f"penalty constant must exceed 1, got {a_const}")
    x2 = np.asarray(x2, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    n, p = x2.shape
    if p < 1:
        raise ValueError("need at least one column")
    floor = sigma_floor(x1)
    lam0 = np.sqrt(2 * a_const * np.log(p) / n)

    scale = np.sqrt(np.einsum("ij,ij->j", x2, x2) / n)
    scale[scale == 0] = 1.0
    xs = x2 / scale

    sig = max(float(np.linalg.norm(x1) / np.sqrt(n)), floor)
    beta = np.zeros(p)
    stats = _column_stats(xs)
    trace = []
    converged = False
    it = 0
    for it in range(1, MAX_OUTER + 1):
        beta, _, _ = _cd_lasso(xs, x1, sig * lam0, beta, stats, kkt_tol=KKT_TOL / 10)
        sig_new = max(float(np.linalg.norm(x1 - xs @ beta) / np.sqrt(n)), floor)
        trace.append(_scaled_lasso_objective(xs, x1, lam0, beta, sig_new))
        rel = abs(sig_new - sig) / max(sig, floor)
        sig = sig_new
        if rel < SIGMA_RTOL:
            converged = True
        if rel < 1e-12:
            break
    kkt = kkt_check(xs, x1, sig * lam0, beta)
    return ProjectionFit(
        gamma=beta / scale,
        sigma2=sig,
        method="scaled_lasso",
        iterations=it,
        converged=converged,
        kkt_residual=kkt,
        objective_trace=tuple(trace),
    )
