"""Linear projection of the variable of interest on the nuisance covariates.

Two fitting routes produce the projection coefficients and the residual
standard deviation: plain least squares when the sample comfortably
exceeds the dimension, and the scaled Lasso (joint minimization over
coefficients and noise level with an L1 penalty proportional to the noise
estimate) in high dimension. Least squares reads the sample a block of
GATHER_ROWS rows at a time and keeps only a small triangular factor, so
it copies no fold out of the data. Both run on numpy alone, so neither
loads scipy.
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
# The scaled Lasso is converged once the noise level moves by less than
# SIGMA_RTOL (relative), but keeps alternating until it moves by less than
# SIGMA_POLISH_RTOL, or MAX_OUTER runs out, so that the reported solution
# is stationary to well below the convergence test.
SIGMA_RTOL = 1e-6
SIGMA_POLISH_RTOL = 1e-12
# The full sweep skips a zero coordinate only if its score is below the
# penalty by this fraction of the score's bound (see _cd_lasso).
SCREEN_MARGIN = 1e-9
# Rows gathered per step when a sample's rows are read out of x2: each
# step's temporary stays small, and no fold-sized copy is made.
GATHER_ROWS = 256


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


def _row_blocks(x2: np.ndarray, rows: np.ndarray | None = None):
    """``(start, x2[rows[start:start + GATHER_ROWS]])`` over ``rows``, or
    ``(start, x2[start:start + GATHER_ROWS])`` (a view) when it is None."""
    n = len(x2) if rows is None else len(rows)
    for start in range(0, n, GATHER_ROWS):
        stop = start + GATHER_ROWS
        yield start, x2[start:stop] if rows is None else x2[rows[start:stop]]


def ols_projection(
    x2: np.ndarray, x1: np.ndarray, rows: np.ndarray | None = None
) -> ProjectionFit:
    """Least squares projection of ``x1[rows]`` on the columns of
    ``x2[rows]`` (all rows when ``rows`` is None), without copying them.

    No intercept: the projection is defined through uncentered second
    moments. A Householder QR of ``[x2 | x1]`` runs over the row blocks
    of ``_row_blocks``, each factored together with the triangular factor
    R of the blocks before it (TSQR; Demmel, Grigori, Hoemmen & Langou,
    SIAM J. Sci. Comput. 2012). R's leading p x p block is the factor of
    ``x2`` and its last column holds ``Q' x1``, so ``gamma`` solves one
    triangular system. The design counts as rank deficient when a
    singular value of that block is at most ``max(n, p) * eps`` times the
    largest, the rule of ``np.linalg.lstsq(rcond=None)``. The residual
    scale is ``noise_sd_estimate`` with p degrees of freedom, on fitted
    values computed block by block; with p = 0 (no nuisance covariates)
    it is the root mean square of ``x1``.
    """
    x2 = np.asarray(x2, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    if rows is not None:
        x1 = x1[rows]
    n, p = len(x1), x2.shape[1]
    if n <= p + 1:
        raise SampleTooSmallError(f"need n > p + 1, got n={n}, p={p}")
    # R of the blocks so far stacked over the next block, factored again.
    work = np.empty((GATHER_ROWS + p + 1, p + 1))
    r_rows = 0
    for start, block in _row_blocks(x2, rows):
        end = r_rows + len(block)
        work[r_rows:end, :p] = block
        work[r_rows:end, p] = x1[start : start + len(block)]
        r_factor = np.linalg.qr(work[:end], mode="r")
        r_rows = len(r_factor)
        work[:r_rows] = r_factor
    r_x2 = work[:p, :p]
    gamma = np.zeros(0)
    if p:
        sv = np.linalg.svd(r_x2, compute_uv=False)
        if not sv[-1] > max(n, p) * np.finfo(float).eps * sv[0]:
            raise RankDeficientError("design matrix is rank deficient")
        gamma = np.linalg.solve(r_x2, work[:p, p])
    fitted = np.empty(n)
    for start, block in _row_blocks(x2, rows):
        fitted[start : start + len(block)] = block @ gamma
    sigma2 = noise_sd_estimate(x1, fitted, p)
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
        if rel < SIGMA_POLISH_RTOL:
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
