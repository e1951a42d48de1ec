"""Synthetic additive-model data and the Monte Carlo evaluation harness.

Designs are Gaussian with the variable of interest generated as a sparse
linear projection of the nuisance covariates plus independent Gaussian
noise, so the exact marginal laws (and hence exact transforms and oracle
weights) are available to the harness. Component functions come from a
registered catalog with analytic derivatives; the target derivative is
never finite-differenced.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .decorrelate import build_weights, weight_estimation_error
from .errors import DLLError
from .estimator import (
    CrossFit,
    Dataset,
    DLLFit,
    PipelineOptions,
    check_window,
    cross_fit,
    dll_point,
    evaluate,
)
from .kernel import KernelSpec
from .spline import nuisance_fit_error
from .transforms import GaussianCDF

# Sub-seed offsets so design, noise, swap and fresh draws are independent
# streams derived from one replication seed.
_DESIGN, _NOISE, _FRESH = 11, 13, 17


def _catalog_entry(fid: str, params: tuple):
    """Return (f, f') for a registered component function."""
    if fid == "linear":
        (a,) = params
        return (lambda x: a * x, lambda x: a * np.ones_like(np.asarray(x, float)))
    if fid == "quadratic":
        (a,) = params
        return (lambda x: a * np.asarray(x, float) ** 2, lambda x: 2 * a * np.asarray(x, float))
    if fid == "sine":
        a, b = params
        return (
            lambda x: a * np.sin(b * np.asarray(x, float)),
            lambda x: a * b * np.cos(b * np.asarray(x, float)),
        )
    if fid == "bump":
        a, c, w = params
        def f(x):
            x = np.asarray(x, float)
            return a * np.exp(-((x - c) ** 2) / (2 * w**2))
        def fp(x):
            x = np.asarray(x, float)
            return f(x) * (-(x - c) / w**2)
        return f, fp
    if fid == "zero":
        return (
            lambda x: np.zeros_like(np.asarray(x, float)),
            lambda x: np.zeros_like(np.asarray(x, float)),
        )
    raise ValueError(f"unknown function id {fid!r}")


FUNCTION_IDS = ("linear", "quadratic", "sine", "bump", "zero")


@dataclass(frozen=True)
class SimConfig:
    """One synthetic-data scenario.

    ``nuisance_components`` lists (column index into the nuisance matrix,
    function id, parameter tuple). ``gamma_true`` has one entry per
    nuisance column.
    """

    n: int
    p: int
    gamma_true: tuple[float, ...] = ()
    sigma2_true: float = 1.0
    design_cov: str = "identity"  # or "ar1"
    ar1_rho: float = 0.5
    f1: tuple = ("sine", (1.0, 1.0))
    nuisance_components: tuple[tuple[int, str, tuple], ...] = ()
    sigma1_true: float = 0.5
    x0: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1 or self.p < 0:
            raise ValueError(f"need n >= 1 and p >= 0, got n={self.n}, p={self.p}")
        for name in ("sigma1_true", "sigma2_true"):
            # A chained comparison with math.inf also rejects NaN.
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if len(self.gamma_true) != self.p:
            raise ValueError("gamma_true must have one entry per nuisance column")
        for j, fid, _ in self.nuisance_components:
            if not 0 <= j < self.p:
                raise ValueError(f"nuisance column {j} outside 0..{self.p - 1}")
            if fid not in FUNCTION_IDS:
                raise ValueError(f"unknown function id {fid!r}")
        if self.f1[0] not in FUNCTION_IDS:
            raise ValueError(f"unknown function id {self.f1[0]!r}")

    @property
    def target(self) -> float:
        """True derivative of the component of interest at x0."""
        _, fprime = _catalog_entry(*self.f1)
        return float(fprime(self.x0))

    def x1_marginal_sd(self) -> float:
        gamma = np.asarray(self.gamma_true, dtype=float)
        if self.p == 0:
            return self.sigma2_true
        cov = self._cov()
        return float(np.sqrt(gamma @ cov @ gamma + self.sigma2_true**2))

    def _cov(self) -> np.ndarray:
        if self.design_cov == "identity":
            return np.eye(self.p)
        if self.design_cov == "ar1":
            idx = np.arange(self.p)
            return self.ar1_rho ** np.abs(idx[:, None] - idx[None, :])
        raise ValueError(f"unknown design_cov {self.design_cov!r}")

    def _nuisance_draws(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n rows of the Gaussian nuisance design: standard normal draws,
        correlated by the Cholesky factor of ``_cov()``. With the identity
        covariance the draws are returned as they are, which is what the
        product with the identity factor gives, bit for bit."""
        z = rng.standard_normal((n, self.p))
        if self.design_cov == "identity":
            return z
        return z @ np.linalg.cholesky(self._cov()).T

    def known_cdfs(self) -> list[GaussianCDF]:
        """Exact marginal CDFs for [x1, nuisance columns]."""
        diag = np.sqrt(np.diag(self._cov())) if self.p else np.empty(0)
        return [GaussianCDF(self.x1_marginal_sd())] + [GaussianCDF(float(s)) for s in diag]


def gen_design(config: SimConfig, seed: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Draw (x1, x2): Gaussian nuisance matrix and projected variable."""
    seed = config.seed if seed is None else seed
    rng = np.random.default_rng([seed, _DESIGN])
    if config.p == 0:
        x2 = np.empty((config.n, 0))
        x1 = rng.normal(0.0, config.sigma2_true, size=config.n)
        return x1, x2
    x2 = config._nuisance_draws(rng, config.n)
    delta = rng.normal(0.0, config.sigma2_true, size=config.n)
    x1 = x2 @ np.asarray(config.gamma_true, dtype=float) + delta
    return x1, x2


def nuisance_truth(config: SimConfig, x2: np.ndarray) -> np.ndarray:
    """Sum of the true nuisance components over the given rows."""
    x2 = np.atleast_2d(np.asarray(x2, dtype=float))
    out = np.zeros(x2.shape[0])
    for j, fid, params in config.nuisance_components:
        f, _ = _catalog_entry(fid, params)
        out += f(x2[:, j])
    return out


def gen_response(
    x1: np.ndarray, x2: np.ndarray, config: SimConfig, seed: int | None = None
) -> np.ndarray:
    """Outcome: component of interest plus nuisance components plus noise."""
    seed = config.seed if seed is None else seed
    rng = np.random.default_rng([seed, _NOISE])
    f1, _ = _catalog_entry(*config.f1)
    y = f1(np.asarray(x1, dtype=float)) + nuisance_truth(config, x2)
    if config.sigma1_true > 0:
        y = y + rng.normal(0.0, config.sigma1_true, size=len(y))
    return y


def make_dataset(config: SimConfig, seed: int | None = None) -> Dataset:
    x1, x2 = gen_design(config, seed)
    y = gen_response(x1, x2, config, seed)
    return Dataset(y=y, x1=x1, x2=x2)


@dataclass(frozen=True)
class RepRecord:
    """Outcome of a single Monte Carlo replication. The ``oracle_*`` fields
    evaluate the same cross-fit with the exact-law weights; they stay NaN
    (not covered) when p == 0 or when that evaluation fails."""

    estimate: float = math.nan
    ci_low: float = math.nan
    ci_high: float = math.nan
    ci_length: float = math.nan
    covered: bool = False
    rejected: bool = False
    weight_error: float = math.nan
    nuisance_error: float = math.nan
    failed: bool = False
    message: str = ""
    oracle_estimate: float = math.nan
    oracle_ci_low: float = math.nan
    oracle_ci_high: float = math.nan
    oracle_covered: bool = False


@dataclass(frozen=True)
class MCReport:
    """Aggregate Monte Carlo results; failures are excluded from rates."""

    coverage: float
    mean_ci_length: float
    bias: float
    sd: float
    rmse: float
    rejection_rate: float
    mean_weight_error: float
    mean_nuisance_error: float
    replications: int
    failures: int
    oracle_coverage: float = math.nan


def _replicate(
    config: SimConfig, options: PipelineOptions, seed: int
) -> tuple[SimConfig, PipelineOptions, CrossFit, DLLFit]:
    """The config and options of replication ``seed`` (bandwidth fixed), the
    cross-fit on its fresh data and the estimate at x0. Raises DLLError."""
    cfg = replace(config, seed=seed)
    dataset = make_dataset(cfg, seed)
    options = replace(options, seed=seed)
    known = cfg.known_cdfs() if options.transform == "known" else None
    options = check_window(dataset, cfg.x0, options)
    cf = cross_fit(dataset, options, known)
    return cfg, options, cf, evaluate(cf, cfg.x0, options)


def run_replication(
    config: SimConfig,
    options: PipelineOptions = PipelineOptions(transform="known"),
    seed: int | None = None,
) -> RepRecord:
    """One cross-fit on fresh data, evaluated with the estimated weights
    and, when p > 0, with the exact-law weights; failures become records.
    """
    seed = config.seed if seed is None else seed
    try:
        cfg, options, cf, fit = _replicate(config, options, seed)
    except DLLError as exc:
        return RepRecord(failed=True, message=f"{type(exc).__name__}: {exc}")

    truth = cfg.target
    extra = {}
    if cfg.p > 0:
        rng = np.random.default_rng([seed, _FRESH])
        fresh = cfg._nuisance_draws(rng, 500)
        extra["nuisance_error"] = nuisance_fit_error(
            *cf.additive,
            lambda rows: nuisance_truth(cfg, rows),
            fresh,
        )
        law = (cfg.gamma_true, cfg.sigma2_true)
        try:
            oracle = evaluate(cf, cfg.x0, options, projection=law)
        except DLLError:
            pass  # the oracle fields stay NaN
        else:
            extra.update(
                weight_error=weight_estimation_error(
                    fit.weights, oracle.weights, cf.dataset.x1, KernelSpec(cfg.x0, options.h)
                ),
                oracle_estimate=oracle.estimate,
                oracle_ci_low=oracle.ci_low,
                oracle_ci_high=oracle.ci_high,
                oracle_covered=bool(oracle.ci_low <= truth <= oracle.ci_high),
            )
    return RepRecord(
        estimate=fit.estimate,
        ci_low=fit.ci_low,
        ci_high=fit.ci_high,
        ci_length=fit.ci_high - fit.ci_low,
        covered=bool(fit.ci_low <= truth <= fit.ci_high),
        rejected=fit.reject_zero,
        **extra,
    )


def _replication_task(args) -> RepRecord:
    return run_replication(*args)


def _aggregate(config: SimConfig, records: list[RepRecord]) -> MCReport:
    ok = [r for r in records if not r.failed]
    failures = len(records) - len(ok)
    if not ok:
        raise DLLError("all replications failed")
    est = np.array([r.estimate for r in ok])
    truth = config.target
    bias = float(np.mean(est) - truth)
    sd = float(np.sqrt(np.mean((est - np.mean(est)) ** 2)))
    rmse = float(np.sqrt(np.mean((est - truth) ** 2)))
    werr = np.array([r.weight_error for r in ok])
    nerr = np.array([r.nuisance_error for r in ok])
    oracle = [r.oracle_covered for r in ok if not math.isnan(r.oracle_estimate)]
    return MCReport(
        coverage=float(np.mean([r.covered for r in ok])),
        mean_ci_length=float(np.mean([r.ci_length for r in ok])),
        bias=bias,
        sd=sd,
        rmse=rmse,
        rejection_rate=float(np.mean([r.rejected for r in ok])),
        mean_weight_error=float(np.nanmean(werr)) if np.any(np.isfinite(werr)) else math.nan,
        mean_nuisance_error=float(np.nanmean(nerr)) if np.any(np.isfinite(nerr)) else math.nan,
        replications=len(ok),
        failures=failures,
        oracle_coverage=float(np.mean(oracle)) if oracle else math.nan,
    )


def default_jobs() -> int:
    """Worker processes for Monte Carlo runs: ``DLL_JOBS``, default 1."""
    raw = os.environ.get("DLL_JOBS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"DLL_JOBS must be an integer, got {raw!r}") from None


# The thread-count variables of the BLAS builds numpy ships with or links.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _map_in_workers(fn, tasks: list, n_jobs: int) -> list:
    """``[fn(t) for t in tasks]``, computed in ``n_jobs`` worker processes.

    The workers are spawned, not forked, so each starts fresh and reads its
    BLAS thread count at start: every variable of BLAS_THREAD_VARS that the
    caller has not set is ``max(1, cpus // n_jobs)`` while the workers
    start, so that the workers' BLAS threads together do not oversubscribe
    the CPUs, and the caller's environment is restored afterwards. ``fn``
    and the tasks must pickle. The pool modules are imported here, so
    that only a study with workers pays for their import.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    budget = str(max(1, (cpus or 1) // n_jobs))
    unset = [name for name in BLAS_THREAD_VARS if name not in os.environ]
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=n_jobs, mp_context=spawn) as pool:
        os.environ.update(dict.fromkeys(unset, budget))
        try:
            # map submits every chunk at once, which starts the workers.
            results = pool.map(fn, tasks, chunksize=4)
        finally:
            for name in unset:
                del os.environ[name]
        return list(results)


def monte_carlo_records(
    config: SimConfig,
    b: int,
    options: PipelineOptions = PipelineOptions(transform="known"),
    n_jobs: int | None = None,
) -> tuple[MCReport, list[RepRecord]]:
    """Run B replications with seeds seed+1..seed+B and aggregate.

    Replications are independent; with ``n_jobs > 1`` they run in fresh
    worker processes with their own BLAS thread budget (``_map_in_workers``),
    so a script that calls this needs an ``if __name__ == "__main__"``
    guard. Records are always reduced in seed order, so the report is
    identical regardless of scheduling.
    """
    if b < 1:
        raise ValueError("need at least one replication")
    n_jobs = default_jobs() if n_jobs is None else n_jobs
    tasks = [(config, options, config.seed + r) for r in range(1, b + 1)]
    if n_jobs > 1 and b > 1:
        records = _map_in_workers(_replication_task, tasks, n_jobs)
    else:
        records = [_replication_task(t) for t in tasks]
    return _aggregate(config, records), records


@dataclass(frozen=True)
class PairedReport:
    """Head-to-head comparison of the decorrelated and plug-in slopes."""

    dll_errors: tuple[float, ...]
    naive_errors: tuple[float, ...]
    win_rate: float
    replications: int
    failures: int


def compare_naive(
    config: SimConfig,
    b: int,
    contamination: float = 0.3,
    orthogonal: bool = False,
    options: PipelineOptions = PipelineOptions(transform="known"),
) -> PairedReport:
    """Paired comparison under a contaminated nuisance fit.

    Each replication contaminates the cross-fitted nuisance predictions
    by ``contamination`` times the projection of the variable of interest
    (or, with ``orthogonal=True``, times an independent noise column that
    cannot correlate with it), then computes both the plain local linear
    slope of the residuals (the decorrelated ratio with zero window
    shifts) and the decorrelated estimate from the same residuals. Wins
    are replications where the decorrelated error is strictly smaller.
    """
    truth = config.target
    dll_errs: list[float] = []
    naive_errs: list[float] = []
    failures = 0
    for r in range(1, b + 1):
        seed = config.seed + r
        try:
            cfg, opts, cf, fit = _replicate(config, options, seed)
            x1 = cf.dataset.x1
            rng = np.random.default_rng([seed, 23])
            if orthogonal:
                noise_col = rng.standard_normal(cfg.n)
                bump = contamination * noise_col
            else:
                gamma = np.asarray(cfg.gamma_true, dtype=float)
                bump = contamination * (cf.dataset.x2 @ gamma)
            residuals = cf.residuals - bump
            spec = KernelSpec(cfg.x0, opts.h)
            plain = build_weights(x1, np.zeros(cfg.n), spec)
            naive = dll_point(plain, residuals, x1, spec)
            dll_est = dll_point(fit.weights, residuals, x1, spec)
        except DLLError:
            failures += 1
            continue
        dll_errs.append(abs(dll_est - truth))
        naive_errs.append(abs(naive - truth))
    if not dll_errs:
        raise DLLError("all replications failed")
    wins = np.mean([d < nv for d, nv in zip(dll_errs, naive_errs)])
    return PairedReport(
        dll_errors=tuple(dll_errs),
        naive_errors=tuple(naive_errs),
        win_rate=float(wins),
        replications=len(dll_errs),
        failures=failures,
    )
