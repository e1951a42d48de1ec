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
import numbers
import os
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .decorrelate import weight_estimation_error
from .errors import DLLError
from .estimator import (
    CrossFit,
    Dataset,
    DLLFit,
    PipelineOptions,
    _is_integer,
    check_seed,
    check_window,
    cross_fit,
    evaluate,
    oracle_view,
)
from .transforms import GaussianCDF

# Sub-seed offsets so design, noise and contamination draws are
# independent streams derived from one replication seed.
_DESIGN, _NOISE, _CONTAMINATION = 11, 13, 23


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
    if fid == "zero":
        return (
            lambda x: np.zeros_like(np.asarray(x, float)),
            lambda x: np.zeros_like(np.asarray(x, float)),
        )
    raise ValueError(f"unknown function id {fid!r}")


FUNCTION_IDS = ("linear", "quadratic", "sine", "zero")
_PARAM_COUNTS = dict(zip(FUNCTION_IDS, (1, 1, 2, 0)))
DESIGN_COVS = ("identity", "ar1")


def _check_finite(name: str, values) -> None:
    """Every entry a finite real number: a NaN or infinite value would fail
    every replication, and then the study, rather than the construction."""
    if not all(isinstance(v, numbers.Real) and math.isfinite(v) for v in values):
        raise ValueError(f"{name} must be finite, got {values!r}")


def _check_component(fid: str, params) -> None:
    """A registered function id and its parameter count, which a replication
    would unpack only when drawing data, with a ValueError that aborts a study."""
    if fid not in FUNCTION_IDS:
        raise ValueError(f"unknown function id {fid!r}")
    if not isinstance(params, (tuple, list)) or len(params) != _PARAM_COUNTS[fid]:
        raise ValueError(f"function {fid!r} takes {_PARAM_COUNTS[fid]} parameters, got {params!r}")
    _check_finite(f"the parameters of function {fid!r}", params)


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
    design_cov: str = "identity"  # one of DESIGN_COVS
    ar1_rho: float = 0.5
    f1: tuple = ("sine", (1.0, 1.0))
    nuisance_components: tuple[tuple[int, str, tuple], ...] = ()
    sigma1_true: float = 0.5
    x0: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n", "p"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n < 1 or self.p < 0:
            raise ValueError(f"need n >= 1 and p >= 0, got n={self.n}, p={self.p}")
        check_seed(self.seed)
        for name in ("sigma1_true", "sigma2_true"):
            # A chained comparison with math.inf also rejects NaN.
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.design_cov not in DESIGN_COVS:
            raise ValueError(f"design_cov must be one of {DESIGN_COVS}, got {self.design_cov!r}")
        if not -1 < self.ar1_rho < 1:  # also rejects NaN
            raise ValueError(f"ar1_rho must lie in (-1, 1), got {self.ar1_rho}")
        if len(self.gamma_true) != self.p:
            raise ValueError("gamma_true must have one entry per nuisance column")
        _check_finite("gamma_true", self.gamma_true)
        _check_finite("x0", (self.x0,))
        for j, fid, params in self.nuisance_components:
            if not (_is_integer(j) and 0 <= j < self.p):
                raise ValueError(f"nuisance column {j!r} is no integer in 0..{self.p - 1}")
            _check_component(fid, params)
        _check_component(*self.f1)

    @property
    def target(self) -> float:
        """True derivative of the component of interest at x0."""
        _, fprime = _catalog_entry(*self.f1)
        return float(fprime(self.x0))

    def x1_marginal_sd(self) -> float:
        gamma = np.asarray(self.gamma_true, dtype=float)
        cov = self._cov()
        # numpy's power overflows to inf where Python's raises OverflowError,
        # which no replication records; finite results agree bit for bit.
        with np.errstate(over="ignore"):
            return float(np.sqrt(gamma @ cov @ gamma + np.float64(self.sigma2_true) ** 2))

    def _cov(self) -> np.ndarray:
        if self.design_cov == "identity":
            return np.eye(self.p)
        idx = np.arange(self.p)
        return self.ar1_rho ** np.abs(idx[:, None] - idx[None, :])

    def known_cdfs(self) -> list[GaussianCDF]:
        """Exact marginal CDFs for [x1, nuisance columns]."""
        diag = np.sqrt(np.diag(self._cov()))
        return [GaussianCDF(self.x1_marginal_sd())] + [GaussianCDF(float(s)) for s in diag]


def gen_design(config: SimConfig, seed: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Draw (x1, x2): Gaussian nuisance matrix and projected variable. The
    nuisance rows are standard normal draws, correlated by the Cholesky
    factor of the covariance unless it is the identity (the product with the
    identity factor would give the same bits); with p = 0 they take no draws."""
    seed = config.seed if seed is None else seed
    rng = np.random.default_rng([seed, _DESIGN])
    x2 = rng.standard_normal((config.n, config.p))
    if config.design_cov != "identity":
        x2 = x2 @ np.linalg.cholesky(config._cov()).T
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
class Arm:
    """One named evaluation of a replication's cross-fit, with the weights
    of the cross-fitted projection (``"estimated"``), of the exact law
    (``"oracle"``, see ``estimator.oracle_view``) or with zero window
    shifts (``"plugin"``, the plug-in local linear slope). A nonzero
    ``contamination`` c subtracts c times the true projection
    ``x2 @ gamma_true`` from the residuals, or with ``orthogonal=True`` c
    times an independent standard normal column."""

    name: str
    weights: str = "estimated"
    contamination: float = 0.0
    orthogonal: bool = False

    def __post_init__(self) -> None:
        if self.weights not in ("estimated", "oracle", "plugin"):
            raise ValueError(f"unknown arm weights {self.weights!r}")
        _check_finite("contamination", (self.contamination,))


@dataclass(frozen=True)
class RepRecord:
    """Outcome of one arm of a single Monte Carlo replication. With p > 0,
    ``nuisance_error`` is the worse fold's RMSE of the level-free nuisance
    fit on the rows it never saw: the larger over the two folds of the sd of
    ``y - residuals - nuisance_truth``. When the study runs an oracle arm
    and it succeeds, ``weight_error`` is the distance of this arm's weights
    from that arm's (exact-law) weights."""

    arm: str
    seed: int
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


@dataclass(frozen=True)
class MCReport:
    """Aggregate Monte Carlo results of one arm; failures are excluded from rates."""

    arm: str
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


def _evaluate_arm(arm: Arm, cf: CrossFit, cfg: SimConfig, options: PipelineOptions) -> DLLFit:
    """The arm's evaluation of the cross-fit at x0. Raises DLLError."""
    gamma = np.asarray(cfg.gamma_true, dtype=float)
    if arm.weights == "oracle":
        cf, options = oracle_view(cf, (gamma, cfg.sigma2_true), options)
    elif arm.weights == "plugin":
        cf = replace(cf, projection_rows=None)
    if arm.contamination:
        rng = np.random.default_rng([cfg.seed, _CONTAMINATION])
        column = rng.standard_normal(cfg.n) if arm.orthogonal else cf.dataset.x2 @ gamma
        cf = replace(cf, residuals=cf.residuals - arm.contamination * column)
    return evaluate(cf, cfg.x0, options)


def _failure(arm: Arm, seed: int, exc: DLLError) -> RepRecord:
    return RepRecord(arm.name, seed, failed=True, message=f"{type(exc).__name__}: {exc}")


def run_replication(
    config: SimConfig,
    options: PipelineOptions = PipelineOptions(),
    seed: int | None = None,
    arms: tuple[Arm, ...] = (Arm("estimated"),),
) -> list[RepRecord]:
    """One cross-fit on fresh data (bandwidth fixed first), evaluated once
    per arm. A failure becomes a failed record: every arm's when the
    cross-fit fails, one arm's when its evaluation does."""
    seed = config.seed if seed is None else seed
    cfg = replace(config, seed=seed)
    try:
        dataset = make_dataset(cfg, seed)
        options = check_window(dataset, cfg.x0, replace(options, seed=seed))
        cf = cross_fit(dataset, options)
    except DLLError as exc:
        return [_failure(arm, seed, exc) for arm in arms]

    nuisance_error = math.nan
    if cfg.p > 0:
        gap = dataset.y - cf.residuals - nuisance_truth(cfg, dataset.x2)
        nuisance_error = max(float(np.std(gap[f])) for f in (cf.plan.fold_a, cf.plan.fold_b))
    fits = []
    for arm in arms:
        try:
            fits.append(_evaluate_arm(arm, cf, cfg, options))
        except DLLError as exc:
            fits.append(exc)
    oracle = next((fit.weights for arm, fit in zip(arms, fits)
                   if arm.weights == "oracle" and isinstance(fit, DLLFit)), None)
    truth, records = cfg.target, []
    for arm, fit in zip(arms, fits):
        if isinstance(fit, DLLError):
            records.append(_failure(arm, seed, fit))
            continue
        weight_error = math.nan if oracle is None else weight_estimation_error(fit.weights, oracle)
        records.append(RepRecord(
            arm.name, seed, fit.estimate, fit.ci_low, fit.ci_high, fit.ci_high - fit.ci_low,
            covered=bool(fit.ci_low <= truth <= fit.ci_high), rejected=fit.reject_zero,
            weight_error=weight_error, nuisance_error=nuisance_error,
        ))
    return records


def _aggregate(config: SimConfig, arm: str, records: list[RepRecord]) -> MCReport:
    ok = [r for r in records if not r.failed]
    if not ok:
        raise DLLError(f"all replications of arm {arm!r} failed")
    est = np.array([r.estimate for r in ok])
    truth = config.target
    werr = np.array([r.weight_error for r in ok])
    nerr = np.array([r.nuisance_error for r in ok])
    return MCReport(
        arm=arm,
        coverage=float(np.mean([r.covered for r in ok])),
        mean_ci_length=float(np.mean([r.ci_length for r in ok])),
        bias=float(np.mean(est) - truth),
        sd=float(np.sqrt(np.mean((est - np.mean(est)) ** 2))),
        rmse=float(np.sqrt(np.mean((est - truth) ** 2))),
        rejection_rate=float(np.mean([r.rejected for r in ok])),
        mean_weight_error=float(np.nanmean(werr)) if np.any(np.isfinite(werr)) else math.nan,
        mean_nuisance_error=float(np.nanmean(nerr)) if np.any(np.isfinite(nerr)) else math.nan,
        replications=len(ok),
        failures=len(records) - len(ok),
    )


def win_rate(records: list[RepRecord], arm: str, against: str, truth: float) -> float:
    """Share of the seeds on which arm ``arm``'s estimate is strictly closer
    to ``truth`` than arm ``against``'s, among the seeds where neither
    failed: a paired comparison of two arms on the same cross-fits."""
    errors = {(r.arm, r.seed): abs(r.estimate - truth) for r in records if not r.failed}
    wins = [
        error < errors[against, seed]
        for (name, seed), error in errors.items()
        if name == arm and (against, seed) in errors
    ]
    if not wins:
        raise DLLError(f"no seed where both {arm!r} and {against!r} succeeded")
    return float(np.mean(wins))


def default_jobs() -> int:
    """Worker processes for Monte Carlo runs: ``DLL_JOBS``, default 1."""
    raw = os.environ.get("DLL_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ValueError(f"DLL_JOBS must be an integer >= 1, got {raw!r}")
    return jobs


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
    options: PipelineOptions = PipelineOptions(),
    n_jobs: int | None = None,
    arms: tuple[Arm, ...] = (Arm("estimated"),),
) -> tuple[list[MCReport], list[RepRecord]]:
    """Run B replications with seeds seed+1..seed+B, each one cross-fit
    evaluated once per arm; returns one report per arm and the records in
    seed order, a seed's arms in the order of ``arms``.

    Replications are independent; with ``n_jobs > 1`` they run in fresh
    worker processes with their own BLAS thread budget (``_map_in_workers``),
    so a script that calls this needs an ``if __name__ == "__main__"``
    guard. Records are always reduced in seed order, so the reports are
    identical regardless of scheduling.
    """
    if not _is_integer(b) or b < 1:
        raise ValueError(f"b must be an integer >= 1, got {b!r}")
    names = [arm.name for arm in arms]
    if not names or len(set(names)) < len(names):
        raise ValueError(f"need one or more arms with distinct names, got {names}")
    n_jobs = default_jobs() if n_jobs is None else n_jobs
    if not _is_integer(n_jobs) or n_jobs < 1:
        raise ValueError(f"n_jobs must be an integer >= 1, got {n_jobs!r}")
    replicate = partial(run_replication, config, options, arms=arms)
    seeds = [config.seed + r for r in range(1, b + 1)]
    if n_jobs > 1 and b > 1:
        per_seed = _map_in_workers(replicate, seeds, n_jobs)
    else:
        per_seed = [replicate(seed) for seed in seeds]
    records = [rec for recs in per_seed for rec in recs]
    reports = [_aggregate(config, name, [r for r in records if r.arm == name]) for name in names]
    return reports, records
