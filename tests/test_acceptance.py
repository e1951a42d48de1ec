"""Acceptance suite: every standing criterion at its stated tolerance.

Each test prints one PASS/FAIL line; heavier Monte Carlo studies share
module-scoped runs. The whole module is self-contained and seeded.
"""

import os
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from dll.cli import REFERENCE_CONFIGS
from dll.decorrelate import build_weights, shift_linear, window_shifts
from dll.estimator import Dataset, PipelineOptions, dll_pipeline, dll_point
from dll.kernel import KernelSpec, kernel_weight
from dll.linear import scaled_lasso
from dll.simulate import monte_carlo_records, win_rate
from dll.transforms import EmpiricalCDF, KnownCDF
from scipy.special import ndtr

Z_975 = 1.959963984540054
N_JOBS = min(2, os.cpu_count() or 1)


def report(number, name, ok, detail, started):
    line = (
        f"ACCEPTANCE {number:>2} {name}: {'PASS' if ok else 'FAIL'}"
        f" ({detail}) [{time.time() - started:.1f}s]"
    )
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def highdim_estimated():
    # One cross-fit per replication, evaluated by the study's two arms: the
    # estimated and the exact-law (oracle) weights.
    entry = REFERENCE_CONFIGS["highdim"]
    return monte_carlo_records(
        entry["config"], entry["b"], entry["options"], n_jobs=N_JOBS, arms=entry["arms"]
    )


def test_criterion_01_kernel_moments():
    t0 = time.time()
    unit = KernelSpec(0.0, 1.0)  # the base kernel: the indicator of [-1, 1]
    total, _ = quad(kernel_weight, -2, 2, args=(unit,), points=[-1, 1])
    first, _ = quad(lambda u: u * kernel_weight(u, unit), -2, 2, points=[-1, 1])
    second, _ = quad(lambda u: u * u * kernel_weight(u, unit), -1, 1)
    ok = (
        abs(total - 2.0) < 1e-10
        and abs(first) < 1e-10
        and abs(second - 2 / 3) < 1e-10
        and abs(second / total - 1 / 3) < 1e-10
    )
    report(1, "kernel moment identities", ok,
           f"mass={total:.12f} odd={first:.1e} norm2nd={second / total:.12f}", t0)


def test_criterion_02_exact_linear_recovery():
    t0 = time.time()
    rng = np.random.default_rng(11)
    x1 = rng.uniform(-1, 1, 200)
    y = 1.0 + 3.0 * x1
    spec = KernelSpec(0.0, 0.5)
    # The plug-in local linear slope: the DLL ratio with zero window shifts.
    slope = dll_point(build_weights(x1, np.zeros(200), spec), y)
    fit = dll_pipeline(
        Dataset(y=y, x1=x1, x2=np.empty((200, 0))), 0.0, PipelineOptions(h=0.5)
    )
    ok = abs(slope - 3.0) <= 1e-8 and abs(fit.estimate - 3.0) <= 1e-8
    report(2, "exact linear recovery", ok,
           f"|slope-3|={abs(slope - 3):.1e} |dll-3|={abs(fit.estimate - 3):.1e}", t0)


def test_criterion_03_centering_invariant():
    t0 = time.time()
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(20, 120))
        x = rng.normal(size=n) * rng.uniform(0.3, 2.0)
        shifts = rng.normal(size=n) * 0.05
        spec = KernelSpec(float(rng.normal() * 0.1), float(rng.uniform(0.3, 1.2)))
        kh = kernel_weight(x, spec)
        if not np.any(kh > 0):
            continue
        w = build_weights(x, shifts, spec)
        scale = max(float(np.sum(np.abs(w.offset - shifts) * kh)), 1e-300)
        worst = max(worst, abs(float(np.sum(w.centered * kh))) / scale)
    ok = worst <= 1e-10
    report(3, "centering invariant", ok, f"worst relative residual={worst:.2e}", t0)


def exact_shift(mu, half):
    """Exact Gaussian shift of the standardized window (mu - half, mu + half)
    with sigma2 = 1: the projection -mu at x0 = 0 with bandwidth half."""
    shifts, _ = window_shifts(np.array([-mu]), 1.0, KernelSpec(0.0, half), "exact_gaussian")
    return float(shifts[0])


def test_criterion_04_shift_consistency():
    t0 = time.time()
    phi = lambda t: np.exp(-t * t / 2) / np.sqrt(2 * np.pi)
    worst = 0.0
    for mu in np.linspace(-2.2, 2.2, 10):
        for half in np.linspace(0.05, 1.0, 10):
            num, _ = quad(lambda t: (t - mu) * phi(t), mu - half, mu + half,
                          epsabs=1e-14)
            den, _ = quad(phi, mu - half, mu + half, epsabs=1e-14)
            got = exact_shift(float(mu), float(half))
            worst = max(worst, abs(got - num / den))
    hs = np.array([0.4, 0.2, 0.1, 0.05])
    diffs = [
        abs(
            exact_shift(0.3, h)
            - shift_linear(-0.3, 1.0, KernelSpec(0.0, h))
        )
        for h in hs
    ]
    slope = float(np.polyfit(np.log(hs), np.log(diffs), 1)[0])
    ok = worst <= 1e-8 and 3.3 <= slope <= 4.7
    report(4, "shift consistency", ok,
           f"grid err={worst:.1e} log-log slope={slope:.2f}", t0)


def test_criterion_05_variance_constant():
    t0 = time.time()
    rng = np.random.default_rng(51)
    n, sigma1 = 100_000, 0.7
    x1 = rng.uniform(0, 1, n)
    y = np.sin(2 * x1) + rng.normal(0, sigma1, n)
    fit = dll_pipeline(
        Dataset(y=y, x1=x1, x2=np.empty((n, 0))), 0.5, PipelineOptions(h=0.05)
    )
    ratio = fit.variance * n * 0.05**3 * 1.0 / (1.5 * sigma1**2)
    ok = abs(ratio - 1.0) <= 0.15
    report(5, "variance constant", ok, f"scaled variance ratio={ratio:.3f}", t0)


def test_criterion_06_lowdim_coverage():
    t0 = time.time()
    entry = REFERENCE_CONFIGS["lowdim"]
    (rep, _), _ = monte_carlo_records(
        entry["config"], entry["b"], entry["options"], n_jobs=N_JOBS, arms=entry["arms"]
    )
    ok = rep.coverage >= 0.88 and rep.failures == 0
    report(6, "low-dimensional coverage", ok,
           f"coverage={rep.coverage:.3f} B={rep.replications} "
           f"CI len={rep.mean_ci_length:.2f}", t0)


def test_criterion_07_highdim_coverage(highdim_estimated):
    t0 = time.time()
    (rep, _), _ = highdim_estimated
    total = rep.replications + rep.failures
    ok = (
        rep.coverage >= 0.85
        and np.isfinite(rep.mean_ci_length)
        and rep.failures <= 0.05 * total
    )
    report(7, "high-dimensional coverage", ok,
           f"coverage={rep.coverage:.3f} failures={rep.failures}/{total} "
           f"CI len={rep.mean_ci_length:.2f}", t0)


def test_criterion_08_decorrelation_benefit():
    t0 = time.time()
    entry = REFERENCE_CONFIGS["decorrelation-benefit"]
    _, records = monte_carlo_records(
        entry["config"], entry["b"], entry["options"], n_jobs=N_JOBS, arms=entry["arms"]
    )
    truth = entry["config"].target
    win = win_rate(records, "dll-projection", "plugin-projection", truth)
    control = win_rate(records, "dll-orthogonal", "plugin-orthogonal", truth)
    ok = win >= 0.80 and 0.35 <= control <= 0.65
    report(8, "decorrelation benefit", ok, f"win={win:.3f} control={control:.3f}", t0)


def test_criterion_09_scaled_lasso_correctness():
    t0 = time.time()
    rng = np.random.default_rng(91)
    # orthonormal-design oracle
    n, p = 150, 9
    q = np.linalg.qr(rng.normal(size=(n, p)))[0] * np.sqrt(n)
    gamma = np.zeros(p)
    gamma[:3] = [2.0, -1.5, 1.0]
    y = q @ gamma + rng.normal(0, 1.0, n)
    fit = scaled_lasso(q, y, 1.01)
    lam0 = np.sqrt(2 * 1.01 * np.log(p) / n)
    z = q.T @ y / n

    def resid_norm(sig):
        g = np.sign(z) * np.maximum(np.abs(z) - sig * lam0, 0)
        return np.sqrt(max(y @ y / n - 2 * g @ z + g @ g, 0.0))

    lo, hi = 1e-10, float(np.linalg.norm(y) / np.sqrt(n))
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if resid_norm(mid) > mid else (lo, mid)
    sig_oracle = (lo + hi) / 2
    g_oracle = np.sign(z) * np.maximum(np.abs(z) - sig_oracle * lam0, 0)
    oracle_err = max(
        abs(fit.sigma2 - sig_oracle), float(np.abs(fit.gamma - g_oracle).max())
    )

    worst_kkt = 0.0
    for s in range(50):
        r = np.random.default_rng(9100 + s)
        n_s = int(r.integers(60, 160))
        p_s = int(r.integers(5, 220))
        x = r.normal(size=(n_s, p_s)) * r.uniform(0.5, 2.0, size=p_s)
        gam = np.zeros(p_s)
        k = int(r.integers(0, min(4, p_s)))
        if k:
            gam[r.choice(p_s, size=k, replace=False)] = r.normal(size=k) * 2
        x1 = x @ gam + r.normal(0, r.uniform(0.5, 1.5), n_s)
        worst_kkt = max(worst_kkt, scaled_lasso(x, x1).kkt_residual)
    ok = oracle_err <= 1e-6 and worst_kkt <= 1e-8
    report(9, "scaled lasso correctness", ok,
           f"oracle err={oracle_err:.1e} worst KKT={worst_kkt:.1e}", t0)


def test_criterion_10_standardized_error_normality():
    t0 = time.time()
    entry = REFERENCE_CONFIGS["univariate-oracle"]
    [rep], records = monte_carlo_records(
        entry["config"], entry["b"], entry["options"], n_jobs=N_JOBS, arms=entry["arms"]
    )
    truth = entry["config"].target
    zs = []
    for r in records:
        if r.failed:
            continue
        sd = (r.ci_high - r.ci_low) / 2 / Z_975
        zs.append((r.estimate - truth) / sd)
    frac = float(np.mean(np.abs(np.array(zs)) < 1.96))
    ok = 0.92 <= frac <= 0.98 and rep.failures == 0
    report(10, "standardized error normality", ok,
           f"fraction inside ±1.96 = {frac:.3f} (B={len(zs)})", t0)


def test_criterion_11_oracle_mode_dominance(highdim_estimated):
    t0 = time.time()
    (est_rep, oracle_rep), _ = highdim_estimated
    ok = oracle_rep.coverage >= est_rep.coverage - 0.03
    report(11, "oracle-mode dominance", ok,
           f"oracle={oracle_rep.coverage:.3f} estimated={est_rep.coverage:.3f}", t0)


def test_criterion_12_transform_uniformity():
    t0 = time.time()
    rng = np.random.default_rng(121)
    n = 10_000
    draws = rng.normal(size=n)
    known_stat = kstest(KnownCDF(ndtr)(draws), "uniform").statistic
    empirical_stat = kstest(EmpiricalCDF.fit(draws)(draws), "uniform").statistic
    ok = known_stat < 1.36 / np.sqrt(n) and empirical_stat < 0.02
    report(12, "transform uniformity", ok,
           f"known KS={known_stat:.4f} empirical KS={empirical_stat:.4f}", t0)
