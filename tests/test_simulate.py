import dataclasses
import math
import os
import pickle

import numpy as np
import pytest
from scipy.special import ndtr

from dll.cli import REFERENCE_CONFIGS
from dll.decorrelate import build_weights
from dll.estimator import (
    PipelineOptions,
    cross_fit,
    dll_pipeline,
    dll_point,
    evaluate,
    oracle_view,
)
from dll.kernel import KernelSpec
from dll.simulate import (
    BLAS_THREAD_VARS,
    Arm,
    SimConfig,
    _map_in_workers,
    default_jobs,
    gen_design,
    gen_response,
    make_dataset,
    monte_carlo_records,
    nuisance_truth,
    run_replication,
    win_rate,
)
from dll.transforms import GaussianCDF, map_columns


def small_config(**kw):
    base = dict(
        n=400,
        p=3,
        gamma_true=(0.5, -0.5, 0.0),
        sigma2_true=1.0,
        f1=("sine", (1.0, 1.0)),
        nuisance_components=((0, "sine", (0.8, 1.0)),),
        sigma1_true=0.4,
        x0=0.0,
        seed=123,
    )
    base.update(kw)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n=100, p=2, gamma_true=(0.5,))
    with pytest.raises(ValueError):
        small_config(nuisance_components=((7, "sine", (1.0, 1.0)),))
    with pytest.raises(ValueError):
        small_config(f1=("cubic", (1.0,)))


@pytest.mark.parametrize(
    "component",
    [{"f1": ("sine", (1.0,))}, {"f1": ("zero", (1.0,))}, {"f1": ("linear", 2.0)},
     {"nuisance_components": ((0, "quadratic", (0.3, 0.1)),)},
     {"nuisance_components": ((1, "sine", ()),)}],
)
def test_config_rejects_a_wrong_parameter_count(component):
    # SimConfig(f1=("sine", (1.0,))) used to construct; target and every
    # replication then raised a bare ValueError from tuple unpacking, which
    # aborted a whole study.
    with pytest.raises(ValueError, match="parameters"):
        small_config(**component)


@pytest.mark.parametrize(
    "field, value",
    [("n", 0), ("n", -1), ("p", -1), ("sigma1_true", -0.5), ("sigma1_true", math.inf),
     ("sigma2_true", -1.0), ("sigma2_true", math.nan), ("seed", -1),
     # An unknown covariance failed only when data were drawn, and rho = 1
     # with LinAlgError; NaN ran.
     ("design_cov", "AR1"), ("ar1_rho", 1.0), ("ar1_rho", -1.0), ("ar1_rho", math.nan),
     # A float or bool size failed with a TypeError when data were drawn;
     # a NaN or infinite value failed every replication ("y holds NaN"),
     # and then the study ("all replications of arm ... failed").
     ("n", 200.5), ("n", True), ("p", 3.0), ("p", np.float64(3)),
     ("gamma_true", (math.nan, -0.5, 0.0)), ("gamma_true", (0.5, -math.inf, 0.0)),
     ("x0", math.inf), ("x0", math.nan)],
)
def test_config_rejects_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        small_config(**{field: value})


@pytest.mark.parametrize(
    "component, match",
    # A float column index failed with an IndexError that aborted the
    # study; a NaN or infinite parameter failed every replication.
    [({"nuisance_components": ((0.5, "sine", (0.8, 1.0)),)}, "nuisance column"),
     ({"nuisance_components": ((False, "sine", (0.8, 1.0)),)}, "nuisance column"),
     ({"nuisance_components": ((0, "linear", (math.inf,)),)}, "parameters"),
     ({"f1": ("sine", (math.nan, 1.0))}, "parameters")],
)
def test_config_rejects_a_float_column_or_a_non_finite_parameter(component, match):
    with pytest.raises(ValueError, match=match):
        small_config(**component)


def test_config_accepts_numpy_integer_sizes_and_columns():
    cfg = small_config(n=np.int64(120), nuisance_components=((np.int32(2), "linear", (1.0,)),))
    assert make_dataset(cfg).n == 120


def test_study_arguments_are_checked_at_the_boundary():
    # n_jobs = -2 ran serially, b = 2.5 failed with a TypeError, and
    # Arm(contamination=nan) constructed, and then every replication of the
    # arm failed.
    for n_jobs in (0, -2, 1.5):
        with pytest.raises(ValueError, match="n_jobs"):
            monte_carlo_records(small_config(), 1, n_jobs=n_jobs)
    for b in (0, 2.5, True):
        with pytest.raises(ValueError, match="b must be"):
            monte_carlo_records(small_config(), b)
    for c in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="contamination"):
            Arm("dll", contamination=c)


@pytest.mark.parametrize("seed", [2.5, 2.0, False, "2", np.float64(2.0)])
def test_config_rejects_a_seed_that_is_no_integer(seed):
    # A float seed used to construct and fail later, in make_dataset, with
    # numpy's TypeError.
    with pytest.raises(ValueError, match="seed"):
        SimConfig(n=200, p=0, seed=seed)


def test_config_accepts_numpy_integer_seeds():
    ds = make_dataset(SimConfig(n=200, p=0, seed=np.int64(2)))
    assert np.array_equal(ds.y, make_dataset(SimConfig(n=200, p=0, seed=2)).y)


def test_config_accepts_noiseless_draws():
    assert small_config(sigma1_true=0.0, sigma2_true=0.0).sigma1_true == 0.0


def test_default_jobs_reads_dll_jobs(monkeypatch):
    monkeypatch.setenv("DLL_JOBS", "3")
    assert default_jobs() == 3
    # 0 and -3 ran one worker; `--b 0` is a usage error too.
    for raw in ("two", "0", "-3"):
        monkeypatch.setenv("DLL_JOBS", raw)
        with pytest.raises(ValueError, match="DLL_JOBS"):
            default_jobs()


def test_target_uses_analytic_derivative():
    cfg = small_config(f1=("sine", (2.0, 3.0)), x0=0.5)
    assert cfg.target == pytest.approx(2.0 * 3.0 * math.cos(3.0 * 0.5))
    assert small_config(f1=("linear", (4.0,))).target == 4.0
    assert small_config(f1=("quadratic", (1.0,)), x0=0.7).target == pytest.approx(1.4)
    assert small_config(f1=("zero", ())).target == 0.0


def test_gen_design_independence_when_gamma_zero():
    cfg = small_config(n=20_000, gamma_true=(0.0, 0.0, 0.0))
    x1, x2 = gen_design(cfg)
    for j in range(3):
        corr = np.corrcoef(x1, x2[:, j])[0, 1]
        assert abs(corr) <= 4 / np.sqrt(cfg.n)


def test_gen_design_ar1_correlation():
    cfg = small_config(
        n=100_000, p=4, gamma_true=(0.0,) * 4, design_cov="ar1", ar1_rho=0.5
    )
    _, x2 = gen_design(cfg)
    for j in range(3):
        corr = np.corrcoef(x2[:, j], x2[:, j + 1])[0, 1]
        assert corr == pytest.approx(0.5, abs=0.01)


def test_gen_design_residual_scale():
    cfg = small_config(n=100_000, sigma2_true=0.8)
    x1, x2 = gen_design(cfg)
    resid = x1 - x2 @ np.asarray(cfg.gamma_true)
    assert np.std(resid) == pytest.approx(0.8, rel=0.02)


def test_gen_design_draws_of_p0_and_ar1_designs():
    # p = 0 draws only the projection error; the empty nuisance matrix
    # takes no draws from the design stream.
    cfg = SimConfig(n=50, p=0, sigma2_true=0.7, seed=4)
    x1, x2 = gen_design(cfg)
    assert x2.shape == (50, 0)
    np.testing.assert_array_equal(x1, np.random.default_rng([4, 11]).normal(0.0, 0.7, 50))
    assert cfg.known_cdfs() == [GaussianCDF(0.7)]
    # A scale whose square overflows is infinite, not an OverflowError, with
    # or without nuisance columns.
    for p in (0, 2):
        huge = SimConfig(n=50, p=p, gamma_true=(0.5,) * p, sigma2_true=1e200)
        assert huge.x1_marginal_sd() == math.inf
    # AR(1): standard normal rows times the transposed Cholesky factor.
    cfg = small_config(n=60, design_cov="ar1", ar1_rho=0.6)
    x1, x2 = gen_design(cfg, 9)
    rng = np.random.default_rng([9, 11])
    idx = np.arange(3)
    cov = 0.6 ** np.abs(idx[:, None] - idx[None, :])
    want = rng.standard_normal((60, 3)) @ np.linalg.cholesky(cov).T
    np.testing.assert_array_equal(x2, want)
    np.testing.assert_array_equal(
        x1, want @ np.asarray(cfg.gamma_true) + rng.normal(0.0, 1.0, 60)
    )


def test_gen_response_zero_case_and_determinism():
    cfg = small_config(
        f1=("zero", ()), nuisance_components=(), sigma1_true=0.0
    )
    x1, x2 = gen_design(cfg)
    assert np.all(gen_response(x1, x2, cfg) == 0)
    cfg2 = small_config()
    a = gen_response(*gen_design(cfg2), cfg2)
    b = gen_response(*gen_design(cfg2), cfg2)
    np.testing.assert_array_equal(a, b)


def test_nuisance_truth_sums_components():
    cfg = small_config(
        nuisance_components=((0, "linear", (2.0,)), (2, "quadratic", (1.0,)))
    )
    rows = np.array([[1.0, 5.0, 2.0], [0.0, 1.0, -1.0]])
    np.testing.assert_allclose(nuisance_truth(cfg, rows), [2 * 1 + 4.0, 1.0])


def test_run_replication_exact_linear_univariate():
    cfg = SimConfig(
        n=200, p=0, gamma_true=(), f1=("linear", (3.0,)),
        sigma1_true=0.0, x0=0.0, seed=5,
    )
    [rec] = run_replication(cfg, PipelineOptions(h=0.5))
    assert not rec.failed
    assert rec.covered
    assert rec.estimate == pytest.approx(3.0, abs=1e-8)


def test_run_replication_deterministic():
    cfg = small_config()
    a = run_replication(cfg, PipelineOptions(), seed=42)
    b = run_replication(cfg, PipelineOptions(), seed=42)
    assert a == b


def test_run_replication_oracle_arm_matches_oracle_view():
    cfg = small_config()
    arms = (Arm("estimated"), Arm("oracle", "oracle"))
    rec, oracle_rec = run_replication(cfg, seed=77, arms=arms)
    assert [(r.arm, r.seed) for r in (rec, oracle_rec)] == [("estimated", 77), ("oracle", 77)]
    dataset = make_dataset(dataclasses.replace(cfg, seed=77), 77)
    opts = PipelineOptions(seed=77)
    law = (np.asarray(cfg.gamma_true), cfg.sigma2_true)
    view, view_opts = oracle_view(cross_fit(dataset, opts), law, opts)
    orc = evaluate(view, cfg.x0, view_opts)
    assert (oracle_rec.estimate, oracle_rec.ci_low, oracle_rec.ci_high) == (
        orc.estimate, orc.ci_low, orc.ci_high
    )
    assert oracle_rec.covered == (orc.ci_low <= cfg.target <= orc.ci_high)
    est = dll_pipeline(dataset, cfg.x0, opts, true_projection=law)
    assert (rec.estimate, rec.ci_low, rec.ci_high) == (
        est.estimate, est.ci_low, est.ci_high
    )
    assert rec.weight_error == est.diagnostics["weight_error"]
    assert oracle_rec.weight_error == 0.0
    assert oracle_rec.nuisance_error == rec.nuisance_error


def test_plugin_and_contaminated_arms_are_views_of_one_cross_fit():
    cfg = small_config()
    opts = PipelineOptions(h=0.6, seed=5)
    arms = (
        Arm("plugin", "plugin"),
        Arm("projection", contamination=0.3),
        Arm("orthogonal", "plugin", contamination=0.3, orthogonal=True),
    )
    plugin, projection, orthogonal = run_replication(cfg, opts, seed=5, arms=arms)
    # Without an oracle arm there are no oracle weights to measure against.
    assert all(math.isnan(r.weight_error) for r in (plugin, projection, orthogonal))
    dataset = make_dataset(dataclasses.replace(cfg, seed=5), 5)
    cf = cross_fit(dataset, opts)
    zero_shift = build_weights(dataset.x1, np.zeros(cfg.n), KernelSpec(cfg.x0, opts.h))
    assert plugin.estimate == dll_point(zero_shift, cf.residuals)
    bumped = cf.residuals - 0.3 * (dataset.x2 @ np.asarray(cfg.gamma_true))
    assert projection.estimate == evaluate(
        dataclasses.replace(cf, residuals=bumped), cfg.x0, opts
    ).estimate
    noise = np.random.default_rng([5, 23]).standard_normal(cfg.n)
    assert orthogonal.estimate == dll_point(zero_shift, cf.residuals - 0.3 * noise)
    with pytest.raises(ValueError, match="weights"):
        Arm("exact", "exact")


def test_monte_carlo_reports_one_report_per_arm():
    cfg = small_config(n=120)
    arms = (Arm("estimated"), Arm("oracle", "oracle"))
    reports, records = monte_carlo_records(cfg, 4, PipelineOptions(h=0.6), arms=arms)
    assert [r.arm for r in reports] == ["estimated", "oracle"]
    assert [(r.seed, r.arm) for r in records] == [
        (cfg.seed + k, arm.name) for k in range(1, 5) for arm in arms
    ]
    oracle = [r for r in records if r.arm == "oracle"]
    assert reports[1].coverage == np.mean([r.covered for r in oracle])
    univariate = SimConfig(n=200, p=0, gamma_true=(), f1=("linear", (2.0,)),
                           sigma1_true=0.0, seed=7)
    [report], records = monte_carlo_records(univariate, 2, PipelineOptions(h=0.5))
    assert report.arm == "estimated"
    assert all(math.isnan(r.weight_error) for r in records)
    with pytest.raises(ValueError, match="distinct"):
        monte_carlo_records(cfg, 1, arms=(Arm("a"), Arm("a", "plugin")))


def test_run_replication_records_failures():
    # Window too small: insufficient local data is recorded, not raised.
    cfg = small_config(x0=50.0)
    [rec] = run_replication(cfg, PipelineOptions(h=0.01))
    assert rec.failed
    assert "InsufficientLocalData" in rec.message or "Bandwidth" in rec.message


def test_run_replication_checks_the_window_before_fitting(monkeypatch):
    import dll.simulate as simulate

    def no_fit(*args, **kwargs):
        raise AssertionError("cross_fit ran before the window check")

    monkeypatch.setattr(simulate, "cross_fit", no_fit)
    [rec] = run_replication(small_config(x0=50.0), PipelineOptions(h=0.01))
    assert rec.failed
    assert rec.message.startswith("InsufficientLocalDataError")


def test_monte_carlo_single_replication_matches_record():
    cfg = small_config()
    [report], records = monte_carlo_records(cfg, 1, PipelineOptions())
    assert len(records) == 1
    rec = records[0]
    assert report.replications == 1
    assert report.coverage == float(rec.covered)
    assert report.bias == pytest.approx(rec.estimate - cfg.target)
    assert report.sd == 0.0


def test_monte_carlo_noiseless_coverage():
    cfg = SimConfig(
        n=200, p=0, gamma_true=(), f1=("linear", (2.0,)),
        sigma1_true=0.0, x0=0.0, seed=7,
    )
    [report], _ = monte_carlo_records(cfg, 5, PipelineOptions(h=0.5))
    assert report.coverage == 1.0
    assert report.failures == 0


def test_monte_carlo_rmse_identity_and_determinism():
    cfg = small_config(n=120)
    opts = PipelineOptions(h=0.6)
    [rep1], _ = monte_carlo_records(cfg, 8, opts)
    [rep2], _ = monte_carlo_records(cfg, 8, opts)
    assert rep1 == rep2  # byte-identical dataclasses
    assert rep1.rmse**2 == pytest.approx(rep1.bias**2 + rep1.sd**2, rel=1e-8)
    assert (rep1.coverage * rep1.replications) == pytest.approx(
        round(rep1.coverage * rep1.replications)
    )


def test_monte_carlo_parallel_matches_serial():
    cfg = small_config(n=120)
    opts = PipelineOptions(h=0.6)
    serial = monte_carlo_records(cfg, 6, opts, n_jobs=1)[0]
    parallel = monte_carlo_records(cfg, 6, opts, n_jobs=2)[0]
    assert serial == parallel


def test_workers_get_a_blas_thread_budget_and_the_caller_keeps_its_environment(monkeypatch):
    # Forked workers inherited the caller's BLAS threads, so two workers on
    # two CPUs ran four threads. Spawned workers get cpus // n_jobs each,
    # except where the caller set the variable itself.
    for name in BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    before = dict(os.environ)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    budget = str(max(1, cpus // 2))
    seen = _map_in_workers(os.getenv, list(BLAS_THREAD_VARS) * 4, 2)
    assert seen == ([budget, "3", budget] * 4)
    assert dict(os.environ) == before


def test_plugin_arm_zero_contamination_balanced():
    cfg = small_config(n=300, sigma1_true=0.3)
    arms = (Arm("dll"), Arm("plugin", "plugin"))
    _, records = monte_carlo_records(cfg, 20, PipelineOptions(h=0.5), arms=arms)
    assert sum(not r.failed for r in records) == 40
    # no induced correlation: neither estimator should dominate strongly
    assert 0.15 <= win_rate(records, "dll", "plugin", cfg.target) <= 0.85


def test_mc_report_is_serializable():
    cfg = small_config(n=120)
    [report], _ = monte_carlo_records(cfg, 2, PipelineOptions(h=0.6))
    payload = dataclasses.asdict(report)
    assert set(payload) == {
        "arm", "coverage", "mean_ci_length", "bias", "sd", "rmse", "rejection_rate",
        "mean_weight_error", "mean_nuisance_error", "replications", "failures",
    }


def test_nuisance_error_decreases_with_sample_size():
    # Shape error of the cross-fitted nuisance fit shrinks as n doubles.
    means = []
    for n in (200, 400, 800):
        errs = []
        for s in range(10):
            cfg = small_config(n=n, seed=9000 + s)
            [rec] = run_replication(cfg)
            if not rec.failed:
                errs.append(rec.nuisance_error)
        means.append(np.mean(errs))
    assert means[2] < means[0]  # monotone within noise across a 4x range
    assert means[1] < means[0] * 1.1


def test_nuisance_error_is_the_worse_folds_held_out_sd():
    cfg = small_config()
    [rec] = run_replication(cfg, seed=8)
    data = make_dataset(dataclasses.replace(cfg, seed=8), 8)
    cf = cross_fit(data, PipelineOptions(seed=8))
    truth = nuisance_truth(cfg, data.x2)
    gap = data.y - cf.residuals - truth
    folds = (cf.plan.fold_a, cf.plan.fold_b)
    assert rec.nuisance_error == max(float(np.std(gap[fold])) for fold in folds)
    # Each fold's rows are scored against the fit of the other fold, which
    # never saw them; the level alignment drops out of the sd.
    for fold, fit in zip(folds, reversed(cf.additive)):
        held_out, _ = fit.predict_sums(data.x1, data.x2)
        assert np.std((held_out - truth)[fold]) == pytest.approx(np.std(gap[fold]), rel=1e-12)
    univariate = SimConfig(n=200, p=0, f1=("linear", (2.0,)), seed=7)
    assert math.isnan(run_replication(univariate, PipelineOptions(h=0.5))[0].nuisance_error)


def test_nuisance_error_examples(monkeypatch):
    import dll.simulate as simulate

    cfg = small_config(nuisance_components=((0, "sine", (0.8, 1.0)), (2, "quadratic", (0.3,))))
    fits = []

    def error_with(residuals):
        def fit(dataset, options):
            fits.append(cross_fit(dataset, options))
            return dataclasses.replace(fits[-1], residuals=residuals(fits[-1]))

        monkeypatch.setattr(simulate, "cross_fit", fit)
        [rec] = run_replication(cfg, PipelineOptions(h=0.6), seed=3)
        return rec.nuisance_error

    def truth(cf):
        return nuisance_truth(cfg, cf.dataset.x2)

    # the truth itself: zero error
    assert error_with(lambda cf: cf.dataset.y - truth(cf)) == pytest.approx(0.0, abs=1e-12)
    # the error is net of level: a constant offset per fold is no error,
    # while doubled components miss the truth by its own spread
    def offset(cf):
        in_a = np.isin(np.arange(cf.dataset.n), cf.plan.fold_a)
        return cf.dataset.y - truth(cf) - np.where(in_a, 0.1, -0.3)

    assert error_with(offset) == pytest.approx(0.0, abs=1e-12)
    doubled = error_with(lambda cf: cf.dataset.y - 2 * truth(cf))
    cf = fits[-1]
    spread = max(float(np.std(truth(cf)[fold])) for fold in (cf.plan.fold_a, cf.plan.fold_b))
    assert doubled == pytest.approx(spread, rel=1e-12)


def test_harness_defaults_to_the_fit_options():
    # A study replication runs what `dll fit` runs: the library defaults.
    import inspect

    for harness in (run_replication, monte_carlo_records):
        assert inspect.signature(harness).parameters["options"].default == PipelineOptions()


def test_known_cdfs_pickle_and_transform_a_fold_in_one_call():
    cfg = small_config(design_cov="ar1")
    cdfs = cfg.known_cdfs()
    assert pickle.loads(pickle.dumps(cdfs)) == cdfs
    data = make_dataset(cfg, 5)
    x_cols = np.column_stack([data.x1, data.x2])
    # The per-column closures known_cdfs returned before GaussianCDF.
    sds = [cfg.x1_marginal_sd()] + [float(s) for s in np.sqrt(np.diag(cfg._cov()))]
    want = np.column_stack(
        [ndtr(np.asarray(x_cols[:, j], float) / s) for j, s in enumerate(sds)]
    )
    np.testing.assert_array_equal(map_columns(cdfs, x_cols), want)
    # A sequence of the columns maps to the same matrix.
    np.testing.assert_array_equal(map_columns(cdfs, list(x_cols.T)), want)
    for j, cdf in enumerate(cdfs):
        np.testing.assert_array_equal(cdf(x_cols[:, j]), want[:, j])
    # Any other callable keeps the per-column path, with the same values.
    other = cdfs[:-1] + [lambda x, s=sds[-1]: ndtr(np.asarray(x, float) / s)]
    np.testing.assert_array_equal(map_columns(other, x_cols), want)
    with pytest.raises(ValueError, match="one CDF per column"):
        map_columns(cdfs[:-1], x_cols)


def test_highdim_with_a_quadratic_component_of_interest_never_fails():
    # The out-of-fold noise scale takes no degrees of freedom off n. With
    # the active basis size as df, this design's df passed n = 400 on 7 to
    # 10 of seeds 1-20, and each such fit raised SampleTooSmallError.
    entry = REFERENCE_CONFIGS["highdim"]
    cfg = dataclasses.replace(entry["config"], f1=("quadratic", (1.0,)), seed=0)
    [report], records = monte_carlo_records(cfg, 20, entry["options"], n_jobs=1)
    assert report.failures == 0, [r.message for r in records if r.failed]
