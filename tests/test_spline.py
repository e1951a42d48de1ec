import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import BSpline
from scipy.special import ndtr

from dll import spline

from dll.errors import RankDeficientError
from dll.spline import (
    AdditiveFit,
    BasisSpec,
    CoordinateBasis,
    bspline_basis,
    default_penalties,
    fit_doubly_penalized,
    make_coordinate_basis,
    nuisance_fit_error,
    nuisance_residuals,
    predict_nuisance,
    sobolev_penalty_matrix,
    two_penalty_prox,
)


def cox_de_boor_oracle(z, knots, degree):
    """Independent table-based recursion, one basis value at a time."""
    q = len(knots) - degree - 1

    def b(j, d):
        if d == 0:
            if knots[j] <= z < knots[j + 1]:
                return 1.0
            # right-closed last interval
            if z == knots[-1] and knots[j] < knots[j + 1] == knots[-1]:
                return 1.0
            return 0.0
        left = 0.0
        if knots[j + d] > knots[j]:
            left = (z - knots[j]) / (knots[j + d] - knots[j]) * b(j, d - 1)
        right = 0.0
        if knots[j + d + 1] > knots[j + 1]:
            right = (knots[j + d + 1] - z) / (knots[j + d + 1] - knots[j + 1]) * b(
                j + 1, d - 1
            )
        return left + right

    return np.array([b(j, degree) for j in range(q)])


@pytest.fixture
def uniform_basis():
    return make_coordinate_basis(
        BasisSpec(degree=3, num_interior_knots=5, placement="uniform"), n=100
    )


def test_partition_of_unity(uniform_basis):
    for z in [0.0, 0.1, 0.37, 0.5, 0.99, 1.0]:
        vals = bspline_basis(z, uniform_basis)
        assert vals.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(vals >= 0)


def test_boundary_interpolation(uniform_basis):
    left = bspline_basis(0.0, uniform_basis)
    assert left[0] == pytest.approx(1.0)
    assert np.all(left[1:] == 0)
    right = bspline_basis(1.0, uniform_basis)
    assert right[-1] == pytest.approx(1.0)
    assert np.all(right[:-1] == 0)


def test_basis_matches_cox_de_boor_oracle(uniform_basis):
    for z in [0.37, 0.02, 0.61, 0.99]:
        oracle = cox_de_boor_oracle(z, uniform_basis.knots, uniform_basis.degree)
        np.testing.assert_allclose(bspline_basis(z, uniform_basis), oracle, atol=1e-12)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 5])
def test_dense_design_matches_scipy_design_matrix(degree):
    rng = np.random.default_rng(degree)
    for interior in (np.array([]), np.sort(rng.uniform(0, 1, 7)), np.array([0.3, 0.3, 0.6])):
        knots = np.concatenate([np.zeros(degree + 1), interior, np.ones(degree + 1)])
        z = np.concatenate([[0.0, 1.0], interior, rng.uniform(0, 1, 50)])
        ref = BSpline.design_matrix(z, knots, degree).toarray()
        dense = CoordinateBasis(knots=knots, degree=degree).design(z)
        np.testing.assert_allclose(dense, ref, rtol=0, atol=1e-14)


def test_basis_rejects_out_of_range(uniform_basis):
    for bad in (1.2, -0.1, np.nan):
        with pytest.raises(ValueError):
            uniform_basis.design(np.array([0.5, bad]))
        with pytest.raises(ValueError):
            fit_doubly_penalized(np.full((20, 2), bad), np.zeros(20), (0.1, 0.1))


def representation_coefficients(basis, func):
    zg = np.linspace(0, 1, 40 * basis.size)
    design = basis.design(zg)
    return np.linalg.lstsq(design, func(zg), rcond=None)[0]


def test_penalty_matrix_polynomials(uniform_basis):
    omega = sobolev_penalty_matrix(uniform_basis, 2)
    lin = representation_coefficients(uniform_basis, lambda z: 3 * z + 1)
    assert lin @ omega @ lin == pytest.approx(0.0, abs=1e-9)
    quadratic = representation_coefficients(uniform_basis, lambda z: z**2)
    assert quadratic @ omega @ quadratic == pytest.approx(4.0, rel=1e-9)


def test_penalty_matrix_matches_quadrature(uniform_basis):
    rng = np.random.default_rng(0)
    omega = sobolev_penalty_matrix(uniform_basis, 2)
    from scipy.interpolate import BSpline

    for _ in range(3):
        beta = rng.normal(size=uniform_basis.size)
        spline = BSpline(uniform_basis.knots, beta, uniform_basis.degree)
        second = spline.derivative(2)
        val, _ = quad(
            lambda z: second(z) ** 2, 0, 1, points=np.unique(uniform_basis.knots),
            limit=200,
        )
        assert beta @ omega @ beta == pytest.approx(val, rel=1e-8)


def test_penalty_matrix_rejects_high_order(uniform_basis):
    with pytest.raises(ValueError):
        sobolev_penalty_matrix(uniform_basis, 4)


def prox_objective(t, z, d, rho, lam):
    return (
        np.sum((t - z) ** 2)
        + rho * np.sqrt(t @ (d * t))
        + lam * np.linalg.norm(t)
    )


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_two_penalty_prox_optimality(seed):
    # Finite-difference directional derivatives at the reported minimizer
    # of the strongly convex block objective must be nonnegative.
    rng = np.random.default_rng(seed)
    q = int(rng.integers(2, 9))
    z = rng.normal(size=q) * rng.uniform(0.5, 3)
    d = np.abs(rng.normal(size=q)) ** 2
    if seed % 3 == 0:
        d[: max(1, q // 3)] = 0.0
    rho, lam = np.abs(rng.normal()), np.abs(rng.normal())
    t = two_penalty_prox(z, d, rho, lam)
    f0 = prox_objective(t, z, d, rho, lam)
    for _ in range(6):
        v = rng.normal(size=q)
        v /= np.linalg.norm(v)
        fd = (prox_objective(t + 1e-6 * v, z, d, rho, lam) - f0) / 1e-6
        assert fd >= -1e-8


def prox_zero_case(rng, rho_mode, lam_mode):
    q = int(rng.integers(1, 10))
    z = rng.normal(size=q) * 10 ** rng.uniform(-3, 1)
    d = 10 ** rng.uniform(-2, 6, q)
    d[rng.random(q) < 0.3] = 0.0
    pos = d > 0
    s1 = 2 * math.sqrt(float(np.sum(z[pos] ** 2 / d[pos]))) if pos.any() else 1.0
    rho = {"zero": 0.0, "free": rng.uniform(0, 2) * s1, "edge": s1}[rho_mode]
    if lam_mode == "free":
        lam = rng.uniform(0, 3) * float(np.linalg.norm(z))
    elif lam_mode == "znorm":  # ||z|| right at lam / 2
        lam = 2 * float(np.linalg.norm(z))
    else:  # the weighted-shrinkage output right at lam / 2
        lam = 2 * float(np.linalg.norm(two_penalty_prox(z, d, rho, 0.0)))
    return z, d, rho, lam


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["free", "zero", "edge"]),
    st.sampled_from(["free", "znorm", "vnorm"]),
)
def test_prox_zero_blocks_agrees_with_prox(seed, rho_mode, lam_mode):
    rng = np.random.default_rng(seed)
    cases = [prox_zero_case(rng, rho_mode, lam_mode) for _ in range(int(rng.integers(1, 12)))]
    z = np.concatenate([c[0] for c in cases])
    d = np.concatenate([c[1] for c in cases])
    starts = np.cumsum([0] + [len(c[0]) for c in cases])
    rho = np.array([c[2] for c in cases])
    lam = np.array([c[3] for c in cases])
    with mock.patch.object(spline, "two_penalty_prox", wraps=two_penalty_prox) as spy:
        zero = spline._prox_zero_blocks(z, d, starts, rho, lam)
    expected = [not two_penalty_prox(*c).any() for c in cases]
    assert zero.tolist() == expected
    if rho_mode != "edge" and lam_mode == "free":
        assert spy.call_count == 0  # decided in closed form, away from thresholds


def golden_problem(n, p, seed):
    """Correlated uniform design; four active components plus noise."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, p)) + rng.normal(size=(n, 1))
    z = ndtr(g / np.sqrt(2))
    y = (
        np.sin(2 * np.pi * z[:, 0]) + 3 * (z[:, 1] - 0.5) ** 2 + z[:, 2]
        + 0.5 * np.cos(3 * z[:, 3]) + rng.normal(0, 0.5, n)
    )
    return z, y


# Produced by the plain per-block sweep (with null-space eigenvalues
# snapped to zero); the screened sweep must follow the same path.
GOLDEN_FITS = {
    (200, 60, 41): ((0, 1, 2, 3, 38), 9, (
        0.9568427581924626, 0.6677427917566416, 0.6605959747106455,
        0.6598747120533321, 0.659755613579915, 0.6597332251296418,
        0.6597286085886276, 0.6597277345049133, 0.6597276001912423,
        0.659727578934074,
    )),
    (3000, 8, 42): ((0, 1, 2, 3), 11, (
        0.9287103017056864, 0.39267187724755737, 0.37813019091309574,
        0.37548550206883846, 0.37479858116021797, 0.37462314332259666,
        0.3745945253472256, 0.374590414490472, 0.3745895598436234,
        0.3745893231109244, 0.3745892685250988, 0.3745892593541867,
    )),
}


@pytest.mark.parametrize("key", sorted(GOLDEN_FITS), ids=["p-heavy", "n-heavy"])
def test_fit_follows_golden_path(key):
    n, p, seed = key
    active, sweeps, trace = GOLDEN_FITS[key]
    z, y = golden_problem(n, p, seed)
    fit = fit_doubly_penalized(z, y, default_penalties(n, p, 2))
    assert fit.active_set == active
    assert fit.sweeps == sweeps and fit.converged
    np.testing.assert_allclose(fit.objective_trace, trace, rtol=1e-12, atol=0)


def test_fit_coordinate_with_few_distinct_values():
    # Three distinct values leave a cubic basis's Gram matrix singular;
    # that coordinate is retried alone with a growing ridge.
    rng = np.random.default_rng(15)
    z = rng.uniform(0, 1, (150, 4))
    z[:, 2] = rng.choice([0.2, 0.5, 0.9], 150)
    y = np.sin(2 * np.pi * z[:, 0]) + z[:, 2] + rng.normal(0, 0.2, 150)
    fit = fit_doubly_penalized(z, y, default_penalties(150, 4, 2))
    assert {0, 2} <= set(fit.active_set)
    assert np.all(np.isfinite(fit.predict_sum(z)))
    trace = fit.objective_trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def test_fit_zero_response():
    rng = np.random.default_rng(1)
    z = rng.uniform(0, 1, (50, 3))
    fit = fit_doubly_penalized(z, np.zeros(50), (0.1, 0.1))
    assert fit.intercept == 0.0
    assert fit.active_set == ()
    assert all(np.all(b == 0) for b in fit.coef_blocks)


def test_fit_huge_penalties_full_shrinkage():
    rng = np.random.default_rng(2)
    z = rng.uniform(0, 1, (80, 4))
    y = rng.normal(2.0, 1.0, 80)
    fit = fit_doubly_penalized(z, y, (1e6 * np.std(y), 1e6 * np.std(y)))
    assert fit.active_set == ()
    assert fit.intercept == pytest.approx(np.mean(y))


def test_fit_zero_penalty_multi_coordinate_rejected():
    rng = np.random.default_rng(3)
    z = rng.uniform(0, 1, (50, 2))
    with pytest.raises(RankDeficientError):
        fit_doubly_penalized(z, rng.normal(size=50), (0.0, 0.0))


def test_fit_sine_recovery_over_seeds():
    r2s, zero_fracs = [], []
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        n, p = 300, 10
        z = rng.uniform(0, 1, (n, p))
        g2 = np.sin(2 * np.pi * z[:, 1])
        y = g2 + rng.normal(0, 0.5, n)
        fit = fit_doubly_penalized(z, y, default_penalties(n, p, 2))
        if 1 in fit.active_set:
            ghat = fit.component(1, z[:, 1])
        else:
            ghat = np.zeros(n)
        centered = g2 - g2.mean()
        r2s.append(1 - np.mean((ghat - centered) ** 2) / np.var(centered))
        zero_fracs.append(
            np.mean([j not in fit.active_set for j in range(p) if j != 1])
        )
    assert np.mean(r2s) >= 0.7
    assert np.mean(zero_fracs) >= 0.8


def test_fit_objective_monotone_and_centered():
    rng = np.random.default_rng(4)
    z = rng.uniform(0, 1, (200, 6))
    y = np.sin(2 * np.pi * z[:, 0]) + z[:, 2] ** 2 + rng.normal(0, 0.3, 200)
    fit = fit_doubly_penalized(z, y, default_penalties(200, 6, 2))
    trace = fit.objective_trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    for j in fit.active_set:
        assert abs(np.mean(fit.component(j, z[:, j]))) <= 1e-10


def test_fit_zero_penalty_single_coordinate_is_least_squares():
    rng = np.random.default_rng(5)
    z = rng.uniform(0, 1, (120, 1))
    y = np.cos(3 * z[:, 0]) + rng.normal(0, 0.2, 120)
    fit = fit_doubly_penalized(z, y, (0.0, 0.0))
    design = np.column_stack([np.ones(120), fit.bases[0].design(z[:, 0])])
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    np.testing.assert_allclose(
        fit.predict_sum(z), design @ coef, atol=1e-8
    )


def test_predict_consistency_in_sample():
    rng = np.random.default_rng(6)
    z = rng.uniform(0, 1, (150, 2))
    y = np.sin(2 * np.pi * z[:, 0]) + rng.normal(0, 0.1, 150)
    fit = fit_doubly_penalized(z, y, default_penalties(150, 2, 2))
    row = z[17]
    direct = fit.predict_sum(row[None, :])[0]
    via_components = fit.intercept + sum(
        float(fit.component(j, np.array([row[j]]))[0]) for j in fit.active_set
    )
    assert direct == pytest.approx(via_components, abs=1e-10)


def test_predict_nuisance_excludes_component():
    rng = np.random.default_rng(7)
    z = rng.uniform(0, 1, (200, 3))
    y = 2 * z[:, 0] + np.sin(2 * np.pi * z[:, 1]) + rng.normal(0, 0.1, 200)
    fit = fit_doubly_penalized(z, y, default_penalties(200, 3, 2))
    row_full = z[5]
    nuis = predict_nuisance(fit, row_full[1:], exclude=0)
    full = fit.predict_sum(row_full[None, :])[0]
    if 0 in fit.active_set:
        g0 = float(fit.component(0, np.array([row_full[0]]))[0])
    else:
        g0 = 0.0
    assert nuis == pytest.approx(full - g0, abs=1e-10)


def test_predict_all_blocks_zero_returns_intercept():
    rng = np.random.default_rng(8)
    z = rng.uniform(0, 1, (60, 2))
    y = rng.normal(5.0, 0.1, 60)
    fit = fit_doubly_penalized(z, y, (100.0, 100.0))
    assert predict_nuisance(fit, z[0][1:], exclude=0) == pytest.approx(fit.intercept)


def test_noiseless_quadratic_component_approximation():
    rng = np.random.default_rng(9)
    z = rng.uniform(0, 1, (400, 1))
    g = lambda t: (t - 0.4) ** 2
    fit = fit_doubly_penalized(z, g(z[:, 0]), (1e-10, 1e-10))
    grid = np.linspace(0, 1, 101)
    pred = fit.intercept + fit.component(0, grid)
    assert np.max(np.abs(pred - g(grid))) <= 1e-3


def test_default_penalty_formula():
    rho, lam = default_penalties(256, 1, 2, rho_const=1.0, lambda_const=1.0)
    assert rho == pytest.approx(256 ** (-2 / 5))
    assert rho == pytest.approx(0.1088, abs=2e-4)
    assert lam == pytest.approx(np.sqrt(np.log(2) / 256))
    rho2, _ = default_penalties(256 * 2**5, 1, 2, rho_const=1.0, lambda_const=1.0)
    assert rho2 / rho == pytest.approx(2.0 ** (-2), rel=1e-12)


def test_default_penalty_constants_near_cv_choice():
    # Small cross-validation oracle over a grid of constants: the default
    # constants must beat it or tie within 10% in fresh-sample MSE.
    rng = np.random.default_rng(10)
    n, p = 240, 4
    z = rng.uniform(0, 1, (n, p))
    truth = lambda zz: np.sin(2 * np.pi * zz[:, 0]) + 0.5 * (zz[:, 1] - 0.5) ** 2
    y = truth(z) + rng.normal(0, 0.4, n)

    def fresh_mse(rho_c, lam_c):
        fit = fit_doubly_penalized(
            z, y, default_penalties(n, p, 2, rho_c, lam_c)
        )
        z_new = rng.uniform(0, 1, (2000, p))
        pred = fit.predict_sum(z_new)
        target = truth(z_new) + (np.mean(y) - np.mean(truth(z)))
        return np.mean((pred - target) ** 2)

    folds = np.arange(n) % 3
    grid = [(r, l) for r in (0.01, 0.05, 0.25) for l in (0.5, 1.5, 3.0)]
    cv_scores = []
    for r, l in grid:
        errs = []
        for k in range(3):
            tr, te = folds != k, folds == k
            fit = fit_doubly_penalized(
                z[tr], y[tr], default_penalties(tr.sum(), p, 2, r, l)
            )
            errs.append(np.mean((fit.predict_sum(z[te]) - y[te]) ** 2))
        cv_scores.append(np.mean(errs))
    best = grid[int(np.argmin(cv_scores))]
    assert fresh_mse(*best) <= fresh_mse(0.05, 1.5) * 1.10 + 1e-12


def test_nuisance_residuals():
    y = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(nuisance_residuals(y, y), np.zeros(3))
    np.testing.assert_allclose(nuisance_residuals(y, np.zeros(3)), y)
    with pytest.raises(ValueError):
        nuisance_residuals(y, np.zeros(4))


def test_nuisance_fit_error_examples():
    rng = np.random.default_rng(11)
    z = rng.uniform(0, 1, (200, 2))
    y = 2 * (z[:, 1] - 0.5) + rng.normal(0, 0.05, 200)
    fit = fit_doubly_penalized(z, y, (1e-8, 1e-8))
    truth = lambda rows: fit.predict_sum(rows, exclude=0)
    fresh = rng.uniform(0, 1, (500, 1))
    # fit against itself: zero error
    assert nuisance_fit_error(fit, fit, truth, fresh) == pytest.approx(0.0, abs=1e-12)
    # constant offset: RMSE equals the offset
    shifted = AdditiveFit(
        intercept=fit.intercept + 0.1,
        coef_blocks=fit.coef_blocks,
        bases=fit.bases,
        penalties=fit.penalties,
        active_set=fit.active_set,
        objective_trace=fit.objective_trace,
        converged=fit.converged,
        sweeps=fit.sweeps,
        transforms=fit.transforms,
    )
    assert nuisance_fit_error(fit, shifted, truth, fresh) == pytest.approx(0.1)
