import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dll import linear
from dll.errors import RankDeficientError, SampleTooSmallError
from dll.linear import (
    _cd_lasso,
    _column_stats,
    kkt_check,
    noise_sd_estimate,
    ols_projection,
    scaled_lasso,
    sigma_floor,
)


def cd_lasso(x, y, lam):
    """Cold-started coordinate descent, checked to have converged."""
    beta, _, converged = _cd_lasso(x, y, lam, None, _column_stats(x))
    assert converged
    return beta


def orthonormal_design(rng, n, p):
    q = np.linalg.qr(rng.normal(size=(n, p)))[0]
    return q * np.sqrt(n)


def scaled_lasso_bisection_oracle(x, y, a_const, lasso=None):
    """Independent scalar fixed point: the Lasso solution at each noise
    level, residual norm solved by bisection. The Lasso is a soft
    threshold, for an orthonormal design, or ``lasso(x, y, penalty)``."""
    n, p = x.shape
    lam0 = np.sqrt(2 * a_const * np.log(p) / n)
    z = x.T @ y / n

    def solve(sig):
        if lasso is not None:
            return lasso(x, y, sig * lam0)
        return np.sign(z) * np.maximum(np.abs(z) - sig * lam0, 0)

    def resid_norm(sig):
        g = solve(sig)
        if lasso is not None:
            return np.linalg.norm(y - x @ g) / np.sqrt(n)
        rss = y @ y / n - 2 * g @ z + g @ g
        return np.sqrt(max(rss, 0.0))

    lo, hi = 1e-10, float(np.linalg.norm(y) / np.sqrt(n))
    for _ in range(200):
        mid = (lo + hi) / 2
        if resid_norm(mid) > mid:
            lo = mid
        else:
            hi = mid
    sig = (lo + hi) / 2
    return solve(sig), sig


def test_ols_exact_interpolation():
    rng = np.random.default_rng(0)
    x2 = rng.normal(size=(50, 3))
    gamma = np.array([1.0, -2.0, 0.5])
    fit = ols_projection(x2, x2 @ gamma)
    np.testing.assert_allclose(fit.gamma, gamma, atol=1e-10)
    assert fit.sigma2 == pytest.approx(sigma_floor(x2 @ gamma))


def test_ols_intercept_only():
    rng = np.random.default_rng(1)
    x1 = rng.normal(size=40)
    fit = ols_projection(np.ones((40, 1)), x1)
    assert fit.gamma[0] == pytest.approx(np.mean(x1))


def test_ols_matches_normal_equations():
    rng = np.random.default_rng(2)
    x2 = rng.normal(size=(500, 3))
    x1 = rng.normal(size=500)
    fit = ols_projection(x2, x1)
    oracle = np.linalg.solve(x2.T @ x2, x2.T @ x1)
    np.testing.assert_allclose(fit.gamma, oracle, atol=1e-8)
    rss = np.sum((x1 - x2 @ oracle) ** 2)
    assert fit.sigma2 == pytest.approx(np.sqrt(rss / (500 - 3)), rel=1e-10)


def test_ols_rank_and_size_errors():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(30, 2))
    for extra in (x[:, 0], np.zeros(30), x[:, 1] * (1 + 1e-15)):
        with pytest.raises(RankDeficientError):
            ols_projection(np.column_stack([x, extra]), rng.normal(size=30))
    with pytest.raises(SampleTooSmallError):
        ols_projection(rng.normal(size=(4, 3)), rng.normal(size=4))


def ols_case(name, rng):
    """A sample (x2, x1) twice the size of the fold a case fits."""
    n, p = {"5000x50": (5000, 50), "n=p+2": (7, 5), "constant": (600, 4), "p=0": (300, 0)}[name]
    x2 = rng.normal(size=(2 * n, p))
    if name == "constant":
        x2[:, 1] = 1.0
    x1 = x2 @ rng.normal(size=p) + rng.normal(size=2 * n)
    return n, x2, x1


@pytest.mark.parametrize("name", ["5000x50", "n=p+2", "constant", "p=0"])
@pytest.mark.parametrize("sort_rows", [True, False])
def test_ols_on_rows_is_the_fit_of_the_gathered_rows(name, sort_rows):
    # The blocked QR reads the fold's rows in place: the same bytes as the
    # fit of the gathered copy, and numpy's SVD least squares up to rounding.
    rng = np.random.default_rng(15)
    n, x2, x1 = ols_case(name, rng)
    rows = rng.permutation(2 * n)[:n]
    if sort_rows:
        rows.sort()
    fit = ols_projection(x2, x1, rows)
    gathered = ols_projection(x2[rows], x1[rows])
    assert fit.gamma.tobytes() == gathered.gamma.tobytes()
    assert fit.sigma2 == gathered.sigma2
    p = x2.shape[1]
    if not p:
        assert fit.gamma.shape == (0,)
        assert fit.sigma2 == pytest.approx(np.sqrt(np.mean(x1[rows] ** 2)), rel=1e-15)
        return
    gamma = np.linalg.lstsq(x2[rows], x1[rows], rcond=None)[0]
    sigma2 = noise_sd_estimate(x1[rows], x2[rows] @ gamma, p)
    assert np.abs(fit.gamma - gamma).max() <= 1e-12 * np.abs(gamma).max()
    assert fit.sigma2 == pytest.approx(sigma2, rel=1e-12, abs=0)


def test_ols_on_rows_copies_no_fold():
    # The projection of half of a 20,000 x 30 sample holds a few row blocks,
    # the triangular factor and fold-length vectors, not the fold's x2.
    rng = np.random.default_rng(16)
    x2 = rng.normal(size=(20_000, 30))
    x1 = x2 @ rng.normal(size=30) + rng.normal(size=20_000)
    rows = rng.permutation(20_000)[:10_000]
    ols_projection(x2[:100], x1[:100])  # first-call set-up untraced
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ols_projection(x2, x1, rows)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * x2.nbytes


def test_cd_lasso_unpenalized_limit():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 6)) + 3 * np.eye(6)
    y = rng.normal(size=6)
    beta = cd_lasso(x, y, 0.0)
    np.testing.assert_allclose(beta, np.linalg.solve(x, y), atol=1e-6)


def test_cd_lasso_full_shrinkage():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(80, 10))
    y = rng.normal(size=80)
    lam = np.max(np.abs(x.T @ y)) / 80 * 1.0001
    assert np.all(cd_lasso(x, y, lam) == 0)


def test_cd_lasso_orthonormal_soft_threshold():
    rng = np.random.default_rng(6)
    x = orthonormal_design(rng, 100, 7)
    y = rng.normal(size=100)
    lam = 0.12
    z = x.T @ y / 100
    oracle = np.sign(z) * np.maximum(np.abs(z) - lam, 0)
    np.testing.assert_allclose(cd_lasso(x, y, lam), oracle, atol=1e-9)


def test_kkt_check_behaviour():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(120, 15))
    y = x[:, 0] * 2 + rng.normal(size=120)
    lam = 0.1
    beta = cd_lasso(x, y, lam)
    assert kkt_check(x, y, lam, beta) <= 1e-8
    assert kkt_check(x, y, 1e9, np.zeros(15)) == 0.0
    perturbed = beta.copy()
    perturbed[0] += 0.05
    assert kkt_check(x, y, lam, perturbed) > 1e-4


def test_scaled_lasso_zero_response():
    rng = np.random.default_rng(8)
    x2 = rng.normal(size=(50, 5))
    fit = scaled_lasso(x2, np.zeros(50))
    assert np.all(fit.gamma == 0)
    assert fit.sigma2 == pytest.approx(sigma_floor(np.zeros(50)))


def test_scaled_lasso_matches_bisection_oracle():
    rng = np.random.default_rng(9)
    x = orthonormal_design(rng, 150, 9)
    gamma = np.zeros(9)
    gamma[:3] = [2.0, -1.5, 1.0]
    y = x @ gamma + rng.normal(0, 1.0, 150)
    fit = scaled_lasso(x, y, 1.01)
    g_oracle, s_oracle = scaled_lasso_bisection_oracle(x, y, 1.01)
    assert fit.sigma2 == pytest.approx(s_oracle, abs=1e-6)
    np.testing.assert_allclose(fit.gamma, g_oracle, atol=1e-6)
    assert fit.kkt_residual <= 1e-8
    assert fit.converged


def test_scaled_lasso_requires_a_above_one():
    rng = np.random.default_rng(10)
    with pytest.raises(ValueError):
        scaled_lasso(rng.normal(size=(20, 2)), rng.normal(size=20), a_const=1.0)


def test_scaled_lasso_objective_monotone():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(100, 40))
    y = x[:, 0] - x[:, 3] + rng.normal(size=100)
    fit = scaled_lasso(x, y)
    trace = fit.objective_trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def test_scaled_lasso_sigma_fixed_point():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(120, 60))
    y = 2 * x[:, 5] + rng.normal(size=120)
    fit = scaled_lasso(x, y)
    scale = np.sqrt(np.einsum("ij,ij->j", x, x) / 120)
    resid = y - (x / scale) @ (fit.gamma * scale)
    assert fit.sigma2 == pytest.approx(np.linalg.norm(resid) / np.sqrt(120), rel=1e-12)


def spy_fixed_points(monkeypatch):
    """Record ``(beta, result)`` of every closed-form step ``scaled_lasso``
    tries."""
    calls = []
    real = linear._noise_fixed_point

    def spy(xs, x1, beta, lam0, floor):
        calls.append((beta.copy(), real(xs, x1, beta, lam0, floor)))
        return calls[-1][1]

    monkeypatch.setattr(linear, "_noise_fixed_point", spy)
    return calls


def test_scaled_lasso_refuses_a_singular_support(monkeypatch):
    # Column 9 repeats column 0 of an orthonormal design. Any split of a
    # coefficient between the two copies, with one sign, is a Lasso
    # solution; every Lasso step here splits it evenly, so G is singular
    # on each support and every closed-form step must be refused.
    rng = np.random.default_rng(9)
    q = orthonormal_design(rng, 150, 9)
    y = q[:, :3] @ np.array([2.0, -1.5, 1.0]) + rng.normal(0, 1.0, 150)
    x = np.column_stack([q, q[:, 0]])
    cd_lasso_step = linear._cd_lasso

    def split(*args, **kwargs):
        beta, sweeps, ok = cd_lasso_step(*args, **kwargs)
        beta[[0, 9]] = (beta[0] + beta[9]) / 2
        return beta, sweeps, ok

    monkeypatch.setattr(linear, "_cd_lasso", split)
    calls = spy_fixed_points(monkeypatch)
    fit = scaled_lasso(x, y, 1.01)
    assert calls and all(result is None for _, result in calls)
    assert all(beta[0] == beta[9] != 0 for beta, _ in calls)
    assert fit.iterations == len(calls) > 2 and fit.converged
    # The fit on q with coefficients 0 and 9 summed, at the penalty level
    # of ten columns.
    g_oracle, s_oracle = scaled_lasso_bisection_oracle(q, y, 1.01 * np.log(10) / np.log(9))
    assert fit.sigma2 == pytest.approx(s_oracle, abs=1e-6)
    folded = np.append(fit.gamma[0] + fit.gamma[9], fit.gamma[1:9])
    np.testing.assert_allclose(folded, g_oracle, atol=1e-6)
    assert fit.kkt_residual <= 1e-8


def test_scaled_lasso_refuses_a_closed_form_whose_signs_flip(monkeypatch):
    # Correlated columns: on the first Lasso step's support, a coefficient
    # of the closed-form candidate has crossed zero at the candidate's
    # noise level, so the pattern does not hold there.
    rng = np.random.default_rng(167)
    n, p = 100, 3
    x = rng.normal(size=(n, p)) @ rng.normal(size=(p, p))
    x /= np.sqrt(np.mean(x * x, axis=0))
    y = x @ rng.normal(size=p) + rng.normal(0, 0.1, n)
    calls = spy_fixed_points(monkeypatch)
    fit = scaled_lasso(x, y, 1.01)
    beta, result = calls[0]
    assert result is None
    support, signs = np.flatnonzero(beta), np.sign(beta[beta != 0])
    x_s = x[:, support]
    gram = x_s.T @ x_s / n
    fit_ls, along = np.linalg.solve(gram, x_s.T @ y / n), np.linalg.solve(gram, signs)
    lam0 = np.sqrt(2 * 1.01 * np.log(p) / n)
    r0 = y - x_s @ fit_ls
    sig = np.sqrt(r0 @ r0 / n / (1 - lam0**2 * signs @ along))
    assert np.any(np.sign(fit_ls - sig * lam0 * along) != signs)
    assert fit.converged and fit.kkt_residual <= 1e-8

    def lasso(x, y, lam):
        beta, _, converged = reference_cd_lasso(x, y, lam, None, tol=1e-13, kkt_tol=1e-13)
        assert converged
        return beta

    g_oracle, s_oracle = scaled_lasso_bisection_oracle(x, y, 1.01, lasso)
    assert fit.sigma2 == pytest.approx(s_oracle, abs=1e-6)
    np.testing.assert_allclose(fit.gamma, g_oracle, atol=1e-6)


def test_scaled_lasso_l1_monotone_in_penalty_constant():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(90, 30))
    y = x[:, 0] - 0.5 * x[:, 1] + rng.normal(0, 0.5, 90)
    norms = [
        np.abs(scaled_lasso(x, y, a).gamma).sum() for a in (1.01, 1.5, 2.5, 4.0, 8.0)
    ]
    for bigger_penalty, smaller_penalty in zip(norms[1:], norms):
        assert bigger_penalty <= smaller_penalty + 1e-10


def test_scaled_lasso_sparse_recovery_monte_carlo():
    hits_support, hits_sigma = 0, 0
    for s in range(20):
        rng = np.random.default_rng(1000 + s)
        x = rng.normal(size=(200, 400))
        gamma = np.zeros(400)
        gamma[[5, 50, 200]] = [2.0, -2.0, 2.0]
        x1 = x @ gamma + rng.normal(0, 1.0, 200)
        fit = scaled_lasso(x, x1)
        if {5, 50, 200} <= set(np.flatnonzero(fit.gamma)):
            hits_support += 1
        if abs(fit.sigma2 - 1.0) <= 0.2:
            hits_sigma += 1
    assert hits_support >= 18
    assert hits_sigma >= 18


def test_projection_intercept_flag():
    rng = np.random.default_rng(14)
    x2 = rng.normal(size=(200, 2))
    x1 = x2 @ np.array([1.0, -0.5]) + 3.0 + rng.normal(0, 0.1, 200)
    x2 = np.column_stack([x2, np.ones(200)])
    fit = ols_projection(x2, x1)
    assert fit.gamma.shape == (3,)
    assert fit.gamma[-1] == pytest.approx(3.0, abs=0.05)
    lasso_fit = scaled_lasso(x2, x1)
    assert lasso_fit.gamma.shape == (3,)


def reference_cd_lasso(x, y, lam, beta0, max_sweeps=10_000, tol=1e-9, kkt_tol=1e-8):
    """The plain coordinate-by-coordinate sweep the screened one must match."""
    n, p = x.shape
    col_sq = np.einsum("ij,ij->j", x, x) / n
    beta = np.zeros(p) if beta0 is None else np.asarray(beta0, dtype=float).copy()
    resid = y - x @ beta
    sweeps = 0

    def sweep(indices):
        nonlocal resid
        max_delta = 0.0
        for j in indices:
            if col_sq[j] == 0.0:
                continue
            old = beta[j]
            rho = x[:, j] @ resid / n + col_sq[j] * old
            shrunk = abs(rho) - lam
            new = (np.sign(rho) * shrunk if shrunk > 0 else 0.0) / col_sq[j]
            if new != old:
                resid += x[:, j] * (old - new)
                beta[j] = new
                max_delta = max(max_delta, abs(new - old))
        return max_delta

    while sweeps < max_sweeps:
        sweeps += 1
        delta = sweep(range(p))
        active = np.flatnonzero(beta)
        while delta > tol and sweeps < max_sweeps:
            sweeps += 1
            delta = sweep(active)
        if kkt_check(x, y, lam, beta) <= kkt_tol:
            return beta, sweeps, True
    return beta, sweeps, kkt_check(x, y, lam, beta) <= kkt_tol


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["free", "zero", "tie", "hair"]),
    st.booleans(),
    st.booleans(),
)
def test_cd_lasso_matches_plain_sweep(seed, lam_mode, zero_cols, warm):
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(10, 60)), int(rng.integers(1, 80))
    x = rng.normal(size=(n, p))
    if seed % 2:
        x = np.round(x, 1)  # repeated values, exact ties in the scores
    if zero_cols:
        x[:, rng.random(p) < 0.2] = 0.0
    beta_true = np.zeros(p)
    beta_true[: min(p, 3)] = rng.normal(size=min(p, 3))
    y = x @ beta_true + rng.normal(size=n)
    beta0 = rng.normal(size=p) * (rng.random(p) < 0.2) if warm else None
    if lam_mode == "zero":
        lam = 0.0
    elif lam_mode in ("tie", "hair"):
        # Coordinate 0 starts at zero with |grad| exactly lam, or one ulp
        # above it, so that the first update moves it by a hair.
        start = np.zeros(p) if beta0 is None else beta0
        start[0] = 0.0
        lam = abs(float(x[:, 0] @ (y - x @ start) / n))
        if lam_mode == "hair":
            lam = float(np.nextafter(lam, 0.0))
    else:
        lam = float(rng.uniform(0.01, 1.0))
    got = _cd_lasso(x, y, lam, beta0, _column_stats(x), max_sweeps=300)
    want = reference_cd_lasso(x, y, lam, beta0, max_sweeps=300)
    np.testing.assert_array_equal(got[0], want[0])
    assert got[1:] == want[1:]


# A p > n problem (AR design, 3-sparse). Support, values and sigma were
# solved by the parent commit of the screened sweep, which alternated to a
# 1e-12 noise change; the screen must not move one iterate, and the
# closed-form noise step must land on the same fixed point. The trace is
# the closed-form path's: the first Lasso step already has the fixed
# point's support and signs, so one outer iteration ends the fit.
GOLDEN_LASSO_SUPPORT = [4, 90, 211]
GOLDEN_LASSO_VALUES = [0.781128035392877, -0.5993233095046011, 0.37558778506471435]
GOLDEN_LASSO_SIGMA = 1.1006718758589273
GOLDEN_LASSO_TRACE = [1.644189929355169]


def test_scaled_lasso_golden_path():
    rng = np.random.default_rng(55)
    z = rng.standard_normal((200, 301))
    x = z[:, 1:] + 0.8 * z[:, :-1]
    y = x[:, [4, 90, 211]] @ np.array([1.0, -0.8, 0.6]) + rng.standard_normal(200)
    fit = scaled_lasso(x, y)
    assert np.flatnonzero(fit.gamma).tolist() == GOLDEN_LASSO_SUPPORT
    np.testing.assert_allclose(
        fit.gamma[GOLDEN_LASSO_SUPPORT], GOLDEN_LASSO_VALUES, rtol=1e-12, atol=0
    )
    np.testing.assert_allclose(fit.sigma2, GOLDEN_LASSO_SIGMA, rtol=1e-12, atol=0)
    assert fit.iterations == len(GOLDEN_LASSO_TRACE) and fit.converged
    np.testing.assert_allclose(fit.objective_trace, GOLDEN_LASSO_TRACE, rtol=1e-12, atol=0)
