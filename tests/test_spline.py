import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import BSpline
from scipy.special import ndtr

from dll import spline

from dll.errors import RankDeficientError
from dll.transforms import EmpiricalCDF, GaussianCDF, fit_empirical, rank_grid
from dll.spline import (
    CoordinateBasis,
    default_penalties,
    fit_doubly_penalized,
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
    # Cubic, five evenly spaced interior knots.
    knots = np.concatenate([np.zeros(4), np.linspace(0, 1, 7)[1:-1], np.ones(4)])
    return CoordinateBasis(knots)


def test_partition_of_unity(uniform_basis):
    for z in [0.0, 0.1, 0.37, 0.5, 0.99, 1.0]:
        vals = uniform_basis.design(z)[0]
        assert vals.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(vals >= 0)


def test_boundary_interpolation(uniform_basis):
    left = uniform_basis.design(0.0)[0]
    assert left[0] == pytest.approx(1.0)
    assert np.all(left[1:] == 0)
    right = uniform_basis.design(1.0)[0]
    assert right[-1] == pytest.approx(1.0)
    assert np.all(right[:-1] == 0)


def test_basis_matches_cox_de_boor_oracle(uniform_basis):
    for z in [0.37, 0.02, 0.61, 0.99]:
        oracle = cox_de_boor_oracle(z, uniform_basis.knots, spline.DEGREE)
        np.testing.assert_allclose(uniform_basis.design(z)[0], oracle, atol=1e-12)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 5])
def test_dense_design_matches_scipy_design_matrix(degree):
    rng = np.random.default_rng(degree)
    for interior in (np.array([]), np.sort(rng.uniform(0, 1, 7)), np.array([0.3, 0.3, 0.6])):
        knots = np.concatenate([np.zeros(degree + 1), interior, np.ones(degree + 1)])
        z = np.concatenate([[0.0, 1.0], interior, rng.uniform(0, 1, 50)])
        ref = BSpline.design_matrix(z, knots, degree).toarray()
        dense = spline._design_batch(z[None, :], knots[None, :], degree)[0]
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
    omega = sobolev_penalty_matrix(uniform_basis)
    lin = representation_coefficients(uniform_basis, lambda z: 3 * z + 1)
    assert lin @ omega @ lin == pytest.approx(0.0, abs=1e-9)
    quadratic = representation_coefficients(uniform_basis, lambda z: z**2)
    assert quadratic @ omega @ quadratic == pytest.approx(4.0, rel=1e-9)


def test_penalty_matrix_matches_quadrature(uniform_basis):
    rng = np.random.default_rng(0)
    omega = sobolev_penalty_matrix(uniform_basis)
    from scipy.interpolate import BSpline

    for _ in range(3):
        beta = rng.normal(size=uniform_basis.size)
        second = BSpline(uniform_basis.knots, beta, spline.DEGREE).derivative(2)
        val, _ = quad(
            lambda z: second(z) ** 2, 0, 1, points=np.unique(uniform_basis.knots),
            limit=200,
        )
        assert beta @ omega @ beta == pytest.approx(val, rel=1e-8)


def gauss_legendre_sobolev_batch(knots, m=spline.SMOOTHNESS_ORDER):
    """The penalty matrices by Gauss-Legendre quadrature, as the package
    computed them before the closed form: the m-th derivative's
    coefficients are a banded map of the original ones, and its square is
    integrated with DEGREE + 1 nodes per knot interval, more than exact."""
    c, q = knots.shape[0], knots.shape[1] - spline.DEGREE - 1
    op = np.broadcast_to(np.eye(q), (c, q, q))
    size = q
    t, deg = knots, spline.DEGREE
    for _ in range(m):
        denom = t[:, deg + 1 : size + deg] - t[:, 1:size]
        scale = np.divide(deg, denom, out=np.zeros_like(denom), where=denom > 0)
        step = np.zeros((c, size - 1, size))
        band = np.arange(size - 1)
        step[:, band, band] = -scale
        step[:, band, band + 1] = scale
        op = step @ op
        t, deg, size = t[:, 1:-1], deg - 1, size - 1
    nodes, weights = np.polynomial.legendre.leggauss(spline.DEGREE + 1)
    lo, hi = knots[:, spline.DEGREE : q], knots[:, spline.DEGREE + 1 : q + 1]
    half = ((hi - lo) / 2)[:, :, None]
    pts = ((hi + lo) / 2)[:, :, None] + half * nodes
    wts = (half * weights).reshape(c, -1)
    dmat = spline._design_batch(pts.reshape(c, -1), t, deg) @ op
    return (dmat.transpose(0, 2, 1) * wts[:, None, :]) @ dmat


def test_penalty_matrix_closed_form_matches_gauss_legendre():
    # The knot vectors a fit builds: quantile knots of random and of
    # rounded (tied, so fewer distinct) columns, down to n = 2, and the
    # basis with no interior knot.
    rng = np.random.default_rng(12)
    knots = [np.array([0.0] * 4 + [1.0] * 4)]
    for n in (2, 3, 4, 7, 12, 30, 100, 400):
        columns = rng.uniform(0, 1, (n, 16))
        columns[:, 8:] = np.round(columns[:, 8:], 1)
        knots += [basis.knots for basis in spline._coordinate_bases(columns, None)]
    assert len({len(k) for k in knots}) > 3
    for k in knots:
        want = gauss_legendre_sobolev_batch(k[None, :])[0]
        got = sobolev_penalty_matrix(CoordinateBasis(k))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


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


def prox_zero_block(rng):
    q = int(rng.integers(1, 10))
    z = rng.normal(size=q) * 10 ** rng.uniform(-3, 1)
    d = 10 ** rng.uniform(-2, 6, q)
    d[rng.random(q) < 0.3] = 0.0
    return z, d


def prox_zero_penalties(rng, z, d, rho_mode, lam_mode):
    """A (rho, lam) pair, placed at a threshold of block (z, d) by the modes."""
    pos = d > 0
    s1 = 2 * math.sqrt(float(np.sum(z[pos] ** 2 / d[pos]))) if pos.any() else 1.0
    rho = {"zero": 0.0, "free": rng.uniform(0, 2) * s1, "edge": s1}[rho_mode]
    if lam_mode == "free":
        lam = rng.uniform(0, 3) * float(np.linalg.norm(z))
    elif lam_mode == "znorm":  # ||z|| right at lam / 2
        lam = 2 * float(np.linalg.norm(z))
    else:  # the weighted-shrinkage output right at lam / 2
        lam = 2 * float(np.linalg.norm(two_penalty_prox(z, d, rho, 0.0)))
    return rho, lam


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["free", "zero", "edge"]),
    st.sampled_from(["free", "znorm", "vnorm"]),
)
# Eigenvalues spread over eight decades: the closed-form tests leave the
# entering block 2 open, and the prox, not a root bracket, decides it.
@example(seed=3077348182, rho_mode="free", lam_mode="free")
def test_first_entering_block_agrees_with_prox(seed, rho_mode, lam_mode):
    rng = np.random.default_rng(seed)
    blocks = [prox_zero_block(rng) for _ in range(int(rng.integers(1, 12)))]
    # One penalty pair per call, as in a fit; the modes place it relative
    # to one block drawn at random.
    anchor = blocks[int(rng.integers(len(blocks)))]
    rho, lam = prox_zero_penalties(rng, *anchor, rho_mode, lam_mode)
    z = np.concatenate([b[0] for b in blocks])
    d = np.concatenate([b[1] for b in blocks])
    starts = np.cumsum([0] + [len(b[0]) for b in blocks])
    with mock.patch.object(spline, "two_penalty_prox", wraps=two_penalty_prox) as spy:
        first = spline._first_entering_block(z, d, starts, rho, lam)
    entering = [
        b for b, (z_b, d_b) in enumerate(blocks) if two_penalty_prox(z_b, d_b, rho, lam).any()
    ]
    assert first == (entering[0] if entering else None)
    # The prox is asked only about blocks up to the returned one, in order.
    asked = [
        next(b for b, (z_b, d_b) in enumerate(blocks)
             if np.array_equal(args[0], z_b) and np.array_equal(args[1], d_b))
        for args, _ in spy.call_args_list
    ]
    assert asked == sorted(set(asked))
    assert all(b <= (len(blocks) if first is None else first) for b in asked)


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


def rank_columns(x):
    """The empirical-CDF transform of each column, as values."""
    return np.column_stack([EmpiricalCDF.fit(col)(col) for col in x.T])


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
    # The n-heavy problem on empirical-CDF ranks, as `dll fit` transforms
    # its columns: each column is a permutation of the grid k / (n + 1),
    # passed to the fit as its sort order.
    # Recorded from per-column whitened designs.
    (3000, 8, 42, "ranks"): ((0, 1, 2, 3), 11, (
        0.9287103017056864, 0.39337748674171796, 0.37885873404413634,
        0.37621320341922493, 0.37550409701068826, 0.3753284902618147,
        0.37529977682034515, 0.3752956597439596, 0.3752948061646533,
        0.3752945687338143, 0.37529451364444893, 0.3752945043417018,
    )),
}


@pytest.mark.parametrize(
    "key", sorted(GOLDEN_FITS), ids=["p-heavy", "n-heavy", "n-heavy-ranks"]
)
def test_fit_follows_golden_path(key):
    n, p, seed, *ranks = key
    active, sweeps, trace = GOLDEN_FITS[key]
    z, y = golden_problem(n, p, seed)
    ranked = None
    if ranks:
        _, z, ranked = fit_empirical(z)
    fit = fit_doubly_penalized(z, y, default_penalties(n, p), ranked=ranked)
    assert fit.active_set == active
    assert fit.sweeps == sweeps and fit.converged
    np.testing.assert_allclose(fit.objective_trace, trace, rtol=1e-12, atol=0)


def reference_backfit(z_matrix, y, penalties, ranked=None):
    """``fit_doubly_penalized``'s sweeps with no screen: the prox of every
    block, in order. Returns the active set, sweep count and objective
    trace."""
    n = len(y)
    cols, orders = ranked or (np.zeros(0, np.intp), np.zeros((0, n), np.intp))
    p = z_matrix.shape[1] + cols.size
    rho, lam = penalties
    own = iter(spline._coordinate_bases(z_matrix, None))
    shared = spline._coordinate_bases(rank_grid(n)[:, None], None)[0]
    bases = [shared if j in cols else next(own) for j in range(p)]
    design = spline._WhitenedDesign(bases, z_matrix, (cols, orders))
    thetas = [np.zeros(b.size) for b in bases]
    intercept = float(np.mean(y))
    resid = y - intercept

    def objective():
        val = float(np.mean(resid**2))
        for th, eig in zip(thetas, design.eig):
            if th.any():
                val += rho * math.sqrt(float(th @ (eig * th))) + lam * float(np.linalg.norm(th))
        return val

    trace = [objective()]
    for sweeps in range(1, spline.MAX_SWEEPS + 1):
        for j in range(p):
            if thetas[j].any():
                resid += design.fitted(j, thetas[j])
            th = two_penalty_prox(design.scores(j, j + 1, resid), design.eig[j], rho, lam)
            if th.any():
                shift = float(design.col_means[j] @ th)
                th = th - shift * design.const_coefs[j]
                intercept += shift
                resid -= design.fitted(j, th)
            thetas[j] = th
        delta = float(np.mean(resid))
        intercept += delta
        resid -= delta
        trace.append(objective())
        if abs(trace[-2] - trace[-1]) <= spline.FIT_TOL * max(abs(trace[-2]), 1e-12):
            break
    return tuple(j for j in range(p) if thetas[j].any()), sweeps, trace


@pytest.mark.parametrize(
    "key",
    sorted(GOLDEN_FITS) + [(600, 12, 43, "tied"), (200, 40, 35)],
    ids=["p-heavy", "n-heavy", "n-heavy-ranks", "tied", "rollback"],
)
def test_screened_sweep_is_the_plain_sweep(key):
    # The screen batches the prox's zero test over the runs of zero blocks
    # of a sweep; the fit must take the path of the per-block sweep, up to
    # the rounding of scores computed for several blocks at once. "tied"
    # puts one tie in column 6 of the problem on ranks: that column keeps
    # its own design between runs of rank columns. In "rollback", block 2
    # first turns nonzero in sweep 3, after blocks 0 and 1 were updated and
    # block 3 too, so the sweep rolls back block 3's update to enter it.
    n, p, seed, *tags = key
    z, y = golden_problem(n, p, seed)
    if "tied" in tags:
        z[10, 6] = z[20, 6]
    ranked = None
    if tags:
        _, z, ranked = fit_empirical(z)
    penalties = default_penalties(n, p)
    fit = fit_doubly_penalized(z, y, penalties, ranked=ranked)
    active, sweeps, trace = reference_backfit(z, y, penalties, ranked)
    assert fit.active_set == active
    assert fit.sweeps == sweeps
    np.testing.assert_allclose(fit.objective_trace, trace, rtol=1e-12, atol=0)


@pytest.mark.parametrize("margin", [1.02, 1.2])
def test_block_entering_just_above_its_threshold_enters(margin):
    # Column 2 carries the signal, and lam puts its first prox at `margin`
    # times its zero threshold: the screen of the first sweep, which scores
    # blocks 0-3 on one residual, must pass it to the prox (so it enters,
    # with a small coefficient) exactly as the per-block sweep does. A
    # screen that zeroes blocks up to a few percent above a threshold
    # drops it from the fit.
    rng = np.random.default_rng(44)
    n, p = 400, 4
    z = rng.uniform(0, 1, (n, p))
    y = np.sin(2 * np.pi * z[:, 2]) + rng.normal(0, 0.5, n)
    rho = default_penalties(n, p)[0]
    no_ranks = (np.zeros(0, np.intp), np.zeros((0, n), np.intp))
    design = spline._WhitenedDesign(spline._coordinate_bases(z, None), z, no_ranks)
    scores = design.scores(2, 3, y - np.mean(y))
    # With lam = 0 the prox is the weighted-norm shrinkage alone, whose norm
    # decides the Euclidean stage.
    vnorm = np.linalg.norm(two_penalty_prox(scores, design.eig[2], rho, 0.0))
    assert np.linalg.norm(scores) < 1.4 * vnorm  # the shrinkage keeps most of it
    penalties = (rho, 2 * vnorm / margin)
    fit = fit_doubly_penalized(z, y, penalties)
    active, sweeps, trace = reference_backfit(z, y, penalties)
    assert fit.active_set == active == (2,)
    assert fit.sweeps == sweeps
    np.testing.assert_allclose(fit.objective_trace, trace, rtol=1e-12, atol=0)


def test_fit_coordinate_with_few_distinct_values():
    # Three distinct values leave a cubic basis's Gram matrix singular;
    # that coordinate is retried alone with a growing ridge.
    rng = np.random.default_rng(15)
    z = rng.uniform(0, 1, (150, 4))
    z[:, 2] = rng.choice([0.2, 0.5, 0.9], 150)
    y = np.sin(2 * np.pi * z[:, 0]) + z[:, 2] + rng.normal(0, 0.2, 150)
    fit = fit_doubly_penalized(z, y, default_penalties(150, 4))
    assert {0, 2} <= set(fit.active_set)
    assert np.all(np.isfinite(fit.predict_sum(z)))
    trace = fit.objective_trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def test_constant_coefficients_reproduce_the_constant_on_a_ridged_coordinate():
    # Three distinct values leave coordinate 1's Gram matrix singular, so its
    # whitening carries a ridge and the whitened Gram matrix is not the
    # identity. The column means, which equal the coefficients of the
    # constant only for an identity Gram matrix, then miss them; the solved
    # coefficients reproduce the constant 1 to rounding on every coordinate.
    rng = np.random.default_rng(15)
    n = 200
    z = rng.uniform(0, 1, (n, 3))
    z[:, 1] = rng.choice([0.2, 0.5, 0.9], n)
    bases = spline._coordinate_bases(z, None)
    no_ranks = (np.zeros(0, np.intp), np.zeros((0, n), np.intp))
    design = spline._WhitenedDesign(bases, z, no_ranks)
    assert np.abs(design.col_means[1] - design.const_coefs[1]).max() > 1e-9
    for j in range(3):
        ones = design.fitted(j, design.const_coefs[j])
        np.testing.assert_allclose(ones, np.ones(n), rtol=0, atol=1e-12)


def test_rank_columns_share_one_whitened_basis():
    # Tie-free empirical-CDF columns are permutations of one grid, so they
    # share one design; each column's fitted values and scores are still
    # those of its own whitened design at the data, B_j V_j, which has
    # identity Gram matrix and diagonal penalty.
    rng = np.random.default_rng(8)
    n, p = 500, 5
    x = rng.normal(size=(n, p))
    z = rank_columns(x)
    bases = spline._coordinate_bases(z, None)
    _, tied, ranked = fit_empirical(x)
    design = spline._WhitenedDesign(bases, tied, ranked)
    assert sorted(design.orders) == list(range(p))
    resid = rng.normal(size=n)
    blocks = [design.maps[j].T @ bases[j].design(z[:, j]).T for j in range(p)]
    for j, block in enumerate(blocks):
        vecs, eig = design.maps[j], design.eig[j]
        np.testing.assert_allclose(block @ block.T / n, np.eye(len(eig)), rtol=0, atol=1e-10)
        omega = sobolev_penalty_matrix(bases[j])
        np.testing.assert_allclose(vecs.T @ omega @ vecs, np.diag(eig), rtol=0, atol=1e-10 * eig.max())
        theta = rng.normal(size=len(eig))
        np.testing.assert_allclose(design.fitted(j, theta), theta @ block, rtol=0, atol=1e-12)
    for j, k in [(0, p), (1, 3), (4, 5)]:
        expected = np.concatenate([blocks[i] @ resid / n for i in range(j, k)])
        np.testing.assert_allclose(design.scores(j, k, resid), expected, rtol=0, atol=1e-12)


def test_rank_scores_match_the_single_buffer_product():
    # The rank-column scores are summed over tiles of the sample, so no
    # (k, n) gather is built. Not bit for bit: the tiles split each row's
    # dot products into partial sums, which round differently from the one
    # matrix product over the whole buffer, whose own blocking depends on
    # the shapes.
    rng = np.random.default_rng(21)
    k, n = 40, 20_000
    index = np.stack([rng.permutation(n) for _ in range(k)]).astype(np.int32)
    basis = rng.normal(size=(12, n))
    resid = rng.normal(size=n)
    assert spline.GATHER_INDEX_BYTES // (8 * k) < n  # several tiles
    want = resid[index] @ basis.T
    got = spline._rank_scores(resid, index, basis)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    # A run that fits in one tile is the one product.
    small = index[:2, :50] % 50
    one_tile = spline._rank_scores(resid, small, basis[:, :50])
    assert np.array_equal(one_tile, resid[small] @ basis[:, :50].T)


def test_rank_columns_take_the_grid_basis():
    # A permutation of rank_grid(n) sorts back to that grid exactly, so the
    # fit builds one basis from the grid for all rank columns; its knots are
    # those each column's own quantiles give. A tied column keeps its own.
    rng = np.random.default_rng(10)
    n = 300
    x = rng.normal(size=(n, 4))
    x[10, 2] = x[20, 2]
    _, tied, ranked = fit_empirical(x)
    y = x[:, 0] + rng.normal(size=n)
    fit = spline.fit_doubly_penalized(tied, y, default_penalties(n, 4), ranked=ranked)
    for basis, own in zip(fit.bases, spline._coordinate_bases(rank_columns(x), None)):
        np.testing.assert_array_equal(basis.knots, own.knots)
    assert fit.bases[0] is fit.bases[1] is fit.bases[3] is not fit.bases[2]


def test_rank_column_with_a_tie_keeps_its_own_design():
    # One tie takes a column off the grid: it is whitened on its own values,
    # exactly as a design of that column alone, and scored with its chunk.
    rng = np.random.default_rng(9)
    n = 400
    x = rng.normal(size=(n, 4))
    x[10, 1] = x[20, 1]
    z = rank_columns(x)
    bases = spline._coordinate_bases(z, None)
    _, tied, ranked = fit_empirical(x)
    design = spline._WhitenedDesign(bases, tied, ranked)
    assert sorted(design.orders) == [0, 2, 3]
    _, tied, ranked = fit_empirical(x[:, 1:2])
    alone = spline._WhitenedDesign(bases[1:2], tied, ranked)
    assert alone.orders == {}
    resid = rng.normal(size=n)
    theta = rng.normal(size=len(alone.eig[0]))
    assert np.array_equal(design.maps[1], alone.maps[0])
    assert np.array_equal(design.fitted(1, theta), alone.fitted(0, theta))
    assert np.array_equal(design.scores(1, 2, resid), alone.scores(0, 1, resid))
    blocks = [design.maps[j].T @ bases[j].design(z[:, j]).T for j in range(4)]
    expected = np.concatenate([block @ resid / n for block in blocks])
    np.testing.assert_allclose(design.scores(0, 4, resid), expected, rtol=0, atol=1e-12)


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
        fit = fit_doubly_penalized(z, y, default_penalties(n, p))
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
    fit = fit_doubly_penalized(z, y, default_penalties(200, 6))
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
    fit = fit_doubly_penalized(z, y, default_penalties(150, 2))
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
    fit = fit_doubly_penalized(z, y, default_penalties(200, 3))
    row_full = z[5]
    nuis = fit.predict_sum(row_full[None, 1:], exclude=0)[0]
    full = fit.predict_sum(row_full[None, :])[0]
    if 0 in fit.active_set:
        g0 = float(fit.component(0, np.array([row_full[0]]))[0])
    else:
        g0 = 0.0
    assert nuis == pytest.approx(full - g0, abs=1e-10)


def test_predict_sums_match_predict_sum_bit_for_bit():
    # predict_sums is the fit's one prediction loop and predict_sum a view
    # of it, so each is checked against an explicit sum of
    # component(j, clip(transform(x))) over the whole sample, in the fit's
    # order. Both evaluate each component in row blocks; a component's
    # value at a row does not depend on the other rows, so over a sample of
    # several blocks the sums agree bit for bit, with Gaussian CDFs (mapped
    # in one ndtr call) and with empirical transforms alike.
    rng = np.random.default_rng(10)
    x = rng.normal(size=(300, 4))
    y = np.sin(x[:, 0]) + 0.5 * x[:, 2] ** 2 + rng.normal(0, 0.1, 300)
    _, z, ranked = fit_empirical(x)
    empirical = replace(
        fit_doubly_penalized(z, y, default_penalties(300, 4), ranked=ranked),
        transforms=tuple(EmpiricalCDF.fit(col) for col in x.T),
    )
    gaussian = (GaussianCDF(1.0),) * 4
    z = np.column_stack([cdf(col) for cdf, col in zip(gaussian, x.T)])
    gaussian = replace(
        fit_doubly_penalized(z, y, default_penalties(300, 4)), transforms=gaussian
    )
    for fit in (empirical, gaussian):
        assert 0 in fit.active_set and len(fit.active_set) > 1
        block = spline.GATHER_INDEX_BYTES // (8 * min(b.size for b in fit.bases))
        new = 1.2 * rng.normal(size=(2 * block + 123, 4))
        want_nuisance = np.full(len(new), fit.intercept)
        want_full = want_nuisance.copy()
        for j in fit.active_set:
            values = fit.component(j, np.clip(fit.transforms[j](new[:, j]), 0.0, 1.0))
            want_full += values
            if j:
                want_nuisance += values
        nuisance, full = fit.predict_sums(new[:, 0], new[:, 1:])
        assert nuisance.tobytes() == want_nuisance.tobytes()
        assert full.tobytes() == want_full.tobytes()
        assert fit.predict_sum(new[:, 1:], exclude=0).tobytes() == want_nuisance.tobytes()
        assert fit.predict_sum(new).tobytes() == want_full.tobytes()
        assert fit.predict_sums(None, new[:, 1:])[0].tobytes() == want_nuisance.tobytes()
    with pytest.raises(ValueError, match="expected 3 columns"):
        fit.predict_sums(new[:, 0], new)
    with pytest.raises(ValueError, match="expected 4 columns"):
        fit.predict_sum(new[:, 1:])


def test_predict_sum_excludes_only_coordinate_zero():
    # Every caller leaves out coordinate 0 (x1) or nothing; any other
    # exclude is an error, not a silently misaligned sum.
    rng = np.random.default_rng(11)
    z = rng.uniform(0, 1, (100, 3))
    fit = fit_doubly_penalized(z, z[:, 1] + rng.normal(0, 0.1, 100), default_penalties(100, 3))
    for exclude in (1, 2, -1):
        with pytest.raises(ValueError, match="exclude must be None or 0"):
            fit.predict_sum(np.delete(z, exclude, axis=1), exclude=exclude)


def test_predict_all_blocks_zero_returns_intercept():
    rng = np.random.default_rng(8)
    z = rng.uniform(0, 1, (60, 2))
    y = rng.normal(5.0, 0.1, 60)
    fit = fit_doubly_penalized(z, y, (100.0, 100.0))
    assert fit.predict_sum(z[:1, 1:], exclude=0)[0] == pytest.approx(fit.intercept)


def test_noiseless_quadratic_component_approximation():
    rng = np.random.default_rng(9)
    z = rng.uniform(0, 1, (400, 1))
    g = lambda t: (t - 0.4) ** 2
    fit = fit_doubly_penalized(z, g(z[:, 0]), (1e-10, 1e-10))
    grid = np.linspace(0, 1, 101)
    pred = fit.intercept + fit.component(0, grid)
    assert np.max(np.abs(pred - g(grid))) <= 1e-3


def test_default_penalty_formula():
    rho, lam = default_penalties(256, 1, rho_const=1.0, lambda_const=1.0)
    assert rho == pytest.approx(256 ** (-2 / 5))
    assert rho == pytest.approx(0.1088, abs=2e-4)
    assert lam == pytest.approx(np.sqrt(np.log(2) / 256))
    rho2, _ = default_penalties(256 * 2**5, 1, rho_const=1.0, lambda_const=1.0)
    assert rho2 / rho == pytest.approx(2.0 ** (-2), rel=1e-12)


def test_default_penalty_constants_are_keyword_only():
    # A third positional argument used to be the derivative order; it must
    # not silently become rho_const.
    with pytest.raises(TypeError):
        default_penalties(100, 5, 2)


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
            z, y, default_penalties(n, p, rho_const=rho_c, lambda_const=lam_c)
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
                z[tr], y[tr], default_penalties(tr.sum(), p, rho_const=r, lambda_const=l)
            )
            errs.append(np.mean((fit.predict_sum(z[te]) - y[te]) ** 2))
        cv_scores.append(np.mean(errs))
    best = grid[int(np.argmin(cv_scores))]
    assert fresh_mse(*best) <= fresh_mse(0.05, 1.5) * 1.10 + 1e-12


def unique_knot_reference(k, n, columns):
    """Interior knots as distinct in-range quantiles, one ``np.unique`` per column."""
    if k is None:
        k = spline.default_interior_knots(n)
    cuts = np.quantile(columns, np.arange(1, k + 1) / (k + 1), axis=0).T
    return [np.unique(c[(c > 1e-9) & (c < 1 - 1e-9)]) for c in cuts]


EDGE_VALUES = [0.0, 1.0, 1e-9, 1 - 1e-9, 5e-10, 1 - 5e-10, 2e-9, 1 - 2e-9, 0.5]


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([None, 0, 1, 5, 12]))
def test_coordinate_bases_match_unique_reference(seed, knots):
    rng = np.random.default_rng(seed)
    n, c = int(rng.integers(1, 60)), int(rng.integers(1, 12))
    columns = rng.random((n, c))
    for j in range(c):
        kind = rng.integers(4)
        if kind == 1:  # ties
            columns[:, j] = np.round(columns[:, j], 1)
        elif kind == 2:  # values at and near the ends of [0, 1]
            columns[:, j] = rng.choice(EDGE_VALUES + list(rng.random(3)), size=n)
        elif kind == 3:  # a constant column
            columns[:, j] = rng.choice(EDGE_VALUES)
    bases = spline._coordinate_bases(columns, knots)
    for basis, inner in zip(bases, unique_knot_reference(knots, n, columns)):
        np.testing.assert_array_equal(basis.knots[4:-4], inner)
        assert basis.knots.size == inner.size + 8


def test_coordinate_bases_rows_keep_different_knot_counts():
    rng = np.random.default_rng(3)
    columns = np.column_stack([
        rng.random(200),  # all quantiles distinct
        np.round(rng.random(200) * 4) / 4,  # ties merge some, and some are 0 or 1
        np.full(200, 0.25),  # a constant: one knot
        np.r_[np.zeros(100), rng.random(100)],  # half the quantiles at 0: dropped
        np.full(200, 1.0),  # a constant at the end: no knot
    ])
    bases = spline._coordinate_bases(columns, 6)
    reference = unique_knot_reference(6, 200, columns)
    counts = [b.knots.size - 8 for b in bases]
    assert counts == [r.size for r in reference]
    assert counts == [6, 3, 1, 3, 0]
    for basis, inner in zip(bases, reference):
        np.testing.assert_array_equal(basis.knots[4:-4], inner)


# Reference copies of replaced set-up and prox code. The replacements
# must give the same floats, so they are compared with assert_array_equal.


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=14),
)
@example(n=1, seed=0, k=5)
@example(n=2, seed=1, k=1)
def test_column_quantiles_match_np_quantile(n, seed, k):
    rng = np.random.default_rng(seed)
    columns = rng.random((n, 6))
    columns[:, 1] = np.round(columns[:, 1], 1)  # ties
    columns[:, 2] = 0.0  # constant columns, at both ends of [0, 1]
    columns[:, 3] = 1.0
    columns[:, 4] = rng.choice([0.0, 1.0, 0.5], size=n)  # values at 0 and 1
    probs = np.arange(1, k + 1) / (k + 1)
    got = spline._column_quantiles(columns, probs)
    np.testing.assert_array_equal(got, np.quantile(columns, probs, axis=0).T)


def reference_design_batch(x, knots, degree):
    """The batched design with spans from a comparison against every knot."""
    c, n = x.shape
    size = knots.shape[1]
    q = size - degree - 1
    span = np.count_nonzero(knots[:, None, :] <= x[:, :, None], axis=2) - 1
    span = np.clip(span, degree, q - 1)
    at = span + (size * np.arange(c))[:, None]
    flat_knots = knots.ravel()
    knot_at = {off: flat_knots[at + off] for off in range(1 - degree, degree + 1)}
    vals = [np.ones((c, n))]
    for j in range(1, degree + 1):
        saved = 0.0
        nxt = []
        for r in range(j):
            right = knot_at[r + 1] - x
            left = x - knot_at[r + 1 - j]
            temp = vals[r] / (right + left)
            nxt.append(saved + right * temp)
            saved = left * temp
        nxt.append(saved)
        vals = nxt
    out = np.zeros(c * n * q)
    first = span - degree + (q * np.arange(c * n)).reshape(c, n)
    for r, val in enumerate(vals):
        out[first + r] = val
    return out.reshape(c, n, q)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_design_batch_matches_knot_comparison(degree, interior, seed):
    # Each row has its own interior knots, some repeated, so the rows'
    # points fall in different numbers of distinct intervals; points sit
    # at 0, at 1, on every knot and in between.
    rng = np.random.default_rng(seed)
    c = int(rng.integers(1, 5))
    inner = np.sort(rng.random((c, interior)), axis=1)
    if interior > 1:
        rows = rng.random(c) < 0.5
        inner[rows, 1] = inner[rows, 0]
    knots = np.hstack([np.zeros((c, degree + 1)), inner, np.ones((c, degree + 1))])
    x = np.hstack([np.zeros((c, 1)), np.ones((c, 1)), inner, rng.random((c, 7))])
    np.testing.assert_array_equal(
        spline._design_batch(x, knots, degree), reference_design_batch(x, knots, degree)
    )


# The stop of the reference prox's bisection: at most REFERENCE_ITERS
# halvings, or a bracket narrower than REFERENCE_TOL * hi, relative so that
# a small root is found as accurately as a large one.
REFERENCE_ITERS = 100
REFERENCE_TOL = 1e-10


def reference_two_penalty_prox(z, d, rho, lam):
    """The prox with a plain bisection for its shrinkage root."""
    znorm = float(np.linalg.norm(z))
    if znorm == 0.0 or znorm <= lam / 2:
        return np.zeros_like(z)
    if rho == 0.0:
        v = z
    else:
        pos = d > 0
        v = z.copy()
        if pos.any():
            zp, dp = z[pos], d[pos]
            zp2 = np.square(zp)
            if 2 * math.sqrt(float((zp2 / dp).sum())) <= rho:
                v[pos] = 0.0
            else:
                target = zp2 * dp
                rdp = rho * dp
                hi = math.sqrt(float(target.sum()))
                lo = 0.0
                for _ in range(REFERENCE_ITERS):
                    a = (lo + hi) / 2
                    val = float((target / np.square(1 + rdp / (2 * a))).sum())
                    if val > a * a:
                        lo = a
                    else:
                        hi = a
                    if hi - lo < REFERENCE_TOL * hi:
                        break
                a = (lo + hi) / 2
                v[pos] = zp / (1 + rdp / (2 * a))
    vnorm = float(np.linalg.norm(v))
    if vnorm <= lam / 2:
        return np.zeros_like(z)
    return v * (1 - lam / (2 * vnorm))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["spread", "dyadic", "threshold"]),
)
def test_prox_matches_bisection_reference(seed, rho_mode):
    # "dyadic" puts the root exactly on a midpoint of the reference's
    # bisection; "threshold" puts rho at the stage-one threshold, where
    # the penalized part is zeroed. The reference's root is good to 1e-10
    # relative, so its output is good to about 1e-10 of the block's norm:
    # entries that are rounding noise at the threshold, or small
    # differences after the Euclidean shrinkage, are compared to that.
    rng = np.random.default_rng(seed)
    for _ in range(20):
        q = int(rng.integers(1, 12))
        z = rng.normal(size=q) * 10 ** rng.uniform(-3, 3)
        d = 10 ** rng.uniform(-2, 8, q)
        d[rng.random(q) < 0.2] = 0.0
        pos = d > 0
        s1 = 2 * math.sqrt(float(np.sum(z[pos] ** 2 / d[pos]))) if pos.any() else 1.0
        if rho_mode == "spread":
            rho = s1 * 10 ** rng.uniform(-6, 0.1)
        elif rho_mode == "dyadic":
            # Equal eigenvalues: the root is top - rho d / 2 in closed form.
            pos[0] = True
            d = np.where(pos, 10 ** rng.uniform(-2, 8), 0.0)
            top = math.sqrt(float(np.sum(z[pos] ** 2 * d[pos])))
            rho = 2 * top * (1 - int(rng.integers(1, 64)) / 64) / d[0]
        else:
            rho = float(rng.choice([s1, np.nextafter(s1, 0.0), np.nextafter(s1, np.inf)]))
        lam = float(rng.choice([0.0, rng.uniform(0, 2) * float(np.linalg.norm(z))]))
        np.testing.assert_allclose(
            two_penalty_prox(z, d, rho, lam), reference_two_penalty_prox(z, d, rho, lam),
            rtol=1e-9, atol=1e-9 * float(np.linalg.norm(z)),
        )


def test_prox_solves_a_block_whose_sums_overflow_unscaled():
    # Unscaled, the cube of the root's upper bound 1e103 overflows; the
    # root is found on the problem divided by that bound. In the second
    # block even the scaled slope at 0 divides by zero, so the first
    # step is a bisection.
    for z, d in [([1e99, -3e98], [1e8, 0.0]), ([1e150, -3e149], [1e-8, 0.0])]:
        z, d = np.array(z), np.array(d)
        t = two_penalty_prox(z, d, 1.0, 0.0)
        assert np.all(np.isfinite(t))
        np.testing.assert_allclose(
            t, reference_two_penalty_prox(z, d, 1.0, 0.0), rtol=1e-9, atol=0
        )
        # The optimality check of test_two_penalty_prox_optimality, with
        # the step and the tolerance scaled to the block.
        scale = float(np.linalg.norm(z))
        f0 = prox_objective(t, z, d, 1.0, 0.0)
        rng = np.random.default_rng(0)
        for _ in range(6):
            v = rng.normal(size=2)
            v /= np.linalg.norm(v)
            step = 1e-6 * scale
            fd = (prox_objective(t + step * v, z, d, 1.0, 0.0) - f0) / step
            assert fd >= -1e-8 * scale


def test_prox_root_where_g_is_flat_at_the_top():
    # Eigenvalues 1e21 apart: the root is 9e-11 of its upper bound, where
    # G's slope is 1e-20 of its slope at the root, so a stop judged by the
    # upper end's slope would take the first bracket [0, top] as closed.
    z = np.array([1 / math.sqrt(2e10), math.sqrt(5e-10)])
    d = np.array([2e10, 2e-11])
    # The root in closed form: G(a) = 1 at a = 9e-11, to about 1e-20.
    exact = z / (1 + d / (2 * 9e-11))
    np.testing.assert_allclose(two_penalty_prox(z, d, 1.0, 0.0), exact, rtol=1e-9, atol=0)
    np.testing.assert_allclose(
        two_penalty_prox(z, d, 1.0, 0.0), reference_two_penalty_prox(z, d, 1.0, 0.0),
        rtol=1e-9, atol=0,
    )
