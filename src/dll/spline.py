"""Nuisance estimation: penalized B-spline additive regression.

Each component is represented in a clamped B-spline basis on [0,1] and
penalized by both a smoothness seminorm (integrated squared m-th
derivative, a quadratic form in the coefficients) and its empirical L2
norm (group penalty that produces exact zeros). The fit is block
coordinate descent; after a change of coordinates that whitens the
empirical Gram matrix and diagonalizes the smoothness form, each block
update is an exact proximal step for the sum of the two penalties.

In a sparse fit most blocks are zero and stay zero, and a block that
stays zero leaves the residual untouched. The sweep therefore screens:
at a zero block it scores every zero block up to the next nonzero one
against the same residual, tests them all with a vectorized form of the
prox's zero test (exact: a block within a rounding margin of a threshold
is passed to the prox itself), and jumps to the first block whose update
is nonzero. The visiting order, the updates made and hence the iterates
are those of the plain block-by-block sweep; only the work of the
updates that change nothing is batched. The set-up is batched as well:
dense B-spline design matrices (de Boor's recursion), smoothness
penalties (Gauss-Legendre quadrature) and the generalized
eigendecompositions run for many coordinates per call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import RankDeficientError

FIT_TOL = 1e-7
MAX_SWEEPS = 500
PROX_ITERS = 100
PROX_TOL = 1e-10
# Penalty eigenvalues below this fraction of the largest are null space.
EIG_SNAP = 1e-9
# The block screen decides in closed form only outside a relative band
# of this width around each threshold of the prox; rounding differences
# between the two are far smaller. Norms below SCREEN_FLOOR, whose
# squares lose precision, go to the prox too.
SCREEN_MARGIN = 1e-8
SCREEN_FLOOR = 1e-150
SCREEN_ROOT_STEPS = 3
# Chunks of the design store stay below this size (see _WhitenedDesign).
STORE_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class BasisSpec:
    """Configuration for per-coordinate spline bases.

    ``num_interior_knots=None`` selects ceil(n^(1/5)) + 2 at fit time.
    """

    degree: int = 3
    num_interior_knots: int | None = None
    placement: str = "quantile"  # or "uniform"

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.num_interior_knots is not None and self.num_interior_knots < 0:
            raise ValueError("num_interior_knots must be >= 0")
        if self.placement not in ("quantile", "uniform"):
            raise ValueError(f"unknown placement {self.placement!r}")


@dataclass(frozen=True)
class CoordinateBasis:
    """Concrete clamped B-spline basis on [0,1]."""

    knots: np.ndarray  # full knot vector with boundary multiplicity degree+1
    degree: int

    @property
    def size(self) -> int:
        return len(self.knots) - self.degree - 1

    def design(self, z) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=float))
        if not np.all((z >= 0) & (z <= 1)):
            raise ValueError("basis inputs must lie in [0, 1]")
        return _design_batch(z[None, :], self.knots[None, :], self.degree)[0]


def _design_batch(x: np.ndarray, knots: np.ndarray, degree: int) -> np.ndarray:
    """Dense design matrices of a batch of clamped B-spline bases.

    ``x`` has shape (c, n) with values in [0, 1] and ``knots`` shape
    (c, L); the result has shape (c, n, L - degree - 1). Each point gets
    the degree + 1 basis functions that are nonzero on its knot interval
    from de Boor's triangular recursion; the right end point belongs to
    the last nonempty interval.
    """
    c, n = x.shape
    q = knots.shape[1] - degree - 1
    span = np.count_nonzero(knots[:, None, :] <= x[:, :, None], axis=2) - 1
    span = np.clip(span, degree, q - 1)
    knot_at = {
        off: np.take_along_axis(knots, span + off, axis=1)
        for off in range(1 - degree, degree + 1)
    }
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
    out = np.zeros((c, n, q))
    cols = span[:, :, None] - degree + np.arange(degree + 1)
    np.put_along_axis(out, cols, np.stack(vals, axis=2), axis=2)
    return out


def default_interior_knots(n: int) -> int:
    return math.ceil(n ** (1 / 5)) + 2


def make_coordinate_basis(
    spec: BasisSpec, column: np.ndarray | None = None, n: int | None = None
) -> CoordinateBasis:
    """Build a concrete basis; quantile placement requires a data column."""
    if column is not None:
        column = np.asarray(column, dtype=float)
        return _coordinate_bases(spec, column.size, column[:, None])[0]
    if n is None:
        raise ValueError("need a data column or a sample size")
    return _coordinate_bases(spec, n)[0]


def _coordinate_bases(
    spec: BasisSpec, n: int, columns: np.ndarray | None = None
) -> list[CoordinateBasis]:
    """One basis per column of ``columns`` (n x c), or one without data."""
    k = spec.num_interior_knots
    if k is None:
        k = default_interior_knots(n)
    count = 1 if columns is None else columns.shape[1]
    if spec.placement == "quantile" and columns is not None and k > 0:
        probs = np.arange(1, k + 1) / (k + 1)
        cuts = np.quantile(columns, probs, axis=0).T
        interiors = [np.unique(c[(c > 1e-9) & (c < 1 - 1e-9)]) for c in cuts]
    else:
        interiors = [np.linspace(0.0, 1.0, k + 2)[1:-1]] * count
    d = spec.degree
    return [
        CoordinateBasis(knots=np.concatenate([np.zeros(d + 1), inner, np.ones(d + 1)]), degree=d)
        for inner in interiors
    ]


def bspline_basis(z: float, basis: CoordinateBasis) -> np.ndarray:
    """All basis function values at a point; rows sum to one."""
    return basis.design(z)[0]


@functools.cache
def _gauss_legendre(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(k)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _sobolev_batch(knots: np.ndarray, degree: int, m: int) -> np.ndarray:
    """Smoothness penalty matrices of a batch of clamped bases.

    ``knots`` has shape (c, L). The m-th derivative of a spline is a
    spline of degree ``degree - m`` on the inner knots, whose coefficients
    are a banded map of the original ones; its square is integrated by
    Gauss-Legendre quadrature on every knot interval at once (an interval
    of zero length gets zero weight).
    """
    if m > degree:
        raise ValueError(f"derivative order {m} exceeds degree {degree}")
    c, q = knots.shape[0], knots.shape[1] - degree - 1
    op = np.broadcast_to(np.eye(q), (c, q, q))
    size = q
    t, deg = knots, degree
    for _ in range(m):
        denom = t[:, deg + 1 : size + deg] - t[:, 1:size]
        scale = np.divide(deg, denom, out=np.zeros_like(denom), where=denom > 0)
        step = np.zeros((c, size - 1, size))
        band = np.arange(size - 1)
        step[:, band, band] = -scale
        step[:, band, band + 1] = scale
        op = step @ op
        t, deg, size = t[:, 1:-1], deg - 1, size - 1
    # The integrand has degree 2 * (degree - m); degree + 1 nodes per
    # interval are more than exact.
    nodes, weights = _gauss_legendre(degree + 1)
    lo, hi = knots[:, degree:q], knots[:, degree + 1 : q + 1]
    half = ((hi - lo) / 2)[:, :, None]
    pts = ((hi + lo) / 2)[:, :, None] + half * nodes
    wts = (half * weights).reshape(c, -1)
    dmat = _design_batch(pts.reshape(c, -1), t, deg) @ op
    return (dmat.transpose(0, 2, 1) * wts[:, None, :]) @ dmat


def sobolev_penalty_matrix(basis: CoordinateBasis, m: int = 2) -> np.ndarray:
    """Gram matrix of the integrated squared m-th derivative.

    ``beta @ Omega @ beta`` equals the integral over [0,1] of the squared
    m-th derivative of the spline with coefficients ``beta``; computed by
    Gauss-Legendre quadrature per knot interval, which is exact for the
    piecewise-polynomial integrand.
    """
    return _sobolev_batch(basis.knots[None, :], basis.degree, m)[0]


DEFAULT_RHO_CONST = 0.05
DEFAULT_LAMBDA_CONST = 1.5


def default_penalties(
    n: int,
    p: int,
    m: int = 2,
    rho_const: float = DEFAULT_RHO_CONST,
    lambda_const: float = DEFAULT_LAMBDA_CONST,
) -> tuple[float, float]:
    """Default smoothness and sparsity penalty levels.

    Smoothness penalty scales as n^(-m/(2m+1)); sparsity penalty as
    sqrt(log(max(p, 2)) / n). The default constants are calibrated so
    moderately wiggly components keep their curvature while pure-noise
    coordinates are zeroed.
    """
    if n < 2 or p < 1:
        raise ValueError("need n >= 2 and p >= 1")
    rho = rho_const * n ** (-m / (2 * m + 1))
    lam = lambda_const * math.sqrt(math.log(max(p, 2)) / n)
    return rho, lam


def two_penalty_prox(
    z: np.ndarray, d: np.ndarray, rho: float, lam: float
) -> np.ndarray:
    """Minimizer of ||t - z||^2 + rho*sqrt(t'diag(d)t) + lam*||t||_2.

    Solved exactly in two stages: the weighted-norm shrinkage (scalar
    bisection on the weighted block norm), then the Euclidean-norm
    shrinkage, which rescales without moving the weighted-norm
    subgradient off its cone.
    """
    z = np.asarray(z, dtype=float)
    d = np.asarray(d, dtype=float)
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
            if 2 * math.sqrt(float(np.sum(zp**2 / dp))) <= rho:
                v[pos] = 0.0
            else:
                target = zp**2 * dp
                hi = math.sqrt(float(np.sum(target)))
                lo = 0.0
                for _ in range(PROX_ITERS):
                    a = (lo + hi) / 2
                    val = float(np.sum(target / (1 + rho * dp / (2 * a)) ** 2))
                    if val > a * a:
                        lo = a
                    else:
                        hi = a
                    if hi - lo < PROX_TOL * max(1.0, hi):
                        break
                a = (lo + hi) / 2
                v[pos] = zp / (1 + rho * dp / (2 * a))
    vnorm = float(np.linalg.norm(v))
    if vnorm <= lam / 2:
        return np.zeros_like(z)
    return v * (1 - lam / (2 * vnorm))


def _prox_zero_blocks(
    z: np.ndarray, d: np.ndarray, starts: np.ndarray, rho: np.ndarray, lam: np.ndarray
) -> np.ndarray:
    """Which blocks ``two_penalty_prox`` maps to exactly zero, all at once.

    Block b has scores ``z_b = z[starts[b]:starts[b + 1]]``, eigenvalues
    ``d_b`` over the same range and penalties ``rho[b]`` and ``lam[b]``;
    entry b of the result is
    ``not two_penalty_prox(z_b, d_b, rho[b], lam[b]).any()``. The prox's
    zero tests run in closed form, and its weighted-shrinkage root is
    bracketed by Newton steps from below and chords from above on
    ``G(a)**-0.5 - 1``, which is concave and increasing in ``a``. A block
    whose answer lies within SCREEN_MARGIN of a threshold (beyond the
    bisection tolerance of the prox) is passed to the prox itself.
    """
    nb = len(rho)
    owner = np.repeat(np.arange(nb), np.diff(starts))
    half = lam / 2
    zz = z * z
    pos = d > 0
    znorm = np.sqrt(np.bincount(owner, zz, nb))
    null2 = np.bincount(owner, np.where(pos, 0.0, zz), nb)
    tol = SCREEN_MARGIN * znorm
    zero = znorm <= half - tol
    nonzero = np.zeros(nb, dtype=bool)
    live = ~zero & (znorm > half + tol) & (znorm > SCREEN_FLOOR)
    shrunk = live & (rho > 0) & (np.bincount(owner, pos, nb) > 0)
    nonzero |= live & ~shrunk
    s1 = 2 * np.sqrt(np.bincount(owner, np.where(pos, zz / np.where(pos, d, 1.0), 0.0), nb))
    # Stage one zeroes the penalized part: what is left is the null part.
    flat = shrunk & (s1 <= rho * (1 - SCREEN_MARGIN))
    null = np.sqrt(null2)
    zero |= flat & (null <= half - tol)
    nonzero |= flat & (null > half + tol)
    # Otherwise the penalized part is scaled by a / (a + rho d / 2) at the
    # root a of G(a) = sum(z^2 d / (a + rho d / 2)^2) = 1.
    ids = np.flatnonzero(shrunk & (s1 > rho * (1 + SCREEN_MARGIN)))
    if ids.size:
        remap = np.zeros(nb, dtype=np.intp)
        remap[ids] = np.arange(ids.size)
        el = np.isin(owner, ids) & pos
        own = remap[owner[el]]
        zz_el = zz[el]
        c_el = zz_el * d[el]
        e_el = (rho[owner] * d)[el] / 2

        def psi(a):
            den = a[own] + e_el
            g = np.bincount(own, c_el / den**2, ids.size)
            slope = np.bincount(own, c_el / den**3, ids.size)
            return g**-0.5 - 1, g**-1.5 * slope

        top = np.sqrt(np.bincount(own, c_el, ids.size))
        lo, hi = np.zeros(ids.size), top
        psi_hi = psi(hi)[0]
        for _ in range(SCREEN_ROOT_STEPS):
            psi_lo, slope = psi(lo)
            gap = psi_hi - psi_lo
            chord = lo - psi_lo * (hi - lo) / np.where(gap > 0, gap, 1.0)
            hi = np.where(gap > 0, np.minimum(hi, chord), hi)
            lo = np.maximum(lo, lo - psi_lo / slope)
            psi_hi = psi(hi)[0]

        def vnorm(a):
            shrink = a[own] / (a[own] + e_el)
            return np.sqrt(null2[ids] + np.bincount(own, zz_el * shrink**2, ids.size))

        slack = PROX_TOL * np.maximum(1.0, top)
        zero[ids] |= vnorm(hi + slack) <= half[ids] - tol[ids]
        nonzero[ids] |= vnorm(np.maximum(lo - slack, 0.0)) > half[ids] + tol[ids]
    for b in np.flatnonzero(~zero & ~nonzero):
        block = slice(starts[b], starts[b + 1])
        zero[b] = not two_penalty_prox(z[block], d[block], float(rho[b]), float(lam[b])).any()
    return zero


@dataclass(frozen=True)
class AdditiveFit:
    """Fitted penalized additive spline model.

    Coefficient blocks are in the original per-coordinate basis;
    components are empirically centered on the training sample, with the
    common level in ``intercept``. When ``transforms`` is present,
    prediction maps raw covariates through them; otherwise inputs are
    taken as already transformed to [0,1].
    """

    intercept: float
    coef_blocks: tuple[np.ndarray, ...]
    bases: tuple[CoordinateBasis, ...]
    penalties: tuple[tuple[float, float], ...]
    active_set: tuple[int, ...]
    objective_trace: tuple[float, ...]
    converged: bool
    sweeps: int
    transforms: tuple[Callable, ...] | None = None

    @property
    def n_coordinates(self) -> int:
        return len(self.coef_blocks)

    @property
    def active_dimension(self) -> int:
        return sum(self.bases[j].size for j in self.active_set)

    def component(self, j: int, z) -> np.ndarray:
        """Evaluate the j-th fitted component on transformed inputs."""
        return self.bases[j].design(z) @ self.coef_blocks[j]

    def _to_unit(self, j: int, x):
        if self.transforms is None:
            return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        return np.clip(self.transforms[j](x), 0.0, 1.0)

    def predict_sum(self, x_matrix: np.ndarray, exclude: int | None = None) -> np.ndarray:
        """Intercept plus the sum of components over the given columns.

        ``x_matrix`` columns align with the fit's coordinates, skipping
        ``exclude`` when given (so it has one fewer column).
        """
        x_matrix = np.atleast_2d(np.asarray(x_matrix, dtype=float))
        cols = [j for j in range(self.n_coordinates) if j != exclude]
        if x_matrix.shape[1] != len(cols):
            raise ValueError(
                f"expected {len(cols)} columns, got {x_matrix.shape[1]}"
            )
        out = np.full(x_matrix.shape[0], self.intercept)
        for pos, j in enumerate(cols):
            if j in self.active_set:
                out += self.component(j, self._to_unit(j, x_matrix[:, pos]))
        return out


def predict_nuisance(fit: AdditiveFit, x2_row, exclude: int = 0) -> float:
    """Nuisance prediction at one raw covariate row.

    The row holds every coordinate except ``exclude`` (the coordinate of
    interest, fitted jointly but dropped at prediction time).
    """
    row = np.atleast_1d(np.asarray(x2_row, dtype=float))
    return float(fit.predict_sum(row[None, :], exclude=exclude)[0])


def nuisance_residuals(y, f2hat) -> np.ndarray:
    """Outcome minus the nuisance prediction, elementwise."""
    y = np.asarray(y, dtype=float)
    f2hat = np.asarray(f2hat, dtype=float)
    if y.shape != f2hat.shape:
        raise ValueError("length mismatch")
    return y - f2hat


def nuisance_fit_error(
    fit_a: AdditiveFit,
    fit_b: AdditiveFit,
    truth: Callable[[np.ndarray], np.ndarray],
    fresh_x2: np.ndarray,
    exclude: int = 0,
    include_intercept: bool = True,
) -> float:
    """Worst-fold RMSE of the nuisance fit against the truth on fresh draws.

    With ``include_intercept=False`` only the component sums are compared
    (both sides taken net of their level), which separates shape error
    from the arbitrary constant split between components and intercept.
    """
    fresh_x2 = np.atleast_2d(np.asarray(fresh_x2, dtype=float))
    target = np.asarray(truth(fresh_x2), dtype=float)
    if not include_intercept:
        target = target - float(np.mean(target))
    errs = []
    for fit in (fit_a, fit_b):
        pred = fit.predict_sum(fresh_x2, exclude=exclude)
        if not include_intercept:
            pred = pred - fit.intercept
            pred = pred - float(np.mean(pred))
        errs.append(float(np.sqrt(np.mean((pred - target) ** 2))))
    return max(errs)


def _normalize_penalties(
    penalties, p: int
) -> list[tuple[float, float]]:
    if isinstance(penalties, tuple) and len(penalties) == 2 and np.isscalar(penalties[0]):
        return [(float(penalties[0]), float(penalties[1]))] * p
    out = [(float(r), float(l)) for r, l in penalties]
    if len(out) != p:
        raise ValueError(f"expected {p} penalty pairs, got {len(out)}")
    return out


class _WhitenedDesign:
    """Every coordinate's design in whitened, penalty-diagonal coordinates.

    Coordinate j uses ``B_j V_j``, where ``V_j`` solves the generalized
    eigenproblem of its smoothness form against its empirical Gram
    matrix: the new design has identity Gram matrix and penalty
    ``diag(d_j)``. The transposed designs of consecutive coordinates share
    chunks of at most STORE_CHUNK_BYTES, so the scores of a run of blocks
    take one matrix-vector product per chunk, and no single large array
    is allocated and freed per fit: freeing one raises glibc's mmap
    threshold, and later medium-sized arrays then stay on the heap.
    """

    def __init__(self, bases: list[CoordinateBasis], z_matrix: np.ndarray, m: int):
        n, p = z_matrix.shape
        self.n = n
        self.slots: list[tuple[np.ndarray, int]] = []  # (chunk, index in it)
        eig, maps, means, consts = [], [], [], []
        j = 0
        while j < p:
            key = (bases[j].degree, len(bases[j].knots))
            stop = j + 1
            limit = j + max(1, STORE_CHUNK_BYTES // (8 * n * bases[j].size))
            while stop < min(p, limit) and (bases[stop].degree, len(bases[stop].knots)) == key:
                stop += 1
            knots = np.stack([bases[i].knots for i in range(j, stop)])
            raw = _design_batch(z_matrix[:, j:stop].T, knots, key[0]).transpose(0, 2, 1)
            gram = raw @ raw.transpose(0, 2, 1) / n
            d, vecs = _penalty_eigh(_sobolev_batch(knots, key[0], m), gram, j)
            chunk = vecs.transpose(0, 2, 1) @ raw
            self.slots.extend((chunk, i) for i in range(stop - j))
            eig.extend(d)
            maps.extend(vecs)
            means.extend(chunk.mean(axis=2))
            ones = np.ones((stop - j, vecs.shape[1], 1))
            consts.extend(np.linalg.solve(vecs, ones)[:, :, 0])
            j = stop
        self.eig, self.maps, self.col_means, self.const_coefs = eig, maps, means, consts
        self.starts = np.cumsum([0] + [len(d) for d in eig])
        self.eig_flat = np.concatenate(eig) if eig else np.zeros(0)

    def block(self, j: int) -> np.ndarray:
        """Transposed whitened design of coordinate j, shape (q_j, n)."""
        chunk, i = self.slots[j]
        return chunk[i]

    def scores(self, j: int, k: int, resid: np.ndarray) -> np.ndarray:
        """``B_i' resid / n`` of coordinates j..k-1, concatenated."""
        parts = []
        while j < k:
            chunk, i = self.slots[j]
            stop = min(len(chunk), i + k - j)
            parts.append(chunk[i:stop].reshape(-1, self.n) @ resid)
            j += stop - i
        return np.concatenate(parts) / self.n


def _reduced_eigh(omega: np.ndarray, gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched ``eigh(omega, gram)`` by reduction with the Cholesky factor."""
    low = np.linalg.cholesky(gram)
    left = np.linalg.solve(low, omega)
    d, w = np.linalg.eigh(np.linalg.solve(low, left.transpose(0, 2, 1)))
    return d, np.linalg.solve(low.transpose(0, 2, 1), w)


def _penalty_eigh(
    omega: np.ndarray, gram: np.ndarray, first: int
) -> tuple[np.ndarray, np.ndarray]:
    """Penalty eigenvalues and Gram-orthonormal eigenvectors of a batch.

    A Gram matrix that is not positive definite (a coordinate with too
    few distinct values) is retried alone with a growing ridge. The m
    null-space eigenvalues come back as rounding noise of either sign;
    they are snapped to exactly zero so that float noise never decides
    which directions are penalized.
    """
    try:
        d, vecs = _reduced_eigh(omega, gram)
    except np.linalg.LinAlgError:
        pairs = []
        for i in range(len(gram)):
            ridge = 0.0
            eye = np.eye(gram.shape[1])
            for attempt in range(9):
                try:
                    pairs.append(_reduced_eigh(omega[i : i + 1], gram[i : i + 1] + ridge * eye))
                    break
                except np.linalg.LinAlgError:
                    if attempt == 8:
                        raise RankDeficientError(
                            f"empirical Gram matrix of coordinate {first + i} is singular"
                        )
                    ridge = max(ridge * 10, 1e-10 * float(np.trace(gram[i])) / gram.shape[1])
        d = np.concatenate([pair[0] for pair in pairs])
        vecs = np.concatenate([pair[1] for pair in pairs])
    d = np.where(d > EIG_SNAP * d.max(axis=1, keepdims=True), d, 0.0)
    return d, vecs


def fit_doubly_penalized(
    z_matrix: np.ndarray,
    y: np.ndarray,
    penalties: tuple[float, float] | Sequence[tuple[float, float]],
    basis: BasisSpec | Sequence[CoordinateBasis] = BasisSpec(),
    m: int = 2,
    transforms: tuple[Callable, ...] | None = None,
    fit_tol: float = FIT_TOL,
    max_sweeps: int = MAX_SWEEPS,
) -> AdditiveFit:
    """Backfitting solver for the doubly penalized additive objective.

    Minimizes ``mean((y - intercept - sum_j g_j(z_j))^2)
    + sum_j (rho_j * smoothness_norm(g_j) + lam_j * empirical_norm(g_j))``
    by block coordinate descent with exact block proximal updates;
    components are re-centered every sweep so their training means stay
    at zero. Negative penalties are rejected; a fully unpenalized fit is
    only well posed for a single coordinate.

    Each sweep visits the blocks in order (Gauss-Seidel). A nonzero block
    is updated on its own. At a zero block, the scores of it and of every
    zero block before the next nonzero one come from one matrix-vector
    product per design chunk, and ``_prox_zero_blocks`` finds the first
    of them whose prox is nonzero; the sweep jumps there. The skipped
    blocks are exactly those the per-block update would have left at
    zero, and a block that stays zero leaves the residual untouched, so
    the scores stay valid across the jump: block order, sweep count,
    objective trace and active set are those of the plain per-block
    sweep, up to rounding.
    """
    z_matrix = np.atleast_2d(np.asarray(z_matrix, dtype=float))
    y = np.asarray(y, dtype=float)
    n, p = z_matrix.shape
    if not np.all((z_matrix >= 0) & (z_matrix <= 1)):
        raise ValueError("all inputs must lie in [0, 1]")
    pen = _normalize_penalties(penalties, p)
    if any(r < 0 or l < 0 for r, l in pen):
        raise ValueError("penalties must be nonnegative")
    if all(r == 0 and l == 0 for r, l in pen) and p > 1:
        raise RankDeficientError(
            "zero penalties with several coordinates leave the stacked basis singular"
        )

    if isinstance(basis, BasisSpec):
        bases = _coordinate_bases(basis, n, z_matrix)
    else:
        bases = list(basis)
        if len(bases) != p:
            raise ValueError("one basis per coordinate required")

    design = _WhitenedDesign(bases, z_matrix, m)
    rho_all = np.array([r for r, _ in pen])
    lam_all = np.array([l for _, l in pen])
    starts = design.starts
    thetas = [np.zeros(b.size) for b in bases]
    active = np.zeros(p, dtype=bool)
    intercept = float(np.mean(y))
    resid = y - intercept

    def objective() -> float:
        val = float(np.mean(resid**2))
        for j in np.flatnonzero(active):
            th = thetas[j]
            val += pen[j][0] * math.sqrt(float(th @ (design.eig[j] * th)))
            val += pen[j][1] * float(np.linalg.norm(th))
        return val

    def update(j: int, z: np.ndarray | None = None) -> None:
        nonlocal intercept, resid
        block = design.block(j)
        if active[j]:
            resid += thetas[j] @ block
        if z is None:
            z = block @ resid / n
        th_new = two_penalty_prox(z, design.eig[j], pen[j][0], pen[j][1])
        if th_new.any():
            shift = float(design.col_means[j] @ th_new)
            if shift != 0.0:
                th_new = th_new - shift * design.const_coefs[j]
                intercept += shift
            resid -= th_new @ block
        thetas[j] = th_new
        active[j] = th_new.any()

    trace = [objective()]
    converged = False
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        j = 0
        while j < p:
            if active[j]:
                update(j)
                j += 1
                continue
            later = np.flatnonzero(active[j + 1 :])
            k = j + 1 + int(later[0]) if later.size else p
            z_run = design.scores(j, k, resid)
            zero = _prox_zero_blocks(
                z_run,
                design.eig_flat[starts[j] : starts[k]],
                starts[j : k + 1] - starts[j],
                rho_all[j:k],
                lam_all[j:k],
            )
            hits = np.flatnonzero(~zero)
            if not hits.size:
                j = k
                continue
            first = j + int(hits[0])
            update(first, z_run[starts[first] - starts[j] : starts[first + 1] - starts[j]])
            j = first + 1
        delta = float(np.mean(resid)) if p else 0.0
        if delta != 0.0:
            intercept += delta
            resid -= delta
        trace.append(objective())
        if abs(trace[-2] - trace[-1]) <= fit_tol * max(abs(trace[-2]), 1e-12):
            converged = True
            break

    # Map back to the original basis (beta_j = V_j theta_j) and polish the
    # centering exactly: a constant has coefficient vector c * ones, and
    # the training mean of B_j V_j theta_j is col_means_j @ theta_j.
    betas = []
    for j in range(p):
        if active[j]:
            beta = design.maps[j] @ thetas[j]
            mean_val = float(design.col_means[j] @ thetas[j])
            beta = beta - mean_val
            intercept += mean_val
        else:
            beta = np.zeros(bases[j].size)
        betas.append(beta)

    active_set = tuple(j for j in range(p) if betas[j].any())
    return AdditiveFit(
        intercept=intercept,
        coef_blocks=tuple(betas),
        bases=tuple(bases),
        penalties=tuple(pen),
        active_set=active_set,
        objective_trace=tuple(trace),
        converged=converged,
        sweeps=sweeps,
        transforms=transforms,
    )
