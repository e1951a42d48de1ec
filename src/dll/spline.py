"""Nuisance estimation: penalized B-spline additive regression.

Each component is represented in a clamped B-spline basis of degree
DEGREE (cubic) on [0,1] and penalized by both a smoothness seminorm
(integrated squared derivative of order SMOOTHNESS_ORDER, a quadratic
form in the coefficients) and its empirical L2 norm (group penalty that
produces exact zeros). The number of interior knots is the one setting
of the basis; by default it is ceil(n^(1/5)) + 2. The fit is block
coordinate descent; after a change of coordinates that whitens the
empirical Gram matrix and diagonalizes the smoothness form, each block
update is an exact proximal step for the sum of the two penalties: a
closed form up to one scalar shrinkage root, which Newton and chord
steps bracket to rounding.

In a sparse fit most blocks are zero and stay zero, and a block that
stays zero leaves the residual untouched. The sweep therefore screens:
at a zero block it scores every zero block up to the next nonzero one
against the same residual, tests them all with a vectorized form of the
prox's zero test (exact: a block within a rounding margin of a threshold
is passed to the prox itself), and jumps to the first block whose update
is nonzero. The visiting order, the updates made and hence the iterates
are those of the plain block-by-block sweep; only the work of the
updates that change nothing is batched. The set-up is batched as well:
quantile knots come from one sort of all columns, with numpy's "linear"
quantile formula applied to the sorted values, and dense B-spline design
matrices (de Boor's recursion), smoothness penalties (Gauss-Legendre
quadrature) and the generalized eigendecompositions run for many
coordinates per call.

Rank columns, empirical-CDF columns without ties, are permutations of
the grid ``transforms.rank_grid(n)``, passed as their sort orders. They
share all of that set-up, on the sorted grid (see ``_WhitenedDesign``);
any other column keeps a design of its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import RankDeficientError
from .transforms import map_columns, rank_grid

DEGREE = 3
SMOOTHNESS_ORDER = 2
FIT_TOL = 1e-7
MAX_SWEEPS = 500
# Penalty eigenvalues below this fraction of the largest are null space.
EIG_SNAP = 1e-9
# The block screen decides in closed form only outside a relative band
# of this width around each threshold of the prox; rounding differences
# between the two are far smaller. Norms below SCREEN_FLOOR, whose
# squares lose precision, go to the prox too.
SCREEN_MARGIN = 1e-8
SCREEN_FLOOR = 1e-150
# Hard cap on the bracketing steps of the shrinkage root, in the prox and
# in the screen.
SCREEN_ROOT_CAP = 50
# Chunks of the design store stay below this size (see _WhitenedDesign).
STORE_CHUNK_BYTES = 1 << 20
# Rank orders are cast to intp and gathered, and predictions evaluated, in
# pieces of about this size.
GATHER_INDEX_BYTES = 1 << 18


@dataclass(frozen=True)
class CoordinateBasis:
    """Concrete clamped B-spline basis on [0,1]."""

    knots: np.ndarray  # full knot vector with boundary multiplicity DEGREE + 1

    @property
    def size(self) -> int:
        return len(self.knots) - DEGREE - 1

    def design(self, z) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=float))
        if not np.all((z >= 0) & (z <= 1)):
            raise ValueError("basis inputs must lie in [0, 1]")
        return _design_batch(z[None, :], self.knots[None, :], DEGREE)[0]


def _design_batch(x: np.ndarray, knots: np.ndarray, degree: int) -> np.ndarray:
    """Dense design matrices of a batch of clamped B-spline bases.

    ``x`` has shape (c, n) with values in [0, 1] and ``knots`` shape
    (c, L); the result has shape (c, n, L - degree - 1). Each point gets
    the degree + 1 basis functions that are nonzero on its knot interval
    from de Boor's triangular recursion; the right end point belongs to
    the last nonempty interval.
    """
    c, n = x.shape
    size = knots.shape[1]
    q = size - degree - 1
    # The clamped ends sit at 0 and 1, so a point's interval index is
    # degree plus the count of interior knots at or below it.
    span = np.full((c, n), degree)
    for i in range(degree + 1, q):
        span += x >= knots[:, i : i + 1]
    np.minimum(span, q - 1, out=span)
    # Flat indices into the raveled knots and output rows of each point.
    at = span + (size * np.arange(c))[:, None]
    flat_knots = knots.ravel()
    # right[k - 1] = t[span + k] - x and left[k - 1] = x - t[span + 1 - k].
    right = [flat_knots[at + k] - x for k in range(1, degree + 1)]
    left = [x - flat_knots[at + 1 - k] for k in range(1, degree + 1)]
    vals = [np.ones((c, n))]
    for j in range(1, degree + 1):
        saved = 0.0
        nxt = []
        for r in range(j):
            temp = vals[r] / (right[r] + left[j - r - 1])
            nxt.append(saved + right[r] * temp)
            saved = left[j - r - 1] * temp
        nxt.append(saved)
        vals = nxt
    out = np.zeros(c * n * q)
    first = span - degree + (q * np.arange(c * n)).reshape(c, n)
    for r, val in enumerate(vals):
        out[first + r] = val
    return out.reshape(c, n, q)


def default_interior_knots(n: int) -> int:
    return math.ceil(n ** (1 / 5)) + 2


def _column_quantiles(columns: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """``np.quantile(columns, probs, axis=0).T`` from one sort, bit for bit.

    numpy's "linear" method: the virtual index ``v = (n - 1) * p`` falls
    between sorted values a and b with fraction ``g = v - floor(v)``; the
    quantile is ``a + (b - a) * g``, or ``b - (b - a) * (1 - g)`` where
    ``g >= 0.5``. An index at or past n - 1 takes the largest value.
    """
    n = columns.shape[0]
    ordered = np.sort(columns, axis=0)
    virtual = (n - 1) * probs
    below = np.floor(virtual)
    frac = virtual - below
    last = virtual >= n - 1
    a = ordered[np.where(last, n - 1, below).astype(np.intp)].T
    b = ordered[np.where(last, n - 1, below + 1).astype(np.intp)].T
    gap = b - a
    return np.where(frac >= 0.5, b - gap * (1 - frac), a + gap * frac)


def _coordinate_bases(columns: np.ndarray, k: int | None) -> list[CoordinateBasis]:
    """One basis of degree DEGREE per column of ``columns`` (n x c); its
    interior knots are the column's distinct in-range quantiles of ``k``
    (default ``default_interior_knots(n)``), in order."""
    if k is None:
        k = default_interior_knots(columns.shape[0])
    cuts = np.sort(_column_quantiles(columns, np.arange(1, k + 1) / (k + 1)), axis=1)
    keep = (cuts > 1e-9) & (cuts < 1 - 1e-9)
    keep[:, 1:] &= cuts[:, 1:] != cuts[:, :-1]
    # Every row's full knot vector, cut out of one flat array.
    ends = ((0, 0), (DEGREE + 1, DEGREE + 1))
    padded = np.pad(cuts, ends, constant_values=((0, 0), (0, 1)))
    keep = np.pad(keep, ends, constant_values=True)
    rows = np.split(padded[keep], np.cumsum(keep.sum(axis=1))[:-1])
    return [CoordinateBasis(row) for row in rows]


@functools.cache
def _gauss_legendre(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(k)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _sobolev_batch(knots: np.ndarray, m: int) -> np.ndarray:
    """Smoothness penalty matrices of a batch of clamped bases.

    ``knots`` has shape (c, L). The m-th derivative of a spline is a
    spline of degree ``DEGREE - m`` on the inner knots, whose coefficients
    are a banded map of the original ones; its square is integrated by
    Gauss-Legendre quadrature on every knot interval at once (an interval
    of zero length gets zero weight).
    """
    if m > DEGREE:
        raise ValueError(f"derivative order {m} exceeds degree {DEGREE}")
    c, q = knots.shape[0], knots.shape[1] - DEGREE - 1
    op = np.broadcast_to(np.eye(q), (c, q, q))
    size = q
    t, deg = knots, DEGREE
    for _ in range(m):
        denom = t[:, deg + 1 : size + deg] - t[:, 1:size]
        scale = np.divide(deg, denom, out=np.zeros_like(denom), where=denom > 0)
        step = np.zeros((c, size - 1, size))
        band = np.arange(size - 1)
        step[:, band, band] = -scale
        step[:, band, band + 1] = scale
        op = step @ op
        t, deg, size = t[:, 1:-1], deg - 1, size - 1
    # The integrand has degree 2 * (DEGREE - m); DEGREE + 1 nodes per
    # interval are more than exact.
    nodes, weights = _gauss_legendre(DEGREE + 1)
    lo, hi = knots[:, DEGREE:q], knots[:, DEGREE + 1 : q + 1]
    half = ((hi - lo) / 2)[:, :, None]
    pts = ((hi + lo) / 2)[:, :, None] + half * nodes
    wts = (half * weights).reshape(c, -1)
    dmat = _design_batch(pts.reshape(c, -1), t, deg) @ op
    return (dmat.transpose(0, 2, 1) * wts[:, None, :]) @ dmat


def sobolev_penalty_matrix(basis: CoordinateBasis, m: int = SMOOTHNESS_ORDER) -> np.ndarray:
    """Gram matrix of the integrated squared m-th derivative.

    ``beta @ Omega @ beta`` equals the integral over [0,1] of the squared
    m-th derivative of the spline with coefficients ``beta``; computed by
    Gauss-Legendre quadrature per knot interval, which is exact for the
    piecewise-polynomial integrand.
    """
    return _sobolev_batch(basis.knots[None, :], m)[0]


DEFAULT_RHO_CONST = 0.05
DEFAULT_LAMBDA_CONST = 1.5


def default_penalties(
    n: int,
    p: int,
    *,
    rho_const: float = DEFAULT_RHO_CONST,
    lambda_const: float = DEFAULT_LAMBDA_CONST,
) -> tuple[float, float]:
    """Default smoothness and sparsity penalty levels.

    Smoothness penalty scales as n^(-m/(2m+1)) for m = SMOOTHNESS_ORDER;
    sparsity penalty as sqrt(log(max(p, 2)) / n). The default constants
    are calibrated so moderately wiggly components keep their curvature
    while pure-noise coordinates are zeroed.
    """
    if n < 2 or p < 1:
        raise ValueError("need n >= 2 and p >= 1")
    m = SMOOTHNESS_ORDER
    rho = rho_const * n ** (-m / (2 * m + 1))
    lam = lambda_const * math.sqrt(math.log(max(p, 2)) / n)
    return rho, lam


def _shrinkage_root(target: np.ndarray, half_rdp: np.ndarray, top: float) -> float:
    """The root in [0, top] of ``G(a) = sum(target / (a + half_rdp)**2) = 1``.

    ``top`` is ``sqrt(sum(target))``, so ``G(top) <= 1``; G is convex and
    decreasing, and the root is bracketed by Newton steps from below and
    chords from above on ``G**-0.5 - 1``, which is concave and increasing
    (the steps of ``_prox_zero_blocks``), with a bisection step wherever
    one of them is not finite. The steps run on the problem divided by
    ``top``, where G at the bracket's upper end is at most 1 and its sums
    cannot overflow. Either sum carries a relative rounding error of about
    (m + 5) eps for m terms, which moves the computed root by about
    ``(m + 5) eps / |G'|``; the bracket's midpoint is returned once the
    bracket is within four times that, with ``|G'|`` at the lower end,
    its largest on the bracket, or after SCREEN_ROOT_CAP steps.

    The sums run in Python floats: a block has a few terms, for which
    numpy's per-call overhead costs more than the arithmetic.
    """
    if top == 0.0:
        return 0.0
    terms = [(t / top / top, e / top) for t, e in zip(target.tolist(), half_rdp.tolist())]
    widen = 4 * (len(terms) + 5) * math.ulp(1.0)

    def sums(a: float) -> tuple[float, float]:
        g = s = 0.0
        for t, e in terms:
            den = a + e
            g += t / (den * den)
            s += t / (den * den * den)  # -G' / 2
        return g, s

    lo, hi = 0.0, 1.0
    for _ in range(SCREEN_ROOT_CAP):
        try:
            (g_lo, s_lo), (g_hi, s_hi) = sums(lo), sums(hi)
            if hi - lo <= widen / (2 * s_lo):
                break
            psi_lo = g_lo**-0.5 - 1
            gap = g_hi**-0.5 - 1 - psi_lo
            newton = lo - psi_lo / (g_lo**-1.5 * s_lo)
            chord = lo - psi_lo * (hi - lo) / gap if gap > 0 else hi
        except (OverflowError, ZeroDivisionError):
            newton = chord = math.nan
        if math.isfinite(newton) and math.isfinite(chord):
            lo, hi = max(lo, newton), min(hi, chord)
            continue
        mid = (lo + hi) / 2
        try:
            below = sums(mid)[0] > 1
        except ZeroDivisionError:  # a zero denominator: G is infinite
            below = True
        lo, hi = (mid, hi) if below else (lo, mid)
    return top * (lo + hi) / 2


def two_penalty_prox(
    z: np.ndarray, d: np.ndarray, rho: float, lam: float
) -> np.ndarray:
    """Minimizer of ||t - z||^2 + rho*sqrt(t'diag(d)t) + lam*||t||_2.

    Solved exactly in two stages: the weighted-norm shrinkage, which
    scales the penalized part by ``a / (a + rho d / 2)`` at the root a of
    ``G(a) = sum(z^2 d / (a + rho d / 2)^2) = 1`` (see
    ``_shrinkage_root``), then the Euclidean-norm shrinkage, which
    rescales without moving the weighted-norm subgradient off its cone.
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
            zp2 = np.square(zp)
            if 2 * math.sqrt(float((zp2 / dp).sum())) <= rho:
                v[pos] = 0.0
            else:
                target = zp2 * dp
                half_rdp = rho * dp / 2
                a = _shrinkage_root(target, half_rdp, math.sqrt(float(target.sum())))
                v[pos] = zp * (a / (a + half_rdp))
    vnorm = float(np.linalg.norm(v))
    if vnorm <= lam / 2:
        return np.zeros_like(z)
    return v * (1 - lam / (2 * vnorm))


def _prox_zero_blocks(
    z: np.ndarray, d: np.ndarray, starts: np.ndarray, rho: float, lam: float
) -> np.ndarray:
    """Which blocks ``two_penalty_prox`` maps to exactly zero, all at once.

    Block b has scores ``z_b = z[starts[b]:starts[b + 1]]`` and eigenvalues
    ``d_b`` over the same range; entry b of the result is
    ``not two_penalty_prox(z_b, d_b, rho, lam).any()``. The prox's
    zero tests run in closed form, and its weighted-shrinkage root is
    bracketed by Newton steps from below and chords from above on
    ``G(a)**-0.5 - 1``, which is concave and increasing in ``a``. A block
    whose answer lies within SCREEN_MARGIN of a threshold, far beyond the
    rounding of the prox's root, is passed to the prox itself.
    """
    nb = len(starts) - 1
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
        picked = np.zeros(nb, dtype=bool)
        picked[ids] = True
        el = picked[owner] & pos
        own = remap[owner[el]]
        zz_el = zz[el]
        c_el = zz_el * d[el]
        e_el = rho * d[el] / 2
        top = np.sqrt(np.bincount(own, c_el, ids.size))
        lo, hi = np.zeros(ids.size), top

        def psi(a):
            den = a[own] + e_el
            g = np.bincount(own, c_el / den**2, ids.size)
            slope = np.bincount(own, c_el / den**3, ids.size)
            return g**-0.5 - 1, g**-1.5 * slope

        def vnorm(a):
            shrink = a[own] / (a[own] + e_el)
            return np.sqrt(null2[ids] + np.bincount(own, zz_el * shrink**2, ids.size))

        # Step only the blocks still undecided whose bracket has not
        # closed; the rest are decided or go to the prox.
        for step in range(SCREEN_ROOT_CAP + 1):
            zero[ids] |= vnorm(hi) <= half - tol[ids]
            nonzero[ids] |= vnorm(lo) > half + tol[ids]
            keep = ~zero[ids] & ~nonzero[ids] & (hi > lo)
            if step == SCREEN_ROOT_CAP or not keep.any():
                break
            if not keep.all():
                el_keep = keep[own]
                own = (np.cumsum(keep) - 1)[own[el_keep]]
                zz_el, c_el, e_el = zz_el[el_keep], c_el[el_keep], e_el[el_keep]
                ids, lo, hi = ids[keep], lo[keep], hi[keep]
            psi_lo, slope = psi(lo)
            gap = psi(hi)[0] - psi_lo
            chord = lo - psi_lo * (hi - lo) / np.where(gap > 0, gap, 1.0)
            hi = np.where(gap > 0, np.minimum(hi, chord), hi)
            lo = np.maximum(lo, lo - psi_lo / slope)
    for b in np.flatnonzero(~zero & ~nonzero):
        block = slice(starts[b], starts[b + 1])
        zero[b] = not two_penalty_prox(z[block], d[block], rho, lam).any()
    return zero


@dataclass(frozen=True)
class AdditiveFit:
    """Fitted penalized additive spline model.

    Coefficient blocks are in the original per-coordinate basis;
    components are empirically centered on the training sample, with the
    common level in ``intercept``. When ``transforms`` is present,
    prediction maps raw covariates through them; otherwise inputs are
    taken as already transformed to [0,1]. Only active components are
    evaluated, so an inactive coordinate's transform may be None.
    """

    intercept: float
    coef_blocks: tuple[np.ndarray, ...]
    bases: tuple[CoordinateBasis, ...]
    penalties: tuple[float, float]  # (rho, lam), shared by every coordinate
    active_set: tuple[int, ...]
    objective_trace: tuple[float, ...]
    converged: bool
    sweeps: int
    transforms: tuple[Callable | None, ...] | None = None

    @property
    def n_coordinates(self) -> int:
        return len(self.coef_blocks)

    @property
    def active_dimension(self) -> int:
        return sum(self.bases[j].size for j in self.active_set)

    def component(self, j: int, z) -> np.ndarray:
        """Evaluate the j-th fitted component on transformed inputs."""
        return self.bases[j].design(z) @ self.coef_blocks[j]

    def predict_sum(self, x_matrix: np.ndarray, exclude: int | None = None) -> np.ndarray:
        """Intercept plus the sum of components over the given columns:
        ``predict_sums``' full sum, one column per coordinate, or with
        ``exclude=0`` its nuisance sum, the columns of coordinates 1.. only.
        ``exclude`` takes no other value."""
        if exclude not in (None, 0):
            raise ValueError(f"exclude must be None or 0, got {exclude!r}")
        x_matrix = np.atleast_2d(np.asarray(x_matrix, dtype=float))
        if exclude == 0:
            return self.predict_sums(None, x_matrix)[0]
        if x_matrix.shape[1] != self.n_coordinates:
            raise ValueError(f"expected {self.n_coordinates} columns, got {x_matrix.shape[1]}")
        return self.predict_sums(x_matrix[:, 0], x_matrix[:, 1:])[1]

    def predict_sums(
        self, x1: np.ndarray | None, x2: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(nuisance, full)``: the intercept plus the components of
        coordinates 1.. on the columns of ``x2``, and that plus component 0
        on ``x1`` (left out when ``x1`` is None).

        Each active column is mapped to [0, 1] once, through the fit's
        transforms when present (``transforms.map_columns``), and each
        component is evaluated once and added to both sums, in row blocks
        whose designs stay below GATHER_INDEX_BYTES: a component's value at
        a row does not depend on the other rows."""
        if x2.shape[1] != self.n_coordinates - 1:
            raise ValueError(f"expected {self.n_coordinates - 1} columns, got {x2.shape[1]}")
        nuisance = np.full(len(x2), self.intercept)
        full = nuisance.copy()
        cols = [j for j in self.active_set if j or x1 is not None]
        if not cols:
            return nuisance, full
        columns = [x2[:, j - 1] if j else x1 for j in cols]
        unit = np.column_stack(columns) if self.transforms is None else map_columns(
            [self.transforms[j] for j in cols], columns
        )
        for i, j in enumerate(cols):
            size = max(1, GATHER_INDEX_BYTES // (8 * self.bases[j].size))
            for start in range(0, len(unit), size):
                rows = slice(start, start + size)
                values = self.component(j, np.clip(unit[rows, i], 0.0, 1.0))
                full[rows] += values
                if j:
                    nuisance[rows] += values
        return nuisance, full


def nuisance_fit_error(
    fit_a: AdditiveFit,
    fit_b: AdditiveFit,
    truth: Callable[[np.ndarray], np.ndarray],
    fresh_x2: np.ndarray,
) -> float:
    """Worst-fold RMSE of the nuisance fit against the truth on fresh draws.

    ``fresh_x2`` holds nuisance rows, without the fits' coordinate 0. Only
    the component sums are compared, both sides net of their level, which
    separates shape error from the arbitrary constant split between
    components and intercept.
    """
    fresh_x2 = np.atleast_2d(np.asarray(fresh_x2, dtype=float))
    target = np.asarray(truth(fresh_x2), dtype=float)
    target = target - float(np.mean(target))
    errs = []
    for fit in (fit_a, fit_b):
        pred = fit.predict_sum(fresh_x2, exclude=0) - fit.intercept
        pred = pred - float(np.mean(pred))
        errs.append(float(np.sqrt(np.mean((pred - target) ** 2))))
    return max(errs)


def _whiten(columns: np.ndarray, knots: np.ndarray, first: int) -> tuple:
    """Penalty eigenvalues, eigenvector maps, transposed whitened designs,
    their column means and the coefficients of the constant 1, for a batch
    of coordinates with values ``columns`` (c, n) and knots (c, L)."""
    n = columns.shape[1]
    raw = _design_batch(columns, knots, DEGREE).transpose(0, 2, 1)
    gram = raw @ raw.transpose(0, 2, 1) / n
    d, vecs = _penalty_eigh(_sobolev_batch(knots, SMOOTHNESS_ORDER), gram, first)
    chunk = vecs.transpose(0, 2, 1) @ raw
    ones = np.ones((len(columns), vecs.shape[1], 1))
    return d, vecs, chunk, chunk.mean(axis=2), np.linalg.solve(vecs, ones)[:, :, 0]


class _WhitenedDesign:
    """Every coordinate's design in whitened, penalty-diagonal coordinates.

    Coordinate j uses ``B_j V_j``, where ``V_j`` solves the generalized
    eigenproblem of its smoothness form against its empirical Gram
    matrix: the new design has identity Gram matrix and penalty
    ``diag(d_j)``.

    Rank columns share one design. A rank column is a permutation of the
    grid ``transforms.rank_grid(n)``, given by its sort order ``order_j``.
    All rank columns have the same sorted values, hence the same quantile
    knots and smoothness form, and the same Gram matrix up to summation
    order. Their whitened design is therefore built once, on the sorted
    grid, as ``W`` (q x n); rank column j keeps only ``order_j``
    (``(B_j V)[order_j] = W.T``), so its fitted values are one scatter and
    the scores of a run of rank columns are ``resid[order[j:k]] @ W.T / n``,
    gathered and multiplied a tile of sample positions at a time (see
    ``_rank_scores``).

    The transposed designs of the other coordinates are stored; those of
    consecutive coordinates share chunks of at most STORE_CHUNK_BYTES, so
    the scores of a run of blocks take one matrix-vector product per
    chunk, and no single large array is allocated and freed per fit:
    freeing one raises glibc's mmap threshold, and later medium-sized
    arrays then stay on the heap.
    """

    def __init__(
        self,
        bases: list[CoordinateBasis],
        z_matrix: np.ndarray,
        ranked: tuple[np.ndarray, np.ndarray],
    ):
        n, p = z_matrix.shape[0], len(bases)
        self.n = n
        cols, orders = ranked  # as fit_doubly_penalized takes them
        self.orders = dict(zip(cols.tolist(), orders))
        if cols.size:
            knots = bases[cols[0]].knots[None, :]
            shared = [part[0] for part in _whiten(rank_grid(n)[None, :], knots, cols[0])]
            self.grid_basis = shared[2]
        # (store, index in it): a chunk of transposed designs, or the orders
        # of a run of rank columns.
        self.slots: list[tuple[np.ndarray, int]] = []
        eig, maps, means, consts = [], [], [], []
        j = 0
        while j < p:
            stop = j + 1
            at = int(np.searchsorted(cols, j))  # rank columns before j
            if j in self.orders:
                while stop in self.orders:
                    stop += 1
                store = orders[at : at + stop - j]
                d, vecs, _, mean, const = ([part] * (stop - j) for part in shared)
            else:
                n_knots = len(bases[j].knots)
                limit = j + max(1, STORE_CHUNK_BYTES // (8 * n * bases[j].size))
                while (stop < min(p, limit) and stop not in self.orders
                       and len(bases[stop].knots) == n_knots):
                    stop += 1
                knots = np.stack([bases[i].knots for i in range(j, stop)])
                d, vecs, store, mean, const = _whiten(z_matrix[:, j - at : stop - at].T, knots, j)
            self.slots.extend((store, i) for i in range(stop - j))
            eig.extend(d)
            maps.extend(vecs)
            means.extend(mean)
            consts.extend(const)
            j = stop
        self.eig, self.maps, self.col_means, self.const_coefs = eig, maps, means, consts
        self.starts = np.cumsum([0] + [len(d) for d in eig])
        self.eig_flat = np.concatenate(eig) if eig else np.zeros(0)

    def fitted(self, j: int, theta: np.ndarray) -> np.ndarray:
        """``B_j V_j theta``, the fitted values of coefficients ``theta`` of
        coordinate j, without building a rank column's design."""
        if j in self.orders:
            out = np.empty(self.n)
            out[self.orders[j]] = theta @ self.grid_basis
            return out
        chunk, i = self.slots[j]
        return theta @ chunk[i]

    def scores(self, j: int, k: int, resid: np.ndarray) -> np.ndarray:
        """``B_i' resid / n`` of coordinates j..k-1, concatenated."""
        parts = []
        while j < k:
            store, i = self.slots[j]
            stop = min(len(store), i + k - j)
            if j in self.orders:
                parts.append(_rank_scores(resid, store[i:stop], self.grid_basis).ravel())
            else:
                parts.append(store[i:stop].reshape(-1, self.n) @ resid)
            j += stop - i
        return np.concatenate(parts) / self.n


def _rank_scores(resid: np.ndarray, index: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``resid[index] @ basis.T`` for a 2-D int32 ``index`` (k, n), summed
    over tiles of a few hundred of the n positions, so no (k, n) buffer is
    built; indexing with the int32 array itself would also build an intp
    copy of all of it first. A tile of the gather, its indices and its
    slice of ``basis`` stay in cache, which a tile of a few whole rows of
    ``index`` would not, for ``basis`` is read once per tile. The indices
    are valid, so mode "clip" changes no value; it lets ``take`` write into
    the buffer without buffering it."""
    k, n = index.shape
    out = np.zeros((k, len(basis)))
    width = max(1, GATHER_INDEX_BYTES // (8 * k))
    gathered = np.empty(k * min(width, n))
    for start in range(0, n, width):
        tile = slice(start, start + width)
        part = gathered[: k * min(width, n - start)].reshape(k, -1)  # contiguous
        np.take(resid, index[:, tile].astype(np.intp), out=part, mode="clip")
        out += part @ basis[:, tile].T
    return out


def _reduced_eigh(omega: np.ndarray, gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched ``eigh(omega, gram)`` by reduction with the Cholesky factor."""
    inv = np.linalg.inv(np.linalg.cholesky(gram))
    inv_t = inv.transpose(0, 2, 1)
    d, w = np.linalg.eigh(inv @ omega @ inv_t)
    return d, inv_t @ w


def _penalty_eigh(
    omega: np.ndarray, gram: np.ndarray, first: int
) -> tuple[np.ndarray, np.ndarray]:
    """Penalty eigenvalues and Gram-orthonormal eigenvectors of a batch.

    A Gram matrix that is not positive definite (a coordinate with too
    few distinct values) is retried alone with a growing ridge. The
    SMOOTHNESS_ORDER null-space eigenvalues come back as rounding noise
    of either sign; they are snapped to exactly zero so that float noise
    never decides which directions are penalized.
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
    penalties: tuple[float, float],
    num_interior_knots: int | None = None,
    ranked: tuple[np.ndarray, np.ndarray] | None = None,
) -> AdditiveFit:
    """Backfitting solver for the doubly penalized additive objective.

    Minimizes ``mean((y - intercept - sum_j g_j(z_j))^2)
    + sum_j (rho * smoothness_norm(g_j) + lam * empirical_norm(g_j))``
    for ``penalties = (rho, lam)``, each component in a cubic basis with
    ``num_interior_knots`` quantile knots (default ceil(n^(1/5)) + 2),
    by block coordinate descent with exact block proximal updates;
    components are re-centered every sweep so their training means stay
    at zero. Negative penalties are rejected; a fully unpenalized fit is
    only well posed for a single coordinate.

    Coordinate ``cols[i]`` of ``ranked = (cols, orders)`` (as returned by
    ``transforms.fit_empirical``) is ``rank_grid(n)[k]`` at row
    ``orders[i][k]``; the others are the columns of ``z_matrix``, in order.

    Each sweep visits the blocks in order (Gauss-Seidel). A nonzero block
    is updated on its own. At a zero block, the scores of it and of every
    zero block before the next nonzero one come from one matrix-vector
    product per design chunk (for a run of rank columns, gathers and
    matrix products summed over tiles of the sample), and
    ``_prox_zero_blocks`` finds the first of them whose prox is nonzero;
    the sweep jumps there. The skipped
    blocks are exactly those the per-block update would have left at
    zero, and a block that stays zero leaves the residual untouched, so
    the scores stay valid across the jump: block order, sweep count,
    objective trace and active set are those of the plain per-block
    sweep, up to rounding.
    """
    z_matrix = np.atleast_2d(np.asarray(z_matrix, dtype=float))
    y = np.asarray(y, dtype=float)
    n = z_matrix.shape[0]
    cols, orders = ranked or (np.zeros(0, np.intp), np.zeros((0, n), np.intp))
    p = z_matrix.shape[1] + cols.size
    if not np.all((z_matrix >= 0) & (z_matrix <= 1)):
        raise ValueError("all inputs must lie in [0, 1]")
    rho, lam = float(penalties[0]), float(penalties[1])
    if rho < 0 or lam < 0:
        raise ValueError("penalties must be nonnegative")
    if rho == 0 and lam == 0 and p > 1:
        raise RankDeficientError(
            "zero penalties with several coordinates leave the stacked basis singular"
        )
    if num_interior_knots is not None and num_interior_knots < 0:
        raise ValueError("num_interior_knots must be >= 0")

    # Rank columns sort to rank_grid(n) exactly, so they share its basis;
    # only the other columns are sorted for their knots.
    shared = _coordinate_bases(rank_grid(n)[:, None], num_interior_knots)[0]
    own = iter(_coordinate_bases(z_matrix, num_interior_knots))
    bases = [shared if j else next(own) for j in np.isin(np.arange(p), cols)]
    design = _WhitenedDesign(bases, z_matrix, (cols, orders))
    starts = design.starts
    thetas = [np.zeros(b.size) for b in bases]
    active = np.zeros(p, dtype=bool)
    intercept = float(np.mean(y))
    resid = y - intercept

    def objective() -> float:
        val = float(np.mean(resid**2))
        for j in np.flatnonzero(active):
            th = thetas[j]
            val += rho * math.sqrt(float(th @ (design.eig[j] * th)))
            val += lam * float(np.linalg.norm(th))
        return val

    def update(j: int, z: np.ndarray | None = None) -> None:
        nonlocal intercept, resid
        if active[j]:
            resid += design.fitted(j, thetas[j])
        if z is None:
            z = design.scores(j, j + 1, resid)
        th_new = two_penalty_prox(z, design.eig[j], rho, lam)
        if th_new.any():
            shift = float(design.col_means[j] @ th_new)
            if shift != 0.0:
                th_new = th_new - shift * design.const_coefs[j]
                intercept += shift
            resid -= design.fitted(j, th_new)
        thetas[j] = th_new
        active[j] = th_new.any()

    trace = [objective()]
    converged = False
    sweeps = 0
    for sweeps in range(1, MAX_SWEEPS + 1):
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
                rho,
                lam,
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
        if abs(trace[-2] - trace[-1]) <= FIT_TOL * max(abs(trace[-2]), 1e-12):
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
        penalties=(rho, lam),
        active_set=active_set,
        objective_trace=tuple(trace),
        converged=converged,
        sweeps=sweeps,
    )
