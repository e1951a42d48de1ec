"""Monotone maps from covariates to [0,1] for the spline additive fit.

Two variants: the rank-based empirical CDF, whose training values lie
on the grid ``rank_grid(n)`` = k/(n+1), k = 1..n, with ties at the top
rank of their group (strictly inside (0,1), where spline bases do not
degenerate), and a user-supplied exact CDF (such as a ``GaussianCDF``).
``fit_empirical`` transforms the training columns of a matrix, or of a
sequence of columns, and returns a column without ties, a permutation of
that grid, as its sort order. ``map_columns`` maps any columns through
exact CDFs or fitted transforms, one per column.
``ndtr``, the standard normal CDF, is scipy's Cephes ``ndtr`` evaluated
in numpy, so no path of the package imports scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


# ndtr maps its input in blocks of this many entries, whose temporaries
# stay in cache: a 200 x 301 fold matrix maps ~20% faster than whole
# (4096-entry blocks gain nothing: each block pays ~100 fixed-cost calls).
_BLOCK = 8192

# Cephes' rational approximations of erf and erfc (S. L. Moshier, Methods
# and Programs for Mathematical Functions, 1989; file ndtr.c), which scipy
# evaluates for ``scipy.special.ndtr``: numerators, and denominators
# without their leading 1, highest degree first.
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2  # log of the largest double
_ERF_NUM = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
            7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_DEN = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
            2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_NUM = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
             4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
             9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_DEN = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
             9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
             1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_FAR_NUM = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
                 6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_FAR_DEN = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
                 1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)


def _scaled_ratio(scale, x: np.ndarray, num, den) -> np.ndarray:
    """``scale * num(x) / den(x)`` in Cephes' order of operations: Horner's
    rule (its ``polevl``, and ``p1evl`` for the monic ``den``)."""
    p = num[0] * x
    p += num[1]
    for c in num[2:]:
        p *= x
        p += c
    q = x + den[0]
    for c in den[1:]:
        q *= x
        q += c
    p *= scale
    p /= q
    return p


def _erfc_tail(z: np.ndarray) -> np.ndarray:
    """Cephes' erfc at ``z >= 1``. The argument is clamped: erfc is 0 once
    ``z * z`` exceeds ``_MAXLOG`` (z ~ 26.6), and the polynomials must not
    overflow."""
    z = np.minimum(z, 27.0)
    arg = -z * z
    exp = np.exp(arg.astype(complex)).real  # the C library's exp; see ndtr
    out = _scaled_ratio(exp, z, _ERFC_NUM, _ERFC_DEN)
    far = np.flatnonzero(z >= 8.0)
    if far.size:
        out[far] = _scaled_ratio(exp[far], z[far], _ERFC_FAR_NUM, _ERFC_FAR_DEN)
    out[arg < -_MAXLOG] = 0.0
    return out


def ndtr(x):
    """Standard normal CDF, elementwise, in float64: ``scipy.special.ndtr``
    bit for bit, without scipy.

    It evaluates Cephes' ``ndtr`` (see the tables above): at |x| < 1,
    ``0.5 + 0.5 erf(x / sqrt 2)``; beyond, ``0.5 erfc(|x| / sqrt 2)``, or one
    minus it at x > 0; a NaN gives the canonical NaN. Every step is one
    correctly rounded operation in the C code's order, so numpy reproduces
    it, except ``exp(-z^2)`` in erfc. scipy takes that from the C library,
    and numpy's float64 ``np.exp`` uses its own SIMD kernel, which differs
    from it by 1-3 ulp on about 1% of arguments. numpy evaluates a complex
    exponential through the C library instead (``cexp``, whose real part at
    a zero imaginary part is ``exp``): the bits ``math.exp`` gives one
    element at a time, at about a fifth of its cost.
    """
    a = np.asarray(x, dtype=float)
    flat = a.ravel()
    out = np.empty(flat.size)
    for start in range(0, flat.size, _BLOCK):
        rows = slice(start, start + _BLOCK)
        out[rows] = _ndtr_block(flat[rows])
    out = out.reshape(a.shape)
    return out[()] if out.ndim == 0 else out


def _ndtr_block(flat: np.ndarray) -> np.ndarray:
    """``ndtr`` of a 1-D block of inputs."""
    z = np.abs(flat)
    z *= _SQRT1_2  # Cephes' |x * _SQRT1_2|: rounding is symmetric in sign
    far = np.flatnonzero(z >= _SQRT1_2)
    zf = z[far]
    np.minimum(z, 1.0, out=z)  # erf's domain; the other entries stay finite
    out = _scaled_ratio(z, z * z, _ERF_NUM, _ERF_DEN)
    erfc = 1.0 - out[far]
    out *= 0.5
    np.copysign(out, flat, out=out)
    out += 0.5
    if far.size:
        tail = np.flatnonzero(zf >= 1.0)
        if tail.size:
            erfc[tail] = _erfc_tail(zf[tail])
        erfc *= 0.5
        pos = np.flatnonzero(flat[far] > 0)  # cheaper than a masked ufunc
        erfc[pos] = 1.0 - erfc[pos]
        out[far] = erfc
    nan = np.isnan(flat)
    if nan.any():
        out[nan] = np.nan
    return out


def rank_grid(n: int) -> np.ndarray:
    """The empirical CDF's levels ``k / (n + 1)``, k = 1..n."""
    return np.arange(1, n + 1) / (n + 1)


@dataclass(frozen=True)
class EmpiricalCDF:
    """Empirical CDF transform fitted on a training column.

    New values interpolate the empirical CDF piecewise-linearly between
    order statistics and are clamped to [1/(n+1), n/(n+1)]. A training
    value maps to the top rank of its tie group over n + 1 (its count of
    values at or below it).
    """

    order_stats: np.ndarray

    @classmethod
    def fit(cls, column) -> "EmpiricalCDF":
        column = np.asarray(column, dtype=float).ravel()
        if column.size < 1:
            raise ValueError("need at least one observation")
        # Sorted by argsort, as fit_empirical sorts: np.sort may order a
        # -0.0 and a 0.0 the other way round.
        return cls(column[np.argsort(column)])

    def __call__(self, x):
        grid = rank_grid(self.order_stats.size)
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.order_stats, grid, left=grid[0], right=grid[-1])
        return float(out) if out.ndim == 0 else out


def fit_empirical(x_cols) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The empirical-CDF transform of every column of ``x_cols``, applied
    to its training values, with one argsort per column.

    ``x_cols`` is an (n, c) matrix or a sequence of its c columns, each
    read once and in order, so a caller can gather one column at a time
    and never build the matrix. A tie-free (rank) column maps row
    ``order[i]`` to ``rank_grid(n)[i]``, so it is returned in
    ``ranked = (cols, orders)``, its index and sort order; ``z`` holds the
    transformed values of the others. ``ranges`` (c, 2) holds each
    column's training [min, max], outside which its transform clamps. No
    ``EmpiricalCDF`` is built for a rank column: its order statistics are
    the column gathered in its sort order. The orders are int32 below
    2**31 rows: the spline fit keeps them throughout, and half the bytes
    of the default index type suffice."""
    columns = np.asarray(x_cols, dtype=float).T if isinstance(x_cols, np.ndarray) else x_cols
    c = len(columns)
    first = np.asarray(columns[0], dtype=float) if c else np.empty(0)
    n = first.size
    if n < 1:
        raise ValueError("need at least one column and one observation")
    orders = np.empty((c, n), dtype=np.int32 if n < 2**31 else np.intp)
    ranges = np.empty((c, 2))
    tied = np.zeros(c, dtype=bool)
    z = []
    for j in range(c):
        column = np.asarray(columns[j], dtype=float) if j else first
        orders[j] = order = np.argsort(column)
        ordered = column[order]
        ranges[j] = ordered[0], ordered[-1]
        tied[j] = (ordered[1:] == ordered[:-1]).any()
        if tied[j]:
            z.append(EmpiricalCDF(ordered)(column))
    z = np.column_stack(z or [np.empty((n, 0))])
    cols = np.flatnonzero(~tied)
    return ranges, z, (cols, orders[cols] if tied.any() else orders)


def count_outside(ranges: np.ndarray, x_matrix: np.ndarray) -> int:
    """Entries of ``x_matrix`` outside the training range ``ranges[j]`` =
    (min, max) of their column j (``fit_empirical``'s ``ranges``), where
    its empirical transform clamps."""
    lo, hi = ranges.T
    return int(np.count_nonzero((x_matrix < lo) | (x_matrix > hi)))


@dataclass(frozen=True)
class KnownCDF:
    """Transform through an exact marginal CDF."""

    cdf: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x):
        out = np.asarray(self.cdf(np.asarray(x, dtype=float)), dtype=float)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class GaussianCDF:
    """CDF of a centered normal law with standard deviation ``scale``.

    A frozen value rather than a closure, so it pickles, and
    ``map_columns`` maps columns whose CDFs are all Gaussian with one
    ``ndtr`` call.
    """

    scale: float

    def __call__(self, x):
        return ndtr(np.asarray(x, dtype=float) / self.scale)


def map_columns(cdfs, x_cols) -> np.ndarray:
    """Column j of ``x_cols`` mapped through ``cdfs[j]``, an exact CDF or a
    fitted transform, as an (n, c) matrix like ``fit_empirical``'s ``z``.

    ``x_cols`` is an (n, c) matrix or a sequence of its c columns. When
    every map is a ``GaussianCDF``, one ``ndtr`` call maps all the
    columns: its cost on columns of a few hundred rows is mostly fixed."""
    x = np.asarray(x_cols if isinstance(x_cols, np.ndarray) else np.column_stack(x_cols), float)
    if len(cdfs) != x.shape[1]:
        raise ValueError(f"need one CDF per column, got {len(cdfs)} for {x.shape[1]} columns")
    if all(isinstance(cdf, GaussianCDF) for cdf in cdfs):
        return ndtr(x / np.array([cdf.scale for cdf in cdfs]))
    return np.column_stack([np.asarray(cdf(x[:, j]), dtype=float) for j, cdf in enumerate(cdfs)])
