"""Smoothing scattered data by binning it onto a regular grid.

Scattered observations on the unit square are averaged within the cells of
an I1 x I2 rectangular partition, turning the problem into a grid fit at
the bin centers.  Cells that caught no data are either filled once from
nearby observations or imputed iteratively: fit, replace empty cells with
their fitted values, refit, until the imputed values stop moving.

Smoothing-parameter selection under imputation scores only the cells that
hold real data.  The mask breaks the factorization that makes the grid-fit
SSE a pair of small inner products, so here each candidate pair applies the
two thin axis smoothers to the working matrix and sums masked residuals --
still never forming an n x n smoother.  The trace term keeps the full-grid
product form; no masked-trace correction is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import AxisSpec, auto_knot_segments
from .sandwich2d import (
    DegenerateFit,
    GridData,
    LambdaGrid,
    SandwichFit,
    require_finite,
    select_lambda,
)
from .spectra import apply_smoother, axis_spectrum, trace_smoother

# Largest distance array (empty cells x points) fill_nearest holds at once;
# near the size of a core's L2 cache, its elementwise passes run fastest.
FILL_BLOCK_BYTES = 1 << 20

__all__ = [
    "ScatterData",
    "BinnedGrid",
    "ScatterFit",
    "auto_bin_count",
    "bin_scatter",
    "fill_nearest",
    "iterative_fit",
]


@dataclass(frozen=True)
class ScatterData:
    """Point observations (x_i, z_i, y_i) with coordinates in [0, 1]^2."""

    x: np.ndarray
    z: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        z = np.asarray(self.z, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if not (x.shape == z.shape == y.shape) or x.ndim != 1:
            raise ValueError("x, z, y must be one-dimensional and equally long")
        for name, c in (("x", x), ("z", z), ("y", y)):
            require_finite(name, c)
        for name, c in (("x", x), ("z", z)):
            if c.size and (c.min() < 0.0 or c.max() > 1.0):
                raise ValueError(f"{name} coordinates must lie in [0, 1]")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.y.size


@dataclass(frozen=True)
class BinnedGrid:
    """Cell means of scattered data on an I1 x I2 partition.

    Cells with no data hold NaN in `means` and True in `empty_mask`, so an
    accidental use of an unfilled cell is loud.  Centers sit at
    ((k - 1/2)/I1, (l - 1/2)/I2).
    """

    means: np.ndarray
    counts: np.ndarray
    x_centers: np.ndarray
    z_centers: np.ndarray

    @property
    def empty_mask(self) -> np.ndarray:
        return self.counts == 0

    @property
    def shape(self) -> tuple[int, int]:
        return self.means.shape


@dataclass(frozen=True)
class ScatterFit:
    """Grid fit of binned data plus the imputation trail that produced it."""

    fit: SandwichFit
    binned: BinnedGrid
    iterations: int
    converged: bool
    changes: tuple[float, ...]
    masked_sse: float
    masked_gcv: float
    n_occupied: int


def auto_bin_count(n: int) -> int:
    """Default bins per axis: ceil(min(sqrt(n)/2, 35))."""
    return max(1, math.ceil(min(math.sqrt(n) / 2.0, 35.0)))


def _bin_index(coords: np.ndarray, n_bins: int) -> np.ndarray:
    # half-open cells [k/I, (k+1)/I); the top edge folds into the last cell
    idx = (coords * n_bins).astype(int)
    return np.minimum(idx, n_bins - 1)


def bin_scatter(data: ScatterData, i1: int, i2: int) -> BinnedGrid:
    """Average the responses within each cell of an i1 x i2 partition."""
    if i1 < 1 or i2 < 1:
        raise ValueError("bin counts must be at least 1")
    kappa = _bin_index(data.x, i1)
    ell = _bin_index(data.z, i2)
    flat = kappa * i2 + ell
    counts = np.bincount(flat, minlength=i1 * i2).reshape(i1, i2)
    sums = np.bincount(flat, weights=data.y, minlength=i1 * i2).reshape(i1, i2)
    means = np.full((i1, i2), np.nan)
    occupied = counts > 0
    means[occupied] = sums[occupied] / counts[occupied]
    return BinnedGrid(
        means=means,
        counts=counts,
        x_centers=(np.arange(i1) + 0.5) / i1,
        z_centers=(np.arange(i2) + 0.5) / i2,
    )


def fill_nearest(grid: BinnedGrid, data: ScatterData, m: int = 3) -> BinnedGrid:
    """Fill each empty cell with the mean of the m nearest raw observations.

    Nearness is Euclidean distance from the cell center; distance ties keep
    point-index order.  When fewer than m observations exist, all of them
    are used.

    Empty cells are handled in blocks whose distance array stays within
    FILL_BLOCK_BYTES.  Per block, a partition finds each cell's m-th
    smallest squared distance; the points at or below it, stably sorted by
    distance, give exactly the leading m of a full stable argsort.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if data.n == 0:
        raise ValueError("cannot fill from zero observations")
    empty = np.argwhere(grid.empty_mask)
    if empty.size == 0:
        return grid
    means = grid.means.copy()
    take = min(m, data.n)
    block = max(1, FILL_BLOCK_BYTES // (8 * data.n))
    for start in range(0, len(empty), block):
        k, l = empty[start:start + block].T
        cx = grid.x_centers[k][:, None]
        cz = grid.z_centers[l][:, None]
        d2 = (data.x - cx) ** 2 + (data.z - cz) ** 2
        kth = np.partition(d2, take - 1, axis=1)[:, take - 1:take]
        rows, cols = np.nonzero(d2 <= kth)
        # np.nonzero lists each row's candidates in index order and lexsort
        # is stable, so distance ties keep that order
        order = np.lexsort((d2[rows, cols], rows))
        rows, cols = rows[order], cols[order]
        first = np.searchsorted(rows, np.arange(k.size))
        nearest = cols[first[:, None] + np.arange(take)]
        means[k, l] = data.y[nearest].mean(axis=1)
    return BinnedGrid(means, grid.counts, grid.x_centers, grid.z_centers)


def _masked_search(Y, occupied, sx, sz, lam1, lam2, n_eff):
    """Masked-SSE GCV over the lambda grid; returns (i, j, gcv, sse, edf).

    SSE sums squared residuals over occupied cells only; edf keeps the
    full-grid trace product.
    """
    tr1 = np.array([trace_smoother(sx.s, l) for l in lam1])
    tr2 = np.array([trace_smoother(sz.s, l) for l in lam2])
    gcv = np.full((lam1.size, lam2.size), np.inf)
    sse = np.full_like(gcv, np.nan)
    for i, l1 in enumerate(lam1):
        half = apply_smoother(sx, l1, Y)  # S1 @ Y
        for j, l2 in enumerate(lam2):
            yhat = apply_smoother(sz, l2, half.T).T  # S1 @ Y @ S2
            resid = (Y - yhat)[occupied]
            sse[i, j] = resid @ resid
            edf = tr1[i] * tr2[j]
            if edf < n_eff:
                gcv[i, j] = (sse[i, j] / n_eff) / (1.0 - edf / n_eff) ** 2
    best = gcv.min()
    if not np.isfinite(best):
        raise DegenerateFit("every candidate pair has edf >= occupied-cell count")
    ties = np.argwhere(gcv == best)
    i, j = max(ties, key=lambda ij: (lam1[ij[0]], lam2[ij[1]]))
    return int(i), int(j), gcv[i, j], sse[i, j], tr1[i] * tr2[j]


def iterative_fit(
    data: ScatterData,
    i1: int | None = None,
    i2: int | None = None,
    specs: tuple[AxisSpec, AxisSpec] | None = None,
    grid: LambdaGrid | None = None,
    *,
    init: str = "nearest",
    fill_m: int = 3,
    tol: float = 1e-6,
    max_iter: int = 20,
) -> ScatterFit:
    """Bin scattered data and fit, imputing empty cells by iteration.

    With no empty cells this is exactly the grid fit of the binned means.
    Otherwise empty cells start at zero (init="zero") or at a nearest-
    observations fill (init="nearest", the default), and each round
    re-selects lambda by masked GCV, then overwrites the empty cells with
    the fitted values there, until the largest imputed-value change falls
    below tol * max|y| or max_iter rounds have run.  Non-convergence is
    reported on the result, not raised.
    """
    if data.n == 0:
        raise ValueError("cannot fit zero observations")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if i1 is None:
        i1 = auto_bin_count(data.n)
    if i2 is None:
        i2 = auto_bin_count(data.n)
    binned = bin_scatter(data, i1, i2)
    if specs is None:
        specs = (AxisSpec(knot_segments=auto_knot_segments(i1)),
                 AxisSpec(knot_segments=auto_knot_segments(i2)))
    if grid is None:
        grid = LambdaGrid.default()

    occupied = ~binned.empty_mask
    n_eff = int(occupied.sum())
    if n_eff == binned.means.size:
        gdata = GridData(binned.means, binned.x_centers, binned.z_centers)
        fit = select_lambda(gdata, specs, grid)
        return ScatterFit(fit, binned, 1, True, (), fit.sse, fit.gcv_value, n_eff)

    if init == "zero":
        Y = np.where(occupied, binned.means, 0.0)
    elif init == "nearest":
        Y = fill_nearest(binned, data, fill_m).means.copy()
    else:
        raise ValueError(f"unknown init {init!r}; use 'zero' or 'nearest'")

    sx = axis_spectrum(binned.x_centers, specs[0])
    sz = axis_spectrum(binned.z_centers, specs[1])
    scale = float(np.max(np.abs(data.y))) or 1.0
    lam1, lam2 = grid.lambda_x, grid.lambda_z

    changes: list[float] = []
    converged = False
    for _ in range(max_iter):
        i, j, gcv_val, sse_val, _edf = _masked_search(
            Y, occupied, sx, sz, lam1, lam2, n_eff
        )
        half = apply_smoother(sx, lam1[i], Y)
        yhat = apply_smoother(sz, lam2[j], half.T).T
        change = float(np.max(np.abs(yhat[~occupied] - Y[~occupied])))
        Y = np.where(occupied, binned.means, yhat)
        changes.append(change)
        if change <= tol * scale:
            converged = True
            break

    gdata = GridData(Y, binned.x_centers, binned.z_centers)
    fit = select_lambda(gdata, specs, LambdaGrid([lam1[i]], [lam2[j]]))
    return ScatterFit(
        fit=fit,
        binned=binned,
        iterations=len(changes),
        converged=converged,
        changes=tuple(changes),
        masked_sse=float(sse_val),
        masked_gcv=float(gcv_val),
        n_occupied=n_eff,
    )
