"""Smoothing scattered data by binning it onto a regular grid.

Scattered observations on the unit square are averaged within the cells of
an I1 x I2 rectangular partition, turning the problem into a grid fit at
the bin centers.  At a fixed (lambda1, lambda2), the fixed point of "fit,
overwrite the empty cells with the fitted values, refit" is the penalized
fit with 0/1 cell weights O, (B'OB + P_lambda) theta = B'Oy (Currie,
Durban & Eilers, JRSS-B 2006); it is solved directly.  Lambda selection
scores only occupied cells: per-row masked Grams, summed once from the row
blocks of B2, score every candidate pair in closed form and also apply the
weighted term of the solve.  The trace keeps the full-grid product form;
the GCV and tie rule are the grid fit's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import AxisSpec
from .sandwich2d import (
    DegenerateFit,
    GridData,
    LambdaGrid,
    SandwichFit,
    _axis_spectra,
    _contract,
    _expand,
    _expand_axis,
    _gcv,
    _pick,
    _project,
    _project_axis,
    _resolve,
    _scale_exponent,
    _shrink_table,
    _sse_table,
    _sum_sq,
    _unscale,
    gcv_score,
    require_finite,
    select_lambda,
)
from .spectra import GRAM_RTOL, shrink_weights

# Conjugate gradients stop at a relative residual of CG_RTOL; a fit counts
# as converged only if its chosen solve ended at most at CONVERGED_RTOL.
CG_RTOL = 1e-13
CONVERGED_RTOL = 1e-10

__all__ = [
    "ScatterData",
    "BinnedGrid",
    "ScatterFit",
    "auto_bin_count",
    "bin_scatter",
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
            outside = (c < 0.0) | (c > 1.0)
            if outside.any():
                i = int(np.argmax(outside))
                raise ValueError(f"{name}[{i}] is {c[i]}; coordinates must lie "
                                 "within [0, 1]")
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
    """Grid fit of binned data and the facts of the search that chose it
    (the fields are defined in iterative_fit)."""

    fit: SandwichFit
    binned: BinnedGrid
    iterations: int
    converged: bool
    changes: tuple[float, ...]
    masked_sse: float
    masked_gcv: float
    n_occupied: int
    cycled: bool = False


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


def _expand_rows(T, sp):
    """B F T along the second-to-last axis: F, then B through its row blocks."""
    return _expand_axis(sp.coef_map @ T, T.ndim - 2, sp.blocks, sp.n_points)


def _project_rows(X, sp):
    """F' B' X along the first axis: B' through its row blocks, then F'."""
    return sp.coef_map.T @ _project_axis(X, 0, sp.blocks, sp.n_basis)


@dataclass(frozen=True)
class _MaskedGram:
    """Fixed pieces of the masked SSE, with O the occupied mask, B2 F2 the
    second axis's orthonormal basis and Y a grid holding the binned means:
    gram[a] = F2' B2' diag(O[a, :]) B2 F2, one c2 x c2 Gram per grid row;
    cross = (O * Y) B2 F2; yty = the sum of Y^2 over occupied cells."""

    occupied: np.ndarray
    gram: np.ndarray
    cross: np.ndarray
    yty: float


def _masked_gram(Y, occupied, sz) -> _MaskedGram:
    """The _MaskedGram of working grid Y under the occupied mask.  Each row
    block of B2 adds B' diag(O[a, rows]) B to row a's Gram, all rows in one
    product of O with the block's B[k, p] B[k, q]; then G -> F2' G F2."""
    Yo, O, F = np.where(occupied, Y, 0.0), occupied.astype(float), sz.coef_map
    gram = np.zeros((O.shape[0],) + F.shape)
    for rows, cols, B in sz.blocks:
        gram[:, cols, cols] += np.tensordot(O[:, rows], np.einsum("kp,kq->kpq", B, B), 1)
    np.matmul(F.T, gram @ F, out=gram)
    return _MaskedGram(occupied, gram, _project_axis(Yo, 1, sz.blocks, len(F)) @ F,
                       _sum_sq(Yo))


def _null_columns(sp):
    """B F's columns of zero penalty eigenvalue: the null space at the points."""
    return _expand_axis(sp.coef_map[:, sp.s == 0], 0, sp.blocks, sp.n_points)


def _require_determined(occupied, sx, sz) -> None:
    """Raise DegenerateFit unless the occupied cells determine the penalty
    null space, the tensor polynomials the penalty leaves free (1, x, z, xz
    for second differences): else the weighted fit is singular and any
    extrapolation of that part would be arbitrary."""
    null = np.einsum("ip,jq->ijpq", _null_columns(sx), _null_columns(sz))
    on_occupied = null[occupied].reshape(int(occupied.sum()), -1)
    w = np.linalg.eigvalsh(on_occupied.T @ on_occupied)
    if w[0] <= GRAM_RTOL * w[-1]:
        rows, cols = occupied.any(axis=1).sum(), occupied.any(axis=0).sum()
        raise DegenerateFit(
            f"{occupied.sum()} occupied cells, in {rows} of {occupied.shape[0]} "
            f"rows and {cols} of {occupied.shape[1]} columns, cannot determine "
            f"the polynomial part of the fit the penalty leaves free "
            f"(eigenvalue ratio {w[0] / w[-1]:.2e})")


def _masked_sse_table(Y, masked, sx, sz, lam1, lam2):
    """Masked SSE at every (lam1[i], lam2[j]) pair, shape (len(lam1), len(lam2)).

    With A_k = B_k F_k, row a of the fit at (lam1[i], lam2[j]) is
    A2 (st2_j * P_i[a]) with P_i = A1 (st1_i * A1' Y A2), so the SSE over
    occupied cells is st2_j' M_i st2_j - 2 st2_j . sum_a (P_i[a] * cross[a])
    + yty with M_i = sum_a (P_i[a] P_i[a]') * gram[a]: the weighted inner
    products of Currie, Durban & Eilers (2006) with 0/1 weights.  The work
    is O(L1 n1 c2^2); no smoother is applied per pair."""
    st1 = _shrink_table(lam1, sx.s)  # L1 x c1
    st2 = _shrink_table(lam2, sz.s)  # L2 x c2
    P = _expand_rows(st1[:, :, None] * _project(Y, (sx, sz)), sx)  # L1 x n1 x c2
    M = np.einsum("iak,ial,akl->ikl", P, P, masked.gram)
    fit_norm = np.einsum("jk,ikj->ij", st2, M @ st2.T)
    cross = np.einsum("iak,ak->ik", P, masked.cross) @ st2.T
    return _sse_table(fit_norm, cross, masked.yty)


def _masked_search(Y, masked, sx, sz, lam1, lam2, n_eff):
    """Index pair (i, j) of the smallest GCV over the lambda grid, from the
    occupied-cell SSE of _masked_sse_table and the full-grid edf."""
    sse = _masked_sse_table(Y, masked, sx, sz, lam1, lam2)
    gcv, _ = _gcv(sse, [_shrink_table(lam1, sx.s), _shrink_table(lam2, sz.s)],
                  n_eff)
    return _pick(gcv, n_eff, (lam1, lam2))


def _weighted_term(T, masked, sx):
    """A1' (O * (A1 T A2')) A2 with A_k = B_k F_k, row a of A1 T weighted
    by its masked Gram; A1 and A1' go through the row blocks of B1."""
    return _project_rows((masked.gram @ _expand_rows(T, sx)[:, :, None])[:, :, 0], sx)


def _weighted_solve(theta, rhs, masked, sx, shrink):
    """Solve _weighted_term(Theta) + (1/shrink - 1) * Theta = rhs, the
    0/1-weighted fit in spectral coordinates (shrink = st1 (x) st2), by
    conjugate gradients from theta, preconditioned with shrink.  Returns
    (Theta, |shrink * r| / |shrink * rhs|); shrink * r is the fixed-point
    gap S Y - fit of the filled grid Y, in spectral coordinates."""
    with np.errstate(divide="ignore"):  # shrink underflows to 0 at huge lambda
        penalty = np.minimum(1.0 / shrink, np.finfo(float).max) - 1.0

    def apply(T):
        return _weighted_term(T, masked, sx) + penalty * T

    norm = np.linalg.norm(shrink * rhs) or 1.0
    r = rhs - apply(theta)
    z = shrink * r
    p, rz = z, np.vdot(r, z)
    for _ in range(rhs.size):
        if np.linalg.norm(z) <= CG_RTOL * norm:
            break
        q = apply(p)
        alpha = rz / np.vdot(p, q)
        theta = theta + alpha * p
        r = r - alpha * q
        z = shrink * r
        rz, rz_old = np.vdot(r, z), rz
        p = z + (rz / rz_old) * p
    return theta, float(np.linalg.norm(shrink * (rhs - apply(theta))) / norm)


def iterative_fit(
    data: ScatterData,
    i1: int | None = None,
    i2: int | None = None,
    specs: tuple[AxisSpec, AxisSpec] | None = None,
    grid: LambdaGrid | None = None,
    *,
    init: str = "nearest",
    fill_m: int = 3,
    max_iter: int = 20,
) -> ScatterFit:
    """Bin scattered data and fit, imputing empty cells exactly.

    With no empty cells this is the grid fit of the binned means.  Else
    each pass picks a lambda pair by masked GCV on the working grid (zeros
    in the empty cells at first), solves the weighted fit there, warm
    started, and fills the empty cells from it, which makes the grid that
    pair's fixed point.  Passes stop when a pair repeats; a repeat of an
    earlier pair (a cycle) takes the cycle's pair of smallest masked GCV,
    scored at its own fixed point, and sets `cycled`.  `iterations` counts
    searches (at most max_iter), `changes` holds each solve's relative
    residual, and `converged` means the pair repeated and the chosen solve
    ended at most at CONVERGED_RTOL.  `init` ('nearest' or 'zero') and
    `fill_m` (>= 1) are validated but have no effect.  Raises DegenerateFit
    when empty cells exist and the occupied ones cannot determine the fit.
    """
    if data.n == 0:
        raise ValueError("cannot fit zero observations")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if init not in ("zero", "nearest"):
        raise ValueError(f"unknown init {init!r}; use 'zero' or 'nearest'")
    if fill_m < 1:
        raise ValueError("fill_m must be at least 1")
    if i1 is None:
        i1 = auto_bin_count(data.n)
    if i2 is None:
        i2 = auto_bin_count(data.n)
    binned = bin_scatter(data, i1, i2)
    specs, (lam1, lam2) = _resolve(
        (i1, i2), specs, None if grid is None else (grid.lambda_x, grid.lambda_z))

    occupied = ~binned.empty_mask
    n_eff = int(occupied.sum())
    if n_eff == binned.means.size:
        gdata = GridData(binned.means, binned.x_centers, binned.z_centers)
        fit = select_lambda(gdata, specs, LambdaGrid(lam1, lam2))
        return ScatterFit(fit, binned, 1, True, (), fit.sse, fit.gcv_value, n_eff)

    # as in select_lambda, the passes work on Y * 2^-e
    e = _scale_exponent(data.y)
    means = np.where(occupied, np.ldexp(binned.means, -e), 0.0)
    sx, sz = _axis_spectra((binned.x_centers, binned.z_centers), specs)
    _require_determined(occupied, sx, sz)
    masked = _masked_gram(means, occupied, sz)
    rhs = _project_rows(masked.cross, sx)

    # solved[(i, j)] = (masked GCV, masked SSE, filled grid, residual) at
    # the pair's own fixed point, in solve order
    solved: dict = {}
    Y, theta, repeat = means, np.zeros_like(rhs), None
    for searches in range(1, max_iter + 1):
        pair = _masked_search(Y, masked, sx, sz, lam1, lam2, n_eff)
        if pair in solved:
            repeat = pair
            break
        st1 = shrink_weights(sx.s, lam1[pair[0]])
        st2 = shrink_weights(sz.s, lam2[pair[1]])
        theta, resid = _weighted_solve(theta, rhs, masked, sx, np.outer(st1, st2))
        fitted = _expand(_contract(theta, (sx.coef_map, sz.coef_map)), (sx, sz))
        Y = np.where(occupied, means, fitted)
        sse = _sum_sq(fitted, Y)  # exactly 0 in the empty cells
        solved[pair] = (gcv_score(sse, st1.sum() * st2.sum(), n_eff), sse, Y, resid)

    order = list(solved)
    cycle = order[order.index(repeat):] if repeat is not None else order[-1:]
    best = min(cycle, key=lambda p: solved[p][0])
    gcv_val, sse_val, Y, resid = solved[best]
    gdata = GridData(np.ldexp(Y, e), binned.x_centers, binned.z_centers)
    fit = select_lambda(gdata, specs, LambdaGrid([lam1[best[0]]], [lam2[best[1]]]))
    masked_sse, masked_gcv = _unscale(e, sse_val, gcv_val)
    return ScatterFit(fit, binned, iterations=searches,
                      converged=repeat is not None and resid <= CONVERGED_RTOL,
                      changes=tuple(solved[p][3] for p in order),
                      masked_sse=float(masked_sse), masked_gcv=float(masked_gcv),
                      n_occupied=n_eff, cycled=len(cycle) > 1)
