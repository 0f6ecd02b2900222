"""Bivariate sandwich smoothing on a rectangular grid.

The fit applies one univariate penalized-spline smoother along each axis of
the data matrix: Yhat = S1 @ Y @ S2.  Stacking columns turns this into the
Kronecker smoother (S2 kron S1) vec(Y), but neither Kronecker factor is ever
formed.  With each axis reduced to its spectrum (see spectra), the residual
sum of squares and the smoother trace for any (lam1, lam2) pair come from a
handful of c1 x c2 array reductions, so a full grid search over hundreds of
candidate pairs costs little more than a single fit.  That search is written
once, for any number of axes; the array, covariance and scatter fits use it.

Selection uses GCV = (SSE/n) / (1 - edf/n)^2, the standard form, with
edf = tr(S1) * tr(S2).  The raw (SSE, edf) pair is kept on the result so
alternative scores can be computed downstream.  Coefficients are solved only
for the winning pair: Theta = F1 @ (shrink1 * Ytilde * shrink2) @ F2.T with
F_i the per-axis coefficient maps, which is the penalized normal-equation
solution without any c1*c2-sized linear system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .basis import AxisSpec, auto_knot_segments, eval_basis, make_knots
from .spectra import AxisSpectrum, axis_spectrum, shrink_weights

__all__ = [
    "DegenerateFit",
    "GridData",
    "LambdaGrid",
    "SandwichFit",
    "transform_data",
    "sse_terms",
    "sse_fast",
    "gcv_score",
    "select_lambda",
    "solve_coefficients",
    "predict",
]

# Tiny negative SSE values are cancellation noise from the three-term form;
# anything below -SSE_CLAMP_REL * y'y signals an implementation bug.
SSE_CLAMP_REL = 1e-9


class DegenerateFit(ValueError):
    """The smoother spends as many degrees of freedom as there are data."""


def require_finite(name: str, values: np.ndarray) -> None:
    """Raise ValueError naming the first non-finite entry of values."""
    finite = np.isfinite(values)
    if not finite.all():
        idx = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise ValueError(f"{name}[{', '.join(map(str, idx))}] is {values[idx]}; "
                         "values must be finite")


@dataclass(frozen=True)
class GridData:
    """Finite responses on a rectangular grid, sorted coordinates in [0, 1]."""

    Y: np.ndarray
    x_coords: np.ndarray
    z_coords: np.ndarray

    def __post_init__(self):
        Y = np.asarray(self.Y, dtype=float)
        x = np.asarray(self.x_coords, dtype=float)
        z = np.asarray(self.z_coords, dtype=float)
        if Y.ndim != 2:
            raise ValueError(f"Y must be a matrix, got ndim={Y.ndim}")
        if Y.shape != (x.size, z.size):
            raise ValueError(
                f"Y is {Y.shape} but coordinates imply {(x.size, z.size)}"
            )
        for name, c in (("Y", Y), ("x_coords", x), ("z_coords", z)):
            require_finite(name, c)
        for name, c in (("x_coords", x), ("z_coords", z)):
            if c.size == 0:
                raise ValueError(f"{name} is empty")
            if c[0] < 0.0 or c[-1] > 1.0 or np.any(np.diff(c) <= 0):
                raise ValueError(f"{name} must be strictly increasing within [0, 1]")
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "x_coords", x)
        object.__setattr__(self, "z_coords", z)

    @property
    def shape(self) -> tuple[int, int]:
        return self.Y.shape

    @property
    def n(self) -> int:
        return self.Y.size


@dataclass(frozen=True)
class LambdaGrid:
    """Per-axis candidate smoothing parameters, all strictly positive."""

    lambda_x: np.ndarray
    lambda_z: np.ndarray

    def __post_init__(self):
        lx = np.atleast_1d(np.asarray(self.lambda_x, dtype=float))
        lz = np.atleast_1d(np.asarray(self.lambda_z, dtype=float))
        for name, arr in (("lambda_x", lx), ("lambda_z", lz)):
            if arr.size == 0:
                raise ValueError(f"{name} is empty")
            if np.any(arr <= 0):
                raise ValueError(f"{name} must be strictly positive")
        object.__setattr__(self, "lambda_x", lx)
        object.__setattr__(self, "lambda_z", lz)

    @classmethod
    def default(cls, count: int = 20, log10_low: float = -5.0,
                log10_high: float = 4.0) -> "LambdaGrid":
        lams = np.logspace(log10_low, log10_high, count)
        return cls(lams, lams.copy())


@dataclass(frozen=True)
class SandwichFit:
    """Result of a grid-search sandwich fit."""

    lambdas: tuple[float, float]
    Theta: np.ndarray
    fitted: np.ndarray
    gcv_value: float
    edf: float
    sse: float
    gcv_surface: np.ndarray
    grid: LambdaGrid
    specs: tuple[AxisSpec, AxisSpec]


def transform_data(data: GridData, sx: AxisSpectrum,
                   sz: AxisSpectrum) -> tuple[np.ndarray, float]:
    """Project Y onto the orthonormal axis bases: Ytilde = A1' Y A2.

    Returns (Ytilde, y'y).  Computed once per dataset; every candidate
    (lam1, lam2) reuses the pair.
    """
    Y = data.Y
    if sx.n_points != Y.shape[0] or sz.n_points != Y.shape[1]:
        raise ValueError(
            f"spectra built for {(sx.n_points, sz.n_points)} points "
            f"but Y is {Y.shape}"
        )
    Ytilde = sx.A.T @ Y @ sz.A
    yty = float(np.sum(Y * Y))
    return Ytilde, yty


def sse_terms(Ytilde: np.ndarray, yty: float, s1: np.ndarray, s2: np.ndarray,
              lam1: float, lam2: float) -> tuple[float, float, float]:
    """The three pieces of ||Yhat - Y||_F^2 = yhat'yhat - 2 yhat'y + y'y.

    With W = Ytilde**2 and per-axis shrink vectors st_i = 1/(1 + lam_i s_i):
    yhat'yhat = st1^2' W st2^2 and yhat'y = st1' W st2.  Each term is a
    c1 x c2 reduction; nothing of the data's size is touched.
    """
    st1 = shrink_weights(s1, lam1)
    st2 = shrink_weights(s2, lam2)
    W = Ytilde * Ytilde
    fit_norm = float((st1 * st1) @ W @ (st2 * st2))
    cross = float(st1 @ W @ st2)
    return fit_norm, cross, yty


def sse_fast(Ytilde: np.ndarray, yty: float, s1: np.ndarray, s2: np.ndarray,
             lam1: float, lam2: float) -> float:
    """Residual sum of squares at (lam1, lam2), clamped at zero."""
    fit_norm, cross, _ = sse_terms(Ytilde, yty, s1, s2, lam1, lam2)
    return float(_sse_table(fit_norm, cross, yty))


def gcv_score(sse: float, edf: float, n: int) -> float:
    """GCV = (SSE/n) / (1 - edf/n)^2."""
    if n <= 0:
        raise ValueError("n must be positive")
    if edf < 0:
        raise ValueError("edf must be nonnegative")
    if edf >= n:
        raise DegenerateFit(f"edf = {edf} >= n = {n}: nothing left to validate")
    return (sse / n) / (1.0 - edf / n) ** 2


def _scale_exponent(values: np.ndarray) -> int:
    """e with max|values| * 2^-e in [0.5, 1), except that e stops at -1022
    so that 2^-e is finite.  GCV selection is scale-free, so fits run on
    values * 2^-e: no square overflows, and scaling by a power of two is
    exact."""
    return max(math.frexp(float(max(values.max(), -values.min())))[1], -1022)


def _unscale(e, *squares):
    """Squared quantities of a fit on values * 2^-e, scaled back; those
    past the float range read inf."""
    with np.errstate(over="ignore"):
        return [np.ldexp(v, 2 * e) for v in squares]


def _shrink_table(lams, s):
    """Row i holds the spectral shrinkage 1/(1 + lams[i] s) of one candidate."""
    return 1.0 / (1.0 + np.outer(lams, s))


def _contract(W, tables):
    """out[i_1, ..., i_d] = sum_c W[c_1, ..., c_d] prod_k tables[k][i_k, c_k],
    the first axis first; for d = 2 this is (T1 @ W) @ T2'."""
    out = (tables[0] @ W.reshape(W.shape[0], -1)).reshape((-1,) + W.shape[1:])
    for k, table in enumerate(tables[1:], start=1):
        out = np.moveaxis(np.moveaxis(out, k, -1) @ table.T, -1, k)
    return out


def _sse_table(fit_norm, cross, yty):
    """SSE = yhat'yhat - 2 yhat'y + y'y at every candidate (or at one), with
    the fast form's cancellation noise clamped at zero; anything more raises."""
    sse = np.asarray(fit_norm - 2.0 * cross + yty)
    if sse.min() < -SSE_CLAMP_REL * yty:
        raise FloatingPointError(
            f"SSE as low as {sse.min()} among the candidates; "
            "the spectral decomposition is inconsistent"
        )
    return np.maximum(sse, 0.0, out=sse)


def _gcv(sse, shrink, n):
    """(GCV, edf) at every candidate tuple: edf is the product of the shrink
    tables' traces, GCV = (SSE/n) / (1 - edf/n)^2, and +inf where edf >= n,
    so a table with some usable candidates still selects."""
    edf = reduce(np.multiply.outer, [st.sum(axis=1) for st in shrink])
    gcv = np.full(sse.shape, np.inf)
    usable = edf < n
    gcv[usable] = (sse[usable] / n) / (1.0 - edf[usable] / n) ** 2
    return gcv, edf


def _pick(gcv, n, lams):
    """Index tuple of the smallest GCV, lams holding one candidate list per
    axis; exact ties go to the largest lambda tuple in lexicographic order,
    so repeated runs pick one deterministic winner."""
    best = gcv.min()
    if not np.isfinite(best):
        raise DegenerateFit(f"every candidate has edf >= n = {n}")
    ties = np.argwhere(gcv == best)
    idx = max(ties, key=lambda t: tuple(l[i] for l, i in zip(lams, t)))
    return tuple(int(i) for i in idx)


def _gcv_table(W, yty, spectra_s, lams, n):
    """(GCV, edf) tables over the candidate tuples lams (one list per axis),
    with W = Ytilde**2 and spectra_s each axis's penalty eigenvalues."""
    shrink = [_shrink_table(l, s) for l, s in zip(lams, spectra_s)]
    sse = _sse_table(_contract(W, [st * st for st in shrink]),
                     _contract(W, shrink), yty)
    return _gcv(sse, shrink, n)


def _refined_axis(lams, idx, count):
    """Log-spaced refinement bracket around lams[idx] (clipped at the ends)."""
    order = np.argsort(lams)
    pos = int(np.nonzero(order == idx)[0][0])
    lo = lams[order[max(pos - 1, 0)]]
    hi = lams[order[min(pos + 1, lams.size - 1)]]
    return np.geomspace(lo, hi, count)


def select_lambda(data: GridData, specs: tuple[AxisSpec, AxisSpec] | None = None,
                  grid: LambdaGrid | None = None, fine_pass: int = 0) -> SandwichFit:
    """Grid-search GCV fit of the sandwich smoother.

    When specs is None each axis gets a cubic spline with a second-order
    difference penalty and the automatic knot count for its length.  With
    fine_pass = r > 0 a second r x r log-spaced search runs between the
    coarse winner's neighboring grid values; the reported gcv_surface is
    always the coarse one.
    """
    if specs is None:
        specs = (AxisSpec(knot_segments=auto_knot_segments(data.shape[0])),
                 AxisSpec(knot_segments=auto_knot_segments(data.shape[1])))
    if grid is None:
        grid = LambdaGrid.default()
    sx = axis_spectrum(data.x_coords, specs[0])
    sz = axis_spectrum(data.z_coords, specs[1])
    e = _scale_exponent(data.Y)
    Ys = np.ldexp(data.Y, -e)
    Ytilde, yty = transform_data(GridData(Ys, data.x_coords, data.z_coords), sx, sz)
    W = Ytilde * Ytilde
    n = data.n

    lams = (grid.lambda_x, grid.lambda_z)
    gcv, edf = _gcv_table(W, yty, (sx.s, sz.s), lams, n)
    i, j = _pick(gcv, n, lams)
    l1, l2, edf_best = float(lams[0][i]), float(lams[1][j]), edf[i, j]
    if fine_pass > 0:
        fine = (_refined_axis(lams[0], i, fine_pass),
                _refined_axis(lams[1], j, fine_pass))
        fgcv, fedf = _gcv_table(W, yty, (sx.s, sz.s), fine, n)
        if fgcv.min() <= gcv[i, j]:
            fi, fj = _pick(fgcv, n, fine)
            l1, l2, edf_best = float(fine[0][fi]), float(fine[1][fj]), fedf[fi, fj]

    st1 = shrink_weights(sx.s, l1)
    st2 = shrink_weights(sz.s, l2)
    core = st1[:, None] * Ytilde * st2[None, :]
    fitted = sx.A @ core @ sz.A.T
    Theta = sx.coef_map @ core @ sz.coef_map.T
    # The surface keeps the fast-form scores that drove selection; the
    # reported sse/gcv are recomputed from the returned fitted values so
    # they are exact for the artifact (the fast form carries cancellation
    # noise of order eps * y'y, visible when the fit is near-perfect).
    # The grid-sized arrays are updated in place, so the scaling costs no
    # more memory than the unscaled fit.
    Ys -= fitted
    Ys **= 2
    sse_exact = float(np.sum(Ys))
    sse_exact, gcv_exact, gcv = _unscale(
        e, sse_exact, gcv_score(sse_exact, edf_best, n), gcv)
    return SandwichFit(
        lambdas=(l1, l2),
        Theta=np.ldexp(Theta, e),
        fitted=np.ldexp(fitted, e, out=fitted),
        gcv_value=float(gcv_exact),
        edf=float(edf_best),
        sse=float(sse_exact),
        gcv_surface=gcv,
        grid=grid,
        specs=specs,
    )


def solve_coefficients(data: GridData, sx: AxisSpectrum, sz: AxisSpectrum,
                       lam1: float, lam2: float) -> np.ndarray:
    """Penalized tensor-product coefficients at a fixed (lam1, lam2).

    Theta = F1 @ (st1 * Ytilde * st2) @ F2' with F_i the coefficient maps;
    two thin matrix products per side, no c1*c2 x c1*c2 system.
    """
    Ytilde, _ = transform_data(data, sx, sz)
    st1 = shrink_weights(sx.s, lam1)
    st2 = shrink_weights(sz.s, lam2)
    core = st1[:, None] * Ytilde * st2[None, :]
    return sx.coef_map @ core @ sz.coef_map.T


def predict(Theta: np.ndarray, specs: tuple[AxisSpec, AxisSpec],
            x: float, z: float) -> float:
    """Evaluate the fitted surface at one point of [0, 1]^2.

    Only the (p1+1) x (p2+1) block of coefficients whose basis functions
    cover (x, z) enters the tensor product.
    """
    spec_x, spec_z = specs
    bx = eval_basis(make_knots(spec_x), spec_x.degree, x)
    bz = eval_basis(make_knots(spec_z), spec_z.degree, z)
    seg_x = min(int(x * spec_x.knot_segments), spec_x.knot_segments - 1)
    seg_z = min(int(z * spec_z.knot_segments), spec_z.knot_segments - 1)
    wx = slice(seg_x, seg_x + spec_x.degree + 1)
    wz = slice(seg_z, seg_z + spec_z.degree + 1)
    return float(bx[wx] @ Theta[wx, wz] @ bz[wz])
