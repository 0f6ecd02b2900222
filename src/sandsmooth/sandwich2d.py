"""Bivariate sandwich smoothing on a rectangular grid.

The fit applies one univariate penalized-spline smoother along each axis of
the data matrix: Yhat = S1 @ Y @ S2.  Stacking columns turns this into the
Kronecker smoother (S2 kron S1) vec(Y), but neither Kronecker factor is ever
formed.  With each axis reduced to its spectrum (see spectra), the residual
sum of squares and the smoother trace for any (lam1, lam2) pair come from a
handful of c1 x c2 array reductions, so a full grid search over hundreds of
candidate pairs costs little more than a single fit.  The fit (projection,
search, reconstruction and exact SSE) is written once, for any number of
axes, in _SpectralFit: the array and covariance fits use it too, and the
scatter fit uses its search.

Selection uses GCV = (SSE/n) / (1 - edf/n)^2, the standard form, with
edf = tr(S1) * tr(S2).  The raw (SSE, edf) pair is kept on the result so
alternative scores can be computed downstream.  Coefficients are solved only
for the winning pair: Theta = F1 @ (shrink1 * Ytilde * shrink2) @ F2.T with
F_i the per-axis coefficient maps, which is the penalized normal-equation
solution without any c1*c2-sized linear system.

Per fit, the passes the size of the data are: the finiteness check and
the scaling exponent (min and max), the projection A1' Y A2, y'y, the
reconstruction A1 (.) A2', and the exact SSE of the returned fit.  The fit
runs on Y * 2^-e, but the power of two rides in the small per-axis factors
of the projection, so no scaled copy of the data is made.  y'y and the
exact SSE go through _sum_sq, which squares and sums one cache-sized block
at a time, so neither allocates a temporary the size of the data.
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
# Largest leaf of _sum_sq's pairwise tree: 2^17 float64 entries (1 MB), so
# a leaf's buffer stays in cache between its fill, square and sum.
SUM_LEAF = 1 << 17


class DegenerateFit(ValueError):
    """The smoother spends as many degrees of freedom as there are data."""


def require_finite(name: str, values: np.ndarray) -> None:
    """Raise ValueError naming the first non-finite entry of values.

    NaN propagates through min and max, so two reductions clear finite
    values; the data-sized mask is built only to name the offending entry.
    """
    if values.size == 0 or (np.isfinite(values.min()) and np.isfinite(values.max())):
        return
    idx = tuple(int(i) for i in np.argwhere(~np.isfinite(values))[0])
    raise ValueError(f"{name}[{', '.join(map(str, idx))}] is {values[idx]}; "
                     "values must be finite")


def require_coordinates(name: str, c: np.ndarray) -> None:
    """Raise ValueError unless c is a non-empty vector of finite values,
    strictly increasing within [0, 1], naming the first offending entry."""
    if c.ndim != 1 or c.size == 0:
        raise ValueError(f"{name} must be a non-empty vector, got shape {c.shape}")
    require_finite(name, c)
    for bad, rule in (((c < 0.0) | (c > 1.0), "lie within [0, 1]"),
                      (np.diff(c, prepend=-np.inf) <= 0, "be strictly increasing")):
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"{name}[{i}] is {c[i]}; coordinates must {rule}")


def _walk_order(a, b):
    """Axes of a, slowest first, in the memory order numpy gives a fresh
    a - b (or a * k when b is None): descending stride magnitude, C order
    winning ties and conflicts between the operands.  numpy decides it on
    two 2 x ... x 2 arrays whose strides are ordered like those of a and b.
    """
    def proxy(x):
        rank = np.argsort(np.argsort(-np.abs(x.strides), kind="stable"))
        return np.empty((2,) * x.ndim).transpose(rank)

    laid = proxy(a) if b is None else np.subtract(proxy(a), proxy(b))
    return np.argsort(np.negative(laid.strides), kind="stable")


def _fill(out, a, b, k, lo):
    """out = (a - b) * k, or a * k when b is None, over the out.size
    entries of a's C-order walk that start at entry lo.  The entries come
    as the rest of one leading-axis row, whole rows, and the start of one
    more row; the partial rows recurse on the row's own axes."""
    n = out.size
    row = math.prod(a.shape[1:])
    r, c = divmod(lo, row)
    done = 0
    if c:
        done = min(row - c, n)
        _fill(out[:done], a[r], None if b is None else b[r], k, c)
        r += 1
    full = (n - done) // row
    if full:
        block = out[done:done + full * row].reshape((full,) + a.shape[1:])
        if b is None:
            np.multiply(a[r:r + full], k, out=block)
        else:
            np.subtract(a[r:r + full], b[r:r + full], out=block)
            block *= k
        done += full * row
        r += full
    if done < n:
        _fill(out[done:], a[r], None if b is None else b[r], k, 0)


def _tree_sum(a, b, k, lo, n, buf):
    """Sum of the squared entries lo .. lo + n - 1 of a's C-order walk of
    (a - b) * k, split as numpy's pairwise summation splits them: halves
    cut at a multiple of 8 down to SUM_LEAF entries, each leaf filled into
    buf and summed by np.sum."""
    if n > SUM_LEAF:
        h = n // 2
        h -= h % 8
        return _tree_sum(a, b, k, lo, h, buf) + _tree_sum(a, b, k, lo + h, n - h, buf)
    leaf = buf[:n]
    _fill(leaf, a, b, k, lo)
    np.square(leaf, out=leaf)
    return np.sum(leaf)


def _sum_sq(a, b=None, k=1.0) -> float:
    """float(np.sum(((a - b) * k) ** 2)) bit for bit, b None reading as zero,
    without the data-sized temporary.

    numpy sums the temporary in its memory order, halving the range at a
    multiple of 8 until at most 128 entries are left.  The walk takes the
    same order (_walk_order) and the same halves, and fills each leaf of
    at most SUM_LEAF entries into one cache-sized buffer, where np.sum
    continues the same tree.  a and b may have any layout.  The buffer is
    allocated per call and the recursion holds no reference cycle, so fits
    on different threads share nothing and the operands are freed as soon
    as the caller drops them.
    """
    if a.size == 0:
        return 0.0
    order = _walk_order(a, b)
    a = a.transpose(order)
    b = None if b is None else b.transpose(order)
    return float(_tree_sum(a, b, k, 0, a.size, np.empty(min(a.size, SUM_LEAF))))


def _axis_spectra(coords, specs) -> list[AxisSpectrum]:
    """One AxisSpectrum per axis; axes with equal coordinates and spec share
    the one built for the first of them."""
    spectra = []
    for i, (c, spec) in enumerate(zip(coords, specs)):
        same = [j for j in range(i)
                if specs[j] == spec and np.array_equal(coords[j], c)]
        spectra.append(spectra[same[0]] if same else axis_spectrum(c, spec))
    return spectra


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
        require_finite("Y", Y)
        require_coordinates("x_coords", x)
        require_coordinates("z_coords", z)
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
    return _project(data.Y, (sx, sz)), _sum_sq(data.Y)


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
    the first axis first; for d = 2 this is (T1 @ W) @ T2'.  This is GLAM's
    rotated H-transform (Currie, Durban & Eilers 2006): the d-dimensional
    smoother applied one axis at a time, no Kronecker factor formed."""
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


def _project(values, spectra, e=0):
    """A_1' ... A_d' applied to values * 2^-e, one axis at a time.  The
    power of two rides in the small per-axis factors, in parts that differ
    by at most one, so that no factor or partial product leaves the normal
    range (scaling stays exact) and no scaled copy of the data is made."""
    d = len(spectra)
    return _contract(values, [np.ldexp(sp.A.T, -((e + k) // d))
                              for k, sp in enumerate(spectra)])


class _SpectralFit:
    """The smoother of values on the axes of spectra, run on values * 2^-e
    (e from _scale_exponent) so that no square overflows; GCV selection is
    scale-free.  Every candidate score and the fit share one projection."""

    def __init__(self, values, spectra):
        self.spectra, self.n = spectra, values.size
        self.e = _scale_exponent(values)
        self.Ytilde = _project(values, spectra, self.e)
        self.yty = _sum_sq(values, k=2.0 ** -self.e)

    def score(self, lams):
        """(GCV, edf) tables over the candidate tuples lams, one list per axis."""
        return _gcv_table(self.Ytilde * self.Ytilde, self.yty,
                          [sp.s for sp in self.spectra], lams, self.n)

    def finish(self, values, lambdas, edf, table):
        """(core, fitted, sse, gcv, table) of the fit at lambdas, of trace
        edf: core is Ytilde shrunk along every axis and fitted is
        A_1 ... A_d core, scaled back.  The table keeps the fast-form scores
        that drove selection; sse and gcv are exact for the returned fit
        (the fast form carries cancellation noise of order eps * y'y), with
        the SSE summed in the values' own memory order."""
        core = self.Ytilde
        for axis, (sp, lam) in enumerate(zip(self.spectra, lambdas)):
            core = core * shrink_weights(sp.s, lam).reshape(
                (-1,) + (1,) * (core.ndim - 1 - axis))
        fitted = _contract(core, [sp.A for sp in self.spectra])
        np.ldexp(fitted, self.e, out=fitted)
        order = np.argsort(np.negative(np.abs(values.strides)), kind="stable")
        sse = _sum_sq(values.transpose(order), fitted.transpose(order), 2.0 ** -self.e)
        sse, gcv, table = _unscale(self.e, sse, gcv_score(sse, edf, self.n), table)
        return core, fitted, float(sse), float(gcv), table


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
    sx, sz = spectra = _axis_spectra((data.x_coords, data.z_coords), specs)
    fit = _SpectralFit(data.Y, spectra)

    lams = (grid.lambda_x, grid.lambda_z)
    gcv, edf = fit.score(lams)
    i, j = _pick(gcv, fit.n, lams)
    l1, l2, edf_best = float(lams[0][i]), float(lams[1][j]), edf[i, j]
    if fine_pass > 0:
        fine = (_refined_axis(lams[0], i, fine_pass),
                _refined_axis(lams[1], j, fine_pass))
        fgcv, fedf = fit.score(fine)
        if fgcv.min() <= gcv[i, j]:
            fi, fj = _pick(fgcv, fit.n, fine)
            l1, l2, edf_best = float(fine[0][fi]), float(fine[1][fj]), fedf[fi, fj]

    core, fitted, sse, gcv_value, gcv = fit.finish(data.Y, (l1, l2), edf_best, gcv)
    return SandwichFit(
        lambdas=(l1, l2),
        Theta=np.ldexp(_contract(core, (sx.coef_map, sz.coef_map)), fit.e),
        fitted=fitted,
        gcv_value=gcv_value,
        edf=float(edf_best),
        sse=sse,
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
    core = shrink_weights(sx.s, lam1)[:, None] * Ytilde * shrink_weights(sz.s, lam2)
    return _contract(core, (sx.coef_map, sz.coef_map))


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
