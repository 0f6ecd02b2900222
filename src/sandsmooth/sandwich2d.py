"""Penalized-spline smoothing of grids and d-dimensional arrays, axis by axis.

The fit applies one univariate penalized-spline smoother along each axis of
the data; on a grid this is Yhat = S1 @ Y @ S2.  Stacking columns turns it
into the Kronecker smoother (S_d kron ... kron S_1) vec(Y), but no
Kronecker factor is ever formed.  With each axis reduced to its spectrum
(see spectra), the residual sum of squares and the smoother trace for any
candidate tuple come from a handful of c_1 x ... x c_d array reductions, so
a full search over hundreds of candidates costs little more than a single
fit.

One path serves grids and arrays.  ArrayData holds the values and one
coordinate vector per axis; GridData is the same class for a matrix, with
the names Y, x_coords and z_coords.  _fit runs every such fit (defaults and
checks, the projection of _SpectralFit, one search over the candidate
lists and the reconstruction) and returns one SandwichFit.  select_lambda
here and glam.fit_array are thin names over it.  The covariance fit
projects through _SpectralFit too and scores only the candidates that
share one lambda on both axes (_gcv_shared); the scatter fit uses the
projection and the pick.  Every fit takes its default specs and
candidate lists, and the candidate rule, from _resolve.

Selection uses GCV = (SSE/n) / (1 - edf/n)^2, the standard form, with edf
the product of the per-axis traces.  Exact ties go to the largest lambda
tuple.  Coefficients are solved only for the winner: Theta is the shrunk
core contracted with F_i, the per-axis coefficient maps, which is the
penalized normal-equation solution without any c_1 ... c_d sized linear
system.

Per fit, the data are read four times: the scan at construction (the data
class keeps the extremes and sum of squares, which give the scaling
exponent, the finiteness check and y'y), the projection, the
reconstruction, and the exact SSE of the returned fit.  Both data-sized
products go through each axis's design matrix B_k, kept only as row
blocks (spectra.AxisSpectrum.blocks): _project applies B_1' ... B_d',
first axis first, then the c_k x c_k maps F_k'; the F_k turn the shrunk
core into Theta, and _expand applies the B_k to it, last axis first, so
the first axis writes whole rows.  The power of two of Y * 2^-e rides in
the row blocks, and the scan and the exact SSE sum in cache-sized chunks
in memory order (_sum_sq): no temporary the size of the data, and sums
that depend on the values, shape and layout, not on BLAS threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from typing import NamedTuple, NoReturn

import numpy as np

from .basis import AxisSpec, auto_knot_segments, eval_basis, make_knots, segment_index
from .spectra import AxisSpectrum, axis_spectrum, shrink_weights

__all__ = [
    "DegenerateFit",
    "ArrayData",
    "GridData",
    "LambdaGrid",
    "SandwichFit",
    "MAX_GRID_COMBINATIONS",
    "default_lambda_grids",
    "gcv_score",
    "select_lambda",
    "predict",
]

# Tiny negative SSE values are cancellation noise from the three-term form;
# anything below -SSE_CLAMP_REL * y'y signals an implementation bug.
SSE_CLAMP_REL = 1e-9
# Most entries in one chunk of _sum_sq's walk: 2^16 float64 entries (512 KB),
# so a chunk stays in cache between its fill, square and sum.
SUM_CHUNK = 1 << 16
# Most candidate tuples one search may score.
MAX_GRID_COMBINATIONS = 100_000


class DegenerateFit(ValueError):
    """The smoother spends as many degrees of freedom as there are data."""


def require_finite(name: str, values: np.ndarray) -> None:
    """Raise ValueError naming the first non-finite entry of values.

    NaN propagates through min and max, so two reductions clear finite
    values; the data-sized mask is built only to name the offending entry.
    """
    if values.size == 0 or (np.isfinite(values.min()) and np.isfinite(values.max())):
        return
    _name_non_finite(name, values)


def _name_non_finite(name, values, rule="values must be finite", error=ValueError) -> NoReturn:
    """Raise error naming the first non-finite entry of values and rule."""
    idx = tuple(int(i) for i in np.argwhere(~np.isfinite(values))[0])
    raise error(f"{name}[{', '.join(map(str, idx))}] is {values[idx]}; {rule}")


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


def _memory_order(a) -> np.ndarray:
    """a's axes in memory order: by descending stride magnitude, C order on ties."""
    return np.argsort(np.negative(np.abs(a.strides)), kind="stable")


def _sum_sq(a, b=None, k=1.0, stats=None) -> float:
    """The sum of the squares of (a - b) * k, b None reading as zero,
    without a temporary the size of the data.

    The walk takes a's axes in memory order (_memory_order; b follows a)
    and cuts them into chunks of at most SUM_CHUNK entries: runs of whole
    sub-arrays along the first axis j whose trailing sub-arrays fit, at
    every index of the axes before j.
    Each chunk is filled into one buffer, squared in place and summed by
    np.sum, and np.sum adds the chunk sums in order.  A blocked sum is
    within Higham's bound (SIAM J. Sci. Comput. 14, 1993) of the exact
    one, and one chunk keeps np.sum's bits.  A list passed as stats (b
    None, k = 1) receives each chunk's (min, max) and the smallest square
    of its nonzero entries (inf if none).
    """
    if a.size == 0:
        return 0.0
    order = _memory_order(a)
    a = a.transpose(order)
    b = None if b is None else b.transpose(order)
    j = next(j for j in range(a.ndim) if math.prod(a.shape[j + 1:]) <= SUM_CHUNK)
    step = SUM_CHUNK // math.prod(a.shape[j + 1:])
    buf, sums = np.empty(min(a.size, SUM_CHUNK)), []
    for lead, start in product(np.ndindex(a.shape[:j]), range(0, a.shape[j], step)):
        at = lead + (slice(start, start + step),)
        part = a[at]
        x = buf[:part.size].reshape(part.shape)
        if b is None:
            np.multiply(part, k, out=x)
        else:
            np.subtract(part, b[at], out=x)
            x *= k
        if stats is not None:
            low, high = x.min(), x.max()
        np.square(x, out=x)
        sums.append(np.sum(x))
        if stats is not None:
            small = x.min()
            if small < np.finfo(float).tiny:  # squares of exact zeros do not count
                small = np.min(x, where=part != 0, initial=np.inf)
            stats.append((low, high, small))
    return float(np.sum(sums))


def _exponent(low, high) -> int:
    """e with max(|low|, |high|) * 2^-e in [0.5, 1), except that e stops at
    -1022 so that 2^-e is finite.  GCV selection is scale-free, so fits run
    on values * 2^-e, low and high the values' extremes: no square
    overflows, and scaling by a power of two is exact."""
    return max(math.frexp(float(max(high, -low)))[1], -1022)


class _Scan(NamedTuple):
    """What one read of a data array tells a fit: its extremes, its sum of
    squares (the bits of _sum_sq(values)) and the smallest square of its
    nonzero entries (inf if none)."""

    low: float
    high: float
    sum_sq: float
    min_sq: float

    def scaled_sum_sq(self, values, e) -> float:
        """_sum_sq(values, k=2^-e) bit for bit.  When every square of a
        nonzero entry, scaled or not, is normal and the sum is finite,
        scaling by 2^-2e changes no rounding in the sum (zeros scale
        exactly), so the unscaled sum scales exactly; otherwise the values
        are read again."""
        tiny = np.finfo(float).tiny
        if (math.isfinite(self.sum_sq) and self.min_sq >= tiny
                and math.ldexp(self.min_sq, -2 * e) >= tiny):
            return math.ldexp(self.sum_sq, -2 * e)
        return _sum_sq(values, k=2.0 ** -e)


def _scan_values(name: str, values: np.ndarray) -> _Scan:
    """One read of values by _sum_sq (k = 1): the extremes, the sum of
    squares and the smallest square of a nonzero entry.  Raises ValueError
    naming the first non-finite entry; the mask is built only then."""
    stats = []
    with np.errstate(over="ignore"):  # squares past the float range read inf
        total = _sum_sq(values, stats=stats)
    # an empty array has no chunk: extremes 0, no nonzero square
    lows, highs, squares = np.array(stats or [(0.0, 0.0, np.inf)]).T
    low, high = lows.min(), highs.max()
    if not (np.isfinite(low) and np.isfinite(high)):
        _name_non_finite(name, values)
    return _Scan(float(low), float(high), total, float(squares.min()))


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
class ArrayData:
    """Finite responses on a grid of d >= 2 axes, with one vector of
    coordinates per axis, strictly increasing within [0, 1].

    Construction reads the values once (_scan_values) and keeps their
    extremes and sum of squares for the fit, so the values must not change
    after construction; the finiteness check already assumes this.
    """

    values: np.ndarray
    coords: tuple[np.ndarray, ...]
    _scan: _Scan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        coords = tuple(np.asarray(c, dtype=float) for c in self.coords)
        name, coord_names = self._names(values.ndim)
        if values.ndim < 2:
            raise ValueError(f"{name} must have at least 2 dimensions")
        if len(coords) != values.ndim:
            raise ValueError(
                f"{values.ndim}-dimensional {name} need {values.ndim} "
                f"coordinate vectors, got {len(coords)}"
            )
        object.__setattr__(self, "_scan", _scan_values(name, values))
        for axis, (c, coord_name) in enumerate(zip(coords, coord_names)):
            require_coordinates(coord_name, c)
            if c.size != values.shape[axis]:
                raise ValueError(f"axis {axis}: {c.size} coordinates for "
                                 f"{values.shape[axis]} entries")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "coords", coords)

    @staticmethod
    def _names(d):
        """The names that errors give the values and each axis's coordinates."""
        return "values", [f"coords[{axis}]" for axis in range(d)]

    @classmethod
    def on_midpoints(cls, values: np.ndarray) -> "ArrayData":
        values = np.asarray(values, dtype=float)
        return cls(values, tuple((np.arange(n) + 0.5) / n for n in values.shape))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def n(self) -> int:
        return self.values.size


class GridData(ArrayData):
    """ArrayData of a matrix Y observed at x_coords down its rows and
    z_coords across its columns; errors name Y, x_coords and z_coords.
    Its fields are ArrayData's, so dataclasses.replace does not apply."""

    def __init__(self, Y, x_coords, z_coords):
        if np.ndim(Y) != 2:
            raise ValueError(f"Y must be a matrix, got ndim={np.ndim(Y)}")
        super().__init__(Y, (x_coords, z_coords))

    @staticmethod
    def _names(d):
        return "Y", ["x_coords", "z_coords"]

    Y = property(lambda self: self.values)
    x_coords = property(lambda self: self.coords[0])
    z_coords = property(lambda self: self.coords[1])


def _candidate_lists(grids, names) -> tuple[np.ndarray, ...]:
    """Each candidate list as a float vector, checked to be non-empty,
    finite and strictly positive; errors give the lists the names in
    names."""
    grids = tuple(np.atleast_1d(np.asarray(g, dtype=float)) for g in grids)
    for name, g in zip(names, grids):
        if g.size == 0:
            raise ValueError(f"{name} is empty")
        if not np.all(np.isfinite(g) & (g > 0)):
            bad = g[~(np.isfinite(g) & (g > 0))][0]
            raise ValueError(f"{name} must be finite and strictly positive, "
                             f"got {bad}")
    return grids


@dataclass(frozen=True)
class LambdaGrid:
    """Per-axis candidate smoothing parameters of a grid fit, all strictly
    positive."""

    lambda_x: np.ndarray
    lambda_z: np.ndarray

    def __post_init__(self):
        lx, lz = _candidate_lists((self.lambda_x, self.lambda_z),
                                  ("lambda_x", "lambda_z"))
        object.__setattr__(self, "lambda_x", lx)
        object.__setattr__(self, "lambda_z", lz)

    @classmethod
    def default(cls, count: int = 20, log10_low: float = -5.0,
                log10_high: float = 4.0) -> "LambdaGrid":
        lams = np.logspace(log10_low, log10_high, count)
        return cls(lams, lams.copy())


def default_lambda_grids(d: int) -> tuple[np.ndarray, ...]:
    """The default candidate list of each of d axes: LambdaGrid.default's
    range with the most candidates, at most 20, whose d-fold product stays
    within MAX_GRID_COMBINATIONS."""
    count = 20
    while count ** d > MAX_GRID_COMBINATIONS:
        count -= 1
    return tuple(LambdaGrid.default(count).lambda_x for _ in range(d))


def _resolve(shape, specs, grids):
    """Checked (specs, grids), one AxisSpec and one candidate list per axis
    of shape.  specs None gives each axis a cubic spline, a second-order
    penalty and the automatic knot count for its length; grids None gives
    default_lambda_grids.  The search scores every tuple, so their number
    is guarded."""
    d = len(shape)
    if specs is None:
        specs = tuple(AxisSpec(knot_segments=auto_knot_segments(n)) for n in shape)
    specs = tuple(specs)
    if len(specs) != d:
        raise ValueError(f"need {d} axis specs, got {len(specs)}")
    if grids is None:
        grids = default_lambda_grids(d)
    if len(grids) != d:
        raise ValueError(f"need {d} lambda lists, got {len(grids)}")
    grids = _candidate_lists(grids, [f"axis {axis}: lambdas" for axis in range(d)])
    n_comb = math.prod(g.size for g in grids)
    if n_comb > MAX_GRID_COMBINATIONS:
        raise ValueError(f"{n_comb} lambda combinations exceed the guard of "
                         f"{MAX_GRID_COMBINATIONS}; thin the per-axis grids")
    return specs, grids


@dataclass(frozen=True)
class SandwichFit:
    """Result of a GCV search on d axes: the chosen lambda per axis, the
    coefficients Theta (c_1 x ... x c_d), the fitted values, the exact
    GCV, edf and SSE of that fit, and gcv_table, the GCV of every tuple of
    the candidate lists grids."""

    lambdas: tuple[float, ...]
    Theta: np.ndarray
    fitted: np.ndarray
    gcv_value: float
    edf: float
    sse: float
    gcv_table: np.ndarray
    grids: tuple[np.ndarray, ...]
    specs: tuple[AxisSpec, ...]

    @property
    def gcv_surface(self) -> np.ndarray:
        """gcv_table, under the grid fit's name for it."""
        return self.gcv_table


def gcv_score(sse: float, edf: float, n: int) -> float:
    """GCV = (SSE/n) / (1 - edf/n)^2."""
    if n <= 0:
        raise ValueError("n must be positive")
    if edf < 0:
        raise ValueError("edf must be nonnegative")
    if edf >= n:
        raise DegenerateFit(f"edf = {edf} >= n = {n}: nothing left to validate")
    return (sse / n) / (1.0 - edf / n) ** 2


def _unscale(e, *squares):
    """Squared quantities of a fit on values * 2^-e, scaled back; those
    past the float range read inf."""
    with np.errstate(over="ignore"):
        return [np.ldexp(v, 2 * e) for v in squares]


def _shrink_table(lams, s):
    """Row i holds the spectral shrinkage of one candidate, lams[i]."""
    return shrink_weights(s, np.asarray(lams, dtype=float)[:, None])


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
    """(GCV, edf) at every candidate tuple, edf the product of the shrink
    tables' traces (_gcv_at)."""
    return _gcv_at(sse, reduce(np.multiply.outer, [st.sum(axis=1) for st in shrink]), n)


def _gcv_at(sse, edf, n):
    """(GCV, edf) at candidates of SSE sse and trace edf: GCV = (SSE/n) /
    (1 - edf/n)^2, and +inf where edf >= n, so a table with some usable
    candidates still selects."""
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
    """(GCV, edf, SSE) tables over the candidate tuples lams (one list per
    axis), with W = Ytilde**2 and spectra_s each axis's penalty eigenvalues."""
    shrink = [_shrink_table(l, s) for l, s in zip(lams, spectra_s)]
    sse = _sse_table(_contract(W, [st * st for st in shrink]),
                     _contract(W, shrink), yty)
    return (*_gcv(sse, shrink, n), sse)


def _gcv_shared(W, yty, s, lams, n):
    """(GCV, edf, SSE) of a 2-D fit whose two axes share the penalty
    eigenvalues s and one lambda, at each candidate of lams: the diagonal
    of _gcv_table's tables, scored without the rest.  With st the shrink
    table, the fit at lams[i] has norm sum(st2[i] W st2[i]) (st2 = st^2)
    and cross term sum(st[i] W st[i])."""
    st = _shrink_table(lams, s)
    sq = st * st
    sse = _sse_table(np.sum((sq @ W) * sq, axis=1), np.sum((st @ W) * st, axis=1), yty)
    trace = st.sum(axis=1)
    return (*_gcv_at(sse, trace * trace, n), sse)


def _scaled_blocks(spectra, e):
    """Each axis's row blocks with B scaled by 2^((e + k) // d) on axis k
    of d: the power of two 2^e in parts that differ by at most one, so
    that no factor or partial product leaves the normal range and scaling
    stays exact."""
    d = len(spectra)
    return [sp.blocks if (e + k) // d == 0 else
            [b._replace(B=np.ldexp(b.B, (e + k) // d)) for b in sp.blocks]
            for k, sp in enumerate(spectra)]


def _axis_view(a, axis):
    """a as (lead, a.shape[axis], trail), the axes before and after axis
    merged; a copy only where the layout of a forbids a view."""
    return a.reshape(math.prod(a.shape[:axis]), a.shape[axis], -1)


def _project_axis(a, axis, blocks, c):
    """B' applied along axis of a, B of c columns in row blocks: each block
    adds B' times the rows it covers into its column window.  A part of a
    that no view can hold is copied, one block at a time."""
    out = np.zeros(a.shape[:axis] + (c,) + a.shape[axis + 1:])
    dest = _axis_view(out, axis)
    for rows, cols, B in blocks:
        part = _axis_view(a[(slice(None),) * axis + (rows,)], axis)
        if dest.shape[2] == 1:  # one GEMM over the leading axes, not one per entry
            dest[:, cols, 0] += part[:, :, 0] @ B
        else:
            dest[:, cols] += np.matmul(B.T, part)
    return out


def _expand_axis(a, axis, blocks, n):
    """B applied along axis of a, B of n rows in row blocks: each block
    writes the rows it covers, from its column window."""
    out = np.empty(a.shape[:axis] + (n,) + a.shape[axis + 1:])
    src, dest = _axis_view(a, axis), _axis_view(out, axis)
    for rows, cols, B in blocks:
        if src.shape[2] == 1:  # one GEMM over the leading axes, as above
            np.matmul(src[:, cols, 0], B.T, out=dest[:, rows, 0])
        else:
            np.matmul(B, src[:, cols], out=dest[:, rows])
    return out


def _project(values, spectra, e=0):
    """(B_k F_k)' along each axis k of values * 2^-e: B_k' one axis at a time,
    first axis first (_project_axis), then the c_k x c_k maps F_k' on the
    c_1 x ... x c_d result (_contract).  The power of two rides in the
    blocks (_scaled_blocks), so no scaled copy of the data is made."""
    out = values
    for axis, blocks in enumerate(_scaled_blocks(spectra, -e)):
        out = _project_axis(out, axis, blocks, spectra[axis].n_basis)
    return _contract(out, [sp.coef_map.T for sp in spectra])


def _expand(coefs, spectra, e=0):
    """B_1 ... B_d applied to coefs * 2^e (c_1 x ... x c_d), one axis at a
    time, last axis first (_expand_axis).  The first axis comes last, so
    each of its blocks writes whole contiguous rows of the C-ordered
    result.  The power of two rides in the blocks."""
    out, scaled = coefs, _scaled_blocks(spectra, e)
    for axis in reversed(range(len(spectra))):
        out = _expand_axis(out, axis, scaled[axis], spectra[axis].n_points)
    return out


class _SpectralFit:
    """The smoother of values on the axes of spectra, run on values * 2^-e
    (e from the extremes in scan, the values' _scan_values) so that no
    square overflows; GCV selection is scale-free.  Every candidate score
    and the fit share one projection.  B_k' and B_k run along the values'
    axes in memory order; every result keeps the caller's axis order."""

    def __init__(self, values, spectra, scan):
        self.spectra, self.n = spectra, values.size
        self.e = _exponent(scan.low, scan.high)
        self.order = order = _memory_order(values)
        self.Ytilde = _project(values.transpose(order), [spectra[k] for k in order],
                               self.e).transpose(np.argsort(order))
        self.yty = scan.scaled_sum_sq(values, self.e)

    def score(self, lams):
        """(GCV, edf, SSE) tables over the candidate tuples lams, one list
        per axis."""
        return _gcv_table(self.Ytilde * self.Ytilde, self.yty,
                          [sp.s for sp in self.spectra], lams, self.n)

    def select(self, lams):
        """(index tuple, GCV table, edf table) of the GCV winner among the
        candidate tuples lams, one list per axis."""
        gcv, edf, _ = self.score(lams)
        return _pick(gcv, self.n, lams), gcv, edf

    def core(self, lambdas):
        """Ytilde shrunk along every axis: the fit at lambdas, projected."""
        core = self.Ytilde
        for axis, (sp, lam) in enumerate(zip(self.spectra, lambdas)):
            core = core * shrink_weights(sp.s, lam).reshape(
                (-1,) + (1,) * (core.ndim - 1 - axis))
        return core

    def finish(self, values, lambdas, edf, table):
        """(Theta, fitted, sse, gcv, table) of the fit at lambdas, of trace
        edf.  The core contracted with the coefficient maps is Theta on
        the scale of values * 2^-e, and fitted is B_1 ... B_d applied to
        it, scaled back by 2^e in the blocks (_expand).  The table keeps
        the fast-form scores that drove selection; sse and gcv are exact
        for the returned fit (the fast form carries cancellation noise of
        order eps * y'y), with the SSE summed in the values' own memory
        order.  Past the float range, Theta and sse read inf; a fitted value
        raises FloatingPointError, sought only when sse is not finite."""
        coefs = _contract(self.core(lambdas), [sp.coef_map for sp in self.spectra])
        with np.errstate(over="ignore"):
            fitted = _expand(coefs.transpose(self.order), [self.spectra[k] for k in self.order],
                             self.e).transpose(np.argsort(self.order))
            sse = _sum_sq(values, fitted, 2.0 ** -self.e)
            Theta = np.ldexp(coefs, self.e)
        if not (math.isfinite(sse) or np.isfinite(fitted).all()):
            _name_non_finite("fitted", fitted, "past the float range", FloatingPointError)
        sse, gcv, table = _unscale(self.e, sse, gcv_score(sse, edf, self.n), table)
        return Theta, fitted, float(sse), float(gcv), table


def _fit(data: ArrayData, specs, grids) -> SandwichFit:
    """GCV grid-search fit of data, one AxisSpec and one candidate list per
    axis (None for _resolve's defaults), behind select_lambda and
    glam.fit_array.  One search scores every candidate tuple; a finer
    lambda comes from denser candidate lists.
    """
    specs, grids = _resolve(data.shape, specs, grids)
    fit = _SpectralFit(data.values, _axis_spectra(data.coords, specs), data._scan)
    idx, gcv, edf = fit.select(grids)
    lambdas = tuple(float(g[i]) for g, i in zip(grids, idx))
    Theta, fitted, sse, gcv_value, gcv = fit.finish(data.values, lambdas, edf[idx], gcv)
    return SandwichFit(lambdas=lambdas, Theta=Theta, fitted=fitted,
                       gcv_value=gcv_value, edf=float(edf[idx]), sse=sse,
                       gcv_table=gcv, grids=grids, specs=specs)


def select_lambda(data: GridData, specs: tuple[AxisSpec, AxisSpec] | None = None,
                  grid: LambdaGrid | None = None) -> SandwichFit:
    """Grid-search GCV fit of the sandwich smoother: _fit over the
    candidates of grid (default LambdaGrid.default()).  The GCV table is
    also gcv_surface.
    """
    grids = None if grid is None else (grid.lambda_x, grid.lambda_z)
    return _fit(data, specs, grids)


def predict(Theta: np.ndarray, specs: tuple[AxisSpec, AxisSpec],
            x: float, z: float) -> float:
    """Evaluate the fitted surface at one point of [0, 1]^2.

    Only the (p1+1) x (p2+1) block of coefficients whose basis functions
    cover (x, z) enters the tensor product.
    """
    spec_x, spec_z = specs
    if Theta.shape != (spec_x.n_basis, spec_z.n_basis):
        raise ValueError(f"Theta has shape {Theta.shape}, but the specs have "
                         f"{spec_x.n_basis} x {spec_z.n_basis} basis functions")
    bx = eval_basis(make_knots(spec_x), spec_x.degree, x)
    bz = eval_basis(make_knots(spec_z), spec_z.degree, z)
    seg_x = int(segment_index(np.asarray(x, dtype=float), spec_x.knot_segments))
    seg_z = int(segment_index(np.asarray(z, dtype=float), spec_z.knot_segments))
    wx = slice(seg_x, seg_x + spec_x.degree + 1)
    wz = slice(seg_z, seg_z + spec_z.degree + 1)
    return float(bx[wx] @ Theta[wx, wz] @ bz[wz])
