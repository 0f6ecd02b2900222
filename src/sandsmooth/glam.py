"""Array smoothing in d dimensions without forming Kronecker products.

The d-dimensional smoother is (S_d kron ... kron S_1) applied to the
flattened array.  Materializing that operator is hopeless even at modest
sizes, but applying it is cheap: contract each axis with its thin smoother
factor, one axis at a time.  The workhorse is the rotated transform rh(),
which contracts a matrix against the leading axis and cycles that axis to
the back; d chained calls smooth every axis and restore the original order.

Selection reuses the grid-search GCV of the bivariate fit, through the
same search in sandwich2d: with every axis reduced to its spectrum, the SSE
for every candidate tuple comes from contracting the c_1 x ... x c_d
transformed array with each axis's shrink table, one axis at a time, and
the trace of the full smoother is the product of the per-axis traces.

The first axis is the fastest-varying one under column-major flattening,
so for d = 2 the flattened fit matches the column-stacked matrix fit.

Per fit, the passes the size of the data are: the finiteness check and
the scaling exponent (min and max), the projection's first contraction,
y'y, the reconstruction's last contraction, and the exact SSE of the
returned fit.  y'y and the exact SSE read the values (and the fit) one
cache-sized block at a time (sandwich2d._sum_sq).  The peak working memory
is the fitted array plus the last contraction's input and the copy that
tensordot reshapes it into: 1.4 x the values at 200^3 with 38 basis
functions per axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import AxisSpec, auto_knot_segments
from .sandwich2d import (
    LambdaGrid,
    _axis_spectra,
    _gcv_table,
    _pick,
    _scale_exponent,
    _sum_sq,
    _unscale,
    gcv_score,
    require_finite,
)
from .spectra import shrink_weights

__all__ = ["ArrayData", "MultiFit", "rh", "fit_array", "MAX_GRID_COMBINATIONS"]

MAX_GRID_COMBINATIONS = 100_000

# per-axis candidate counts shrink with d to respect the combination guard
_DEFAULT_GRID_SIZES = {2: 20, 3: 10}
_DEFAULT_GRID_SIZE_HIGH_D = 6


@dataclass(frozen=True)
class ArrayData:
    """Dense, finite d-dimensional responses; per-axis coordinates in [0, 1]."""

    values: np.ndarray
    coords: tuple[np.ndarray, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim < 2:
            raise ValueError("values must have at least 2 dimensions")
        coords = tuple(np.asarray(c, dtype=float) for c in self.coords)
        if len(coords) != values.ndim:
            raise ValueError(
                f"{values.ndim}-dimensional values need {values.ndim} "
                f"coordinate vectors, got {len(coords)}"
            )
        require_finite("values", values)
        for axis, c in enumerate(coords):
            require_finite(f"coords[{axis}]", c)
            if c.size != values.shape[axis]:
                raise ValueError(f"axis {axis}: {c.size} coordinates for "
                                 f"{values.shape[axis]} entries")
            if c[0] < 0.0 or c[-1] > 1.0 or np.any(np.diff(c) <= 0):
                raise ValueError(f"axis {axis}: coordinates must be strictly "
                                 "increasing within [0, 1]")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "coords", coords)

    @classmethod
    def on_midpoints(cls, values: np.ndarray) -> "ArrayData":
        values = np.asarray(values, dtype=float)
        coords = tuple((np.arange(n) + 0.5) / n for n in values.shape)
        return cls(values, coords)

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class MultiFit:
    """Result of a d-dimensional grid-search fit."""

    lambdas: tuple[float, ...]
    fitted: np.ndarray
    gcv_value: float
    edf: float
    sse: float
    gcv_table: np.ndarray
    specs: tuple[AxisSpec, ...]


def rh(S: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Contract S against the leading axis of A, cycling that axis last.

    (n1,...,nd) with an m x n1 matrix becomes (n2,...,nd,m); d chained
    calls apply one matrix per axis and restore the axis order.
    """
    if S.shape[1] != A.shape[0]:
        raise ValueError(f"cannot contract {S.shape} against leading axis "
                         f"of {A.shape}")
    return np.moveaxis(np.tensordot(S, A, axes=(1, 0)), 0, -1)


def _rh_chain(mats, A):
    for S in mats:
        A = rh(S, A)
    return A


def _scale_axes(A, vectors):
    """Multiply A by one weight vector along each axis (broadcasted)."""
    d = A.ndim
    out = A.copy()
    for axis, v in enumerate(vectors):
        out *= v.reshape((-1,) + (1,) * (d - 1 - axis))
    return out


def default_lambda_grids(d: int) -> tuple[np.ndarray, ...]:
    count = _DEFAULT_GRID_SIZES.get(d, _DEFAULT_GRID_SIZE_HIGH_D)
    return tuple(LambdaGrid.default(count).lambda_x for _ in range(d))


def fit_array(data: ArrayData, specs=None, grids=None) -> MultiFit:
    """GCV-selected smoothing of a d-dimensional array.

    specs: one AxisSpec per axis (default: cubic, second-order penalty,
    automatic knot count).  grids: one candidate-lambda list per axis;
    the Cartesian product is scored, so its size is guarded.
    """
    d = data.ndim
    if specs is None:
        specs = tuple(AxisSpec(knot_segments=auto_knot_segments(n))
                      for n in data.values.shape)
    specs = tuple(specs)
    if len(specs) != d:
        raise ValueError(f"need {d} axis specs, got {len(specs)}")
    if grids is None:
        grids = default_lambda_grids(d)
    grids = tuple(np.atleast_1d(np.asarray(g, dtype=float)) for g in grids)
    if len(grids) != d:
        raise ValueError(f"need {d} lambda lists, got {len(grids)}")
    n_comb = int(np.prod([g.size for g in grids]))
    if n_comb > MAX_GRID_COMBINATIONS:
        raise ValueError(
            f"{n_comb} lambda combinations exceed the guard of "
            f"{MAX_GRID_COMBINATIONS}; thin the per-axis grids"
        )
    for axis, g in enumerate(grids):
        if np.any(g <= 0):
            raise ValueError(f"axis {axis}: lambdas must be strictly positive")

    spectra = _axis_spectra(data.coords, specs)
    # As in select_lambda, the search runs on values * 2^-e.  A scaled copy
    # of the values held through the projection would raise the peak memory.
    e = _scale_exponent(data.values)
    k = 2.0 ** -e
    Ytilde = _rh_chain([sp.A.T for sp in spectra], data.values)
    yty = _sum_sq(data.values, k=k)
    n = data.n
    gcv, edf = _gcv_table((Ytilde * k) ** 2, yty, [sp.s for sp in spectra], grids, n)
    idx = _pick(gcv, n, grids)
    lambdas = tuple(float(g[i]) for g, i in zip(grids, idx))

    sts = [shrink_weights(sp.s, lam) for sp, lam in zip(spectra, lambdas)]
    fitted = _rh_chain([sp.A for sp in spectra], _scale_axes(Ytilde, sts))
    sse_exact = _sum_sq(data.values, fitted, k)
    edf_best = float(edf[idx])
    sse_exact, gcv_exact, gcv = _unscale(
        e, sse_exact, gcv_score(sse_exact, edf_best, n), gcv)
    return MultiFit(
        lambdas=lambdas,
        fitted=fitted,
        gcv_value=float(gcv_exact),
        edf=edf_best,
        sse=float(sse_exact),
        gcv_table=gcv,
        specs=specs,
    )
