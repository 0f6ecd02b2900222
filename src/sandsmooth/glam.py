"""Array smoothing in d dimensions without forming Kronecker products.

The d-dimensional smoother is (S_d kron ... kron S_1) applied to the
flattened array.  Materializing that operator is hopeless even at modest
sizes, but applying it is cheap: contract each axis with its thin smoother
factor, one axis at a time (sandwich2d._contract, GLAM's rotated
H-transform).

The fit is the bivariate one, run by the same engine in sandwich2d
(_SpectralFit): with every axis reduced to its spectrum, the SSE for every
candidate tuple comes from contracting the c_1 x ... x c_d transformed
array with each axis's shrink table, one axis at a time, and the trace of
the full smoother is the product of the per-axis traces.  For d = 2 the
fit carries the bits of select_lambda's.

The first axis is the fastest-varying one under column-major flattening,
so for d = 2 the flattened fit matches the column-stacked matrix fit.

Per fit, the values are read four times: the scan at construction
(ArrayData keeps the extremes and sum of squares, which give the scaling
exponent, the finiteness check and y'y), the projection's first
contraction, the reconstruction's last contraction, and the exact SSE of
the returned fit.  The scan and the exact SSE read the values (and the
fit) one cache-sized block at a time (sandwich2d._sum_sq).  The
reconstruction (sandwich2d._reconstruct) carries the power of two in its
per-axis factors, contracts each middle axis in one batched product and
the last axis in one GEMM.  The peak working memory is the fitted array
plus the last contraction's input, (n_1 ... n_{d-1}) c_d entries: 1.2 x
the values at 200^3 with 38 basis functions per axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import AxisSpec, auto_knot_segments
from .sandwich2d import (
    LambdaGrid,
    _axis_spectra,
    _pick,
    _Scan,
    _scan_values,
    _SpectralFit,
    require_coordinates,
)

__all__ = ["ArrayData", "MultiFit", "fit_array", "MAX_GRID_COMBINATIONS"]

MAX_GRID_COMBINATIONS = 100_000

# per-axis candidate counts shrink with d to respect the combination guard
_DEFAULT_GRID_SIZES = {2: 20, 3: 10}
_DEFAULT_GRID_SIZE_HIGH_D = 6


@dataclass(frozen=True)
class ArrayData:
    """Dense, finite d-dimensional responses; per-axis coordinates in [0, 1].

    Construction reads the values once (sandwich2d._scan_values) and keeps
    their extremes and sum of squares for the fit, so the values must not
    change after construction; the finiteness check already assumes this.
    """

    values: np.ndarray
    coords: tuple[np.ndarray, ...]
    _scan: _Scan = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_scan", _scan_values("values", values))
        for axis, c in enumerate(coords):
            require_coordinates(f"coords[{axis}]", c)
            if c.size != values.shape[axis]:
                raise ValueError(f"axis {axis}: {c.size} coordinates for "
                                 f"{values.shape[axis]} entries")
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

    fit = _SpectralFit(data.values, _axis_spectra(data.coords, specs), data._scan)
    gcv, edf = fit.score(grids)
    idx = _pick(gcv, fit.n, grids)
    lambdas = tuple(float(g[i]) for g, i in zip(grids, idx))
    edf_best = float(edf[idx])
    _, fitted, sse, gcv_value, gcv = fit.finish(data.values, lambdas, edf_best, gcv)
    return MultiFit(
        lambdas=lambdas,
        fitted=fitted,
        gcv_value=gcv_value,
        edf=edf_best,
        sse=sse,
        gcv_table=gcv,
        specs=specs,
    )
