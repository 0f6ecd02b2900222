"""Array smoothing in d dimensions without forming Kronecker products.

The d-dimensional smoother is (S_d kron ... kron S_1) applied to the
flattened array.  Materializing that operator is hopeless even at modest
sizes, but applying it is cheap: contract each axis with its thin smoother
factor, one axis at a time (GLAM's rotated H-transform).

Grids and arrays share one path, in sandwich2d: the data class ArrayData,
the fit _fit and the result SandwichFit.  fit_array is the
d-dimensional name over that fit, as select_lambda is the grid's, so for
d = 2 the two return the same bits.  With every axis reduced to its
spectrum, the SSE for every candidate tuple comes from contracting the
c_1 x ... x c_d transformed array with each axis's shrink table, one axis
at a time, and the trace of the full smoother is the product of the
per-axis traces.

The first axis is the fastest-varying one under column-major flattening,
so for d = 2 the flattened fit matches the column-stacked matrix fit.

Per fit, the values are read four times, as in every sandwich2d fit: the
scan and the exact SSE, both summed in chunks (sandwich2d._sum_sq), and
the first-axis products of the projection and the reconstruction, through
the row blocks of the design matrices.  The reconstruction expands the
last axis first, each middle axis in one batched product per block.  The
peak working memory is the fitted array plus the first axis's input,
c_1 n_2 ... n_d entries: 1.2 x the values at 200^3 with 38 basis
functions per axis.
"""

from __future__ import annotations

from .sandwich2d import (
    MAX_GRID_COMBINATIONS,
    ArrayData,
    SandwichFit,
    _fit,
    default_lambda_grids,
)

__all__ = ["ArrayData", "fit_array", "MAX_GRID_COMBINATIONS", "default_lambda_grids"]


def fit_array(data: ArrayData, specs=None, grids=None) -> SandwichFit:
    """GCV-selected smoothing of a d-dimensional array.

    specs: one AxisSpec per axis.  grids: one list of candidate lambdas
    per axis, finite and strictly positive.  Defaults, checks and the guard
    on the product of the list sizes are every fit's (sandwich2d._resolve).
    """
    return _fit(data, specs, grids)
