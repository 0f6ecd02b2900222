"""Fast penalized-spline smoothing for gridded, scattered and array data.

The core idea: a bivariate smoother that applies a univariate P-spline
smoother along each axis of a data matrix, so fitting and closed-form GCV
selection cost a pair of small eigendecompositions plus matrix products,
never an n x n smoother.  The same trick extends to d-dimensional arrays,
to scattered data via binning, and to covariance-function estimation for
functional data.
"""

from sandsmooth.basis import (
    AxisSpec,
    auto_knot_segments,
    design_matrix,
    diff_matrix,
    eval_basis,
    make_knots,
)
from sandsmooth.binning import (
    BinnedGrid,
    ScatterData,
    ScatterFit,
    auto_bin_count,
    bin_scatter,
    iterative_fit,
)
from sandsmooth.fda import (
    CovModel,
    CurveSet,
    eigenpairs,
    replicate_ise,
    sample_cov,
    simulate_fda,
    smooth_cov,
)
from sandsmooth.glam import ArrayData, MultiFit, fit_array
from sandsmooth.kernelcheck import (
    AsymptoticReport,
    EquivalentKernel,
    asymptotic_report,
    equivalent_bandwidths,
    kernel_eval,
    kernel_l2,
    kernel_moment,
    kernel_roots,
    profile_gap,
    rate_exponent,
    smoother_rows,
)
from sandsmooth.rng import CounterNormals, replicate_seed
from sandsmooth.sandwich2d import (
    DegenerateFit,
    GridData,
    LambdaGrid,
    SandwichFit,
    gcv_score,
    predict,
    select_lambda,
    solve_coefficients,
)
from sandsmooth.spectra import (
    AxisSpectrum,
    SingularGram,
    apply_smoother,
    axis_spectrum,
    build_spectrum,
    half_inverse,
    shrink_weights,
    trace_smoother,
)
from sandsmooth.surfaces import SURFACES, f1, f2, midpoints, sample_surface

__version__ = "0.1.0"

__all__ = [
    "AxisSpec",
    "auto_knot_segments",
    "design_matrix",
    "diff_matrix",
    "eval_basis",
    "make_knots",
    "AxisSpectrum",
    "SingularGram",
    "apply_smoother",
    "axis_spectrum",
    "build_spectrum",
    "half_inverse",
    "shrink_weights",
    "trace_smoother",
    "DegenerateFit",
    "GridData",
    "LambdaGrid",
    "SandwichFit",
    "gcv_score",
    "predict",
    "select_lambda",
    "solve_coefficients",
    "BinnedGrid",
    "ScatterData",
    "ScatterFit",
    "auto_bin_count",
    "bin_scatter",
    "iterative_fit",
    "ArrayData",
    "MultiFit",
    "fit_array",
    "CovModel",
    "CurveSet",
    "eigenpairs",
    "replicate_ise",
    "sample_cov",
    "simulate_fda",
    "smooth_cov",
    "AsymptoticReport",
    "EquivalentKernel",
    "asymptotic_report",
    "equivalent_bandwidths",
    "kernel_eval",
    "kernel_l2",
    "kernel_moment",
    "kernel_roots",
    "profile_gap",
    "rate_exponent",
    "smoother_rows",
    "CounterNormals",
    "replicate_seed",
    "SURFACES",
    "f1",
    "f2",
    "midpoints",
    "sample_surface",
    "__version__",
]
