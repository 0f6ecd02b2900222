"""Dense references for the tests: the n x c factor A = B F of an axis
spectrum and the smoother built on it.

The library keeps each design matrix B only in row blocks; these helpers
rebuild the dense factor from design_matrix and the spectrum's coef_map,
independently of the blocks, so that banded products can be checked
against it.
"""

import numpy as np

from sandsmooth.basis import design_matrix
from sandsmooth.spectra import shrink_weights


def dense_factor(sp, points):
    """A = B F of spectrum sp on points: orthonormal columns, and A A' is
    the unpenalized projection B (B'B)^{-1} B'."""
    return design_matrix(np.asarray(points, dtype=float), sp.spec) @ sp.coef_map


def apply_smoother(sp, points, lam, V):
    """S(lam) V = A diag(1/(1 + lam s)) A' V along the first axis of V,
    with A the dense factor of sp on points; lam < 0 raises ValueError."""
    A = dense_factor(sp, points)
    st = shrink_weights(sp.s, lam)
    coefs = A.T @ V
    coefs *= st[:, None] if coefs.ndim > 1 else st
    return A @ coefs


def trace_smoother(s, lam):
    """Trace of S(lam) from the spectrum's eigenvalues s: the axis
    effective degrees of freedom."""
    return float(shrink_weights(s, lam).sum())
