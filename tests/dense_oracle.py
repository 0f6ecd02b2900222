"""Dense references for the tests: the n x c factor A = B F of an axis
spectrum and the smoother built on it, and the summation rule of the data
passes.

The library keeps each design matrix B only in row blocks; these helpers
rebuild the dense factor from design_matrix and the spectrum's coef_map,
independently of the blocks, so that banded products can be checked
against it.  The library sums squares in cache-sized chunks without a
temporary; chunked_sum_sq sums them from the data-sized temporary.
"""

import math

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


def chunk_sums(a, b=None, k=1.0, chunk=1 << 16):
    """np.sum of each chunk of the squares of (a - b) * k (b None reading
    as zero), in order.  The squares are laid out in a's memory order, axes
    by descending stride magnitude with ties in C order, as one C array T.
    With j the first axis whose trailing sub-arrays of T hold at most
    chunk entries, T is read as (lead, n_j, rest), and a chunk is
    chunk // rest consecutive sub-arrays of one lead index."""
    order = sorted(range(a.ndim), key=lambda axis: -abs(a.strides[axis]))
    t = (a if b is None else a - b) * k
    T = np.ascontiguousarray(t.transpose(order)) ** 2
    j = min(i for i in range(T.ndim) if math.prod(T.shape[i + 1:]) <= chunk)
    rest = math.prod(T.shape[j + 1:])
    rows = T.reshape(-1, T.shape[j], rest)
    step = chunk // rest
    return [np.sum(rows[lead, i:i + step].ravel())
            for lead in range(rows.shape[0]) for i in range(0, T.shape[j], step)]


def chunked_sum_sq(a, b=None, k=1.0):
    """The sum of squares of (a - b) * k by the data passes' rule: np.sum
    of the chunk sums."""
    return float(np.sum(chunk_sums(a, b, k)))


def within_fsum_bound(got, a, b=None, k=1.0):
    """got is within the error bound of blocked summation (Higham, SIAM J.
    Sci. Comput. 14, 1993) of math.fsum of the squares of (a - b) * k: at
    most gamma_m times their sum, with m the additions a term passes
    through, at most 34 in its chunk (np.sum's pairwise sum of up to 2^16
    entries: 25 in an 8-way unrolled block of 128, then 9 halvings) and
    one per chunk after the first."""
    squares = ((a if b is None else a - b) * k) ** 2
    exact = math.fsum(squares.ravel().tolist())
    m = 34 + len(chunk_sums(a, b, k))
    u = 2.0 ** -53
    return abs(got - exact) <= m * u / (1 - m * u) * exact
