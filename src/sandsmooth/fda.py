"""Covariance-function estimation for densely observed functional data.

Curves observed on a common grid give a J x J sample second-moment matrix;
smoothing it with the same univariate smoother on both sides keeps it
symmetric and leaves a single smoothing parameter, selected by GCV along
the equal-parameter diagonal of the grid fit's GCV table (edf = trace^2,
ties to the largest lambda).  Eigenpairs of the smoothed matrix estimate
the functional principal components, with midpoint-quadrature scaling:
matrix eigenvalue / J estimates the process eigenvalue, sqrt(J) times the
unit eigenvector estimates the eigenfunction (so it has unit quadrature
norm).

The smoothed matrix is A K A' with A the J x c orthonormal spectral basis
and K = diag(st) (A'CA) diag(st), so its rank is at most c.  Its nonzero
eigenpairs come exactly from the c x c matrix K: eigenvalues of K, with
eigenvectors A U.  smooth_cov therefore never decomposes a J x J matrix
and keeps only these at most c pairs.  Its J x J work is the two J x c
products and one pass each over the input and the smoothed matrix, which
checks the asymmetry and symmetrizes in mirrored pairs of cache-sized
tiles, plus the finiteness check and scaling exponent (min and max) and
||C||^2, which squares and sums one cache-sized block at a time
(sandwich2d._sum_sq).  The search runs on C * 2^-e without a scaled copy:
the power of two rides in the J x c factors of the projection.

The raw matrix is smoothed as-is, noise-inflated diagonal included; pass
exclude_diagonal=True to replace the diagonal with NaN-free interpolation
of its neighbors before smoothing (a known practical variant, off by
default).

The simulation generator draws rank-4 processes plus white measurement
noise.  Case 1 pairs a trigonometric eigenfunction set with eigenvalues
0.5**k for k = 1..4; case 2 pairs a shifted-Legendre set with 0.5**k for
k = 0..3 (twice the case-1 energy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import AxisSpec, auto_knot_segments
from .rng import CounterNormals, replicate_seed
from .sandwich2d import (
    LambdaGrid,
    _contract,
    _pick,
    _SpectralFit,
    _unscale,
    require_coordinates,
    require_finite,
)
from .spectra import axis_spectrum, shrink_weights
from .surfaces import midpoints

__all__ = [
    "CurveSet",
    "CovModel",
    "case_eigenvalues",
    "eigenfunction_set",
    "true_covariance",
    "sample_cov",
    "smooth_cov",
    "eigenpairs",
    "simulate_fda",
    "replicate_ise",
    "default_cov_spec",
]

ASYMMETRY_TOL = 1e-8
# Side of the square tiles _symmetrize visits in mirrored pairs; a pair of
# 128 x 128 float64 tiles (256 KB) stays in a core's L2 cache.
SYM_TILE = 128


def case_eigenvalues(case: int) -> np.ndarray:
    """Population eigenvalues of a simulation case, largest first."""
    if case == 1:
        return 0.5 ** np.arange(1, 5)
    if case == 2:
        return 0.5 ** np.arange(4)
    raise ValueError(f"case must be 1 or 2, got {case}")


@dataclass(frozen=True)
class CurveSet:
    """n finite curves sampled at a common grid of J points; rows are curves."""

    Y: np.ndarray
    t: np.ndarray | None = None

    def __post_init__(self):
        Y = np.asarray(self.Y, dtype=float)
        if Y.ndim != 2 or Y.shape[1] < 2:
            raise ValueError("Y must be n x J with J >= 2")
        t = midpoints(Y.shape[1]) if self.t is None else np.asarray(self.t, float)
        if t.shape != (Y.shape[1],):
            raise ValueError(f"t has {t.size} points for J = {Y.shape[1]}")
        require_finite("Y", Y)
        require_coordinates("t", t)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "t", t)

    @property
    def n(self) -> int:
        return self.Y.shape[0]

    @property
    def J(self) -> int:
        return self.Y.shape[1]


@dataclass(frozen=True)
class CovModel:
    """Raw and smoothed covariance with the at most c nonzero eigenpairs.

    eigenvalues are the c eigenvalues of the rank-c smoothed matrix (c the
    basis dimension) divided by J, in descending order; eigenfunctions[k]
    is the k-th estimated eigenfunction sampled at t (unit quadrature norm:
    (1/J) sum psi^2 = 1).  The J - c eigenvalues left out are zero in
    exact arithmetic.  When the smoothed matrix is indefinite (which
    exclude_diagonal can cause), its negative eigenvalues follow the
    positive ones directly here, not after J - c zeros as in a dense
    decomposition.
    """

    t: np.ndarray
    raw_cov: np.ndarray
    smoothed_cov: np.ndarray
    lam: float
    gcv_value: float
    edf: float
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    spec: AxisSpec


def eigenfunction_set(case: int, t: np.ndarray) -> np.ndarray:
    """The four population eigenfunctions of a simulation case, as rows.

    Case 1 is trigonometric, case 2 the first four shifted Legendre
    polynomials scaled to unit L2 norm on [0, 1].
    """
    t = np.asarray(t, dtype=float)
    if case == 1:
        return np.stack([
            np.sqrt(2.0) * np.sin(2 * np.pi * t),
            np.sqrt(2.0) * np.cos(2 * np.pi * t),
            np.sqrt(2.0) * np.sin(4 * np.pi * t),
            np.sqrt(2.0) * np.cos(4 * np.pi * t),
        ])
    if case == 2:
        return np.stack([
            np.ones_like(t),
            np.sqrt(3.0) * (2 * t - 1),
            np.sqrt(5.0) * (6 * t**2 - 6 * t + 1),
            np.sqrt(7.0) * (20 * t**3 - 30 * t**2 + 12 * t - 1),
        ])
    raise ValueError(f"case must be 1 or 2, got {case}")


def true_covariance(case: int, t: np.ndarray) -> np.ndarray:
    """Population covariance matrix K(t_a, t_b) of a simulation case."""
    psi = eigenfunction_set(case, t)
    return (psi.T * case_eigenvalues(case)) @ psi


def sample_cov(curves: CurveSet, center: bool = False) -> np.ndarray:
    """Sample second-moment matrix (1/n) sum_i Y_i Y_i'.

    With center=True the mean curve is subtracted first; the divisor
    stays n either way.
    """
    if curves.n < 2:
        raise ValueError("need at least 2 curves")
    Y = curves.Y
    if center:
        Y = Y - Y.mean(axis=0)
    return (Y.T @ Y) / curves.n


def default_cov_spec(J: int) -> AxisSpec:
    return AxisSpec(knot_segments=auto_knot_segments(J))


def _decompose(matrix: np.ndarray, basis: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem of basis @ matrix @ basis' with quadrature scaling and
    default signs.

    basis must have orthonormal columns; None stands for the identity, so
    the full eigensystem of `matrix` itself is returned.
    """
    w, V = np.linalg.eigh(matrix)
    w = w[::-1]
    V = V[:, ::-1]
    if basis is not None:
        V = basis @ V
    J = V.shape[0]
    funcs = np.sqrt(J) * V.T
    for row in funcs:
        nonzero = np.nonzero(np.abs(row) > 1e-12 * np.abs(row).max())[0]
        if nonzero.size and row[nonzero[0]] < 0:
            row *= -1.0
    return w / J, funcs


def _symmetrize(C: np.ndarray) -> tuple[float, np.ndarray]:
    """(max|C - C'|, 0.5 * (C + C')) of a square matrix in one pass.

    Each mirrored pair of SYM_TILE tiles is read once, so the transpose
    never strides across the whole matrix.  The elementwise operations are
    those of the two whole-matrix expressions, and addition commutes, so
    both results carry the same bits; the maximum propagates NaN as
    np.max does.
    """
    J = C.shape[0]
    out = np.empty_like(C)
    worst = []
    for a in range(0, J, SYM_TILE):
        rows = slice(a, a + SYM_TILE)
        for b in range(a, J, SYM_TILE):
            cols = slice(b, b + SYM_TILE)
            upper, lower = C[rows, cols], C[cols, rows].T
            worst.append(np.max(np.abs(upper - lower)))
            half = upper + lower
            half *= 0.5
            out[rows, cols] = half
            out[cols, rows] = half.T
    return float(np.max(worst)), out


def smooth_cov(C: np.ndarray, spec: AxisSpec | None = None,
               lams=None, t: np.ndarray | None = None,
               exclude_diagonal: bool = False) -> CovModel:
    """Smooth a symmetric matrix with one smoother on both sides.

    The single lambda is chosen by GCV over `lams` (ties to the largest);
    lambda = 0 is permitted and means pure projection.  A singleton list
    pins lambda directly, even where GCV is undefined.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError("C must be square")
    with np.errstate(invalid="ignore"):  # inf - inf reads NaN, rejected below
        asymmetry, sym = _symmetrize(C)
    if not asymmetry <= ASYMMETRY_TOL:  # NaN, from a non-finite entry, too
        require_finite("C", C)
        raise ValueError(f"input asymmetric beyond {ASYMMETRY_TOL}")
    raw, C = C, sym
    J = C.shape[0]
    if t is None:
        t = midpoints(J)
    if spec is None:
        spec = default_cov_spec(J)
    sp = axis_spectrum(t, spec)  # a J too short for the basis raises here
    if exclude_diagonal:
        # white noise inflates only the exact diagonal; rebuild it from the
        # first off-diagonal, whose entries are noise-free in expectation
        off = np.diag(C, 1)
        d_new = np.empty(J)
        d_new[0], d_new[-1] = off[0], off[-1]
        d_new[1:-1] = 0.5 * (off[:-1] + off[1:])
        C[np.diag_indices_from(C)] = d_new
    lams = (LambdaGrid.default().lambda_x if lams is None
            else np.atleast_1d(np.asarray(lams, float)))
    if np.any(lams < 0):
        raise ValueError("lambdas must be nonnegative")

    fit = _SpectralFit(C, (sp, sp))
    gcv, edf = fit.score((lams, lams))
    # one lambda on both sides: the diagonal of the bivariate table; a
    # singleton list pins lambda, even where GCV is undefined
    gcv, edf = np.diagonal(gcv), np.diagonal(edf)
    (k,) = _pick(gcv, fit.n, (lams,)) if lams.size > 1 else (0,)
    lam = float(lams[k])

    st = shrink_weights(sp.s, lam)
    K = np.ldexp(st[:, None] * fit.Ytilde * st[None, :], fit.e)  # unscaled
    _, smoothed = _symmetrize(_contract(K, (sp.A, sp.A)))
    values, funcs = _decompose(0.5 * (K + K.T), sp.A)
    return CovModel(
        t=np.asarray(t, float),
        raw_cov=raw,
        smoothed_cov=smoothed,
        lam=lam,
        gcv_value=float(_unscale(fit.e, gcv[k])[0]),
        edf=float(edf[k]),
        eigenvalues=values,
        eigenfunctions=funcs,
        spec=spec,
    )


def eigenpairs(model, k: int, reference: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenvalues and eigenfunctions of a smoothed covariance.

    Accepts a CovModel, which holds at most c pairs, or a bare symmetric
    matrix, which is decomposed in full.  When reference
    functions are supplied (k rows sampled at the same grid), each
    eigenfunction is flipped so its inner product with its reference is
    nonnegative; otherwise the first nonzero coordinate is made positive.
    """
    if isinstance(model, CovModel):
        values, funcs = model.eigenvalues, model.eigenfunctions
    else:
        values, funcs = _decompose(np.asarray(model, dtype=float))
    if k > values.size:
        raise ValueError(f"asked for {k} pairs, only {values.size} exist")
    values = values[:k].copy()
    funcs = funcs[:k].copy()
    if reference is not None:
        reference = np.asarray(reference, dtype=float)
        for i in range(k):
            if funcs[i] @ reference[i] < 0:
                funcs[i] *= -1.0
    return values, funcs


def simulate_fda(case: int, n: int, J: int, sigma: float, seed: int,
                 t: np.ndarray | None = None) -> CurveSet:
    """Draw a rank-4 functional sample with white measurement noise.

    X_i = sum_k sqrt(lam_k) xi_ik psi_k with standard-normal scores and
    the case's eigenvalue sequence; Y = X + sigma * noise.  Scores are
    drawn first (n x 4), then noise (n x J), from one sequential stream
    keyed by the seed.
    """
    if t is None:
        t = midpoints(J)
    psi = eigenfunction_set(case, t)
    gen = CounterNormals(seed)
    xi = gen.normals((n, 4))
    eps = gen.normals((n, J))
    X = (xi * np.sqrt(case_eigenvalues(case))) @ psi
    return CurveSet(X + sigma * eps, t)


def replicate_ise(case: int, n: int, J: int, sigma: float, seed: int,
                  reps: int, spec: AxisSpec | None = None,
                  lams=None) -> np.ndarray:
    """ISE of the smoothed covariance against truth, one value per replicate.

    ISE is midpoint quadrature over the J x J grid:
    (1/J^2) sum (Khat - K)^2.  Replicate r uses seed + r.
    """
    t = midpoints(J)
    K = true_covariance(case, t)
    ises = np.empty(reps)
    for r in range(reps):
        curves = simulate_fda(case, n, J, sigma, replicate_seed(seed, r))
        model = smooth_cov(sample_cov(curves), spec, lams, t)
        ises[r] = np.mean((model.smoothed_cov - K) ** 2)
    return ises
