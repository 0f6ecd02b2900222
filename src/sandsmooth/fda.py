"""Covariance-function estimation for densely observed functional data.

Curves observed on a common grid give a J x J sample second-moment matrix;
smoothing it with the same univariate smoother on both sides keeps it
symmetric and leaves a single smoothing parameter, selected by GCV over
the L shared candidates alone, the equal-parameter diagonal of the grid
fit's GCV table (edf = trace^2, ties to the largest lambda), with every
fit's defaults and candidate rule for one axis (sandwich2d._resolve).
Eigenpairs of the smoothed matrix estimate the functional principal
components, with midpoint-quadrature scaling: matrix eigenvalue / J
estimates the process eigenvalue, sqrt(J) times the unit eigenvector
estimates the eigenfunction (so it has unit quadrature norm).

With B the J x c design matrix and F its coefficient map, the smoothed
matrix is B F K F' B' with K = diag(st) (F'B'CBF) diag(st), of rank at
most c.  Its nonzero eigenpairs are those of the c x c matrix K, with
eigenvectors V = B (F U), B applied through its row blocks; so
smooth_cov never decomposes a J x J matrix, and one eigh of K also gives
the smoothed matrix X X' - Z Z' (X = V_+ sqrt(w_+), Z = V_- sqrt(-w_-)),
built in strips of rows (_gram), symmetric by construction.  smooth_cov
reads C and writes one J x J matrix, the smoothed one: a check, in
mirrored pairs of cache-sized tiles, that C equals C' exactly, the scan,
summed in chunks (_scan_values), and the projection's first product,
through the row blocks (_project).  The fit runs on C * 2^-e without a
scaled copy: the power of two rides in the row blocks of the projection
and in X and Z, so entries near the float maximum smooth without
overflow.  A C asymmetric within ASYMMETRY_TOL is smoothed as (C + C')/2,
taken on the projected core, with y'y less the squares of the
antisymmetric part, which is orthogonal to it (_asymmetry).

The raw matrix is smoothed as-is, noise-inflated diagonal included; pass
exclude_diagonal=True to replace the diagonal with NaN-free interpolation
of its neighbors before smoothing (a known practical variant, off by
default), applied to the core as the rank correction A' diag(delta) A.

The simulation generator draws rank-4 processes plus white measurement
noise.  Case 1 pairs a trigonometric eigenfunction set with eigenvalues
0.5**k for k = 1..4; case 2 pairs a shifted-Legendre set with 0.5**k for
k = 0..3 (twice the case-1 energy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import AxisSpec
from .rng import CounterNormals, replicate_seed
from .sandwich2d import (
    _expand_axis,
    _exponent,
    _resolve,
    _scan_values,
    _SpectralFit,
    _unscale,
    require_coordinates,
    require_finite,
)
from .spectra import axis_spectrum
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
]

ASYMMETRY_TOL = 1e-8
# Side of the square tiles _is_symmetric and _asymmetry visit in mirrored
# pairs (a pair of 128 x 128 float64 tiles, 256 KB, stays in a core's L2
# cache), and height of the row strips _gram builds.
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
    """Smoothed covariance with the at most c nonzero eigenpairs.

    smoothed_cov is exactly symmetric.  eigenvalues are the c eigenvalues
    of the rank-c smoothed matrix (c the basis dimension) divided by J, in
    descending order; eigenfunctions[k] is the k-th estimated
    eigenfunction sampled at t (unit quadrature norm: (1/J) sum psi^2 = 1).
    The J - c eigenvalues left out are zero in exact arithmetic.  When the
    smoothed matrix is indefinite (which exclude_diagonal can cause), its
    negative eigenvalues follow the positive ones directly here, not after
    J - c zeros as in a dense decomposition.  The model keeps no reference
    to the raw matrix, so the caller decides how long that lives.
    """

    t: np.ndarray
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
    Y = curves.Y - curves.Y.mean(axis=0) if center else curves.Y
    return (Y.T @ Y) / curves.n


def _eigensystem(w: np.ndarray, V: np.ndarray, e: int = 0
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(2^e w / J, sqrt(J) V') in descending order of w, with quadrature
    scaling and default signs, from eigh's ascending eigenvalues w and
    J x k orthonormal eigenvectors V."""
    J = V.shape[0]
    funcs = np.sqrt(J) * V[:, ::-1].T
    for row in funcs:
        nonzero = np.nonzero(np.abs(row) > 1e-12 * np.abs(row).max())[0]
        if nonzero.size and row[nonzero[0]] < 0:
            row *= -1.0
    return np.ldexp(w[::-1] / J, e), funcs


def _decompose(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigensystem of a symmetric matrix, as _eigensystem scales it."""
    return _eigensystem(*np.linalg.eigh(matrix))


def _gram(V: np.ndarray, w: np.ndarray, e: int) -> np.ndarray:
    """2^e V diag(w) V', exactly symmetric, one strip of SYM_TILE rows at
    a time.  With P = V sqrt|w| and Q = P sign(w), each scaled by 2^(e/2)
    so that entries near the float maximum do not overflow on the way, a
    strip's block right of the diagonal is one GEMM P Q', written in place
    and copied to its mirror; its diagonal block is X X' - Z Z' by syrk, X
    and Z the columns of P with positive and negative w.  A whole X X' by
    numpy would mirror its triangle entry by entry.
    """
    P = np.ldexp(V * np.sqrt(np.ldexp(np.abs(w), e % 2)), e // 2)
    Q = P * np.sign(w)
    X, Z = P[:, w > 0], P[:, w < 0]
    J = V.shape[0]
    out = np.empty((J, J))
    for a in range(0, J, SYM_TILE):
        rows, rest = slice(a, a + SYM_TILE), slice(a + SYM_TILE, J)
        out[rows, rows] = X[rows] @ X[rows].T
        if Z.shape[1]:
            out[rows, rows] -= Z[rows] @ Z[rows].T
        np.matmul(P[rows], Q[rest].T, out=out[rows, rest])
        out[rest, rows] = out[rows, rest].T
    return out


def _mirrored_tiles(J: int):
    """(rows, cols) of the SYM_TILE tiles on and above the diagonal of a
    J x J matrix; C[cols, rows] is each one's mirror."""
    for a in range(0, J, SYM_TILE):
        for b in range(a, J, SYM_TILE):
            yield slice(a, a + SYM_TILE), slice(b, b + SYM_TILE)


def _is_symmetric(C: np.ndarray) -> bool:
    """C == C' exactly, read in mirrored pairs of tiles; no copy of C is
    made.  NaN is unequal to itself, so a NaN entry reads False."""
    return all(np.array_equal(C[rows, cols], C[cols, rows].T)
               for rows, cols in _mirrored_tiles(C.shape[0]))


def _asymmetry(C: np.ndarray, e: int = 0) -> tuple[float, float]:
    """(max|C - C'|, the sum of the squares of (C - C') / 2 * 2^-e, scaled
    before squaring), read in mirrored pairs of tiles; equal pairs are
    skipped and nothing is written.  NaN propagates into both."""
    worst, squares, k = [0.0], [0.0], 2.0 ** (-e - 1)
    for rows, cols in _mirrored_tiles(C.shape[0]):
        upper, lower = C[rows, cols], C[cols, rows].T
        if not np.array_equal(upper, lower):
            with np.errstate(over="ignore"):  # a difference past the float range
                diff = upper - lower
            worst.append(np.max(np.abs(diff)))
            # a tile off the diagonal stands for its mirror too
            squares.append(np.sum(np.square(diff * k)) * (1 if rows == cols else 2))
    return float(np.max(worst)), float(np.sum(squares))


def smooth_cov(C: np.ndarray, spec: AxisSpec | None = None,
               lams=None, t: np.ndarray | None = None,
               exclude_diagonal: bool = False) -> CovModel:
    """Smooth a symmetric matrix with one smoother on both sides.

    The single lambda is chosen by GCV over `lams` (ties to the largest),
    finite and strictly positive; spec and lams default as for any fit on
    one axis of length J.  t, midpoints(J) by default, must hold J strictly
    increasing points of [0, 1].  Raises DegenerateFit when no candidate
    has edf < n.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError("C must be square")
    J = C.shape[0]
    t = midpoints(J) if t is None else np.asarray(t, dtype=float)
    require_coordinates("t", t)
    if t.size != J:
        raise ValueError(f"t has {t.size} points for J = {J}")
    scan = _scan_values("C", C)  # names a non-finite entry
    e = _exponent(scan.low, scan.high)
    # an exactly symmetric C (sample_cov's) is not read again
    worst, skew = (0.0, 0.0) if _is_symmetric(C) else _asymmetry(C, e)
    if not worst <= ASYMMETRY_TOL:
        raise ValueError(f"input asymmetric beyond {ASYMMETRY_TOL}")
    (spec,), (lams,) = _resolve((J,), None if spec is None else (spec,),
                                None if lams is None else (lams,))
    sp = axis_spectrum(t, spec)  # a J too short for the basis raises here

    # C is projected as given; its symmetric part and its rebuilt diagonal
    # are linear changes of the data, so they are made on the core and y'y
    fit = _SpectralFit(C, (sp, sp), scan)
    if worst:
        fit.Ytilde = fit.Ytilde * 0.5 + fit.Ytilde.T * 0.5
        fit.yty -= skew
    if exclude_diagonal:
        # white noise inflates only the exact diagonal; rebuild it from the
        # symmetric first off-diagonal, noise-free in expectation
        off = np.diag(C, 1) * 0.5 + np.diag(C, -1) * 0.5
        d_new = np.r_[off[0], off[:-1] * 0.5 + off[1:] * 0.5, off[-1]]
        new, old = np.ldexp(d_new, -e), np.ldexp(np.diag(C), -e)
        A = _expand_axis(sp.coef_map, 0, sp.blocks, J)
        fit.Ytilde += A.T @ ((new - old)[:, None] * A)
        fit.yty += np.sum(new * new) - np.sum(old * old)
    (k,), gcv, edf = fit.select((lams,), shared=True)
    lam = float(lams[k])

    # the smoothed core on the scale of C * 2^-e; one eigh serves both the
    # eigenpairs and the smoothed matrix, each scaled back by 2^e
    core = fit.core((lam, lam))
    w, U = np.linalg.eigh(0.5 * (core + core.T))
    V = _expand_axis(sp.coef_map @ U, 0, sp.blocks, J)
    values, funcs = _eigensystem(w, V, fit.e)
    return CovModel(
        t=t,
        smoothed_cov=_gram(V, w, fit.e),
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
    matrix, which is decomposed in full; 1 <= k <= the pairs it holds.
    When reference functions are supplied (k or more rows at the same J
    points; the first k are used), each eigenfunction is flipped so its
    inner product with its reference is nonnegative; otherwise the first
    nonzero coordinate is made positive.
    """
    if isinstance(model, CovModel):
        values, funcs = model.eigenvalues, model.eigenfunctions
    else:
        values, funcs = _decompose(np.asarray(model, dtype=float))
    if not 1 <= k <= values.size:
        raise ValueError(f"asked for k = {k} pairs; 1 to {values.size} exist")
    values, funcs = values[:k].copy(), funcs[:k].copy()
    if reference is not None:
        reference = np.asarray(reference, dtype=float)
        if reference.shape[1:] != funcs.shape[1:] or len(reference) < k:
            raise ValueError(f"reference has shape {reference.shape}; need {k} rows "
                             f"of {funcs.shape[1]} values")
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
    t = midpoints(J) if t is None else t
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
