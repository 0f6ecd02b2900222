"""Per-axis spectral preprocessing of the penalized-spline smoother.

One symmetric eigendecomposition per axis rewrites the smoother matrix
S(lam) = B (B'B + lam D'D)^{-1} B' as B F diag(1/(1 + lam s)) F' B', with
B F orthonormal, after which the smoother's trace and effective degrees
of freedom cost O(c) for any smoothing parameter.

A row of the design matrix B has at most degree + 1 nonzeros, in the
columns of its point's knot segment and the degree after it.  The
spectrum keeps B only in row blocks, each with the column window its rows
touch, so that products of B with data cost O(degree + segments per block)
per entry; the dense n x c product B F is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from sandsmooth.basis import AxisSpec, design_matrix, diff_matrix, segment_index

# Relative eigenvalue cutoffs: Gram matrices below GRAM_RTOL are treated as
# singular; penalty eigenvalues below NULL_RTOL are clamped to exactly zero
# so the penalty null space is preserved bit-for-bit at huge lambda.
GRAM_RTOL = 1e-10
NULL_RTOL = 1e-12
# Knot segments per row block: BLOCK_SEGMENTS, or on an axis with few points
# per segment enough for BLOCK_ROWS rows on average (n and K fix the layout).
BLOCK_SEGMENTS = 8
BLOCK_ROWS = 32


class SingularGram(np.linalg.LinAlgError):
    """Raised when B'B is numerically singular (basis functions without data)."""


class RowBlock(NamedTuple):
    """Consecutive rows of a design matrix and the column window that holds
    all their nonzeros; B is the matrix's [rows, cols] part."""

    rows: slice
    cols: slice
    B: np.ndarray


def _row_blocks(B, segments, degree) -> tuple[RowBlock, ...]:
    """B cut into runs of consecutive rows whose segments fall in one group
    of segments, each with the window from its smallest segment to its
    largest plus degree.  Sorted points give one run per group, and
    any order is covered.  Without segments, B is one block."""
    n, c = B.shape
    if segments is None:
        return (RowBlock(slice(0, n), slice(0, c), B),)
    group = max(BLOCK_SEGMENTS, -(-BLOCK_ROWS * (c - degree) // n))
    starts = np.flatnonzero(np.diff(segments // group, prepend=-1))
    lows = np.minimum.reduceat(segments, starts).tolist()
    highs = (np.maximum.reduceat(segments, starts) + degree + 1).tolist()
    starts = starts.tolist()
    return tuple(RowBlock(slice(a, b), slice(lo, hi), B[a:b, lo:hi].copy())
                 for a, b, lo, hi in zip(starts, starts[1:] + [n], lows, highs))


@dataclass(frozen=True)
class AxisSpectrum:
    """Spectral factors of one axis smoother.

    Attributes
    ----------
    s : ndarray, shape (c,)
        Nonnegative penalty eigenvalues, ascending, with exactly
        ``penalty_order`` zeros (the difference-penalty null space).
    coef_map : ndarray, shape (c, c)
        F = (B'B)^{-1/2} U; maps spectral coordinates back to B-spline
        coefficients, so Theta solves never form (B'B + lam D'D)^{-1}.
        B F has orthonormal columns that span the range of B.
    blocks : tuple of RowBlock
        The design matrix B, kept only as row blocks with their column
        windows; every row lies in one block, the last ending at row n.
    spec : AxisSpec
        The axis configuration the factors were built from.
    """

    s: np.ndarray
    coef_map: np.ndarray
    blocks: tuple[RowBlock, ...]
    spec: AxisSpec = field(default=None)

    @property
    def n_points(self) -> int:
        return self.blocks[-1].rows.stop

    @property
    def n_basis(self) -> int:
        return self.coef_map.shape[0]


def half_inverse(M: np.ndarray) -> np.ndarray:
    """Inverse symmetric square root of a symmetric positive definite matrix.

    Raises
    ------
    SingularGram
        If the smallest eigenvalue falls below ``GRAM_RTOL`` times the largest.
    """
    w, V = np.linalg.eigh(M)
    if w[0] <= GRAM_RTOL * w[-1]:
        bad = [int(i) for i in np.nonzero(np.diag(M) <= GRAM_RTOL * np.diag(M).max())[0]]
        raise SingularGram(
            f"matrix is numerically singular (eigenvalue ratio {w[0] / w[-1]:.2e}); "
            f"unsupported indices: {bad}"
        )
    return (V / np.sqrt(w)) @ V.T


def _short_axis_message(n: int, c: int, spec: AxisSpec | None) -> str:
    msg = f"an axis of {n} points cannot determine {c} basis functions"
    if spec is None:
        return msg
    msg += f" (knot_segments={spec.knot_segments}, degree={spec.degree})"
    most = n - spec.degree
    if most < 1:
        return msg + f"; {n} points are too few for any degree-{spec.degree} basis"
    return msg + f"; use at most {most} knot segment{'s' if most > 1 else ''}"


def build_spectrum(B: np.ndarray, D: np.ndarray, spec: AxisSpec | None = None,
                   segments: np.ndarray | None = None) -> AxisSpectrum:
    """Factor one axis smoother from its design and difference matrices.

    Diagonalizes (B'B)^{-1/2} D'D (B'B)^{-1/2}; eigenvalues within
    ``NULL_RTOL`` of zero (relative to the largest) are clamped to exactly
    zero, which pins the penalty null-space dimension to the difference order.
    segments, each row's knot segment (basis.segment_index; it needs spec),
    places the row's nonzeros in columns segment .. segment + degree and
    cuts B into row blocks; without it B is kept as one block.

    Raises
    ------
    SingularGram
        If B has fewer rows than columns, or B'B is numerically singular.
    """
    n, c = B.shape
    if n < c:
        raise SingularGram(_short_axis_message(n, c, spec))
    G = B.T @ B
    Ghalf_inv = half_inverse(G)
    M = Ghalf_inv @ (D.T @ D) @ Ghalf_inv
    M = 0.5 * (M + M.T)
    s, U = np.linalg.eigh(M)
    s = np.where(s < NULL_RTOL * abs(s[-1]), 0.0, s)
    coef_map = Ghalf_inv @ U
    blocks = _row_blocks(B, segments, None if spec is None else spec.degree)
    return AxisSpectrum(s=s, coef_map=coef_map, blocks=blocks, spec=spec)


def axis_spectrum(points: np.ndarray, spec: AxisSpec) -> AxisSpectrum:
    """Build the spectrum for one axis directly from coordinates and spec."""
    B = design_matrix(points, spec)
    D = diff_matrix(spec.n_basis, spec.penalty_order)
    segments = segment_index(np.asarray(points, dtype=float), spec.knot_segments)
    return build_spectrum(B, D, spec, segments)


def shrink_weights(s: np.ndarray, lam: float) -> np.ndarray:
    """Elementwise 1 / (1 + lam * s); the spectral shrinkage at lambda."""
    if lam < 0:
        raise ValueError(f"smoothing parameter must be >= 0, got {lam}")
    return 1.0 / (1.0 + lam * s)
