"""Equidistant-knot B-spline bases and difference penalties for one axis.

Everything here is deliberately uniform-knot: interior knots sit at j/K on
[0, 1] and the knot vector is extended past the interval by p extra knots at
the same spacing on each side (no repeated boundary knots), which keeps the
discrete difference penalty meaningful on every coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AxisSpec:
    """Smoothing configuration for one axis.

    Parameters
    ----------
    degree : int
        B-spline degree p (cubic by default).  Degree 0, piecewise
        constant, fits but lies outside the paper's asymptotic theory,
        which needs degree >= 1.
    penalty_order : int
        Order m of the difference penalty on adjacent coefficients.
    knot_segments : int
        Number K of equal-width knot segments on [0, 1]; there are K - 1
        interior knots and the basis has ``c = K + degree`` functions.
    """

    degree: int = 3
    penalty_order: int = 2
    knot_segments: int = 10

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        if self.penalty_order < 1:
            raise ValueError(f"penalty_order must be >= 1, got {self.penalty_order}")
        if self.knot_segments < 1:
            raise ValueError(f"knot_segments must be >= 1, got {self.knot_segments}")

    @property
    def n_basis(self) -> int:
        """Basis dimension c = K + p."""
        return self.knot_segments + self.degree


def auto_knot_segments(n: int) -> int:
    """Default knot-segment count for an axis with ``n`` data points.

    Uses min(n/2, 35) rounded down, so every segment holds several points.
    """
    return max(1, min(n // 2, 35))


def make_knots(spec: AxisSpec) -> np.ndarray:
    """Equidistant knot vector for ``spec``: (j - p)/K for j = 0..c+p."""
    p, K = spec.degree, spec.knot_segments
    return (np.arange(spec.n_basis + p + 1) - p) / K


def segment_index(points: np.ndarray, knot_segments: int) -> np.ndarray:
    """Index of the knot segment holding each point of [0, 1]: segments are
    half-open, and 1.0 lands in the last one.  A point in segment j has
    its nonzero basis values in columns j .. j + degree of the design
    matrix: this is the de Boor support index."""
    return np.minimum((points * knot_segments).astype(int), knot_segments - 1)


def _de_boor(knots: np.ndarray, degree: int, points: np.ndarray) -> np.ndarray:
    """Basis values at each of ``points``: the rows of the design matrix.

    One iterative de Boor triangle runs over all points at once; row r
    holds the c basis functions at points[r].
    """
    bad = ~((points >= 0.0) & (points <= 1.0))
    if bad.any():
        raise ValueError(f"evaluation point {points[bad][0]} outside [0, 1]")
    p = degree
    c = len(knots) - p - 1
    K = c - p
    # Index of the knot interval containing each point.
    left = p + segment_index(points, K)

    # After round k, work[:, :k+1] holds the values of the k-degree splines
    # supported on each point's interval.
    work = np.zeros((points.size, p + 1))
    work[:, 0] = 1.0
    for k in range(1, p + 1):
        saved = 0.0
        for j in range(k):
            right_knot = knots[left + j + 1]
            left_knot = knots[left + j + 1 - k]
            term = work[:, j] / (right_knot - left_knot)
            work[:, j] = saved + (right_knot - points) * term
            saved = (points - left_knot) * term
        work[:, k] = saved

    out = np.zeros((points.size, c))
    rows = np.arange(points.size)[:, None]
    out[rows, left[:, None] - p + np.arange(p + 1)] = work
    return out


def eval_basis(knots: np.ndarray, degree: int, x: float) -> np.ndarray:
    """Evaluate all c B-spline basis functions at a point of [0, 1].

    Segments are half-open with x = 1 assigned to the last interior segment,
    so the evaluation is defined on the whole closed interval.  The returned
    vector has at most ``degree + 1`` nonzero entries and sums to 1.

    Parameters
    ----------
    knots : ndarray
        Knot vector from :func:`make_knots` (length c + degree + 1).
    degree : int
        Spline degree p.
    x : float
        Evaluation point; must lie in [0, 1].

    Returns
    -------
    ndarray of shape (c,)
    """
    return _de_boor(knots, degree, np.array([x], dtype=float))[0]


def design_matrix(points: np.ndarray, spec: AxisSpec) -> np.ndarray:
    """Basis evaluations at each point, stacked into an n x c design matrix."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 1:
        raise ValueError("points must be one-dimensional")
    return _de_boor(make_knots(spec), spec.degree, points)


def diff_matrix(c: int, order: int) -> np.ndarray:
    """Difference matrix of the given order: (c - order) x c signed binomials.

    Row i applies the order-th forward difference to coefficients i..i+order;
    its null space is the degree-(order - 1) polynomial sequences.
    """
    if c <= order:
        raise ValueError(f"need basis dimension > difference order, got c={c}, m={order}")
    return np.diff(np.eye(c), n=order, axis=0)
