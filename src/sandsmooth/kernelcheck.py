"""Equivalent-kernel diagnostics for difference-penalty spline smoothers.

Away from the boundary, the univariate smoother with an m-th order
difference penalty behaves like a kernel estimator whose kernel is the
exponential mixture

    H_m(x) = sum_nu psi_nu / (2m) * exp(-psi_nu |x|)

over the m roots psi_nu of x^(2m) + (-1)^m = 0 with positive real part.
H_m integrates to one, kills moments up to order 2m - 1, and has 2m-th
moment (-1)^(m+1) (2m)!.  This module evaluates the kernel, computes
its moments and L2 norm in closed form (H_m is a finite sum of
exponentials, so both integrals are finite sums over the roots),
converts smoothing parameters to kernel bandwidths, and assembles the
asymptotic bias and variance constants of the bivariate smoother.  A
profile helper compares actual smoother weights against the kernel
prediction.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .basis import AxisSpec, design_matrix, diff_matrix
from .surfaces import midpoints

__all__ = [
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
]

ROOT_TOL = 1e-10
IMAG_TOL = 1e-12


def kernel_roots(m: int) -> np.ndarray:
    """Roots of x^(2m) + (-1)^m = 0 with positive real part.

    Closed form exp(i pi (2j - 1 + m) / (2m)) over j = 1..2m, keeping
    the m candidates in the right half plane.  Complex roots come in
    conjugate pairs; odd m contributes the real root 1.  Sorted by
    imaginary part for determinism.
    """
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    j = np.arange(1, 2 * m + 1)
    cand = np.exp(1j * np.pi * (2 * j - 1 + m) / (2 * m))
    roots = cand[cand.real > 0]
    resid = np.abs(roots ** (2 * m) + (-1.0) ** m)
    if roots.size != m or float(resid.max()) > ROOT_TOL:
        raise FloatingPointError("closed-form roots lost precision")
    return roots[np.argsort(roots.imag)]


@dataclasses.dataclass(frozen=True)
class EquivalentKernel:
    """Order parameter m and the exponent roots of the kernel H_m."""

    m: int
    roots: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "roots", kernel_roots(self.m))

    @property
    def min_decay(self) -> float:
        """Smallest real part among the roots: the slowest decay rate."""
        return float(self.roots.real.min())

    def evaluate(self, x):
        """H_m at scalar or array x.  Even in x by the |x| form."""
        ax = np.abs(np.asarray(x, dtype=float))
        terms = self.roots * np.exp(-np.outer(ax.ravel(), self.roots))
        vals = terms.sum(axis=1) / (2 * self.m)
        # conjugate pairs cancel the imaginary parts; anything left is error
        if float(np.abs(vals.imag).max(initial=0.0)) > IMAG_TOL:
            raise FloatingPointError("imaginary residue in kernel sum")
        out = vals.real.reshape(ax.shape)
        return float(out) if out.ndim == 0 else out


def kernel_eval(m: int, x):
    """Evaluate the equivalent kernel H_m at x (scalar or array)."""
    return EquivalentKernel(m).evaluate(x)


def kernel_moment(m: int, l: int) -> float:
    """Integral of x^l H_m(x) over the real line, in closed form.

    Termwise, 2 int_0^inf x^l psi / (2m) exp(-psi x) dx = (l! / m)
    psi^(-l), so an even moment is Re[(l! / m) sum_nu psi_nu^(-l)];
    the conjugate pairs cancel the imaginary parts.  The moment table
    pins down H_m as an order-2m kernel: 1 at l = 0, zero for odd l
    and for even l up to 2m - 2, and (-1)^(m+1) (2m)! at l = 2m.
    Orders above 2m lie outside the table and are rejected.
    """
    if not 0 <= l <= 2 * m:
        raise ValueError(f"moment order must be in [0, {2 * m}], got {l}")
    if l % 2 == 1:
        return 0.0  # odd power against an even kernel
    roots = kernel_roots(m)
    return float((math.factorial(l) / m * (roots ** (-float(l))).sum()).real)


def kernel_l2(m: int) -> float:
    """Integral of H_m(x)^2 over the real line, in closed form.

    Termwise, 2 int_0^inf psi_nu psi_mu / (2m)^2 exp(-(psi_nu + psi_mu) x)
    dx sums to Re[sum_{nu,mu} psi_nu psi_mu / (2 m^2 (psi_nu + psi_mu))].
    """
    roots = kernel_roots(m)
    terms = np.outer(roots, roots) / (2.0 * m * m * np.add.outer(roots, roots))
    return float(terms.sum().real)


def _one_bandwidth(lam: float, K: int, n: int, m: int, tag: str) -> float:
    if K <= 0 or n <= 0 or m < 1:
        raise ValueError(f"axis {tag}: need K > 0, n > 0, m >= 1")
    if lam < 0:
        raise ValueError(f"axis {tag}: negative smoothing parameter")
    return (lam * K / n) ** (1.0 / (2 * m)) / K


def equivalent_bandwidths(lam1, lam2, K1, K2, n1, n2, m1, m2):
    """Kernel bandwidths matching the two smoothing parameters.

    h_i = (lam_i K_i / n_i)^(1 / (2 m_i)) / K_i.  Returns the pair and
    their product (h_1, h_2, h_1 * h_2).
    """
    h1 = _one_bandwidth(lam1, K1, n1, m1, "1")
    h2 = _one_bandwidth(lam2, K2, n2, m2, "2")
    return h1, h2, h1 * h2


def rate_exponent(m1: int, m2: int) -> float:
    """2 m1 m2 / (4 m1 m2 + m1 + m2); m / (2m + 1) when m1 = m2 = m."""
    if m1 < 1 or m2 < 1:
        raise ValueError(f"penalty orders must be >= 1, got {m1}, {m2}")
    return 2.0 * m1 * m2 / (4.0 * m1 * m2 + m1 + m2)


@dataclasses.dataclass(frozen=True)
class AsymptoticReport:
    """Limiting bias and variance of the centered fit at one point.

    Scaled by n^rate_exponent, the error of the fit converges to a
    normal law with mean `bias` and variance `variance_const`.  h1 and
    h2 are the bandwidth constants; hn1 and hn2, when given, are the
    finite-sample equivalent bandwidths that motivated them.
    """

    m1: int
    m2: int
    h1: float
    h2: float
    rate_exponent: float
    bias: float
    variance_const: float
    hn1: float | None = None
    hn2: float | None = None

    def __post_init__(self):
        if not 0.0 < self.rate_exponent <= 0.5:
            raise ValueError(
                f"rate exponent must lie in (0, 0.5], got {self.rate_exponent}"
            )
        if self.variance_const < 0:
            raise ValueError("variance constant cannot be negative")


def asymptotic_report(
    mu_dx: float,
    mu_dz: float,
    sigma2: float,
    h1: float,
    h2: float,
    m1: int,
    m2: int,
    bandwidths: tuple | None = None,
) -> AsymptoticReport:
    """Assemble the limiting bias and variance at one interior point.

    mu_dx and mu_dz are the 2 m1-th x-partial and the 2 m2-th z-partial
    of the mean surface at the point; sigma2 is the noise variance
    there.  bias = (-1)^(m1+1) h1^(2 m1) mu_dx
    + (-1)^(m2+1) h2^(2 m2) mu_dz and the variance constant is
    sigma2 * l2(H_m1) * l2(H_m2).
    """
    if sigma2 < 0:
        raise ValueError(f"variance must be nonnegative, got {sigma2}")
    if h1 <= 0 or h2 <= 0:
        raise ValueError("bandwidth constants must be positive")
    bias = (-1.0) ** (m1 + 1) * h1 ** (2 * m1) * mu_dx
    bias += (-1.0) ** (m2 + 1) * h2 ** (2 * m2) * mu_dz
    var = sigma2 * kernel_l2(m1) * kernel_l2(m2)
    hn1, hn2 = (None, None) if bandwidths is None else bandwidths
    return AsymptoticReport(
        m1=m1,
        m2=m2,
        h1=h1,
        h2=h2,
        rate_exponent=rate_exponent(m1, m2),
        bias=bias,
        variance_const=var,
        hn1=hn1,
        hn2=hn2,
    )


def smoother_rows(n: int, spec: AxisSpec, lam: float, rows=None):
    """Rows of the univariate smoother matrix at midpoint design points.

    Returns (x, W) with W[r, j] the weight of observation j in the fit
    at x[rows[r]].  Dense solve; profile checks keep n and the basis
    small.
    """
    x = midpoints(n)
    B = design_matrix(x, spec)
    D = diff_matrix(spec.n_basis, spec.penalty_order)
    M = B.T @ B + lam * (D.T @ D)
    idx = np.arange(n) if rows is None else np.asarray(rows, dtype=int)
    G = np.linalg.solve(M, B.T)
    return x, B[idx] @ G


def profile_gap(
    n: int,
    knot_segments: int,
    lam: float,
    degree: int = 3,
    penalty_order: int = 2,
    interior: tuple = (0.25, 0.75),
) -> float:
    """Worst gap between rescaled smoother weights and the kernel curve.

    For every design point inside `interior`, compares n h W[i, j]
    against H_m((x_i - x_j) / h) with h the equivalent bandwidth of
    lam, and returns the largest absolute difference found.  The
    equivalence is asymptotic, so only loose agreement (around 0.1 at
    n = 400, K = 80) should be expected at desk scale.
    """
    spec = AxisSpec(
        degree=degree, penalty_order=penalty_order, knot_segments=knot_segments
    )
    h = _one_bandwidth(lam, knot_segments, n, penalty_order, "1")
    x = midpoints(n)
    rows = np.nonzero((x >= interior[0]) & (x <= interior[1]))[0]
    if rows.size == 0:
        raise ValueError("interior window contains no design points")
    _, W = smoother_rows(n, spec, lam, rows=rows)
    kern = EquivalentKernel(penalty_order)
    pred = kern.evaluate((x[rows, None] - x[None, :]) / h)
    return float(np.abs(n * h * W - pred).max())
