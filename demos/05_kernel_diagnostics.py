"""
Equivalent-kernel diagnostics
=============================

In the interior and away from small samples, one axis of the estimator
behaves like kernel regression with an exponential-mixture kernel of
order 2m and a bandwidth set by lambda.  These diagnostics make that
correspondence concrete: kernel shape, moments, the lambda-to-bandwidth
map, and a direct overlay of actual smoother rows on the kernel.
"""

import numpy as np

from sandsmooth import (
    asymptotic_report,
    equivalent_bandwidths,
    kernel_eval,
    kernel_l2,
    kernel_moment,
    kernel_roots,
    profile_gap,
    rate_exponent,
)
from sandsmooth.surfaces import SURFACES

# 1. The kernel for a second-order penalty: a damped oscillation built
#    from the two right-half-plane roots of x^4 + 1.
roots = kernel_roots(2)
print("roots with positive real part:", np.array2string(roots, precision=4))
xs = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
print("H_2 at", xs.tolist(), ":",
      np.array2string(kernel_eval(2, xs), precision=5))

# 2. Moment structure: unit mass, vanishing moments up to 2m - 1, and a
#    signed (2m)! at order 2m.  That makes the kernel order 2m, which is
#    why a second-order penalty reaches a fourth-order bias.
for m in (1, 2, 3):
    moments = [kernel_moment(m, l) for l in range(2 * m + 1)]
    print(f"m={m} moments 0..{2 * m}:",
          np.array2string(np.array(moments), precision=6, suppress_small=True))
    print(f"     integral of H_{m}^2 :", f"{kernel_l2(m):.6f}")

# 3. Bandwidths.  A lambda pair on a given grid corresponds to one
#    bandwidth per axis; their product drives the variance, and the
#    equal-order convergence rate n^(-2m/(2m+1)) appears as exponent.
h1, h2, h12 = equivalent_bandwidths(
    lam1=1.0, lam2=5.0, K1=10, K2=15, n1=20, n2=30, m1=2, m2=2)
print("bandwidths for lambda=(1, 5) on a 20 x 30 grid:",
      f"h1={h1:.4f}, h2={h2:.4f}, h1*h2={h12:.5f}")
print("MISE rate exponent for m1=m2=2:", rate_exponent(2, 2))

# 4. A full asymptotic report for the two-bump surface at one interior
#    point, the centre of its first bump: the leading bias needs the
#    fourth partials there, the variance needs sigma^2 and the kernel L2
#    norms.
surf = SURFACES["f2"]
x0, z0 = 0.2, 0.3
report = asymptotic_report(float(surf.d4x(x0, z0)), float(surf.d4z(x0, z0)),
                           sigma2=0.25, h1=h1, h2=h2, m1=2, m2=2)
print(f"leading asymptotic bias at ({x0}, {z0}):", f"{report.bias:.4f}")
print("asymptotic variance const :", f"{report.variance_const:.4f}")

# 5. The acid test: take actual interior rows of a univariate smoother
#    matrix at n=400, K=80, rescale by n h, and measure the largest gap
#    to the kernel.  Small gaps mean the asymptotics already bite.
for lam in (1.0, 10.0, 100.0):
    gap = profile_gap(400, 80, lam)
    print(f"max interior row gap at lambda={lam:<5g}: {gap:.4f}")
