"""
Smoothing scattered observations by binning
===========================================

Scattered (x, z, y) points become grid data by averaging within the
cells of a rectangular partition.  Empty cells are imputed by the
smoother itself: at a fixed lambda pair, "fit, overwrite the empty cells
with the fitted values, refit" has one fixed point, the penalized fit
with 0/1 cell weights, and that weighted fit is solved directly.  Lambda
selection uses masked GCV so the imputed cells never vote on the
smoothing parameters; the search and the solve alternate until the
selected pair repeats.
"""

import numpy as np

from sandsmooth import ScatterData, auto_bin_count, bin_scatter, iterative_fit
from sandsmooth.rng import CounterNormals
from sandsmooth.surfaces import f2

# 1. Simulate 600 points at uniform random locations.  The coordinate
#    stream and the noise stream come from one deterministic generator.
gen = CounterNormals(seed=77)
n = 600
raw = gen.normals((3, n))
# rank-transform two normal streams into (0, 1) locations: reproducible
# uniform-ish coordinates without a second generator
u = (np.argsort(np.argsort(raw[0])) + 0.5) / n
v = (np.argsort(np.argsort(raw[1])) + 0.5) / n
y = f2(u, v) + 0.5 * raw[2]
data = ScatterData(u, v, y)

# 2. Bin.  The default rule uses about sqrt(n)/2 bins per axis.
i1 = i2 = auto_bin_count(n)
grid = bin_scatter(data, i1, i2)
occupied = int(np.sum(grid.counts > 0))
print(f"binning {n} points into {i1} x {i2} cells:")
print(f"  occupied cells : {occupied} of {i1 * i2}")
print(f"  busiest cell   : {int(grid.counts.max())} points")

# 3. Fit, imputing the empty cells exactly.
result = iterative_fit(data, i1, i2)
print("lambda searches   :", result.iterations)
print("converged         :", result.converged)
print("selected lambdas  :", tuple(f"{l:.4g}" for l in result.fit.lambdas))
print("masked GCV        :", f"{result.masked_gcv:.6f}")
print("occupied-cell SSE :", f"{result.masked_sse:.4f}")

# 4. Accuracy against the noise-free surface at the bin centers.
truth = f2(grid.x_centers[:, None], grid.z_centers[None, :])
err = float(np.mean((result.fit.fitted - truth) ** 2))
print("mean squared error on the center grid :", f"{err:.5f}")

# 5. Each weighted solve reports its relative residual, the distance of
#    the filled grid from the fixed point; rounding level is the normal
#    picture.
if result.changes:
    print("relative residual by solve:",
          np.array2string(np.array(result.changes), precision=2))
else:
    print("no empty cells: the fit reduces to the plain grid fit")
