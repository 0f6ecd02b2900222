"""Acceptance suite: numerical identities, accuracy windows, and budgets.

Each test checks one release gate end to end and prints a single PASS/FAIL
summary line directly to the terminal (bypassing pytest capture) before
asserting, so a full run always shows the ten verdicts:

  1. fast fit, SSE, and trace match the dense Kronecker smoother
  2. the three-term SSE decomposition matches dense term by term
  3. equivalent-kernel moments match the table and numeric integrals
  4. grid-smoothing MISE lands in the reference benchmark windows
  5. covariance-smoothing ISE lands in the reference benchmark windows
  6. d-dimensional array fits match dense Kronecker and the 2-D path
  7. huge lambda collapses the fit to bilinear least squares with edf 4
  8. interior smoother rows match the rescaled equivalent kernel
  9. a 500x500 / 400-candidate search stays inside time and memory budgets
 10. one point per bin center reproduces the pure grid fit bit-consistently
"""

import math
import time
import tracemalloc

import numpy as np

from sandsmooth.basis import AxisSpec, design_matrix, diff_matrix
from sandsmooth.binning import ScatterData, iterative_fit
from sandsmooth.cli import run_surface_study
from sandsmooth.fda import replicate_ise
from sandsmooth.glam import ArrayData, fit_array
from sandsmooth.kernelcheck import EquivalentKernel, kernel_l2, kernel_moment, profile_gap
from sandsmooth.sandwich2d import (
    GridData,
    LambdaGrid,
    _contract,
    _scan_values,
    _shrink_table,
    _SpectralFit,
    select_lambda,
)
from sandsmooth.spectra import axis_spectrum
from sandsmooth.surfaces import f2, midpoints, sample_surface

from dense_oracle import apply_smoother, trace_smoother

SEEDS = range(101, 125)  # 24 randomized instances for the oracle checks


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"acceptance {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def _dense_smoother(B, D, lam):
    return B @ np.linalg.solve(B.T @ B + lam * (D.T @ D), B.T)


def _instance(seed):
    """One random small problem: data, per-axis spectra/matrices, lambdas."""
    rng = np.random.default_rng(seed)
    n1, n2 = (int(v) for v in rng.integers(10, 16, size=2))
    lam1, lam2 = (float(v) for v in 10.0 ** rng.uniform(-4.0, 4.0, size=2))
    axes = []
    for n in (n1, n2):
        p = int(rng.integers(1, 4))
        K = int(rng.integers(2, 6))  # c = K + p <= 8
        spec = AxisSpec(degree=p, penalty_order=2, knot_segments=K)
        pts = midpoints(n)
        B = design_matrix(pts, spec)
        D = diff_matrix(spec.n_basis, spec.penalty_order)
        axes.append((axis_spectrum(pts, spec), B, D))
    Y = rng.normal(size=(n1, n2))
    return Y, axes, (lam1, lam2)


def _engine(Y, sx, sz):
    """The fit engine's projection of Y onto the two axis spectra."""
    return _SpectralFit(Y, (sx, sz), _scan_values("Y", Y))


def test_01_kronecker_oracle(capsys):
    t0 = time.perf_counter()
    max_fit = max_sse = max_tr = 0.0
    for seed in SEEDS:
        Y, axes, (lam1, lam2) = _instance(seed)
        (sx, B1, D1), (sz, B2, D2) = axes
        S1 = _dense_smoother(B1, D1, lam1)
        S2 = _dense_smoother(B2, D2, lam2)

        x, z = midpoints(Y.shape[0]), midpoints(Y.shape[1])
        fitted = apply_smoother(sz, z, lam2, apply_smoother(sx, x, lam1, Y).T).T
        dense_vec = np.kron(S2, S1) @ Y.flatten(order="F")
        max_fit = max(max_fit, float(np.max(np.abs(
            fitted.flatten(order="F") - dense_vec))))

        fit = _engine(Y, sx, sz)
        sse = float(np.ldexp(fit.score(([lam1], [lam2]))[2][0, 0], 2 * fit.e))
        dense_sse = float(np.sum((S1 @ Y @ S2.T - Y) ** 2))
        max_sse = max(max_sse, abs(sse - dense_sse) / dense_sse)

        tr = trace_smoother(sx.s, lam1) * trace_smoother(sz.s, lam2)
        dense_tr = float(np.trace(np.kron(S2, S1)))
        max_tr = max(max_tr, abs(tr - dense_tr) / abs(dense_tr))
    elapsed = time.perf_counter() - t0
    ok = (max_fit <= 1e-8 and max_sse <= 1e-8 and max_tr <= 1e-10
          and elapsed < 5.0)
    _report(capsys, 1, ok,
            f"dense Kronecker oracle on {len(SEEDS)} instances: "
            f"fit {max_fit:.1e} (<=1e-8), sse rel {max_sse:.1e} (<=1e-8), "
            f"trace rel {max_tr:.1e} (<=1e-10), {elapsed:.2f}s (<5s)")
    assert ok


def test_02_sse_decomposition(capsys):
    max_rel = 0.0
    for seed in SEEDS:
        Y, axes, (lam1, lam2) = _instance(seed)
        (sx, B1, D1), (sz, B2, D2) = axes
        S1 = _dense_smoother(B1, D1, lam1)
        S2 = _dense_smoother(B2, D2, lam2)
        fit = _engine(Y, sx, sz)
        W = fit.Ytilde * fit.Ytilde
        shrink = [_shrink_table([lam1], sx.s), _shrink_table([lam2], sz.s)]
        fast = [float(np.ldexp(t, 2 * fit.e)) for t in (
            _contract(W, [t * t for t in shrink])[0, 0], _contract(W, shrink)[0, 0],
            fit.yty)]
        Yhat = S1 @ Y @ S2.T
        dense = (float(np.sum(Yhat * Yhat)), float(np.sum(Yhat * Y)),
                 float(np.sum(Y * Y)))
        for a, b in zip(fast, dense):
            max_rel = max(max_rel, abs(a - b) / abs(b))
    ok = max_rel <= 1e-8
    _report(capsys, 2, ok,
            f"three-term SSE decomposition on {len(SEEDS)} instances: "
            f"max term rel {max_rel:.1e} (<=1e-8)")
    assert ok


def _simpson(f, T, intervals=40_000):
    """int_{-T}^{T} f by the composite Simpson rule.  The interval count
    is a multiple of 4, so x = 0, where H_m has its kink, is a panel end."""
    x = np.linspace(-T, T, intervals + 1)
    y = f(x)
    h = 2.0 * T / intervals
    return h / 3.0 * (y[0] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum() + y[-1])


def test_03_kernel_moments(capsys):
    t0 = time.perf_counter()
    ok = True
    worst = 0.0  # worst error as a fraction of its tolerance
    for m in (1, 2, 3):
        kern = EquivalentKernel(m)
        T = 40.0 / kern.min_decay
        for l in range(2 * m + 1):
            val = kernel_moment(m, l)
            # oracle: numeric integration, independent of the closed form
            num = _simpson(lambda x: x**l * kern.evaluate(x), T)
            if l == 2 * m:
                target = (-1.0) ** (m + 1) * math.factorial(2 * m)
                errs = [abs(v - target) / abs(target) for v in (val, num)]
                errs.append(abs(val - num) / abs(target))
                tol = 1e-5
            else:
                target = 1.0 if l == 0 else 0.0
                errs = [abs(val - target), abs(num - target), abs(val - num)]
                tol = 1e-6
            ok = ok and max(errs) <= tol
            worst = max(worst, max(errs) / tol)
        num = _simpson(lambda x: kern.evaluate(x) ** 2, T)
        err = abs(kernel_l2(m) - num)
        ok = ok and err <= 1e-6
        worst = max(worst, err / 1e-6)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 2.0
    _report(capsys, 3, ok,
            f"kernel moments m=1..3, l=0..2m, and L2, against the table and "
            f"Simpson integrals: worst error at {worst:.2g} of tolerance, "
            f"{elapsed:.2f}s (<2s)")
    assert ok


def test_04_surface_benchmark_windows(capsys):
    cells = [("f1", 0.1, 8.13e-4), ("f1", 0.5, 1.08e-2),
             ("f2", 0.1, 6.45e-4), ("f2", 0.5, 9.25e-3)]
    specs = (AxisSpec(3, 2, 10), AxisSpec(3, 2, 15))
    ok = True
    parts = []
    for fname, sigma, target in cells:
        t0 = time.perf_counter()
        ises = run_surface_study(fname, sigma, 20, 30, specs,
                                 LambdaGrid.default(), 20260815, 100)
        cell_t = time.perf_counter() - t0
        mise = float(ises.mean())
        dev = mise / target - 1.0
        ok = ok and abs(dev) <= 0.35 and cell_t < 60.0
        parts.append(f"{fname}/{sigma:g} {dev:+.1%}")
    _report(capsys, 4, ok,
            "20x30 grid MISE vs reference (window +-35%): " + ", ".join(parts))
    assert ok


def test_05_covariance_benchmark_windows(capsys):
    windows = [(1, 0.03, 0.09), (2, 0.10, 0.35)]
    ok = True
    parts = []
    for case, lo, hi in windows:
        t0 = time.perf_counter()
        ises = replicate_ise(case, 25, 20, 0.5, 20260815, 100)
        cell_t = time.perf_counter() - t0
        mean_ise = float(ises.mean())
        ok = ok and lo <= mean_ise <= hi and cell_t < 120.0
        parts.append(f"case {case}: {mean_ise:.4f} in [{lo}, {hi}]")
    _report(capsys, 5, ok, "covariance ISE windows: " + ", ".join(parts))
    assert ok


def test_06_array_fit_consistency(capsys):
    rng = np.random.default_rng(42)
    vals = rng.normal(size=(8, 9, 10))
    specs3 = tuple(AxisSpec(3, 2, 4) for _ in range(3))
    fit3 = fit_array(ArrayData.on_midpoints(vals), specs=specs3)
    mats = []
    for n, spec, lam in zip(vals.shape, specs3, fit3.lambdas):
        B = design_matrix(midpoints(n), spec)
        D = diff_matrix(spec.n_basis, spec.penalty_order)
        mats.append(_dense_smoother(B, D, lam))
    dense_vec = np.kron(mats[2], np.kron(mats[1], mats[0])) @ vals.flatten(order="F")
    err3 = float(np.max(np.abs(fit3.fitted.flatten(order="F") - dense_vec)))

    x, z, F = sample_surface(f2, 12, 14)
    Y = F + 0.3 * rng.normal(size=F.shape)
    specs2 = (AxisSpec(3, 2, 6), AxisSpec(3, 2, 7))
    fit2 = fit_array(ArrayData(Y, (x, z)), specs=specs2)
    ref = select_lambda(GridData(Y, x, z), specs=specs2)
    err2 = float(np.max(np.abs(fit2.fitted - ref.fitted)))
    same_lams = fit2.lambdas == ref.lambdas

    ok = err3 <= 1e-8 and err2 <= 1e-10 and same_lams
    _report(capsys, 6, ok,
            f"array fits: 3-D vs dense Kronecker {err3:.1e} (<=1e-8), "
            f"2-D vs matrix path {err2:.1e} (<=1e-10), "
            f"lambdas match: {same_lams}")
    assert ok


def test_07_large_lambda_null_space(capsys):
    x, z, F = sample_surface(f2, 20, 30)
    rng = np.random.default_rng(3)
    Y = F + 0.5 * rng.normal(size=F.shape)
    sx = axis_spectrum(x, AxisSpec(3, 2, 10))
    sz = axis_spectrum(z, AxisSpec(3, 2, 15))
    lam = 1e12
    fitted = apply_smoother(sz, z, lam, apply_smoother(sx, x, lam, Y).T).T

    X, Z = np.meshgrid(x, z, indexing="ij")
    M = np.column_stack([np.ones(X.size), X.ravel(), Z.ravel(),
                         (X * Z).ravel()])
    coef, *_ = np.linalg.lstsq(M, Y.ravel(), rcond=None)
    bilinear = (M @ coef).reshape(Y.shape)

    err = float(np.max(np.abs(fitted - bilinear)))
    bound = 1e-4 * float(Y.max() - Y.min())
    edf = trace_smoother(sx.s, lam) * trace_smoother(sz.s, lam)
    ok = err <= bound and abs(edf - 4.0) <= 1e-4
    _report(capsys, 7, ok,
            f"lambda=1e12 collapse: gap to bilinear LS {err:.1e} "
            f"(<= {bound:.1e}), edf {edf:.6f} (within 1e-4 of 4)")
    assert ok


def test_08_equivalent_kernel_profile(capsys):
    gap = profile_gap(400, 80, 10.0)
    ok = gap <= 0.1
    _report(capsys, 8, ok,
            f"interior smoother rows vs rescaled kernel at n=400, K=80: "
            f"max gap {gap:.4f} (<=0.1)")
    assert ok


def test_09_large_grid_budget(capsys):
    x, z, F = sample_surface(f2, 500, 500)
    rng = np.random.default_rng(9)
    Y = F + 0.5 * rng.normal(size=F.shape)
    spec = AxisSpec(3, 2, 57)
    data = GridData(Y, x, z)
    tracemalloc.start()
    t0 = time.perf_counter()
    fit = select_lambda(data, specs=(spec, spec))
    elapsed = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    pairs = fit.gcv_surface.size
    peak_mb = peak / 2**20
    ok = pairs == 400 and elapsed < 30.0 and peak_mb < 200.0
    _report(capsys, 9, ok,
            f"500x500 grid, K=57, {pairs} candidate pairs: "
            f"{elapsed:.2f}s (<30s), peak {peak_mb:.0f} MB (<200 MB)")
    assert ok


def test_10_binning_degenerate_grid(capsys):
    i1, i2 = 8, 10
    xc = (np.arange(i1) + 0.5) / i1
    zc = (np.arange(i2) + 0.5) / i2
    X, Z = np.meshgrid(xc, zc, indexing="ij")
    rng = np.random.default_rng(10)
    y = f2(X, Z) + 0.4 * rng.normal(size=X.shape)
    specs = (AxisSpec(3, 2, 4), AxisSpec(3, 2, 5))

    sfit = iterative_fit(ScatterData(X.ravel(), Z.ravel(), y.ravel()),
                         i1, i2, specs=specs)
    gfit = select_lambda(GridData(y, xc, zc), specs=specs)

    same_lams = sfit.fit.lambdas == gfit.lambdas
    err = float(np.max(np.abs(sfit.fit.fitted - gfit.fitted)))
    ok = same_lams and err <= 1e-12
    _report(capsys, 10, ok,
            f"one point per bin center: lambdas identical: {same_lams}, "
            f"fitted gap {err:.1e} (<=1e-12)")
    assert ok
