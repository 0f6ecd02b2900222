"""The fused square-and-sum kernel and the fits that use it.

_sum_sq must return float(np.sum(((a - b) * k) ** 2)) bit for bit for any
layout of a and b.  Each fit is checked against a reference copy of its
computation that takes y'y and the exact SSE from the plain numpy
expressions over data-sized temporaries: every reported number and array
must carry the same bits.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from sandsmooth import fda, glam, sandwich2d
from sandsmooth.basis import AxisSpec
from sandsmooth.glam import ArrayData, fit_array
from sandsmooth.sandwich2d import (
    SUM_LEAF,
    GridData,
    LambdaGrid,
    _gcv_table,
    _contract,
    _pick,
    _refined_axis,
    _scale_exponent,
    _sum_sq,
    _unscale,
    gcv_score,
    select_lambda,
)
from sandsmooth.spectra import axis_spectrum, shrink_weights
from sandsmooth.surfaces import midpoints


def bits(x):
    return np.asarray(x).tobytes()


def heavy(rng, shape):
    """Heavy-tailed values, so that the summation order shows in the bits."""
    return rng.standard_t(1.5, shape)


class TestKernel:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, SUM_LEAF - 1,
                                   SUM_LEAF, SUM_LEAF + 1, 2 * SUM_LEAF + 3])
    @pytest.mark.parametrize("k", [1.0, 2.0 ** -7])
    def test_lengths(self, n, k):
        rng = np.random.default_rng(n)
        a, b = heavy(rng, n), heavy(rng, n)
        assert _sum_sq(a, b, k) == float(np.sum(((a - b) * k) ** 2))
        assert _sum_sq(a, k=k) == float(np.sum((a * k) ** 2))

    @pytest.mark.parametrize("shape", [(700, 311), (53, 67, 71), (3, 2 * SUM_LEAF + 5),
                                       (17, 19, 23, 29)])
    @pytest.mark.parametrize("a_layout", ["C", "F", "view"])
    @pytest.mark.parametrize("b_layout", ["C", "F", "moveaxis"])
    @pytest.mark.parametrize("k", [1.0, 2.0 ** -9])
    def test_layouts(self, shape, a_layout, b_layout, k):
        # row lengths that do not divide the leaf; b as a C, an F and a
        # permuted array such as a fit reconstructed axis by axis
        rng = np.random.default_rng(len(shape))
        a, b = heavy(rng, shape), heavy(rng, shape)
        if a_layout == "F":
            a = np.asfortranarray(a)
        elif a_layout == "view":
            a = np.flip(np.moveaxis(heavy(rng, shape[1:] + shape[:1]), -1, 0), 1)
        if b_layout == "F":
            b = np.asfortranarray(b)
        elif b_layout == "moveaxis":
            b = np.moveaxis(np.ascontiguousarray(np.moveaxis(b, -1, 0)), 0, -1)
        assert _sum_sq(a, b, k) == float(np.sum(((a - b) * k) ** 2))
        assert _sum_sq(a, k=k) == float(np.sum((a * k) ** 2))

    def test_empty(self):
        assert _sum_sq(np.zeros((0, 4)), np.zeros((0, 4))) == 0.0


def plain_select_lambda(data, specs, grid, fine_pass=0):
    """select_lambda's computation with y'y and the exact SSE as the plain
    numpy expressions: np.sum(Y * Y) and an in-place subtract and square."""
    sx = axis_spectrum(data.x_coords, specs[0])
    sz = axis_spectrum(data.z_coords, specs[1])
    e = _scale_exponent(data.Y)
    Ys = np.ldexp(data.Y, -e)
    Ytilde = sx.A.T @ Ys @ sz.A
    yty = float(np.sum(Ys * Ys))
    W = Ytilde * Ytilde
    n = data.n
    lams = (grid.lambda_x, grid.lambda_z)
    gcv, edf = _gcv_table(W, yty, (sx.s, sz.s), lams, n)
    i, j = _pick(gcv, n, lams)
    l1, l2, edf_best = float(lams[0][i]), float(lams[1][j]), edf[i, j]
    if fine_pass > 0:
        fine = (_refined_axis(lams[0], i, fine_pass),
                _refined_axis(lams[1], j, fine_pass))
        fgcv, fedf = _gcv_table(W, yty, (sx.s, sz.s), fine, n)
        if fgcv.min() <= gcv[i, j]:
            fi, fj = _pick(fgcv, n, fine)
            l1, l2, edf_best = float(fine[0][fi]), float(fine[1][fj]), fedf[fi, fj]
    st1 = shrink_weights(sx.s, l1)
    st2 = shrink_weights(sz.s, l2)
    core = st1[:, None] * Ytilde * st2[None, :]
    fitted = sx.A @ core @ sz.A.T
    Ys -= fitted
    Ys **= 2
    sse_exact = float(np.sum(Ys))
    sse_exact, gcv_exact, gcv = _unscale(
        e, sse_exact, gcv_score(sse_exact, edf_best, n), gcv)
    return (l1, l2), np.ldexp(fitted, e, out=fitted), float(gcv_exact), float(sse_exact), gcv


def plain_fit_array(data, specs, grids):
    """fit_array's computation with y'y and the exact SSE as the plain
    numpy expressions over data-sized temporaries.  As in select_lambda,
    the SSE sums in the values' memory order (C or F)."""
    spectra = [axis_spectrum(c, spec) for c, spec in zip(data.coords, specs)]
    e = _scale_exponent(data.values)
    k = 2.0 ** -e
    Ytilde = _contract(data.values, [sp.A.T for sp in spectra])
    yty = float(np.sum((data.values * k) ** 2))
    n = data.n
    gcv, edf = _gcv_table((Ytilde * k) ** 2, yty, [sp.s for sp in spectra], grids, n)
    idx = _pick(gcv, n, grids)
    lambdas = tuple(float(g[i]) for g, i in zip(grids, idx))
    core = Ytilde.copy()
    for axis, (sp, lam) in enumerate(zip(spectra, lambdas)):
        core *= shrink_weights(sp.s, lam).reshape((-1,) + (1,) * (data.ndim - 1 - axis))
    fitted = _contract(core, [sp.A for sp in spectra])
    R = data.values * k
    R -= fitted * k
    R **= 2
    sse_exact = float(np.sum(R))
    edf_best = float(edf[idx])
    sse_exact, gcv_exact, gcv = _unscale(
        e, sse_exact, gcv_score(sse_exact, edf_best, n), gcv)
    return lambdas, fitted, float(gcv_exact), float(sse_exact), gcv


def plain_cov_selection(C, lams):
    """smooth_cov's lambda search with ||C||^2 as np.sum(C * C)."""
    _, C = fda._symmetrize(np.asarray(C, dtype=float))
    J = C.shape[0]
    sp = axis_spectrum(midpoints(J), fda.default_cov_spec(J))
    e = _scale_exponent(C)
    C *= 2.0 ** -e
    Ct = sp.A.T @ C @ sp.A
    cc = float(np.sum(C * C))
    n = C.size
    gcv, edf = _gcv_table(Ct * Ct, cc, (sp.s, sp.s), (lams, lams), n)
    gcv, edf = np.diagonal(gcv), np.diagonal(edf)
    (k,) = _pick(gcv, n, (lams,))
    return float(lams[k]), float(_unscale(e, gcv[k])[0]), float(edf[k])


class TestFitsKeepTheirBits:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("fine_pass", [0, 3])
    def test_select_lambda(self, order, fine_pass):
        rng = np.random.default_rng(3)
        x, z = midpoints(400), midpoints(380)
        Y = np.asarray(np.sin(6 * x)[:, None] * z + heavy(rng, (400, 380)), order=order)
        data = GridData(Y, x, z)
        specs = (AxisSpec(knot_segments=40), AxisSpec(knot_segments=33))
        grid = LambdaGrid.default()
        fit = select_lambda(data, specs, grid, fine_pass=fine_pass)
        lambdas, fitted, gcv_value, sse, table = plain_select_lambda(
            data, specs, grid, fine_pass)
        assert fit.lambdas == lambdas
        assert bits(fit.fitted) == bits(fitted)
        assert fit.gcv_value == gcv_value and fit.sse == sse
        assert bits(fit.gcv_surface) == bits(table)

    @pytest.mark.parametrize("shape,segments", [
        ((300, 280), 150),  # c = 153
        ((53, 61, 71), 12),
        ((17, 19, 23, 29), 6),
    ])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_fit_array(self, shape, segments, order):
        rng = np.random.default_rng(len(shape))
        data = ArrayData.on_midpoints(
            np.asarray(1.0 + heavy(rng, shape), order=order))
        specs = tuple(AxisSpec(knot_segments=segments) for _ in shape)
        grids = glam.default_lambda_grids(len(shape))
        fit = fit_array(data, specs, grids)
        lambdas, fitted, gcv_value, sse, table = plain_fit_array(data, specs, grids)
        assert fit.lambdas == lambdas
        assert fit.fitted.strides == fitted.strides
        assert bits(fit.fitted) == bits(fitted)
        assert fit.gcv_value == gcv_value and fit.sse == sse
        assert bits(fit.gcv_table) == bits(table)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_smooth_cov(self, order):
        rng = np.random.default_rng(11)
        Z = heavy(rng, (40, 450)).cumsum(axis=1)
        C = np.asarray(Z.T @ Z / 40, order=order)
        lams = LambdaGrid.default().lambda_x
        model = fda.smooth_cov(C)
        assert (model.lam, model.gcv_value, model.edf) == plain_cov_selection(C, lams)


class TestWorkingMemory:
    SHAPE = (120, 120, 120)

    def test_fit_array_peak(self):
        # at the default 35 knot segments (c = 38): the fitted array, plus
        # the last contraction's input (c / n = 0.32 of the values) and the
        # 1 MB leaf buffer, 1.4 x values.nbytes; a data-sized temporary for
        # the SSE makes it 2.1 x, a scaled copy of the values kept through
        # the fit 2.4 x
        values = np.random.default_rng(0).standard_normal(self.SHAPE)
        tracemalloc.start()
        try:
            fit_array(ArrayData.on_midpoints(values))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * values.nbytes

    def test_fit_array_frees_without_the_collector(self):
        # no reference cycle may hold the values or the fit after the caller
        # drops them, or they would wait for the cyclic collector
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            values = np.random.default_rng(1).standard_normal(self.SHAPE)
            nbytes = values.nbytes
            fit = fit_array(ArrayData.on_midpoints(values))
            del fit, values
            left = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
            gc.enable()
        assert left < 0.05 * nbytes


class TestSharedSpectra:
    @pytest.fixture
    def built(self, monkeypatch):
        calls = []

        def counting(points, spec):
            calls.append(spec)
            return axis_spectrum(points, spec)

        monkeypatch.setattr(sandwich2d, "axis_spectrum", counting)
        return calls

    def test_equal_axes_share_one_spectrum(self, built):
        rng = np.random.default_rng(2)
        x = midpoints(30)
        select_lambda(GridData(rng.normal(size=(30, 30)), x, x),
                      (AxisSpec(knot_segments=8),) * 2)
        assert len(built) == 1
        fit_array(ArrayData.on_midpoints(rng.normal(size=(9, 9, 9))),
                  (AxisSpec(knot_segments=4),) * 3, ([1.0],) * 3)
        assert len(built) == 2

    def test_axes_differing_in_points_or_spec_do_not_share(self, built):
        rng = np.random.default_rng(4)
        fit_array(ArrayData.on_midpoints(rng.normal(size=(9, 9, 10))),
                  (AxisSpec(knot_segments=4),) * 3, ([1.0],) * 3)
        assert len(built) == 2
        fit_array(ArrayData.on_midpoints(rng.normal(size=(9, 9, 9))),
                  (AxisSpec(knot_segments=4), AxisSpec(knot_segments=5),
                   AxisSpec(knot_segments=4)), ([1.0],) * 3)
        assert len(built) == 4
