"""The chunked square-and-sum kernel, the construction scan, the banded
projection and reconstruction, and the fits that use them.

_sum_sq sums the squares of (a - b) * k in chunks of at most SUM_CHUNK
entries in a's memory order.  For any layout of a and b it must carry the
bits of chunked_sum_sq, which applies the same rule to a data-sized
temporary, stay within the blocked-summation error bound of math.fsum, and
equal np.sum's bits when the array is one chunk; the bits must not depend
on the number of BLAS threads.  The scan must give the scaling exponent
and y'y that _exponent and _sum_sq give.  The banded products must
match the dense factors to 1e-12 and scale by powers of two exactly.  Each
fit is checked against a reference copy of its computation that runs the
banded products on a plainly scaled copy of the data and takes y'y and the
exact SSE from chunked_sum_sq: every reported number and array must carry
the same bits.
"""

import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sandsmooth import fda, glam, sandwich2d
from sandsmooth.basis import AxisSpec, auto_knot_segments, design_matrix
from sandsmooth.glam import ArrayData, fit_array
from sandsmooth.sandwich2d import (
    SUM_CHUNK,
    GridData,
    LambdaGrid,
    _contract,
    _expand,
    _exponent,
    _gcv_table,
    _pick,
    _project,
    _scan_values,
    _sum_sq,
    _unscale,
    gcv_score,
    select_lambda,
)
from sandsmooth.spectra import axis_spectrum, shrink_weights
from sandsmooth.surfaces import midpoints

from dense_oracle import chunked_sum_sq, dense_factor, memory_order, within_fsum_bound


def bits(x):
    return np.asarray(x).tobytes()


def heavy(rng, shape):
    """Heavy-tailed values, so that the summation order shows in the bits."""
    return rng.standard_t(1.5, shape)


class TestKernel:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, SUM_CHUNK - 1,
                                   SUM_CHUNK, SUM_CHUNK + 1, 2 * SUM_CHUNK + 3,
                                   2 * SUM_CHUNK - 1, 2 * SUM_CHUNK,
                                   2 * SUM_CHUNK + 1, 4 * SUM_CHUNK + 3])
    @pytest.mark.parametrize("k", [1.0, 2.0 ** -7])
    def test_lengths(self, n, k):
        rng = np.random.default_rng(n)
        a, b = heavy(rng, n), heavy(rng, n)
        for args in ((a, b, k), (a, None, k)):
            got = _sum_sq(*args)
            assert bits(got) == bits(chunked_sum_sq(*args))
            assert within_fsum_bound(got, *args)
        if n <= SUM_CHUNK:  # one chunk: np.sum's own bits
            assert _sum_sq(a, b, k) == float(np.sum(((a - b) * k) ** 2))
            assert _sum_sq(a, k=k) == float(np.sum((a * k) ** 2))

    @pytest.mark.parametrize("shape", [(700, 311), (53, 67, 71), (3, 4 * SUM_CHUNK + 5),
                                       (17, 19, 23, 29), (3, 250, 300)])
    @pytest.mark.parametrize("a_layout", ["C", "F", "view", "strided"])
    @pytest.mark.parametrize("b_layout", ["C", "F", "moveaxis"])
    @pytest.mark.parametrize("k", [1.0, 2.0 ** -9])
    def test_layouts(self, shape, a_layout, b_layout, k):
        # rows that do not divide the chunk, and in C order chunks cut at
        # every index of a leading axis (the shapes with 3 first); a as a C,
        # an F, a permuted and
        # flipped, and an every-other-entry view; b as a C, an F and a
        # permuted array such as a fit reconstructed axis by axis
        rng = np.random.default_rng(len(shape))
        a, b = heavy(rng, shape), heavy(rng, shape)
        if a_layout == "F":
            a = np.asfortranarray(a)
        elif a_layout == "view":
            a = np.flip(np.moveaxis(heavy(rng, shape[1:] + shape[:1]), -1, 0), 1)
        elif a_layout == "strided":
            a = oracle_layout(a, "strided")
        if b_layout == "F":
            b = np.asfortranarray(b)
        elif b_layout == "moveaxis":
            b = np.moveaxis(np.ascontiguousarray(np.moveaxis(b, -1, 0)), 0, -1)
        assert bits(_sum_sq(a, b, k)) == bits(chunked_sum_sq(a, b, k))
        assert bits(_sum_sq(a, k=k)) == bits(chunked_sum_sq(a, k=k))

    def test_empty(self):
        assert _sum_sq(np.zeros((0, 4)), np.zeros((0, 4))) == 0.0


BLAS_PROBE = """
import json
import numpy as np
from sandsmooth.sandwich2d import _scan_values, _sum_sq
rng = np.random.default_rng(8)
out = []
for shape in [(300, 280), (53, 61, 71)]:
    a, b = rng.standard_t(1.5, shape), rng.standard_t(1.5, shape)
    for order in "CF":
        a, b = np.asarray(a, order=order), np.asarray(b, order=order)
        out += [float(v).hex() for v in _scan_values("a", a)]
        out += [_sum_sq(a, b, 2.0 ** -3).hex(), _sum_sq(a, np.asfortranarray(b)).hex()]
print(json.dumps(out))
"""


def test_sums_do_not_depend_on_blas_threads():
    # a BLAS dot product changes its bits with the thread count; the sums
    # must not, on one and on two OpenBLAS threads
    src = str(Path(sandwich2d.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = [subprocess.Popen([sys.executable, "-c", BLAS_PROBE], stdout=subprocess.PIPE,
                             env={**os.environ, "PYTHONPATH": path,
                                  "OPENBLAS_NUM_THREADS": threads})
            for threads in ("1", "2")]
    outs = [run.communicate(timeout=30)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    one, two = (json.loads(out) for out in outs)
    assert len(one) == 24 and one == two


def scan_cases():
    """(name, values, takes the fallback) for the scan oracle."""
    rng = np.random.default_rng(21)
    zeros = rng.standard_normal((53, 61, 7))
    zeros[::3] = 0.0
    mixed = rng.standard_normal((40, 50))
    mixed[0, :10] = 1e-170  # squares below the normal range
    # squares that underflow to 0 beside normal ones, scaled up: the scaled
    # squares are not 0, so a shortcut that skipped zero squares would lose them
    hidden = 1.5e-162 * rng.uniform(0.5, 1, (200, 200))
    hidden[-1] = 1.5e-154 * rng.uniform(1, 2, 200)
    return [
        ("heavy", heavy(rng, (300, 280)), False),
        ("heavy-4d", heavy(rng, (17, 19, 23, 29)), False),
        ("exact zeros", zeros, False),
        ("all zeros", np.zeros((40, 50)), False),
        ("a few subnormal squares", mixed, True),
        ("subnormal squares", 1e-160 * rng.standard_normal((40, 50)), True),
        ("near the float maximum", 1.7e308 * rng.uniform(-1, 1, (40, 50)), True),
        ("subnormal values", 1e-310 * rng.standard_normal((40, 50)), True),
        ("underflowed squares, scaled up", hidden, True),
    ]


def laid_out(values, layout):
    if layout == "F":
        return np.asfortranarray(values)
    if layout == "permuted":
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(values, 0, -1)), -1, 0)
    return values


class TestScan:
    @pytest.mark.parametrize("case", scan_cases(), ids=lambda c: c[0])
    @pytest.mark.parametrize("layout", ["C", "F", "permuted"])
    def test_exponent_and_yty_keep_their_bits(self, case, layout, monkeypatch):
        _, values, fallback = case
        values = laid_out(values, layout)
        e = _exponent(values.min(), values.max())
        with np.errstate(over="ignore"):
            want = chunked_sum_sq(values, k=2.0 ** -e)
            whole = chunked_sum_sq(values)
        scan = _scan_values("v", values)
        assert (scan.low, scan.high) == (values.min(), values.max())
        assert bits(scan.sum_sq) == bits(whole)
        assert _exponent(scan.low, scan.high) == e
        reads = []
        monkeypatch.setattr(sandwich2d, "_sum_sq",
                            lambda *a, **k: reads.append(1) or _sum_sq(*a, **k))
        assert bits(scan.scaled_sum_sq(values, e)) == bits(want)
        if math.isfinite(want):
            assert within_fsum_bound(want, values, k=2.0 ** -e)
        # only values outside the proven range are read a second time;
        # exact zeros are not
        assert bool(reads) == fallback

    def test_the_shortcut_alone_would_be_wrong(self):
        # the fallback is needed: scaling the unscaled sum of these values
        # overflows or loses bits below the normal range
        for name, values, _ in scan_cases():
            if name not in ("subnormal squares", "near the float maximum",
                            "subnormal values", "underflowed squares, scaled up"):
                continue
            scan = _scan_values("v", values)
            e = _exponent(scan.low, scan.high)
            with np.errstate(over="ignore"):
                assert np.ldexp(scan.sum_sq, -2 * e) != chunked_sum_sq(values, k=2.0 ** -e)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_names_the_first_non_finite_entry(self, bad):
        values = np.ones((3, SUM_CHUNK + 5))
        values[2, 7] = bad
        with pytest.raises(ValueError, match=rf"^Y\[2, 7\] is {bad}; values must be finite"):
            _scan_values("Y", values)


def moveaxis_contract(W, tables):
    """The axis-by-axis contraction with dense factors: the first axis as
    one product, then every further axis moved last, applied, and moved
    back."""
    out = (tables[0] @ W.reshape(W.shape[0], -1)).reshape((-1,) + W.shape[1:])
    for k, table in enumerate(tables[1:], start=1):
        out = np.moveaxis(np.moveaxis(out, k, -1) @ table.T, -1, k)
    return out


def close(got, want, rtol=1e-12):
    """got equals want to rtol relative to the largest entry of want."""
    return np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class TestReconstruction:
    @pytest.mark.parametrize("shape,c", [
        ((300, 280), 153),
        ((53, 61, 71), 15),
        ((17, 19, 23, 29), 9),
        ((200, 200, 200), 38),
    ])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_the_moveaxis_contraction(self, shape, c, order):
        # the banded reconstruction against the dense design matrices
        rng = np.random.default_rng(len(shape))
        coefs = np.asarray(heavy(rng, (c,) * len(shape)), order=order)
        spec = AxisSpec(knot_segments=c - 3)
        spectra = [axis_spectrum(midpoints(n), spec) for n in shape]
        out = _expand(coefs, spectra)
        designs = [design_matrix(midpoints(n), spec) for n in shape]
        want = moveaxis_contract(coefs, designs)
        assert out.shape == shape and out.flags.c_contiguous
        assert close(out, want)


def oracle_axis(kind, n):
    """(points, spec) of one axis of the banded-product oracle."""
    if kind == "one point per segment":  # degree 0: n = c = K, B = I
        return midpoints(n), AxisSpec(degree=0, knot_segments=n)
    if kind == "n = c":  # a square cubic design, with points at 0 and 1
        return np.linspace(0.0, 1.0, n), AxisSpec(knot_segments=n - 3)
    if kind == "uneven":  # crowded near 0: blocks of unequal size
        return ((np.arange(n) + 0.5) / n) ** 1.6, AxisSpec(knot_segments=n // 3)
    return midpoints(n), AxisSpec(knot_segments=max(n // 3, 1))


def oracle_layout(values, layout):
    if layout == "F":
        return np.asfortranarray(values)
    if layout == "strided":  # every other entry, backwards, on each axis
        big = np.zeros(tuple(2 * n for n in values.shape))
        view = big[(slice(None, None, -2),) * values.ndim]
        view[...] = values
        return view
    return values


ORACLE_SHAPES = {1: (120,), 2: (90, 60), 3: (45, 30, 20), 4: (40, 9, 8, 7)}
# a square design is ill-conditioned beyond about 12 points, and so are
# its dense factors
SQUARE_SHAPES = {1: (12,), 2: (12, 10), 3: (11, 9, 8), 4: (10, 9, 8, 7)}


class TestBandedProducts:
    """_project and _expand against the dense factors A = B F."""

    @pytest.fixture(params=[1, 2, 3, 4], ids=lambda d: f"d{d}")
    def d(self, request):
        return request.param

    @pytest.fixture(params=["several per segment", "one point per segment",
                            "n = c", "uneven"])
    def spectra(self, request, d):
        shapes = SQUARE_SHAPES if request.param == "n = c" else ORACLE_SHAPES
        axes = [oracle_axis(request.param, n) for n in shapes[d]]
        spectra = [axis_spectrum(points, spec) for points, spec in axes]
        if request.param == "uneven":
            sizes = {b.rows.stop - b.rows.start for b in spectra[0].blocks}
            assert len(sizes) > 1
        self.factors = [dense_factor(sp, points) for sp, (points, _) in zip(spectra, axes)]
        return spectra

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_projection(self, d, spectra, layout):
        rng = np.random.default_rng(d)
        values = oracle_layout(heavy(rng, tuple(sp.n_points for sp in spectra)), layout)
        got = _project(values, spectra)
        assert close(got, _contract(values, [A.T for A in self.factors]))
        # the power of two rides in the blocks: scaling stays exact
        assert bits(_project(values, spectra, 700)) == bits(np.ldexp(got, -700))

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_reconstruction(self, d, spectra, layout):
        rng = np.random.default_rng(d)
        core = oracle_layout(heavy(rng, tuple(sp.n_basis for sp in spectra)), layout)
        coefs = _contract(core, [sp.coef_map for sp in spectra])
        got = _expand(coefs, spectra)
        assert got.shape == tuple(sp.n_points for sp in spectra)
        assert got.flags.c_contiguous
        assert close(got, _contract(core, self.factors))
        assert bits(_expand(coefs, spectra, -700)) == bits(np.ldexp(got, -700))


def in_memory_order(op, a, spectra, values):
    """op (_project or _expand) applied to a along the axes of values in
    their memory order, as every fit runs it; the result in the caller's
    axis order."""
    order = memory_order(values)
    return op(a.transpose(order), [spectra[k] for k in order]).transpose(np.argsort(order))


def plain_select_lambda(data, specs, grid):
    """select_lambda's computation with y'y and the exact SSE summed by
    chunked_sum_sq over a scaled copy of Y, the SSE of its difference from
    the fit."""
    sx = axis_spectrum(data.x_coords, specs[0])
    sz = axis_spectrum(data.z_coords, specs[1])
    e = _exponent(data.Y.min(), data.Y.max())
    Ys = np.ldexp(data.Y, -e)
    Ytilde = in_memory_order(_project, Ys, (sx, sz), Ys)
    yty = chunked_sum_sq(Ys)
    W = Ytilde * Ytilde
    n = data.n
    lams = (grid.lambda_x, grid.lambda_z)
    gcv, edf, _ = _gcv_table(W, yty, (sx.s, sz.s), lams, n)
    i, j = _pick(gcv, n, lams)
    l1, l2, edf_best = float(lams[0][i]), float(lams[1][j]), edf[i, j]
    st1 = shrink_weights(sx.s, l1)
    st2 = shrink_weights(sz.s, l2)
    core = st1[:, None] * Ytilde * st2[None, :]
    fitted = in_memory_order(_expand, sx.coef_map @ core @ sz.coef_map.T, (sx, sz), Ys)
    sse_exact = chunked_sum_sq(Ys, fitted)
    assert within_fsum_bound(yty, Ys) and within_fsum_bound(sse_exact, Ys, fitted)
    sse_exact, gcv_exact, gcv = _unscale(
        e, sse_exact, gcv_score(sse_exact, edf_best, n), gcv)
    return (l1, l2), np.ldexp(fitted, e, out=fitted), float(gcv_exact), float(sse_exact), gcv


def plain_fit_array(data, specs, grids):
    """fit_array's computation with y'y and the exact SSE summed by
    chunked_sum_sq over data-sized temporaries, on the unscaled values
    (scaling by k = 2^-e is exact).  As in select_lambda, the products run
    and the SSE sums in the values' memory order (C or F)."""
    spectra = [axis_spectrum(c, spec) for c, spec in zip(data.coords, specs)]
    e = _exponent(data.values.min(), data.values.max())
    k = 2.0 ** -e
    Ytilde = in_memory_order(_project, data.values, spectra, data.values)
    yty = chunked_sum_sq(data.values, k=k)
    n = data.n
    gcv, edf, _ = _gcv_table((Ytilde * k) ** 2, yty, [sp.s for sp in spectra], grids, n)
    idx = _pick(gcv, n, grids)
    lambdas = tuple(float(g[i]) for g, i in zip(grids, idx))
    core = Ytilde.copy(order="K")
    for axis, (sp, lam) in enumerate(zip(spectra, lambdas)):
        core *= shrink_weights(sp.s, lam).reshape((-1,) + (1,) * (data.ndim - 1 - axis))
    coefs = _contract(core, [sp.coef_map for sp in spectra])
    fitted = in_memory_order(_expand, coefs, spectra, data.values)
    sse_exact = chunked_sum_sq(data.values * k, fitted * k)
    assert within_fsum_bound(yty, data.values, k=k)
    assert within_fsum_bound(sse_exact, data.values * k, fitted * k)
    edf_best = float(edf[idx])
    sse_exact, gcv_exact, gcv = _unscale(
        e, sse_exact, gcv_score(sse_exact, edf_best, n), gcv)
    return lambdas, fitted, float(gcv_exact), float(sse_exact), gcv


def plain_cov_selection(C, lams):
    """smooth_cov's lambda search with ||C||^2 summed by chunked_sum_sq over
    a scaled copy of C's symmetric part, in C's memory layout, read off the
    diagonal of the full L x L GCV table."""
    C = np.asarray(C, dtype=float)
    C = np.add(C * 0.5, C.T * 0.5, out=np.empty_like(C))
    J = C.shape[0]
    sp = axis_spectrum(midpoints(J), AxisSpec(knot_segments=auto_knot_segments(J)))
    e = _exponent(C.min(), C.max())
    C *= 2.0 ** -e
    Ct = _project(C, (sp, sp))
    cc = chunked_sum_sq(C)
    n = C.size
    gcv, edf, _ = _gcv_table(Ct * Ct, cc, (sp.s, sp.s), (lams, lams), n)
    gcv, edf = np.diagonal(gcv), np.diagonal(edf)
    (k,) = _pick(gcv, n, (lams,))
    return float(lams[k]), float(_unscale(e, gcv[k])[0]), float(edf[k])


class TestFitsKeepTheirBits:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_select_lambda(self, order):
        rng = np.random.default_rng(3)
        x, z = midpoints(400), midpoints(380)
        Y = np.asarray(np.sin(6 * x)[:, None] * z + heavy(rng, (400, 380)), order=order)
        data = GridData(Y, x, z)
        specs = (AxisSpec(knot_segments=40), AxisSpec(knot_segments=33))
        grid = LambdaGrid.default()
        fit = select_lambda(data, specs, grid)
        lambdas, fitted, gcv_value, sse, table = plain_select_lambda(data, specs, grid)
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
        lam, gcv_value, edf = plain_cov_selection(C, lams)
        assert (model.lam, model.edf) == (lam, edf)
        # smooth_cov scores the L shared candidates alone, in another
        # summation order than the table: the GCV agrees to the SSE's
        # cancellation noise, eps * y'y / SSE (2.8e-13 relative here)
        assert abs(model.gcv_value - gcv_value) <= 1e-12 * gcv_value


class TestWorkingMemory:
    SHAPE = (120, 120, 120)

    def test_fit_array_peak(self):
        # at the default 35 knot segments (c = 38): the fitted array, plus
        # the input of the reconstruction's first-axis step (c / n = 0.32
        # of the values) and the 512 KB leaf buffer, 1.4 x values.nbytes; a
        # data-sized temporary for the SSE makes it 2.1 x, a scaled copy of
        # the values kept through the fit 2.4 x
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
