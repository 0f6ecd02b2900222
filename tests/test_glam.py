import warnings

import numpy as np
import numpy.testing as npt
import pytest

from sandsmooth.basis import AxisSpec, design_matrix, diff_matrix
from sandsmooth.glam import ArrayData, MultiFit, fit_array, rh
from sandsmooth.sandwich2d import GridData, LambdaGrid, select_lambda


def dense_smoother(points, spec, lam):
    B = design_matrix(points, spec)
    D = diff_matrix(spec.n_basis, spec.penalty_order)
    return B @ np.linalg.solve(B.T @ B + lam * D.T @ D, B.T)


def midpoints(n):
    return (np.arange(n) + 0.5) / n


class TestArrayData:
    def test_midpoint_constructor(self):
        a = ArrayData.on_midpoints(np.zeros((3, 4, 5)))
        assert a.ndim == 3
        assert a.n == 60
        npt.assert_allclose(a.coords[2], (np.arange(5) + 0.5) / 5)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            ArrayData(np.zeros(5), (midpoints(5),))

    def test_rejects_coordinate_mismatch(self):
        with pytest.raises(ValueError):
            ArrayData(np.zeros((3, 4)), (midpoints(3), midpoints(5)))

    @pytest.mark.parametrize("bad, want", [
        (np.nan, r"values\[1, 0, 2\] is nan"),
        (np.inf, r"values\[1, 0, 2\] is inf"),
    ])
    def test_rejects_non_finite_values(self, bad, want):
        values = np.zeros((2, 3, 4))
        values[1, 0, 2] = bad
        with pytest.raises(ValueError, match=want + "; values must be finite"):
            ArrayData.on_midpoints(values)

    def test_rejects_non_finite_coordinate(self):
        coords = (midpoints(3), np.array([0.1, np.nan, 0.9]))
        with pytest.raises(ValueError, match=r"coords\[1\]\[1\] is nan"):
            ArrayData(np.zeros((3, 3)), coords)


class TestRh:
    def test_identity_rotates_axes(self):
        A = np.random.default_rng(0).normal(size=(3, 4, 5))
        out = rh(np.eye(3), A)
        npt.assert_array_equal(out, np.moveaxis(A, 0, -1))

    def test_two_dim_is_sandwich(self):
        rng = np.random.default_rng(1)
        Y = rng.normal(size=(4, 5))
        S1 = rng.normal(size=(4, 4))
        S1 = S1 + S1.T
        S2 = rng.normal(size=(5, 5))
        S2 = S2 + S2.T
        out = rh(S2, rh(S1, Y))
        npt.assert_allclose(out, S1 @ Y @ S2.T, atol=1e-12)

    def test_three_dim_matches_kronecker(self):
        rng = np.random.default_rng(2)
        Y = rng.normal(size=(3, 4, 5))
        S1 = rng.normal(size=(3, 3))
        S2 = rng.normal(size=(4, 4))
        S3 = rng.normal(size=(5, 5))
        out = rh(S3, rh(S2, rh(S1, Y)))
        vec = Y.ravel(order="F")
        oracle = np.kron(S3, np.kron(S2, S1)) @ vec
        npt.assert_allclose(out.ravel(order="F"), oracle, atol=1e-10)

    def test_rectangular_factor(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(6, 3))
        S = rng.normal(size=(2, 6))
        out = rh(S, A)
        assert out.shape == (3, 2)
        npt.assert_allclose(out, (S @ A).T, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rh(np.eye(3), np.zeros((4, 4)))

    def test_axis_order_irrelevant(self):
        # smoothing axes in any order gives the same array once each axis
        # has been hit exactly once
        rng = np.random.default_rng(4)
        Y = rng.normal(size=(3, 4, 5))
        mats = [rng.normal(size=(3, 3)), rng.normal(size=(4, 4)),
                rng.normal(size=(5, 5))]
        ref = rh(mats[2], rh(mats[1], rh(mats[0], Y)))
        # rotate the starting axis: apply to axis 1 first by pre-rotating
        Yr = np.moveaxis(Y, 0, -1)  # axes (1, 2, 0)
        alt = rh(mats[0], rh(mats[2], rh(mats[1], Yr)))
        npt.assert_allclose(np.moveaxis(alt, -1, 0), ref, atol=1e-10)


class TestFitArray:
    def test_d2_matches_sandwich2d(self):
        rng = np.random.default_rng(5)
        Y = rng.normal(size=(10, 12))
        specs = (AxisSpec(3, 2, 4), AxisSpec(3, 2, 5))
        grid = LambdaGrid.default()
        mfit = fit_array(ArrayData.on_midpoints(Y), specs,
                         (grid.lambda_x, grid.lambda_z))
        sfit = select_lambda(GridData(Y, midpoints(10), midpoints(12)),
                             specs, grid)
        assert mfit.lambdas == sfit.lambdas
        npt.assert_allclose(mfit.fitted, sfit.fitted, atol=1e-10)
        npt.assert_allclose(mfit.edf, sfit.edf, rtol=1e-12)
        npt.assert_allclose(mfit.gcv_table, sfit.gcv_surface, rtol=1e-10)

    def test_d3_sse_matches_dense_kronecker(self):
        rng = np.random.default_rng(6)
        Y = rng.normal(size=(8, 9, 10))
        data = ArrayData.on_midpoints(Y)
        specs = tuple(AxisSpec(3, 2, 4) for _ in range(3))
        lam = (1.0, 1.0, 1.0)
        mfit = fit_array(data, specs, ([1.0], [1.0], [1.0]))
        S = [dense_smoother(c, s, l) for c, s, l in zip(data.coords, specs, lam)]
        big = np.kron(S[2], np.kron(S[1], S[0]))
        vec = Y.ravel(order="F")
        resid = big @ vec - vec
        npt.assert_allclose(mfit.sse, resid @ resid, rtol=1e-8)
        npt.assert_allclose(
            mfit.fitted.ravel(order="F"), big @ vec, atol=1e-8
        )
        npt.assert_allclose(
            mfit.edf, np.trace(S[0]) * np.trace(S[1]) * np.trace(S[2]),
            rtol=1e-10,
        )

    def test_constant_array(self):
        data = ArrayData.on_midpoints(np.full((6, 7, 8), 2.5))
        mfit = fit_array(data, grids=(np.logspace(-3, 3, 4),) * 3)
        yty = np.sum(data.values ** 2)
        assert mfit.sse <= 1e-12 * yty
        npt.assert_allclose(mfit.fitted, 2.5, atol=1e-8)

    def test_exact_ties_go_to_the_largest_lambdas(self):
        # SSE ties at every tuple; the winner is the largest lambda on every
        # axis, whatever the order of the candidate lists
        data = ArrayData.on_midpoints(np.full((6, 7, 8), 2.5))
        grids = ([1.0, 1e3, 1e-3], [1e3, 1e-3, 1.0], [1e-3, 1.0, 1e3])
        assert fit_array(data, grids=grids).lambdas == (1e3, 1e3, 1e3)

    @pytest.mark.parametrize("shift", [530, -530, 3])
    def test_power_of_two_scaling_is_exact(self, shift):
        # values near 2^530 square past the float range; the search runs on a
        # power-of-two rescaling, so the fit scales exactly with the data
        rng = np.random.default_rng(9)
        values = rng.normal(size=(12, 14, 10)) + np.linspace(0, 1, 10)
        base = fit_array(ArrayData.on_midpoints(values))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_array(ArrayData.on_midpoints(np.ldexp(values, shift)))
        assert fit.lambdas == base.lambdas
        assert fit.edf == base.edf
        assert np.array_equal(fit.fitted, np.ldexp(base.fitted, shift))
        with np.errstate(over="ignore"):
            assert fit.sse == np.ldexp(base.sse, 2 * shift)
            assert fit.gcv_value == np.ldexp(base.gcv_value, 2 * shift)
            assert np.array_equal(fit.gcv_table, np.ldexp(base.gcv_table, 2 * shift))

    def test_huge_values_fit_without_overflow(self):
        rng = np.random.default_rng(10)
        values = 1 + 0.1 * rng.normal(size=(12, 14, 10))
        base = fit_array(ArrayData.on_midpoints(values))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_array(ArrayData.on_midpoints(1e160 * values))
        assert fit.lambdas == base.lambdas
        npt.assert_allclose(fit.fitted, 1e160 * base.fitted, rtol=1e-10)

    def test_grid_explosion_guard(self):
        data = ArrayData.on_midpoints(np.zeros((6, 6, 6)))
        big = np.logspace(-5, 4, 50)
        with pytest.raises(ValueError, match="guard"):
            fit_array(data, grids=(big, big, big))

    def test_edf_within_bounds(self):
        rng = np.random.default_rng(7)
        data = ArrayData.on_midpoints(rng.normal(size=(9, 9, 9)))
        specs = tuple(AxisSpec(3, 2, 4) for _ in range(3))
        mfit = fit_array(data, specs, (np.logspace(-2, 3, 5),) * 3)
        m_prod = 2 ** 3
        c_prod = 7 ** 3
        assert m_prod <= mfit.edf <= c_prod
        assert mfit.fitted.shape == data.values.shape
