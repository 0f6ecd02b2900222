import warnings

import numpy as np
import numpy.testing as npt
import pytest

from sandsmooth.basis import AxisSpec, design_matrix, diff_matrix
from sandsmooth.glam import ArrayData, MultiFit, fit_array
from sandsmooth.sandwich2d import GridData, LambdaGrid, _contract, select_lambda


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

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError, match=r"coords\[1\] must be a non-empty vector"):
            ArrayData.on_midpoints(np.zeros((3, 0, 4)))

    @pytest.mark.parametrize("c, want", [
        ([0.1, 0.5, 0.5], r"coords\[1\]\[2\] is 0.5; coordinates must be strictly increasing"),
        ([0.1, 0.6, 0.5], r"coords\[1\]\[2\] is 0.5; coordinates must be strictly increasing"),
        ([-0.1, 0.5, 0.9], r"coords\[1\]\[0\] is -0.1; coordinates must lie within"),
    ])
    def test_rejects_bad_coordinates_by_index(self, c, want):
        with pytest.raises(ValueError, match=want):
            ArrayData(np.zeros((3, 3)), (midpoints(3), np.array(c)))

    def test_rejects_non_finite_coordinate(self):
        coords = (midpoints(3), np.array([0.1, np.nan, 0.9]))
        with pytest.raises(ValueError, match=r"coords\[1\]\[1\] is nan"):
            ArrayData(np.zeros((3, 3)), coords)


class TestContract:
    """_contract applies one matrix per axis, the first axis first: the
    d-dimensional smoother without a Kronecker factor."""

    def test_identity_is_a_no_op(self):
        A = np.random.default_rng(0).normal(size=(3, 4, 5))
        out = _contract(A, [np.eye(3), np.eye(4), np.eye(5)])
        npt.assert_array_equal(out, A)

    def test_two_dim_is_sandwich(self):
        # bit for bit the left-to-right matrix chain
        rng = np.random.default_rng(1)
        Y = rng.normal(size=(4, 5))
        S1 = rng.normal(size=(4, 4))
        S1 = S1 + S1.T
        S2 = rng.normal(size=(5, 5))
        S2 = S2 + S2.T
        npt.assert_array_equal(_contract(Y, [S1, S2]), S1 @ Y @ S2.T)

    def test_three_dim_matches_kronecker(self):
        rng = np.random.default_rng(2)
        Y = rng.normal(size=(3, 4, 5))
        S1 = rng.normal(size=(3, 3))
        S2 = rng.normal(size=(4, 4))
        S3 = rng.normal(size=(5, 5))
        out = _contract(Y, [S1, S2, S3])
        vec = Y.ravel(order="F")
        oracle = np.kron(S3, np.kron(S2, S1)) @ vec
        npt.assert_allclose(out.ravel(order="F"), oracle, atol=1e-10)

    def test_rectangular_factor(self):
        rng = np.random.default_rng(3)
        Y = rng.normal(size=(6, 3, 4))
        S = [rng.normal(size=(2, 6)), rng.normal(size=(5, 3)), rng.normal(size=(1, 4))]
        out = _contract(Y, S)
        assert out.shape == (2, 5, 1)
        oracle = np.kron(S[2], np.kron(S[1], S[0])) @ Y.ravel(order="F")
        npt.assert_allclose(out.ravel(order="F"), oracle, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            _contract(np.zeros((4, 4)), [np.eye(3), np.eye(4)])

    def test_axis_order_irrelevant(self):
        # smoothing axes in any order gives the same array once each axis
        # has been hit exactly once
        rng = np.random.default_rng(4)
        Y = rng.normal(size=(3, 4, 5))
        mats = [rng.normal(size=(3, 3)), rng.normal(size=(4, 4)),
                rng.normal(size=(5, 5))]
        ref = _contract(Y, mats)
        # start from axis 1: contract the axes (1, 2, 0) of Y in turn
        alt = _contract(np.moveaxis(Y, 0, -1), [mats[1], mats[2], mats[0]])
        npt.assert_allclose(np.moveaxis(alt, -1, 0), ref, atol=1e-10)


class TestFitArray:
    def test_d2_matches_sandwich2d(self):
        # one engine runs both fits, so they carry the same bits, also on
        # heavy-tailed values in either memory order
        rng = np.random.default_rng(5)
        cases = [(rng.normal(size=(10, 12)), (AxisSpec(3, 2, 4), AxisSpec(3, 2, 5)))]
        heavy = 1e3 * rng.standard_t(1.5, (90, 70))
        cases += [(np.asarray(heavy, order=order), (AxisSpec(3, 2, 30), AxisSpec(3, 2, 25)))
                  for order in "CF"]
        grid = LambdaGrid.default()
        for Y, specs in cases:
            mfit = fit_array(ArrayData.on_midpoints(Y), specs,
                             (grid.lambda_x, grid.lambda_z))
            sfit = select_lambda(GridData(Y, *ArrayData.on_midpoints(Y).coords),
                                 specs, grid)
            assert mfit.lambdas == sfit.lambdas
            assert mfit.fitted.tobytes() == sfit.fitted.tobytes()
            assert (mfit.edf, mfit.sse, mfit.gcv_value) == (
                sfit.edf, sfit.sse, sfit.gcv_value)
            assert mfit.gcv_table.tobytes() == sfit.gcv_surface.tobytes()

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

    def test_values_near_the_float_limit_fit(self):
        # an unscaled projection of 1e307 * (1 + noise) overflows; the fit
        # projects the scaled values, as select_lambda does
        rng = np.random.default_rng(13)
        values = 1 + 0.1 * rng.normal(size=(20, 20, 20))
        base = fit_array(ArrayData.on_midpoints(values))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_array(ArrayData.on_midpoints(1e307 * values))
        assert fit.lambdas == base.lambdas
        npt.assert_allclose(fit.fitted, 1e307 * base.fitted, rtol=1e-12)

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
