import dataclasses
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandsmooth.basis import AxisSpec, design_matrix, diff_matrix
from sandsmooth.glam import ArrayData, fit_array
from sandsmooth.sandwich2d import (
    DegenerateFit,
    _contract,
    _gcv,
    _gcv_table,
    _pick,
    _shrink_table,
    _SpectralFit,
    GridData,
    LambdaGrid,
    gcv_score,
    predict,
    select_lambda,
)
from sandsmooth.spectra import axis_spectrum
from sandsmooth.surfaces import f2, midpoints

from dense_oracle import dense_factor


def dense_smoother(points, spec, lam):
    B = design_matrix(points, spec)
    D = diff_matrix(spec.n_basis, spec.penalty_order)
    return B @ np.linalg.solve(B.T @ B + lam * D.T @ D, B.T)


def toy_data(n1=10, n2=12, seed=0):
    rng = np.random.default_rng(seed)
    return GridData(rng.normal(size=(n1, n2)), midpoints(n1), midpoints(n2))


def projection(data, sx, sz):
    """The engine's Ytilde = A1' Y A2 and y'y of data, on the data's scale."""
    fit = _SpectralFit(data.Y, (sx, sz), data._scan)
    return np.ldexp(fit.Ytilde, fit.e), np.ldexp(fit.yty, 2 * fit.e)


def fast_sse(data, sx, sz, lam1, lam2):
    """The engine's fast-form SSE table over the candidate lists lam1 x lam2."""
    fit = _SpectralFit(data.Y, (sx, sz), data._scan)
    lams = (np.atleast_1d(lam1), np.atleast_1d(lam2))
    return np.ldexp(fit.score(lams)[2], 2 * fit.e)


def fast_terms(data, sx, sz, lam1, lam2):
    """yhat'yhat, yhat'y and y'y at (lam1, lam2), as the engine's SSE table
    forms them from W = Ytilde**2 and the shrink tables."""
    fit = _SpectralFit(data.Y, (sx, sz), data._scan)
    W = fit.Ytilde * fit.Ytilde
    shrink = [_shrink_table([lam1], sx.s), _shrink_table([lam2], sz.s)]
    terms = (_contract(W, [t * t for t in shrink])[0, 0], _contract(W, shrink)[0, 0],
             fit.yty)
    return [float(np.ldexp(t, 2 * fit.e)) for t in terms]


def single_fit(data, specs, lams):
    """The fit at one candidate per axis: a grid fit for 2 axes, else an
    array fit."""
    if isinstance(data, GridData):
        return select_lambda(data, specs, LambdaGrid(*([l] for l in lams)))
    return fit_array(data, specs, [[l] for l in lams])


class TestGridData:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            GridData(np.zeros((3, 4)), midpoints(3), midpoints(5))

    def test_unsorted_coords(self):
        with pytest.raises(ValueError, match=r"x_coords\[1\] is 0.2; coordinates must "
                                             "be strictly increasing"):
            GridData(np.zeros((3, 3)), np.array([0.5, 0.2, 0.8]), midpoints(3))

    def test_out_of_range_coords(self):
        with pytest.raises(ValueError, match=r"x_coords\[2\] is 1.2; coordinates must "
                                             r"lie within \[0, 1\]"):
            GridData(np.zeros((3, 3)), np.array([0.1, 0.5, 1.2]), midpoints(3))

    def test_empty_coords(self):
        with pytest.raises(ValueError, match=r"z_coords must be a non-empty vector"):
            GridData(np.zeros((3, 0)), midpoints(3), np.array([]))

    @pytest.mark.parametrize("name, index, bad, want", [
        ("Y", (1, 2), np.nan, r"Y\[1, 2\] is nan"),
        ("Y", (0, 0), -np.inf, r"Y\[0, 0\] is -inf"),
        ("x_coords", (1,), np.nan, r"x_coords\[1\] is nan"),
        ("z_coords", (2,), np.inf, r"z_coords\[2\] is inf"),
    ])
    def test_rejects_non_finite(self, name, index, bad, want):
        fields = {"Y": np.zeros((3, 4)), "x_coords": midpoints(3),
                  "z_coords": midpoints(4)}
        fields[name][index] = bad
        with pytest.raises(ValueError, match=want + "; values must be finite"):
            GridData(**fields)

    def test_counts(self):
        d = toy_data(4, 6)
        assert d.shape == (4, 6)
        assert d.n == 24

    @pytest.mark.parametrize("shape, want", [
        ((12,), r"Y must be a matrix, got ndim=1"),
        ((3, 4, 2), r"Y must be a matrix, got ndim=3"),
    ])
    def test_rejects_non_matrix(self, shape, want):
        with pytest.raises(ValueError, match=want):
            GridData(np.zeros(shape), midpoints(3), midpoints(4))

    def test_is_the_array_data_of_a_matrix(self):
        d = toy_data(4, 6)
        assert isinstance(d, ArrayData)
        assert d.values is d.Y and d.coords == (d.x_coords, d.z_coords)

    def test_dataclasses_replace_does_not_apply(self):
        # GridData's constructor takes Y, x_coords and z_coords, its fields
        # are ArrayData's values and coords
        with pytest.raises(TypeError):
            dataclasses.replace(toy_data(4, 6), values=np.ones((4, 6)))


class TestLambdaGrid:
    def test_default(self):
        g = LambdaGrid.default()
        assert g.lambda_x.size == 20
        npt.assert_allclose(g.lambda_x[0], 1e-5)
        npt.assert_allclose(g.lambda_x[-1], 1e4)
        npt.assert_allclose(np.diff(np.log10(g.lambda_x)), 9 / 19)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LambdaGrid([1.0, 0.0], [1.0])

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_error_names_the_bad_candidate(self, bad):
        with pytest.raises(ValueError, match=rf"lambda_x must be finite and "
                                             rf"strictly positive, got {bad}"):
            LambdaGrid([1.0, bad], [1.0])

    def test_guard_applies_to_grid_fits(self):
        data = toy_data(6, 6)
        assert select_lambda(data, grid=LambdaGrid.default(316)).gcv_surface.shape \
            == (316, 316)
        with pytest.raises(ValueError, match="100489 lambda combinations exceed the guard"):
            select_lambda(data, grid=LambdaGrid.default(317))


class TestTransformData:
    """The engine's projection Ytilde = A1' Y A2 and its y'y."""

    def test_zero_matrix(self):
        d = GridData(np.zeros((8, 9)), midpoints(8), midpoints(9))
        sx = axis_spectrum(d.x_coords, AxisSpec(3, 2, 3))
        sz = axis_spectrum(d.z_coords, AxisSpec(3, 2, 4))
        Yt, yty = projection(d, sx, sz)
        assert yty == 0.0
        npt.assert_array_equal(Yt, 0.0)

    def test_recovers_coordinates_in_A_range(self):
        # Y = A1 M A2' must transform back to M exactly (orthonormal columns)
        sx = axis_spectrum(midpoints(15), AxisSpec(3, 2, 4))
        sz = axis_spectrum(midpoints(18), AxisSpec(3, 2, 5))
        rng = np.random.default_rng(3)
        M = rng.normal(size=(sx.n_basis, sz.n_basis))
        A1, A2 = dense_factor(sx, midpoints(15)), dense_factor(sz, midpoints(18))
        d = GridData(A1 @ M @ A2.T, midpoints(15), midpoints(18))
        Yt, _ = projection(d, sx, sz)
        npt.assert_allclose(Yt, M, atol=1e-10)

    def test_matches_dense_triple_product(self):
        d = toy_data(20, 30, seed=11)
        sx = axis_spectrum(d.x_coords, AxisSpec(3, 2, 7))
        sz = axis_spectrum(d.z_coords, AxisSpec(3, 2, 9))
        Yt, yty = projection(d, sx, sz)
        A1, A2 = dense_factor(sx, d.x_coords), dense_factor(sz, d.z_coords)
        expected = np.array([[a @ d.Y @ b for b in A2.T] for a in A1.T])
        npt.assert_allclose(Yt, expected, atol=1e-12)
        assert yty == pytest.approx(np.linalg.norm(d.Y) ** 2)

    def test_dimension_mismatch(self):
        d = toy_data(10, 12)
        sx = axis_spectrum(midpoints(11), AxisSpec(3, 2, 4))
        sz = axis_spectrum(d.z_coords, AxisSpec(3, 2, 4))
        with pytest.raises(ValueError):
            projection(d, sx, sz)


class TestSseFast:
    """The engine's fast-form SSE table, yhat'yhat - 2 yhat'y + y'y."""

    def setup_method(self):
        self.data = toy_data(20, 30, seed=7)
        self.spec_x = AxisSpec(3, 2, 6)
        self.spec_z = AxisSpec(3, 2, 8)
        self.sx = axis_spectrum(self.data.x_coords, self.spec_x)
        self.sz = axis_spectrum(self.data.z_coords, self.spec_z)

    def test_interpolating_projection(self):
        # square invertible design: c_i = n_i, lambda = 0 reproduces the data
        n1, n2 = 6, 7
        d = toy_data(n1, n2, seed=2)
        spec_x = AxisSpec(0, 1, n1)
        spec_z = AxisSpec(0, 1, n2)
        sx = axis_spectrum(d.x_coords, spec_x)
        sz = axis_spectrum(d.z_coords, spec_z)
        _, yty = projection(d, sx, sz)
        assert fast_sse(d, sx, sz, 0.0, 0.0)[0, 0] <= 1e-8 * yty

    def test_matches_dense_residual(self):
        S1 = dense_smoother(self.data.x_coords, self.spec_x, 1.0)
        S2 = dense_smoother(self.data.z_coords, self.spec_z, 1.0)
        dense = np.linalg.norm(S1 @ self.data.Y @ S2 - self.data.Y) ** 2
        fast = fast_sse(self.data, self.sx, self.sz, 1.0, 1.0)[0, 0]
        npt.assert_allclose(fast, dense, rtol=1e-8)

    def test_huge_lambda_matches_bilinear_regression(self):
        x, z = self.data.x_coords, self.data.z_coords
        X = np.stack(
            [np.ones(self.data.n),
             np.repeat(x, z.size),
             np.tile(z, x.size),
             np.repeat(x, z.size) * np.tile(z, x.size)],
            axis=1,
        )
        y = self.data.Y.ravel()
        resid = y - X @ np.linalg.lstsq(X, y, rcond=None)[0]
        fast = fast_sse(self.data, self.sx, self.sz, 1e12, 1e12)[0, 0]
        npt.assert_allclose(fast, resid @ resid, rtol=1e-4)

    def test_terms_match_dense_decomposition(self):
        # each piece of yhat'yhat - 2 yhat'y + y'y separately
        for lam1, lam2 in [(0.5, 3.0), (10.0, 0.01), (1e3, 1e3)]:
            S1 = dense_smoother(self.data.x_coords, self.spec_x, lam1)
            S2 = dense_smoother(self.data.z_coords, self.spec_z, lam2)
            yhat = (S1 @ self.data.Y @ S2).ravel()
            y = self.data.Y.ravel()
            hh, hy, yy = fast_terms(self.data, self.sx, self.sz, lam1, lam2)
            npt.assert_allclose(hh, yhat @ yhat, rtol=1e-8)
            npt.assert_allclose(hy, yhat @ y, rtol=1e-8)
            npt.assert_allclose(yy, y @ y, rtol=1e-14)

    def test_sse_nonnegative_across_grid(self):
        lams = np.logspace(-5, 4, 10)
        sse = fast_sse(self.data, self.sx, self.sz, lams, lams)
        assert sse.shape == (10, 10)
        assert np.all(sse >= 0.0)


class TestGcvScore:
    def test_zero_sse(self):
        assert gcv_score(0.0, 5.0, 100) == 0.0

    def test_unit_ratio(self):
        assert gcv_score(100.0, 0.0, 100) == 1.0

    def test_arithmetic(self):
        assert gcv_score(10.0, 20.0, 100) == pytest.approx(0.15625)

    def test_degenerate(self):
        with pytest.raises(DegenerateFit):
            gcv_score(1.0, 100.0, 100)


class TestSelectLambda:
    def test_gcv_surface_matches_dense(self):
        # every one of the 400 grid entries against a dense-smoother oracle
        data = toy_data(10, 12, seed=5)
        specs = (AxisSpec(3, 2, 4), AxisSpec(3, 2, 5))
        grid = LambdaGrid.default()
        fit = select_lambda(data, specs, grid)
        n = data.n
        for i, l1 in enumerate(grid.lambda_x):
            S1 = dense_smoother(data.x_coords, specs[0], l1)
            for j, l2 in enumerate(grid.lambda_z):
                S2 = dense_smoother(data.z_coords, specs[1], l2)
                sse = np.linalg.norm(S1 @ data.Y @ S2 - data.Y) ** 2
                edf = np.trace(S1) * np.trace(S2)
                dense_gcv = (sse / n) / (1 - edf / n) ** 2
                npt.assert_allclose(fit.gcv_surface[i, j], dense_gcv, rtol=1e-8)

    def test_constant_surface(self):
        d = GridData(np.full((9, 11), 3.7), midpoints(9), midpoints(11))
        fit = select_lambda(d, (AxisSpec(3, 2, 4), AxisSpec(3, 2, 4)))
        npt.assert_allclose(fit.fitted, 3.7, atol=1e-9)
        assert fit.sse <= 1e-16 * d.n

    def test_constant_tie_breaks_to_smoothest(self):
        # SSE = 0 at every grid point, so GCV ties at 0: the largest
        # (lam1, lam2) must win
        d = GridData(np.full((9, 11), 1.0), midpoints(9), midpoints(11))
        grid = LambdaGrid.default()
        fit = select_lambda(d, (AxisSpec(3, 2, 4), AxisSpec(3, 2, 4)), grid)
        assert fit.lambdas == (grid.lambda_x[-1], grid.lambda_z[-1])

    def test_beats_corner_lambdas_on_smooth_truth(self):
        rng = np.random.default_rng(17)
        x, z = midpoints(20), midpoints(30)
        truth = f2(x[:, None], z[None, :])
        d = GridData(truth + 0.1 * rng.standard_normal((20, 30)), x, z)
        specs = (AxisSpec(3, 2, 10), AxisSpec(3, 2, 15))
        grid = LambdaGrid.default()
        fit = select_lambda(d, specs, grid)

        def ise(l1, l2):
            Theta = single_fit(d, specs, (l1, l2)).Theta
            B1 = design_matrix(x, specs[0])
            B2 = design_matrix(z, specs[1])
            return np.mean((B1 @ Theta @ B2.T - truth) ** 2)

        ise_best = ise(*fit.lambdas)
        for l1 in (grid.lambda_x[0], grid.lambda_x[-1]):
            for l2 in (grid.lambda_z[0], grid.lambda_z[-1]):
                assert ise_best < ise(l1, l2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 3), st.integers(0, 2**32 - 1))
    def test_denser_candidates_never_worse(self, d, seed):
        # a finer lambda comes from a denser list: adding candidates to
        # every axis's list never raises the GCV of the chosen fit (up to
        # the fast form's cancellation noise, of order eps * y'y)
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(8, 15, size=d))
        values = rng.normal(size=shape) + np.linspace(0.0, 2.0, shape[-1])
        coarse = [10.0 ** rng.uniform(-6, 5, size=rng.integers(1, 6)) for _ in range(d)]
        dense = [np.union1d(g, 10.0 ** rng.uniform(-6, 5, size=rng.integers(1, 9)))
                 for g in coarse]
        if d == 2:
            data = GridData(values, midpoints(shape[0]), midpoints(shape[1]))
            fits = [select_lambda(data, grid=LambdaGrid(*g)) for g in (coarse, dense)]
        else:
            data = ArrayData.on_midpoints(values)
            fits = [fit_array(data, grids=g) for g in (coarse, dense)]
        assert fits[1].gcv_value <= fits[0].gcv_value * (1 + 1e-12)

    @pytest.mark.parametrize("shift", [530, -530, 3])
    def test_power_of_two_scaling_is_exact(self, shift):
        # |Y| near 1e160 squares past the float range; the fit runs on a
        # power-of-two rescaling, so it must scale exactly with the data
        d = toy_data(20, 30, seed=8)
        specs = (AxisSpec(3, 2, 10), AxisSpec(3, 2, 15))
        base = select_lambda(d, specs)
        big = GridData(np.ldexp(d.Y, shift), d.x_coords, d.z_coords)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = select_lambda(big, specs)
        assert fit.lambdas == base.lambdas
        assert np.array_equal(fit.fitted, np.ldexp(base.fitted, shift))
        assert np.array_equal(fit.Theta, np.ldexp(base.Theta, shift))
        with np.errstate(over="ignore"):
            assert fit.sse == np.ldexp(base.sse, 2 * shift)
            assert np.array_equal(fit.gcv_surface, np.ldexp(base.gcv_surface, 2 * shift))

    def test_near_saturated_square_design(self):
        # square design at tiny lambda: edf just below n, GCV finite, the
        # fit essentially interpolates
        d = toy_data(4, 4, seed=1)
        specs = (AxisSpec(0, 1, 4), AxisSpec(0, 1, 4))
        fit = select_lambda(d, specs, LambdaGrid([1e-12], [1e-12]))
        assert np.isfinite(fit.gcv_value)
        assert fit.edf < d.n
        npt.assert_allclose(fit.fitted, d.Y, atol=1e-9)


class TestKroneckerEquivalence:
    def test_vec_identity(self):
        # vec(fitted) = (S2 kron S1) vec(Y) with column-stacking vec
        for seed, (n1, n2) in [(0, (10, 12)), (1, (12, 15)), (2, (8, 9))]:
            data = toy_data(n1, n2, seed=seed)
            specs = (AxisSpec(3, 2, 4), AxisSpec(2, 1, 5))
            fit = select_lambda(data, specs, LambdaGrid([2.5], [0.3]))
            S1 = dense_smoother(data.x_coords, specs[0], 2.5)
            S2 = dense_smoother(data.z_coords, specs[1], 0.3)
            vec_fit = fit.fitted.ravel(order="F")
            vec_oracle = np.kron(S2, S1) @ data.Y.ravel(order="F")
            npt.assert_allclose(vec_fit, vec_oracle, atol=1e-8)

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(4)
        M = rng.normal(size=(13, 13))
        d = GridData(M + M.T, midpoints(13), midpoints(13))
        spec = AxisSpec(3, 2, 5)
        fit = select_lambda(d, (spec, spec), LambdaGrid([1.7], [1.7]))
        npt.assert_allclose(fit.fitted, fit.fitted.T, atol=1e-10)

    def test_transpose_mirrors_gcv_surface(self):
        d = toy_data(9, 14, seed=8)
        dT = GridData(d.Y.T, d.z_coords, d.x_coords)
        specs = (AxisSpec(3, 2, 4), AxisSpec(2, 2, 6))
        grid = LambdaGrid(np.logspace(-3, 3, 7), np.logspace(-2, 2, 5))
        gridT = LambdaGrid(grid.lambda_z, grid.lambda_x)
        fit = select_lambda(d, specs, grid)
        fitT = select_lambda(dT, (specs[1], specs[0]), gridT)
        npt.assert_allclose(fitT.gcv_surface, fit.gcv_surface.T, rtol=1e-12)
        npt.assert_allclose(fitT.fitted, fit.fitted.T, atol=1e-12)

    def test_edf_monotone_in_lambda(self):
        data = toy_data(12, 12, seed=3)
        specs = (AxisSpec(3, 2, 5), AxisSpec(3, 2, 5))
        grid = LambdaGrid.default(10)
        sx = axis_spectrum(data.x_coords, specs[0])
        sz = axis_spectrum(data.z_coords, specs[1])
        tr1 = np.array([np.sum(1 / (1 + l * sx.s)) for l in grid.lambda_x])
        tr2 = np.array([np.sum(1 / (1 + l * sz.s)) for l in grid.lambda_z])
        edf = np.outer(tr1, tr2)
        assert np.all(np.diff(edf, axis=0) < 0)
        assert np.all(np.diff(edf, axis=1) < 0)


class TestSolveCoefficients:
    """Theta of a fit at one candidate per axis against the dense penalized
    normal equations.  A fit's candidates are positive, so lambda = 1e-12
    stands in for 0 where the data lie in the spline space."""

    def test_interpolation_recovers_data(self):
        n1, n2 = 5, 6
        d = toy_data(n1, n2, seed=6)
        specs = (AxisSpec(0, 1, n1), AxisSpec(0, 1, n2))
        Theta = single_fit(d, specs, (1e-12, 1e-12)).Theta
        B1 = design_matrix(d.x_coords, specs[0])
        B2 = design_matrix(d.z_coords, specs[1])
        npt.assert_allclose(B1 @ Theta @ B2.T, d.Y, atol=1e-10)

    def test_exact_recovery_of_planted_coefficients(self):
        spec_x, spec_z = AxisSpec(3, 2, 4), AxisSpec(3, 2, 5)
        x, z = midpoints(14), midpoints(16)
        B1, B2 = design_matrix(x, spec_x), design_matrix(z, spec_z)
        rng = np.random.default_rng(10)
        M = rng.normal(size=(spec_x.n_basis, spec_z.n_basis))
        d = GridData(B1 @ M @ B2.T, x, z)
        Theta = single_fit(d, (spec_x, spec_z), (1e-12, 1e-12)).Theta
        npt.assert_allclose(Theta, M, atol=1e-8)

    @staticmethod
    def assert_normal_equations(data, specs, lams, Theta):
        # (L_d kron ... kron L_1) vec(Theta) = (B_d kron ... kron B_1)' vec(Y),
        # column-stacking vec, L_k = B_k' B_k + lam_k D_k' D_k
        L = B = np.ones((1, 1))
        for c, spec, lam in zip(data.coords, specs, lams):
            Bk = design_matrix(c, spec)
            Dk = np.diff(np.eye(spec.n_basis), n=spec.penalty_order, axis=0)
            L = np.kron(Bk.T @ Bk + lam * Dk.T @ Dk, L)
            B = np.kron(Bk, B)
        lhs = L @ Theta.ravel(order="F")
        rhs = B.T @ data.values.ravel(order="F")
        npt.assert_allclose(lhs, rhs, atol=1e-8)

    def test_kronecker_normal_equations(self):
        d = toy_data(8, 9, seed=12)
        specs, lams = (AxisSpec(3, 2, 3), AxisSpec(2, 1, 4)), (0.8, 2.3)
        self.assert_normal_equations(d, specs, lams, single_fit(d, specs, lams).Theta)

    def test_kronecker_normal_equations_three_axes(self):
        rng = np.random.default_rng(14)
        d = ArrayData.on_midpoints(rng.normal(size=(7, 8, 9)))
        specs = (AxisSpec(3, 2, 3), AxisSpec(2, 1, 4), AxisSpec(1, 2, 3))
        lams = (0.8, 2.3, 0.05)
        fit = single_fit(d, specs, lams)
        assert fit.Theta.shape == tuple(s.n_basis for s in specs)
        self.assert_normal_equations(d, specs, lams, fit.Theta)

    def test_consistent_with_fitted(self):
        d = toy_data(11, 13, seed=13)
        specs = (AxisSpec(3, 2, 4), AxisSpec(3, 2, 5))
        fit = select_lambda(d, specs, LambdaGrid.default(6))
        B1 = design_matrix(d.x_coords, specs[0])
        B2 = design_matrix(d.z_coords, specs[1])
        npt.assert_allclose(B1 @ fit.Theta @ B2.T, fit.fitted, atol=1e-8)


class TestPredict:
    def setup_method(self):
        self.data = toy_data(12, 14, seed=20)
        self.specs = (AxisSpec(3, 2, 5), AxisSpec(3, 2, 6))
        self.fit = select_lambda(self.data, self.specs, LambdaGrid.default(5))

    def test_grid_points_match_fitted(self):
        for i in [0, 5, 11]:
            for j in [0, 7, 13]:
                got = predict(self.fit.Theta, self.specs,
                              self.data.x_coords[i], self.data.z_coords[j])
                npt.assert_allclose(got, self.fit.fitted[i, j], atol=1e-10)

    def test_all_ones_theta(self):
        Theta = np.ones((self.specs[0].n_basis, self.specs[1].n_basis))
        for x, z in [(0.0, 0.0), (0.31, 0.77), (1.0, 1.0), (0.5, 0.123)]:
            assert predict(Theta, self.specs, x, z) == pytest.approx(1.0, abs=1e-12)

    def test_random_points_match_dense_tensor(self):
        rng = np.random.default_rng(21)
        pts = rng.uniform(0.01, 0.99, size=(100, 2))
        B1 = design_matrix(pts[:, 0], self.specs[0])
        B2 = design_matrix(pts[:, 1], self.specs[1])
        dense = np.einsum("ik,kl,il->i", B1, self.fit.Theta, B2)
        got = np.array([predict(self.fit.Theta, self.specs, x, z) for x, z in pts])
        npt.assert_allclose(got, dense, atol=1e-10)

    def test_out_of_domain(self):
        with pytest.raises(ValueError):
            predict(self.fit.Theta, self.specs, 1.2, 0.5)

    def test_theta_checked_against_specs(self):
        specs = (AxisSpec(knot_segments=10),) * 2  # 13 x 13 basis functions
        with pytest.raises(ValueError, match=r"Theta has shape \(23, 28\), but the "
                           r"specs have 13 x 13 basis functions"):
            predict(np.ones((23, 28)), specs, 0.3, 0.3)


@st.composite
def search_problems(draw):
    """Data of d = 1, 2 or 3 axes with random orthonormal axis bases A_k,
    nonnegative penalty eigenvalues s_k and ascending candidate lists."""
    d = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = [draw(st.integers(2, 6)) for _ in range(d)]
    c = [draw(st.integers(1, k)) for k in n]
    bases = [np.linalg.qr(rng.normal(size=(nk, ck)))[0] for nk, ck in zip(n, c)]
    s = [np.sort(rng.exponential(size=ck)) * (rng.uniform(size=ck) > 0.2)
         for ck in c]
    lams = [np.sort(10.0 ** rng.uniform(-3, 3, size=draw(st.integers(1, 4))))
            for _ in range(d)]
    return rng.normal(size=n), bases, s, lams


def project(Y, bases):
    """Contract axis k of Y with bases[k]' (the d-axis Ytilde)."""
    for k, A in enumerate(bases):
        Y = np.moveaxis(np.tensordot(A.T, Y, axes=(1, k)), 0, k)
    return Y


def sse_table(W, yty, s, lams):
    """The engine's fast-form SSE table."""
    return _gcv_table(W, yty, s, lams, W.size)[2]


class TestSearchEngine:
    """The one GCV search that the grid, array, covariance and scattered-data
    fits share, checked at d = 1, 2 and 3."""

    @settings(max_examples=60, deadline=None)
    @given(search_problems())
    def test_matches_dense_kronecker(self, problem):
        Y, bases, s, lams = problem
        W, yty = project(Y, bases) ** 2, float(np.sum(Y * Y))
        gcv, edf, sse = _gcv_table(W, yty, s, lams, Y.size)
        shrink = [_shrink_table(l, sk) for l, sk in zip(lams, s)]
        assert np.array_equal(gcv, _gcv(sse, shrink, Y.size)[0])
        y = Y.ravel(order="F")
        for idx in np.ndindex(*sse.shape):
            S = [(A / (1.0 + l[i] * sk)) @ A.T
                 for A, sk, l, i in zip(bases, s, lams, idx)]
            big = S[0]
            for Sk in S[1:]:
                big = np.kron(Sk, big)
            resid = y - big @ y
            npt.assert_allclose(sse[idx], resid @ resid, rtol=1e-10,
                                atol=1e-10 * yty)
            npt.assert_allclose(edf[idx], np.prod([np.trace(Sk) for Sk in S]),
                                rtol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(search_problems(), st.randoms(use_true_random=False))
    def test_permuted_axes_permute_the_table(self, problem, random):
        Y, bases, s, lams = problem
        order = list(range(Y.ndim))
        random.shuffle(order)
        W = project(Y, bases) ** 2
        yty = float(np.sum(Y * Y))
        ps, plams = [s[k] for k in order], [lams[k] for k in order]
        npt.assert_allclose(sse_table(W.transpose(order), yty, ps, plams),
                            sse_table(W, yty, s, lams).transpose(order),
                            rtol=1e-12, atol=1e-12 * yty)
        npt.assert_allclose(_gcv_table(W.transpose(order), yty, ps, plams, Y.size)[1],
                            _gcv_table(W, yty, s, lams, Y.size)[1].transpose(order),
                            rtol=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(search_problems())
    def test_edf_never_grows_with_lambda(self, problem):
        _, _, s, lams = problem
        _, edf = _gcv(np.zeros([l.size for l in lams]),
                      [_shrink_table(l, sk) for l, sk in zip(lams, s)], np.inf)
        for axis in range(edf.ndim):
            assert np.all(np.diff(edf, axis=axis) <= 0)

    @settings(max_examples=60, deadline=None)
    @given(search_problems(), st.randoms(use_true_random=False))
    def test_all_ties_pick_the_largest_lambdas(self, problem, random):
        # with SSE = 0 everywhere every usable candidate scores 0; the winner
        # must be the largest lambda on each axis, in whatever order listed
        _, _, s, lams = problem
        lams = [random.sample(list(l), len(l)) for l in lams]
        shrink = [_shrink_table(l, sk) for l, sk in zip(lams, s)]
        gcv, _ = _gcv(np.zeros([len(l) for l in lams]), shrink, np.inf)
        assert _pick(gcv, np.inf, lams) == tuple(int(np.argmax(l)) for l in lams)

    def test_no_usable_candidate_names_n(self):
        shrink = [_shrink_table([1.0, 2.0], np.zeros(3))]  # edf = 3 everywhere
        gcv, _ = _gcv(np.ones(2), shrink, 3)
        assert np.all(np.isinf(gcv))
        with pytest.raises(DegenerateFit, match="every candidate has edf >= n = 3"):
            _pick(gcv, 3, [[1.0, 2.0]])

    def test_inconsistent_sse_raises(self):
        rng = np.random.default_rng(3)
        W = rng.uniform(size=(3, 4))
        s = [np.zeros(3), np.zeros(4)]
        # with s = 0 the fit keeps all of Ytilde: SSE = y'y - sum(W), and a
        # y'y below sum(W) is impossible for real data
        with pytest.raises(FloatingPointError, match="among the candidates"):
            _gcv_table(W, 0.5 * W.sum(), s, [[1.0], [1.0]], 100)
        gcv, _, _ = _gcv_table(W, W.sum(), s, [[1.0], [1.0]], 100)
        assert gcv[0, 0] >= 0.0
