import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from sandsmooth import binning
from sandsmooth.basis import AxisSpec, design_matrix, diff_matrix
from sandsmooth.binning import (
    ScatterData,
    auto_bin_count,
    bin_scatter,
    iterative_fit,
    _masked_gram,
    _masked_search,
    _masked_sse_table,
    _weighted_term,
)
from sandsmooth.sandwich2d import (
    DegenerateFit,
    GridData,
    LambdaGrid,
    _expand_axis,
    select_lambda,
)
from sandsmooth.spectra import axis_spectrum
from sandsmooth.surfaces import f2

from dense_oracle import apply_smoother, dense_factor, trace_smoother


def centers(n):
    return (np.arange(n) + 0.5) / n


def factors(*spectra):
    """A_k = B_k F_k of each spectrum at its points, through the row blocks
    of B_k, as iterative_fit forms them."""
    return [_expand_axis(sp.coef_map, 0, sp.blocks, sp.n_points) for sp in spectra]


def full_scatter(i1, i2, values):
    """One point exactly at every bin center."""
    x = np.repeat(centers(i1), i2)
    z = np.tile(centers(i2), i1)
    return ScatterData(x, z, np.asarray(values, dtype=float).ravel())


def masked_search_loop(Y, occupied, sx, sz, lam1, lam2, n_eff):
    """The per-pair search that _masked_search replaced, kept as its oracle;
    the spectra are those of the bin centers of Y's grid."""
    x, z = centers(Y.shape[0]), centers(Y.shape[1])
    tr1 = np.array([trace_smoother(sx.s, l) for l in lam1])
    tr2 = np.array([trace_smoother(sz.s, l) for l in lam2])
    gcv = np.full((lam1.size, lam2.size), np.inf)
    sse = np.full_like(gcv, np.nan)
    for i, l1 in enumerate(lam1):
        half = apply_smoother(sx, x, l1, Y)  # S1 @ Y
        for j, l2 in enumerate(lam2):
            yhat = apply_smoother(sz, z, l2, half.T).T  # S1 @ Y @ S2
            resid = (Y - yhat)[occupied]
            sse[i, j] = resid @ resid
            edf = tr1[i] * tr2[j]
            if edf < n_eff:
                gcv[i, j] = (sse[i, j] / n_eff) / (1.0 - edf / n_eff) ** 2
    best = gcv.min()
    if not np.isfinite(best):
        raise DegenerateFit("every candidate pair has edf >= occupied-cell count")
    ties = np.argwhere(gcv == best)
    i, j = max(ties, key=lambda ij: (lam1[ij[0]], lam2[ij[1]]))
    return int(i), int(j)


def holed_scatter(seed, n=600):
    """Noisy smooth surface sampled around a disc with no points."""
    rng = np.random.default_rng(seed)
    x, z = rng.uniform(size=(2, 2 * n))
    keep = ((x - 0.5) ** 2 + (z - 0.5) ** 2 > 0.2 ** 2).nonzero()[0][:n]
    y = f2(x[keep], z[keep]) + 0.1 * rng.standard_normal(keep.size)
    return ScatterData(x[keep], z[keep], y)


class TestScatterData:
    def test_rejects_out_of_square(self):
        with pytest.raises(ValueError):
            ScatterData([0.5, 1.5], [0.5, 0.5], [1.0, 2.0])

    @pytest.mark.parametrize("name", ["x", "z", "y"])
    def test_rejects_non_finite(self, name):
        cols = {"x": [0.1, 0.2, 0.3], "z": [0.4, 0.5, 0.6], "y": [1.0, 2.0, 3.0]}
        cols[name][2] = np.nan
        with pytest.raises(ValueError, match=rf"{name}\[2\] is nan"):
            ScatterData(**cols)
        cols[name][2] = np.inf
        with pytest.raises(ValueError, match=rf"{name}\[2\] is inf"):
            ScatterData(**cols)

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            ScatterData([0.5], [0.5, 0.6], [1.0, 2.0])


class TestAutoBinCount:
    def test_values(self):
        assert auto_bin_count(100) == 5
        assert auto_bin_count(4900) == 35
        assert auto_bin_count(100000) == 35
        assert auto_bin_count(1) == 1


class TestBinScatter:
    def test_one_point_per_center(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(4, 6))
        grid = bin_scatter(full_scatter(4, 6, vals), 4, 6)
        npt.assert_array_equal(grid.means, vals)
        npt.assert_array_equal(grid.counts, 1)
        assert not grid.empty_mask.any()

    def test_two_points_one_bin(self):
        data = ScatterData([0.1, 0.12], [0.1, 0.11], [1.0, 3.0])
        grid = bin_scatter(data, 2, 2)
        assert grid.means[0, 0] == 2.0
        assert grid.counts[0, 0] == 2
        assert grid.counts.sum() == 2
        assert np.isnan(grid.means[1, 1])

    def test_floor_index_oracle(self):
        rng = np.random.default_rng(42)
        n = 500
        data = ScatterData(rng.uniform(size=n), rng.uniform(size=n),
                           rng.normal(size=n))
        grid = bin_scatter(data, 10, 10)
        assert grid.counts.sum() == n
        counts = np.zeros((10, 10), dtype=int)
        sums = np.zeros((10, 10))
        for x, z, y in zip(data.x, data.z, data.y):
            k = min(int(np.floor(x * 10)), 9)
            l = min(int(np.floor(z * 10)), 9)
            counts[k, l] += 1
            sums[k, l] += y
        npt.assert_array_equal(grid.counts, counts)
        occupied = counts > 0
        npt.assert_allclose(grid.means[occupied], sums[occupied] / counts[occupied])

    def test_edges(self):
        # half-open cells, top/right edges fold into the last cell
        data = ScatterData([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], [1.0, 2.0, 3.0])
        grid = bin_scatter(data, 2, 2)
        assert grid.counts[0, 0] == 1
        assert grid.counts[1, 1] == 2  # both (0.5, 0.5) and (1.0, 1.0)

    def test_center_formula(self):
        grid = bin_scatter(ScatterData([0.5], [0.5], [1.0]), 4, 8)
        npt.assert_array_equal(grid.x_centers, (np.arange(1, 5) - 0.5) / 4)
        npt.assert_array_equal(grid.z_centers, (np.arange(1, 9) - 0.5) / 8)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            bin_scatter(ScatterData([0.5], [0.5], [1.0]), 0, 4)


class TestMaskedSearch:
    def test_masked_sse_matches_dense_recomputation(self):
        rng = np.random.default_rng(7)
        i1 = i2 = 8
        Y = rng.normal(size=(i1, i2))
        occupied = rng.uniform(size=(i1, i2)) > 0.3
        occupied[0, 0] = True  # keep at least one
        specs = (AxisSpec(3, 2, 3), AxisSpec(3, 2, 3))
        sx = axis_spectrum(centers(i1), specs[0])
        sz = axis_spectrum(centers(i2), specs[1])
        lam1 = np.logspace(-2, 2, 5)
        lam2 = np.logspace(-1, 1, 4)
        n_eff = int(occupied.sum())
        got = _masked_search(Y, _masked_gram(Y, occupied, *factors(sx, sz)), sx, sz,
                             lam1, lam2, n_eff)
        gcv = np.empty((lam1.size, lam2.size))
        A1, A2 = dense_factor(sx, centers(i1)), dense_factor(sz, centers(i2))
        for i, l1 in enumerate(lam1):
            S1 = (A1 / (1 + l1 * sx.s)) @ A1.T
            for j, l2 in enumerate(lam2):
                S2 = (A2 / (1 + l2 * sz.s)) @ A2.T
                resid = (Y - S1 @ Y @ S2)[occupied]
                edf = np.trace(S1) * np.trace(S2)
                gcv[i, j] = (resid @ resid / n_eff) / (1 - edf / n_eff) ** 2
        assert got == np.unravel_index(np.argmin(gcv), gcv.shape)


    @staticmethod
    def masked_problem(seed, i1, i2):
        """Working grid, mask with one empty row and column, and spectra."""
        rng = np.random.default_rng(seed)
        Y = rng.normal(size=(i1, i2))
        occupied = rng.uniform(size=(i1, i2)) > 0.3
        occupied[rng.integers(i1), :] = False
        occupied[:, rng.integers(i2)] = False
        sx = axis_spectrum(centers(i1), AxisSpec(3, 2, 4))
        sz = axis_spectrum(centers(i2), AxisSpec(2, 2, 5))
        return Y, occupied, sx, sz

    @pytest.mark.parametrize("seed, i1, i2", [(1, 9, 13), (2, 14, 8), (3, 11, 11)])
    def test_sse_table_matches_dense_smoothers(self, seed, i1, i2):
        Y, occupied, sx, sz = self.masked_problem(seed, i1, i2)
        lam1 = np.logspace(-3, 3, 6)
        lam2 = np.logspace(-2, 4, 7)
        table = _masked_sse_table(Y, _masked_gram(Y, occupied, *factors(sx, sz)), sx, sz,
                                  lam1, lam2)
        dense = np.empty((lam1.size, lam2.size))
        A1, A2 = dense_factor(sx, centers(i1)), dense_factor(sz, centers(i2))
        for i, l1 in enumerate(lam1):
            S1 = (A1 / (1 + l1 * sx.s)) @ A1.T
            for j, l2 in enumerate(lam2):
                S2 = (A2 / (1 + l2 * sz.s)) @ A2.T
                resid = (Y - S1 @ Y @ S2)[occupied]
                dense[i, j] = resid @ resid
        npt.assert_allclose(table, dense, rtol=1e-10)

    @pytest.mark.parametrize("seed, i1, i2", [(4, 9, 13), (5, 14, 8), (6, 11, 11)])
    def test_winner_matches_loop(self, seed, i1, i2):
        Y, occupied, sx, sz = self.masked_problem(seed, i1, i2)
        lam1 = lam2 = LambdaGrid.default().lambda_x
        n_eff = int(occupied.sum())
        got = _masked_search(Y, _masked_gram(Y, occupied, *factors(sx, sz)), sx, sz,
                             lam1, lam2, n_eff)
        assert got == masked_search_loop(Y, occupied, sx, sz, lam1, lam2, n_eff)

    @pytest.mark.parametrize("init", ["nearest", "zero"])
    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_iterative_fit_matches_loop(self, monkeypatch, seed, init):
        # init is accepted but has no effect, so either value must give the
        # default fit, and the fit must not change with the oracle search
        data = holed_scatter(seed)
        new = iterative_fit(data, 16, 20, init=init)
        default = iterative_fit(data, 16, 20)

        def loop_search(Y, masked, sx, sz, lam1, lam2, n_eff):
            return masked_search_loop(Y, masked.occupied, sx, sz, lam1, lam2,
                                      n_eff)

        monkeypatch.setattr(binning, "_masked_search", loop_search)
        old = iterative_fit(data, 16, 20, init=init)
        assert new.binned.empty_mask.any()
        for other in (old, default):
            assert new.fit.lambdas == other.fit.lambdas
            assert np.array_equal(new.fit.fitted, other.fit.fitted)
            assert new.changes == other.changes
            assert new.masked_sse == other.masked_sse
            assert new.masked_gcv == other.masked_gcv
            assert new.iterations == other.iterations

    def test_no_per_pair_smoother_work(self, monkeypatch):
        # each search scores every pair from one closed-form table, and
        # each selected pair costs one weighted solve
        tables, solves = [], []
        table, solve = binning._masked_sse_table, binning._weighted_solve

        def counting_table(*args):
            tables.append(1)
            return table(*args)

        def counting_solve(*args):
            solves.append(1)
            return solve(*args)

        monkeypatch.setattr(binning, "_masked_sse_table", counting_table)
        monkeypatch.setattr(binning, "_weighted_solve", counting_solve)
        res = iterative_fit(holed_scatter(34), 16, 20, max_iter=5)
        assert res.converged
        assert len(tables) == res.iterations
        assert len(solves) == len(res.changes) == res.iterations - 1


class TestIterativeFit:
    def test_all_occupied_delegates_exactly(self):
        rng = np.random.default_rng(3)
        i1, i2 = 6, 7
        vals = rng.normal(size=(i1, i2))
        data = full_scatter(i1, i2, vals)
        specs = (AxisSpec(3, 2, 3), AxisSpec(3, 2, 3))
        grid = LambdaGrid.default(10)
        res = iterative_fit(data, i1, i2, specs, grid)
        direct = select_lambda(GridData(vals, centers(i1), centers(i2)), specs, grid)
        assert res.iterations == 1
        assert res.converged
        assert res.fit.lambdas == direct.lambdas
        npt.assert_array_equal(res.fit.fitted, direct.fitted)
        npt.assert_array_equal(res.fit.gcv_surface, direct.gcv_surface)

    def test_smooth_truth_converges(self):
        rng = np.random.default_rng(11)
        n = 2000
        x, z = rng.uniform(size=n), rng.uniform(size=n)
        y = f2(x, z) + 0.1 * rng.standard_normal(n)
        res = iterative_fit(ScatterData(x, z, y), 20, 20)
        assert res.converged
        assert res.iterations <= 20
        assert res.n_occupied < 400  # some of the 400 cells are empty

    def test_single_empty_bin_bilinear_truth(self):
        def truth(x, z):
            return 1.0 + 2.0 * x - 1.5 * z + 0.8 * x * z

        i1 = i2 = 5
        x = np.repeat(centers(i1), i2)
        z = np.tile(centers(i2), i1)
        keep = ~((np.repeat(np.arange(i1), i2) == 2) & (np.tile(np.arange(i2), i1) == 2))
        data = ScatterData(x[keep], z[keep], truth(x[keep], z[keep]))
        res = iterative_fit(data, i1, i2)
        assert res.binned.empty_mask.sum() == 1
        center_val = truth(centers(i1)[2], centers(i2)[2])
        assert abs(res.fit.fitted[2, 2] - center_val) < 0.05

    def test_zero_init_also_converges(self):
        rng = np.random.default_rng(13)
        n = 400
        x, z = rng.uniform(size=n), rng.uniform(size=n)
        y = f2(x, z) + 0.05 * rng.standard_normal(n)
        data = ScatterData(x, z, y)
        res = iterative_fit(data, 12, 12, init="zero")
        assert res.converged
        assert max(res.changes) <= binning.CONVERGED_RTOL
        nearest = iterative_fit(data, 12, 12, init="nearest", fill_m=7)
        assert np.array_equal(res.fit.fitted, nearest.fit.fitted)

    def test_nonconvergence_flagged_not_raised(self):
        # one search cannot see its pair repeat
        rng = np.random.default_rng(13)
        n = 400
        x, z = rng.uniform(size=n), rng.uniform(size=n)
        y = f2(x, z) + 0.05 * rng.standard_normal(n)
        res = iterative_fit(ScatterData(x, z, y), 12, 12, max_iter=1)
        assert not res.converged
        assert res.iterations == 1
        assert len(res.changes) == 1

    @pytest.mark.parametrize("init", ["nearest", "zero"])
    def test_power_of_two_scaling_is_exact(self, init):
        # |y| near 1e160 squares past the float range; the rounds run on a
        # power-of-two rescaling, so the fit must scale exactly with the data
        data = holed_scatter(35)
        base = iterative_fit(data, 16, 20, init=init)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = iterative_fit(ScatterData(data.x, data.z, np.ldexp(data.y, 530)),
                                16, 20, init=init)
        assert big.fit.lambdas == base.fit.lambdas
        assert np.array_equal(big.fit.fitted, np.ldexp(base.fit.fitted, 530))
        assert big.changes == base.changes  # relative residuals
        assert big.iterations == base.iterations

    @pytest.mark.parametrize("emptied", [0, 5])
    def test_guard_applies_with_and_without_empty_bins(self, emptied):
        rng = np.random.default_rng(5)
        data = full_scatter(10, 10, rng.normal(size=(10, 10)))
        keep = np.arange(data.n) >= emptied
        data = ScatterData(data.x[keep], data.z[keep], data.y[keep])
        big = LambdaGrid.default(320)
        with pytest.raises(ValueError, match="102400 lambda combinations exceed the guard"):
            iterative_fit(data, 10, 10, grid=big)

    @pytest.mark.parametrize("where", ["one row", "diagonal"])
    def test_undetermined_occupancy_raises(self, where):
        # one occupied row leaves x free, and the diagonal cells leave x - z
        # free: a bilinear function the penalty does not see, so the
        # weighted fit is singular
        rng = np.random.default_rng(61)
        t = rng.uniform(size=200)
        x = np.full(200, 0.31) if where == "one row" else t
        data = ScatterData(x, t, rng.normal(size=200))
        with pytest.raises(DegenerateFit, match="cannot determine") as exc:
            iterative_fit(data, 10, 10)
        rows = 1 if where == "one row" else 10
        assert f"in {rows} of 10 rows and 10 of 10 columns" in str(exc.value)

    def test_two_occupied_rows_determine_the_fit(self):
        rng = np.random.default_rng(62)
        x = np.where(rng.uniform(size=200) < 0.5, 0.15, 0.75)
        z = rng.uniform(size=200)
        res = iterative_fit(ScatterData(x, z, f2(x, z)), 10, 10)
        assert res.n_occupied == 20
        assert res.converged
        assert np.isfinite(res.fit.fitted).all()

    def test_unknown_init_rejected(self):
        with pytest.raises(ValueError):
            iterative_fit(ScatterData([0.5], [0.5], [1.0]), 2, 2, init="bogus")

    def test_bad_fill_m_rejected(self):
        with pytest.raises(ValueError, match="fill_m"):
            iterative_fit(ScatterData([0.5], [0.5], [1.0]), 2, 2, fill_m=0)


def weighted_fit_dense(data, i1, i2, specs, lam1, lam2):
    """Coefficients solving (B'OB + P_lambda) theta = B'Oy with Kronecker
    matrices, B = B2 (x) B1 on the bin centers and O the occupied cells;
    P_lambda is the sandwich smoother's penalty, so that with every cell
    occupied B'B + P_lambda = (B2'B2 + lam2 D2'D2) (x) (B1'B1 + lam1 D1'D1)."""
    binned = bin_scatter(data, i1, i2)
    B1 = design_matrix(binned.x_centers, specs[0])
    B2 = design_matrix(binned.z_centers, specs[1])
    P1 = diff_matrix(specs[0].n_basis, specs[0].penalty_order)
    P2 = diff_matrix(specs[1].n_basis, specs[1].penalty_order)
    G1, G2, P1, P2 = B1.T @ B1, B2.T @ B2, P1.T @ P1, P2.T @ P2
    B = np.kron(B2, B1)  # vec(B1 Theta B2') = B vec(Theta), columns stacked
    occupied = ~binned.empty_mask
    O = occupied.ravel(order="F").astype(float)
    y = np.where(occupied, binned.means, 0.0).ravel(order="F")
    P = (lam1 * np.kron(G2, P1) + lam2 * np.kron(P2, G1)
         + lam1 * lam2 * np.kron(P2, P1))
    theta = np.linalg.solve(B.T @ (O[:, None] * B) + P, B.T @ (O * y))
    Theta = theta.reshape(B1.shape[1], B2.shape[1], order="F")
    return Theta, B1 @ Theta @ B2.T, occupied


class TestWeightedSolve:
    @pytest.mark.parametrize("seed, lams", [(41, (1e-3, 1e2)), (42, (0.5, 0.5)),
                                            (43, (1e3, 1e-4))])
    def test_matches_dense_kronecker_oracle(self, seed, lams):
        rng = np.random.default_rng(seed)
        i1, i2 = 12, 11
        x, z = rng.uniform(size=(2, 300))
        # no points in bin row 3 nor in bin column 8
        keep = (np.floor(x * i1) != 3) & (np.floor(z * i2) != 8)
        data = ScatterData(x[keep], z[keep],
                           f2(x[keep], z[keep]) + 0.2 * rng.normal(size=keep.sum()))
        specs = (AxisSpec(3, 2, 5), AxisSpec(2, 2, 6))
        res = iterative_fit(data, i1, i2, specs, LambdaGrid([lams[0]], [lams[1]]))
        Theta, fitted, occupied = weighted_fit_dense(data, i1, i2, specs, *lams)
        assert not occupied[3].any() and not occupied[:, 8].any()
        assert res.converged and not res.cycled
        npt.assert_allclose(res.fit.Theta, Theta, rtol=0, atol=1e-10)
        npt.assert_allclose(res.fit.fitted, fitted, rtol=0, atol=1e-10)
        resid = (fitted - res.binned.means)[occupied]
        npt.assert_allclose(res.masked_sse, resid @ resid, rtol=1e-10)

    @pytest.mark.parametrize("seed", [51, 52, 53, 54])
    def test_returned_grid_is_a_fixed_point(self, seed):
        # S (O * means + (1 - O) * fitted) = fitted at the chosen pair
        res = iterative_fit(holed_scatter(seed), 16, 20)
        sx = axis_spectrum(res.binned.x_centers, res.fit.specs[0])
        sz = axis_spectrum(res.binned.z_centers, res.fit.specs[1])
        occupied = ~res.binned.empty_mask
        Y = np.where(occupied, res.binned.means, res.fit.fitted)
        half = apply_smoother(sx, res.binned.x_centers, res.fit.lambdas[0], Y)
        SY = apply_smoother(sz, res.binned.z_centers, res.fit.lambdas[1], half.T).T
        assert np.max(np.abs(SY - res.fit.fitted)) <= 1e-10

    @pytest.mark.parametrize("seed", [31, 32, 33, 34, 35, 55, 56])
    def test_converges_in_few_searches(self, seed):
        res = iterative_fit(holed_scatter(seed), 16, 20)
        assert res.binned.empty_mask.any()
        assert res.converged
        assert res.iterations <= 4
        assert len(res.changes) == res.iterations - 1
        assert max(res.changes) <= binning.CONVERGED_RTOL

    def test_huge_lambda_gives_the_bilinear_fit(self):
        # at lambda = 1e300 the shrinkage underflows to zero off the penalty
        # null space; a bilinear truth at the bin centers, with a hole,
        # must come back exactly on every cell, without a float warning
        i1, i2 = 12, 10
        X, Z = np.meshgrid(centers(i1), centers(i2), indexing="ij")
        keep = ((X - 0.5) ** 2 + (Z - 0.5) ** 2 > 0.25 ** 2).ravel()
        truth = 1.0 + 2.0 * X - 1.5 * Z + 0.8 * X * Z
        data = ScatterData(X.ravel()[keep], Z.ravel()[keep], truth.ravel()[keep])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = iterative_fit(data, i1, i2, grid=LambdaGrid([1e300], [1e300]))
        assert res.binned.empty_mask.sum() > 10
        assert res.converged
        npt.assert_allclose(res.fit.fitted, truth, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("first", [0, 1])
    def test_two_cycle_takes_smaller_masked_gcv(self, monkeypatch, first):
        data = holed_scatter(36)
        lam = LambdaGrid.default().lambda_x
        pairs = [(4, 15), (12, 6)]
        # each pair's own fixed point, from a one-pair grid
        own = [iterative_fit(data, 16, 20, grid=LambdaGrid([lam[i]], [lam[j]]))
               for i, j in pairs]
        best = int(np.argmin([r.masked_gcv for r in own]))
        assert own[0].masked_gcv != own[1].masked_gcv
        searches = []

        def alternate(*args):
            searches.append(1)
            return pairs[(first + len(searches) - 1) % 2]

        monkeypatch.setattr(binning, "_masked_search", alternate)
        res = iterative_fit(data, 16, 20)
        assert res.cycled and res.converged
        assert res.iterations == 3 and len(res.changes) == 2
        assert res.fit.lambdas == own[best].fit.lambdas
        npt.assert_allclose(res.masked_gcv, own[best].masked_gcv, rtol=1e-10)
        npt.assert_allclose(res.fit.fitted, own[best].fit.fitted, rtol=0,
                            atol=1e-10)


def rel_close(got, want, rtol=1e-12):
    """got matches want to rtol relative to want's largest entry."""
    return got.shape == want.shape and np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class TestBandedWeightedFit:
    """The scatter fit's factors A_k = B_k F_k, formed through the row
    blocks, and its products on them against the dense factors built from
    design_matrix."""

    @staticmethod
    def problem(seed, i1, i2, k1, k2):
        """Working grid and spectra on the bin centers, with occupancy
        falling from 95% in the first row to 20% in the last, and one
        row and one column empty."""
        rng = np.random.default_rng(seed)
        Y = rng.normal(size=(i1, i2))
        occupied = rng.uniform(size=(i1, i2)) < np.linspace(0.95, 0.2, i1)[:, None]
        occupied[i1 // 2, :] = False
        occupied[:, i2 // 3] = False
        sx = axis_spectrum(centers(i1), AxisSpec(3, 2, k1))
        sz = axis_spectrum(centers(i2), AxisSpec(3, 2, k2))
        return Y, occupied, sx, sz, dense_factor(sx, centers(i1)), dense_factor(sz, centers(i2))

    # one block per axis, several per axis, and one of each
    CASES = [(61, 12, 17, 4, 5, (1, 1)), (62, 90, 61, 30, 20, (3, 2)),
             (63, 13, 75, 4, 25, (1, 3))]

    @pytest.mark.parametrize("seed, i1, i2, k1, k2, n_blocks", CASES)
    def test_masked_pieces_match_dense(self, seed, i1, i2, k1, k2, n_blocks):
        Y, occupied, sx, sz, A1, A2 = self.problem(seed, i1, i2, k1, k2)
        assert (len(sx.blocks), len(sz.blocks)) == n_blocks
        masked = _masked_gram(Y, occupied, *factors(sx, sz))
        assert rel_close(masked.A1, A1) and rel_close(masked.A2, A2)
        O = occupied.astype(float)
        assert rel_close(masked.gram, np.einsum("ak,kp,kq->apq", O, A2, A2))
        cross = (O * Y) @ A2
        assert rel_close(masked.cross, cross)
        assert rel_close(masked.A1.T @ masked.cross, A1.T @ cross)
        for sp, got, A in ((sx, masked.A1, A1), (sz, masked.A2, A2)):
            assert rel_close(got[:, sp.s == 0], A[:, sp.s == 0])

    @pytest.mark.parametrize("seed, i1, i2, k1, k2, n_blocks", CASES)
    def test_weighted_term_matches_dense(self, seed, i1, i2, k1, k2, n_blocks):
        # the conjugate-gradient operator A1' (O * (A1 T A2')) A2
        Y, occupied, sx, sz, A1, A2 = self.problem(seed, i1, i2, k1, k2)
        masked = _masked_gram(Y, occupied, *factors(sx, sz))
        T = np.random.default_rng(seed).normal(size=(sx.n_basis, sz.n_basis))
        assert rel_close(masked.A1 @ T, A1 @ T)
        want = A1.T @ (occupied * (A1 @ T @ A2.T)) @ A2
        assert rel_close(_weighted_term(T, masked), want)

    def test_no_grid_sized_temporary_per_basis_function(self):
        # 400 x 400 bins, 38 basis functions per axis: the masked Grams once
        # went through an n1 x n2 x c2 temporary of 46 MiB (a 57 MiB peak)
        rng = np.random.default_rng(7)
        x, z = rng.uniform(size=(2, 200_000))
        keep = (x - 0.5) ** 2 + (z - 0.5) ** 2 > 0.15 ** 2
        data = ScatterData(x[keep], z[keep], f2(x[keep], z[keep]))
        grid = LambdaGrid(np.logspace(-3, 3, 8), np.logspace(-3, 3, 8))
        tracemalloc.start()
        try:
            res = iterative_fit(data, 400, 400, grid=grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.binned.empty_mask.any() and res.fit.specs[1].n_basis == 38
        assert peak <= 30 * 2**20
