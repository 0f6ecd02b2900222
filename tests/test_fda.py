import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from sandsmooth import fda, sandwich2d
from sandsmooth.basis import AxisSpec, auto_knot_segments
from sandsmooth.fda import (
    CovModel,
    CurveSet,
    case_eigenvalues,
    eigenfunction_set,
    eigenpairs,
    sample_cov,
    simulate_fda,
    smooth_cov,
    true_covariance,
)
from sandsmooth.rng import CounterNormals
from sandsmooth.sandwich2d import DegenerateFit, GridData, LambdaGrid, select_lambda
from sandsmooth.spectra import SingularGram, axis_spectrum, shrink_weights
from sandsmooth.surfaces import midpoints

from dense_oracle import apply_smoother, dense_factor


class TestCounterNormals:
    def test_deterministic(self):
        a = CounterNormals(7).normals((100,))
        b = CounterNormals(7).normals((100,))
        npt.assert_array_equal(a, b)

    def test_box_muller_recipe(self):
        # reproduce the stream from the documented recipe
        gen = np.random.Generator(np.random.Philox(key=123))
        u1 = 1.0 - gen.random(3)
        u2 = gen.random(3)
        r = np.sqrt(-2 * np.log(u1))
        expect = np.empty(6)
        expect[0::2] = r * np.cos(2 * np.pi * u2)
        expect[1::2] = r * np.sin(2 * np.pi * u2)
        npt.assert_array_equal(CounterNormals(123).normals((5,)), expect[:5])

    def test_moments(self):
        z = CounterNormals(0).normals((200000,))
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01


class TestCurveSet:
    def test_default_grid(self):
        c = CurveSet(np.zeros((3, 8)))
        npt.assert_allclose(c.t, (np.arange(8) + 0.5) / 8)
        assert c.n == 3 and c.J == 8

    def test_rejects_single_point_curves(self):
        with pytest.raises(ValueError):
            CurveSet(np.zeros((3, 1)))

    @pytest.mark.parametrize("t, want", [
        ([0.1, 0.3, 0.3, 0.7], r"t\[2\] is 0.3; coordinates must be strictly increasing"),
        ([0.1, 0.5, 0.3, 0.7], r"t\[2\] is 0.3; coordinates must be strictly increasing"),
        ([0.1, 0.3, 0.5, 1.5], r"t\[3\] is 1.5; coordinates must lie within"),
    ])
    def test_rejects_repeated_unsorted_or_outside_t(self, t, want):
        with pytest.raises(ValueError, match=want):
            CurveSet(np.zeros((3, 4)), np.array(t))

    @pytest.mark.parametrize("name, index, bad, want", [
        ("Y", (2, 5), np.nan, r"Y\[2, 5\] is nan"),
        ("Y", (0, 1), np.inf, r"Y\[0, 1\] is inf"),
        ("t", (3,), -np.inf, r"t\[3\] is -inf"),
    ])
    def test_rejects_non_finite(self, name, index, bad, want):
        fields = {"Y": np.zeros((3, 8)), "t": midpoints(8)}
        fields[name][index] = bad
        with pytest.raises(ValueError, match=want + "; values must be finite"):
            CurveSet(**fields)


class TestSampleCov:
    def test_identical_curves(self):
        v = np.arange(1.0, 6.0)
        C = sample_cov(CurveSet(np.tile(v, (4, 1))))
        npt.assert_allclose(C, np.outer(v, v))

    def test_sign_flip_pair(self):
        v = np.array([1.0, -2.0, 0.5, 3.0])
        C = sample_cov(CurveSet(np.stack([v, -v])))
        npt.assert_allclose(C, np.outer(v, v))

    def test_centering_removes_mean_curve(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        w = np.array([0.5, -0.5, 1.0, -1.0])
        C = sample_cov(CurveSet(np.stack([v + w, v - w])), center=True)
        npt.assert_allclose(C, np.outer(w, w))

    def test_needs_two_curves(self):
        with pytest.raises(ValueError):
            sample_cov(CurveSet(np.zeros((1, 5))))

    def test_monte_carlo_close_to_truth(self):
        curves = simulate_fda(1, 1000, 20, 0.0, seed=99)
        C = sample_cov(curves)
        K = true_covariance(1, curves.t)
        assert np.max(np.abs(C - K)) < 0.15


class TestSmoothCov:
    def test_tiny_lambda_square_basis_is_identity(self):
        J = 12
        rng = np.random.default_rng(1)
        M = rng.normal(size=(J, J))
        C = M @ M.T
        # c = K + 3 = J makes the collocation square and invertible; lambda
        # must be positive, and 1e-15 leaves the fit within 1e-8 of C
        model = smooth_cov(C, AxisSpec(3, 2, J - 3), lams=[1e-15])
        npt.assert_allclose(model.smoothed_cov, C, atol=1e-8)
        assert model.lam == 1e-15

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("alone", [True, False], ids=["alone", "beside_1"])
    def test_bad_candidate_named(self, bad, alone):
        C = sample_cov(simulate_fda(1, 20, 15, 0.5, seed=3))
        lams = [bad] if alone else [bad, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"strictly positive, got {bad}$"):
                smooth_cov(C, lams=lams)

    def test_lone_candidate_spending_every_df_raises(self):
        # the square basis interpolates at tiny lambda: edf = J^2 = n, where
        # GCV is undefined, so a lone candidate is not pinned
        J = 12
        C = sample_cov(simulate_fda(1, 20, J, 0.5, seed=3))
        with pytest.raises(DegenerateFit, match="edf >= n"):
            smooth_cov(C, AxisSpec(3, 2, J - 3), lams=[1e-30])

    def test_rank_one_commutes(self):
        J = 15
        v = np.sin(np.linspace(0, 3, J))
        spec = AxisSpec(3, 2, 5)
        model = smooth_cov(np.outer(v, v), spec, lams=[2.5])
        sp = axis_spectrum(midpoints(J), spec)
        sv = apply_smoother(sp, midpoints(J), 2.5, v)
        npt.assert_allclose(model.smoothed_cov, np.outer(sv, sv), atol=1e-10)

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(2)
        M = rng.normal(size=(10, 10))
        model = smooth_cov(M + M.T, AxisSpec(3, 2, 4))
        npt.assert_allclose(model.smoothed_cov, model.smoothed_cov.T, atol=1e-10)

    @pytest.mark.parametrize("t, message", [
        (midpoints(40), "t has 40 points for J = 50"),
        (midpoints(60), "t has 60 points for J = 50"),
        (np.r_[0.1, 0.1, midpoints(50)[2:]],
         r"t\[1\] is 0.1; coordinates must be strictly increasing"),
    ], ids=["short", "long", "repeated point"])
    def test_t_checked_against_C(self, t, message):
        # each used to pass silently, fail in matmul or raise SingularGram
        C = sample_cov(simulate_fda(1, 30, 50, 0.5, seed=4))
        with pytest.raises(ValueError, match=message):
            smooth_cov(C, t=t)

    def test_asymmetric_rejected(self):
        C = np.eye(6)
        C[0, 5] = 1e-4
        with pytest.raises(ValueError, match="asymmetric"):
            smooth_cov(C)

    @pytest.mark.parametrize("J", [2, 127, 128, 129, 300])
    def test_tiled_symmetrize_is_exact(self, J):
        # _asymmetry reads what symmetrizing removes, in mirrored tile pairs
        rng = np.random.default_rng(J)
        M = rng.normal(size=(J, J))
        C = M + M.T + 1e-3 * rng.normal(size=(J, J))
        D = C - C.T
        worst, skew = fda._asymmetry(C)
        assert worst == np.max(np.abs(D))
        npt.assert_allclose(skew, np.sum((D / 2) ** 2), rtol=1e-13)
        # the scale 2^-e is applied before squaring: exact for powers of two
        assert fda._asymmetry(C, -3)[1] == np.ldexp(skew, 6)
        C[0, -1] = np.inf
        assert fda._asymmetry(C) == (np.inf, np.inf)
        C[-1, 0] = np.nan
        assert np.all(np.isnan(fda._asymmetry(C)))

    def test_half_sums_do_not_overflow(self):
        # the half-sums, of the core and of the first off-diagonal, run on
        # the scaled values, and the skew is scaled before it is squared, so
        # nothing overflows; a difference past the float range is an
        # asymmetry, not a warning
        C = np.ldexp(sample_cov(simulate_fda(2, 30, 40, 0.5, seed=4)), 1020)
        C[3, 30], C[30, 3] = 0.0, 5e-9
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for exclude_diagonal in (False, True):
                got = smooth_cov(C, exclude_diagonal=exclude_diagonal)
                want = smooth_cov(symmetric_copy(C, exclude_diagonal))
                assert (got.lam, got.edf) == (want.lam, want.edf)
                scale = np.max(np.abs(want.smoothed_cov))
                assert np.isfinite(scale)
                assert np.max(np.abs(got.smoothed_cov - want.smoothed_cov)) <= 1e-13 * scale
            big = np.finfo(float).max
            C[0, 1], C[1, 0] = -big, big
            with pytest.raises(ValueError, match="asymmetric"):
                smooth_cov(C)

    @pytest.mark.parametrize("J", [1, 127, 128, 129, 300])
    def test_exact_symmetry_check(self, J):
        # _asymmetry is the exact check: (max |C - C'|, squares) reads 0.0
        # on an exactly symmetric C, and a NaN propagates into the max
        rng = np.random.default_rng(J)
        M = rng.normal(size=(J, J))
        C = M + M.T
        assert fda._asymmetry(C) == (0.0, 0.0)
        C[J // 3, J - 1] = np.nextafter(C[J // 3, J - 1], np.inf)
        worst, squares = fda._asymmetry(C)
        if J // 3 == J - 1:  # a diagonal entry is its own mirror
            assert (worst, squares) == (0.0, 0.0)
        else:
            assert worst > 0.0 and squares > 0.0
        C[J - 1, J - 1] = np.nan
        assert np.isnan(fda._asymmetry(C)[0])

    def test_asymmetry_tolerance_is_inclusive(self):
        # one mirrored pair, in tiles on either side of the diagonal
        J = 300
        C = np.eye(J)
        C[5, 290] = fda.ASYMMETRY_TOL
        model = smooth_cov(C, lams=[1.0])
        C[5, 290] = np.nextafter(fda.ASYMMETRY_TOL, 1.0)
        with pytest.raises(ValueError, match="asymmetric"):
            smooth_cov(C, lams=[1.0])

    @pytest.mark.parametrize("J", [20, 129, 300])
    def test_smoothed_exactly_symmetric(self, J):
        C = sample_cov(simulate_fda(1, 30, J, 0.5, seed=J))
        model = smooth_cov(C, exclude_diagonal=J == 129)
        assert np.array_equal(model.smoothed_cov, model.smoothed_cov.T)

    def test_matches_bivariate_fit_at_same_lambda(self):
        # one smoother on both sides == the grid fit with lam1 = lam2
        curves = simulate_fda(1, 30, 20, 0.5, seed=5)
        C = sample_cov(curves)
        spec = AxisSpec(3, 2, 10)
        model = smooth_cov(C, spec)
        gfit = select_lambda(
            GridData(0.5 * (C + C.T), curves.t, curves.t),
            (spec, spec),
            LambdaGrid([model.lam], [model.lam]),
        )
        npt.assert_allclose(model.smoothed_cov, gfit.fitted, atol=1e-10)

    def test_gcv_diagonal_matches_full_surface(self):
        curves = simulate_fda(2, 25, 16, 0.5, seed=8)
        C = sample_cov(curves)
        spec = AxisSpec(3, 2, 8)
        lams = np.logspace(-3, 3, 9)
        model = smooth_cov(C, spec, lams)
        gfit = select_lambda(GridData(0.5 * (C + C.T), curves.t, curves.t),
                             (spec, spec), LambdaGrid(lams, lams))
        diag = np.diag(gfit.gcv_surface)
        assert model.lam == lams[np.argmin(diag)]

    def test_picks_on_the_diagonal_not_the_full_surface(self):
        # the full-surface winner here is off the diagonal, at (1.62, 8.86e-5);
        # one lambda on both sides must take the diagonal's own winner
        curves = simulate_fda(1, 60, 80, 0.5, seed=80)
        C = sample_cov(curves, center=True)
        spec = AxisSpec(knot_segments=auto_knot_segments(80))
        lams = np.logspace(-5, 4, 20)
        model = smooth_cov(C, spec, lams)
        gfit = select_lambda(GridData(0.5 * (C + C.T), curves.t, curves.t),
                             (spec, spec), LambdaGrid(lams, lams))
        assert gfit.lambdas[0] != gfit.lambdas[1]
        diag = np.diag(gfit.gcv_surface)
        k = np.argmin(diag)
        assert model.lam == lams[k] != gfit.lambdas[0]
        npt.assert_allclose(model.gcv_value, diag[k], rtol=1e-12)

    @pytest.mark.parametrize("case, J, seed", [(1, 30, 1), (2, 200, 2), (1, 1000, 3)])
    def test_scores_only_the_diagonal(self, monkeypatch, case, J, seed):
        # the L shared candidates alone: no L x L table is built, and the
        # pick is the table diagonal's.  Both forms carry cancellation noise
        # of order eps * y'y in the SSE, so the GCV agrees to eps * y'y /
        # SSE relative: at most 1.2e-13 on these fixtures
        C = sample_cov(simulate_fda(case, 50, J, 0.5, seed=seed))
        lams = np.logspace(-5, 4, 40)
        sp = axis_spectrum(midpoints(J), AxisSpec(knot_segments=auto_knot_segments(J)))
        fit = sandwich2d._SpectralFit(C, (sp, sp), sandwich2d._scan_values("C", C))
        gcv, edf, _ = fit.score((lams, lams))
        gcv, edf = np.diagonal(gcv), np.diagonal(edf)
        (k,) = sandwich2d._pick(gcv, fit.n, (lams,))
        monkeypatch.setattr(sandwich2d, "_gcv_table", None)
        model = smooth_cov(C, lams=lams)
        assert model.lam == lams[k] and model.edf == edf[k]
        npt.assert_allclose(model.gcv_value, np.ldexp(gcv[k], 2 * fit.e), rtol=1e-12)

    def test_exact_ties_go_to_the_largest_lambda(self):
        # a constant matrix lies in the penalty null space on both sides, so
        # every lambda fits it equally well; the list order must not matter
        lams = np.array([3.0, 1e-4, 1e4, 0.5, 10.0])
        model = smooth_cov(np.full((20, 20), 2.0), AxisSpec(3, 2, 6), lams)
        assert model.lam == 1e4

    @pytest.mark.parametrize("index, bad", [((2, 5), np.nan), ((3, 3), np.nan),
                                            ((2, 5), np.inf), ((4, 4), -np.inf)])
    @pytest.mark.parametrize("lams", [None, [1.0]])
    def test_non_finite_entry_named(self, index, bad, lams):
        C = np.eye(10)
        C[index] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"C\[{index[0]}, {index[1]}\] "
                               rf"is {bad}; values must be finite"):
                smooth_cov(C, lams=lams)

    @pytest.mark.parametrize("exclude_diagonal", [False, True])
    def test_power_of_two_scaling_is_exact(self, exclude_diagonal):
        # entries near 2^530 square past the float range; the search runs on
        # a power-of-two rescaling, so lambda and the smoothed matrix scale
        # exactly (eigh rescales large inputs itself, so eigenvalues only
        # to rounding)
        C = sample_cov(simulate_fda(2, 30, 40, 0.5, seed=4))
        base = smooth_cov(C, exclude_diagonal=exclude_diagonal)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = smooth_cov(np.ldexp(C, 530), exclude_diagonal=exclude_diagonal)
        assert big.lam == base.lam
        assert big.edf == base.edf
        assert np.array_equal(big.smoothed_cov, np.ldexp(base.smoothed_cov, 530))
        npt.assert_allclose(big.eigenvalues, np.ldexp(base.eigenvalues, 530),
                            rtol=1e-12, atol=1e-12 * np.ldexp(base.eigenvalues[0], 530))
        with np.errstate(over="ignore"):
            assert big.gcv_value == np.ldexp(base.gcv_value, 1060)

    @pytest.mark.parametrize("exclude_diagonal", [False, True])
    def test_entries_near_the_float_maximum(self, exclude_diagonal):
        # the largest entry is 6.1e307: the unscaled core K, about J times
        # C, would overflow, and so would C + C' in the half-sums
        C = sample_cov(simulate_fda(2, 30, 40, 0.5, seed=4))
        base = smooth_cov(C, exclude_diagonal=exclude_diagonal)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = smooth_cov(np.ldexp(C, 1020), exclude_diagonal=exclude_diagonal)
        assert np.all(np.isfinite(big.smoothed_cov))
        assert (big.lam, big.edf) == (base.lam, base.edf)
        assert np.array_equal(big.smoothed_cov, np.ldexp(base.smoothed_cov, 1020))
        assert np.array_equal(big.eigenvalues, np.ldexp(base.eigenvalues, 1020))
        assert np.array_equal(big.eigenfunctions, base.eigenfunctions)

    def test_huge_entries_fit_without_overflow(self):
        C = sample_cov(simulate_fda(1, 30, 40, 0.5, seed=5))
        base = smooth_cov(C)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = smooth_cov(1e160 * C)
        assert big.lam == base.lam
        npt.assert_allclose(big.smoothed_cov, 1e160 * base.smoothed_cov, rtol=1e-10,
                            atol=1e-12 * 1e160)
        assert np.all(np.isfinite(big.eigenvalues))

    def test_exclude_diagonal_flag(self):
        curves = simulate_fda(1, 200, 20, 0.5, seed=3)
        C = sample_cov(curves)
        K = true_covariance(1, curves.t)
        with_d = smooth_cov(C)
        without_d = smooth_cov(C, exclude_diagonal=True)
        err_with = np.mean((with_d.smoothed_cov - K) ** 2)
        err_without = np.mean((without_d.smoothed_cov - K) ** 2)
        # dropping the noise-inflated diagonal should not hurt much; at this
        # n it typically helps
        assert err_without < 2 * err_with

    @pytest.mark.parametrize("exclude_diagonal", [False, True])
    def test_one_point_axis_raises_singular_gram(self, exclude_diagonal):
        # a 1 x 1 matrix has no off-diagonal to rebuild the diagonal from;
        # the short axis must be named before that step is reached
        with pytest.raises(SingularGram, match="^an axis of 1 points cannot "
                           "determine 4 basis functions"):
            smooth_cov(np.ones((1, 1)), exclude_diagonal=exclude_diagonal)


class TestEigenpairs:
    def test_identity_scaling(self):
        J = 10
        model_vals, _ = eigenpairs(np.eye(J), J)
        npt.assert_allclose(model_vals, 1.0 / J)

    def test_exact_rank4_matrix(self):
        J = 40
        K = true_covariance(2, midpoints(J))
        vals, funcs = eigenpairs(K, 4)
        npt.assert_allclose(vals, [1.0, 0.5, 0.25, 0.125], atol=0.02)
        # quadrature orthonormality of the returned functions
        gram = funcs @ funcs.T / J
        npt.assert_allclose(gram, np.eye(4), atol=1e-8)

    def test_reference_sign_flip(self):
        J = 30
        t = midpoints(J)
        K = true_covariance(1, t)
        ref = eigenfunction_set(1, t)
        _, funcs = eigenpairs(K, 2, reference=ref)
        assert funcs[0] @ ref[0] >= 0
        assert funcs[1] @ ref[1] >= 0

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            eigenpairs(np.eye(4), 5)

    @pytest.mark.parametrize("k", [0, -1, -23])
    def test_k_below_one_raises(self, k):
        # a negative k once sliced to all but the last -k pairs
        model = smooth_cov(sample_cov(simulate_fda(1, 30, 40, 0.5, seed=6)))
        for source in (model, model.smoothed_cov):
            with pytest.raises(ValueError, match=rf"^asked for k = {k} pairs; 1 to \d+ exist"):
                eigenpairs(source, k)

    def test_k_beyond_the_model_pairs_raises(self):
        model = smooth_cov(sample_cov(simulate_fda(1, 30, 40, 0.5, seed=6)))
        c = model.eigenvalues.size
        with pytest.raises(ValueError, match=rf"^asked for k = {c + 1} pairs; 1 to {c} exist"):
            eigenpairs(model, c + 1)

    @pytest.mark.parametrize("shape", [(1, 30), (2, 29), (30,), (2, 2, 30)])
    def test_reference_of_wrong_shape_raises(self, shape):
        # too few rows once raised a bare IndexError
        K = true_covariance(1, midpoints(30))
        with pytest.raises(ValueError, match=rf"^reference has shape \({shape[0]},"
                           r".*; need 2 rows of 30 values"):
            eigenpairs(K, 2, reference=np.ones(shape))

    def test_descending_order(self):
        rng = np.random.default_rng(4)
        M = rng.normal(size=(12, 12))
        vals, _ = eigenpairs(M + M.T, 12)
        assert np.all(np.diff(vals) <= 0)

    def test_first_eigenfunction_recovery(self):
        # noisy case-1 samples: psi_1 recovered within loose quadrature ISE
        # for at least 90 of 100 seeds
        J, n = 20, 100
        t = midpoints(J)
        ref = eigenfunction_set(1, t)
        hits = 0
        for seed in range(100):
            curves = simulate_fda(1, n, J, 0.5, seed=1000 + seed)
            model = smooth_cov(sample_cov(curves))
            _, funcs = eigenpairs(model, 1, reference=ref[:1])
            ise = np.mean((funcs[0] - ref[0]) ** 2)
            hits += ise < 0.5
        assert hits >= 90


def symmetric_copy(C, exclude_diagonal=False):
    """The matrix smooth_cov smooths: the symmetric part of C, its diagonal
    rebuilt from the first off-diagonal if asked, as a new J x J array."""
    S = C * 0.5 + C.T * 0.5
    if exclude_diagonal:
        off = np.diag(S, 1)
        S[np.diag_indices_from(S)] = np.r_[off[0], off[:-1] * 0.5 + off[1:] * 0.5, off[-1]]
    return S


def dense_smoothed(C, lam, exclude_diagonal=False):
    """A K A' from the dense J x J expressions: the symmetrized C, its
    diagonal rebuilt if asked, projected, shrunk and reconstructed."""
    C = symmetric_copy(C, exclude_diagonal)
    J = C.shape[0]
    sp = axis_spectrum(midpoints(J), AxisSpec(knot_segments=auto_knot_segments(J)))
    A = dense_factor(sp, midpoints(J))
    st = shrink_weights(sp.s, lam)
    K = st[:, None] * (A.T @ C @ A) * st[None, :]
    return A @ K @ A.T


def indefinite(J, seed):
    """A smooth symmetric matrix with large negative eigenvalues."""
    t = midpoints(J)
    rng = np.random.default_rng(seed)
    F = np.stack([np.sin((k + 1) * np.pi * t) for k in range(6)])
    return (F.T * rng.normal(size=6)) @ F + 0.1 * np.outer(t, t)


def skewed(C, seed):
    """C plus 1e-9 N(0, 1) noise in every entry: asymmetric within
    ASYMMETRY_TOL."""
    return C + 1e-9 * np.random.default_rng(seed).normal(size=C.shape)


def cov_input(kind, J):
    """A test matrix for smooth_cov: a sample covariance or an indefinite
    matrix, exactly symmetric or skewed."""
    C = (sample_cov(simulate_fda(1, 40, J, 0.5, seed=J)) if kind.startswith("cov")
         else symmetric_copy(indefinite(J, J + 2)))
    return skewed(C, J + 3) if kind.endswith("skewed") else C


class TestSymmetricSmoother:
    """The smoothed matrix X X' - Z Z' from one eigh of the c x c core."""

    @pytest.mark.parametrize("make,exclude_diagonal", [
        (lambda J: sample_cov(simulate_fda(1, 40, J, 0.5, seed=J)), False),
        (lambda J: sample_cov(simulate_fda(2, 40, J, 0.5, seed=J)), True),
        (lambda J: indefinite(J, J), False),
        (lambda J: indefinite(J, J + 1), True),
        (lambda J: skewed(sample_cov(simulate_fda(1, 40, J, 0.5, seed=J)), J), False),
        (lambda J: skewed(indefinite(J, J + 1), J), True),
    ])
    @pytest.mark.parametrize("J", [60, 300])
    def test_matches_the_dense_smoother(self, make, exclude_diagonal, J):
        C = make(J)
        model = smooth_cov(C, exclude_diagonal=exclude_diagonal)
        M = model.smoothed_cov
        scale = np.max(np.abs(M))
        assert np.array_equal(M, M.T)
        dense = dense_smoothed(C, model.lam, exclude_diagonal)
        assert np.max(np.abs(M - dense)) <= 1e-13 * scale
        # the rank-c eigensystem rebuilds it: sum_k J lambda_k v_k v_k'
        # with v_k = psi_k / sqrt(J)
        psi = model.eigenfunctions
        rebuilt = (psi.T * model.eigenvalues) @ psi
        assert np.max(np.abs(M - rebuilt)) <= 1e-12 * scale

    def test_indefinite_cores_take_the_negative_part(self):
        # the cases above reach Z Z' on several strips of rows
        model = smooth_cov(indefinite(300, 301))
        assert model.eigenvalues.min() < -1e-3 * model.eigenvalues.max()

    @pytest.mark.parametrize("exclude_diagonal", [False, True])
    @pytest.mark.parametrize("kind", ["cov", "cov skewed", "indefinite",
                                      "indefinite skewed"])
    @pytest.mark.parametrize("J", [60, 300])
    def test_fits_the_symmetrized_rebuilt_copy(self, J, kind, exclude_diagonal):
        # the symmetric part and the rebuilt diagonal are applied on the
        # c x c core; the fit equals that of the J x J copy they describe
        C = cov_input(kind, J)
        S = symmetric_copy(C, exclude_diagonal)
        got, want = smooth_cov(C, exclude_diagonal=exclude_diagonal), smooth_cov(S)
        assert (got.lam, got.edf) == (want.lam, want.edf)
        M = got.smoothed_cov
        assert np.array_equal(M, M.T)
        assert np.max(np.abs(M - want.smoothed_cov)) <= 1e-13 * np.max(np.abs(M))
        # GCV to 1e-12 relative, or to the fast form's cancellation noise
        # (1e-14 y'y, scored as a GCV) where the fit leaves almost no SSE,
        # as on the smooth indefinite matrices
        n = S.size
        noise = 1e-14 * np.sum(S * S) / n / (1.0 - want.edf / n) ** 2
        assert abs(got.gcv_value - want.gcv_value) <= max(1e-12 * want.gcv_value, noise)

    @pytest.mark.parametrize("exclude_diagonal", [False, True])
    @pytest.mark.parametrize("kind", ["cov", "cov skewed"])
    def test_input_is_never_copied(self, kind, exclude_diagonal):
        # the J x J output and J x c factors; a copy of C or a J x J
        # temporary makes it 2 x or more
        C = cov_input(kind, 2000)
        tracemalloc.start()
        try:
            smooth_cov(C, exclude_diagonal=exclude_diagonal)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * C.nbytes

    def test_exactly_symmetric_input_is_not_copied(self):
        C = sample_cov(simulate_fda(1, 50, 1500, 0.5, seed=13))
        tracemalloc.start()
        try:
            smooth_cov(C)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the J x J output and J x c factors; a symmetrized copy of C or a
        # J x J temporary makes it 2 x or more
        assert peak < 1.3 * C.nbytes


class TestRankCEigensystem:
    @pytest.mark.parametrize("exclude_diagonal", [False, True])
    @pytest.mark.parametrize("J", [60, 200])
    def test_matches_dense_decomposition(self, J, exclude_diagonal):
        curves = simulate_fda(1, 100, J, 0.5, seed=31)
        model = smooth_cov(sample_cov(curves), exclude_diagonal=exclude_diagonal)
        assert model.eigenvalues.size == model.spec.n_basis
        dense_vals, dense_funcs = fda._eigensystem(*np.linalg.eigh(model.smoothed_cov))
        npt.assert_allclose(model.eigenvalues[:4], dense_vals[:4], rtol=1e-12)
        npt.assert_allclose(model.eigenfunctions[:4], dense_funcs[:4], atol=1e-10)
        gram = model.eigenfunctions @ model.eigenfunctions.T / J
        npt.assert_allclose(gram, np.eye(model.spec.n_basis), atol=1e-10)

    def test_no_J_by_J_eigh(self, monkeypatch):
        J = 60
        shapes = []
        eigh = np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(fda.np.linalg, "eigh", recording_eigh)
        model = smooth_cov(sample_cov(simulate_fda(1, 50, J, 0.5, seed=32)))
        c = model.spec.n_basis
        assert (c, c) in shapes
        assert all(max(shape) < J for shape in shapes)


class TestSimulate:
    def test_noiseless_curve_in_span(self):
        curves = simulate_fda(1, 1, 25, 0.0, seed=11)
        psi = eigenfunction_set(1, curves.t)
        coef, *_ = np.linalg.lstsq(psi.T, curves.Y[0], rcond=None)
        resid = curves.Y[0] - psi.T @ coef
        assert np.max(np.abs(resid)) < 1e-10

    def test_case1_quadrature_orthonormal(self):
        psi = eigenfunction_set(1, midpoints(100))
        gram = psi @ psi.T / 100
        npt.assert_allclose(gram, np.eye(4), atol=1e-3)

    def test_case2_quadrature_orthonormal(self):
        psi = eigenfunction_set(2, midpoints(400))
        gram = psi @ psi.T / 400
        npt.assert_allclose(gram, np.eye(4), atol=1e-3)

    def test_score_variances_match_eigenvalues(self):
        curves = simulate_fda(1, 10000, 20, 0.0, seed=21)
        psi = eigenfunction_set(1, curves.t)
        scores = curves.Y @ psi.T / curves.J
        var = scores.var(axis=0)
        npt.assert_allclose(var, case_eigenvalues(1), rtol=0.05)

    def test_bad_case(self):
        with pytest.raises(ValueError):
            simulate_fda(3, 5, 10, 0.1, seed=0)
