import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from sandsmooth.basis import AxisSpec, design_matrix, diff_matrix
from sandsmooth.sandwich2d import _expand, _project
from sandsmooth.spectra import (
    BLOCK_SEGMENTS,
    AxisSpectrum,
    SingularGram,
    axis_spectrum,
    build_spectrum,
    half_inverse,
)

from dense_oracle import apply_smoother, dense_factor, trace_smoother


def dense_smoother(B, D, lam):
    """Direct-solve oracle for S(lam) = B (B'B + lam D'D)^{-1} B'."""
    return B @ np.linalg.solve(B.T @ B + lam * D.T @ D, B.T)


def midpoints(n):
    return (np.arange(n) + 0.5) / n


class TestHalfInverse:
    def test_identity(self):
        npt.assert_allclose(half_inverse(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        npt.assert_allclose(half_inverse(np.diag([4.0, 9.0])), np.diag([0.5, 1 / 3]))

    def test_random_spd_recovers_identity(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(10, 10))
        M = X @ X.T + 10 * np.eye(10)
        H = half_inverse(M)
        npt.assert_allclose(H, H.T, atol=1e-12)
        npt.assert_allclose(H @ M @ H, np.eye(10), atol=1e-10)

    def test_singular_rejected(self):
        M = np.diag([1.0, 1.0, 0.0])
        with pytest.raises(SingularGram):
            half_inverse(M)


class TestBuildSpectrum:
    def test_identity_design_projection(self):
        n = 8
        sp = build_spectrum(np.eye(n), diff_matrix(n, 1))
        A = np.eye(n) @ sp.coef_map  # B F with the identity design
        S0 = A @ A.T
        npt.assert_allclose(S0, np.eye(n), atol=1e-10)

    def test_orthonormal_columns(self):
        spec = AxisSpec(3, 2, 10)
        sp = axis_spectrum(midpoints(20), spec)
        A = dense_factor(sp, midpoints(20))
        npt.assert_allclose(A.T @ A, np.eye(spec.n_basis), atol=1e-10)

    def test_projection_identity(self):
        spec = AxisSpec(3, 2, 10)
        B = design_matrix(midpoints(20), spec)
        sp = build_spectrum(B, diff_matrix(spec.n_basis, 2), spec)
        proj = B @ np.linalg.solve(B.T @ B, B.T)
        A = dense_factor(sp, midpoints(20))
        npt.assert_allclose(A @ A.T, proj, atol=1e-10)

    def test_reconstructs_dense_smoother(self):
        spec = AxisSpec(3, 2, 10)
        B = design_matrix(midpoints(20), spec)
        D = diff_matrix(spec.n_basis, 2)
        sp = build_spectrum(B, D, spec)
        A = dense_factor(sp, midpoints(20))
        for lam in [1.0, 0.01, 37.5, 1e4, 0.0]:
            st = 1.0 / (1.0 + lam * sp.s)
            S = (A * st) @ A.T
            npt.assert_allclose(S, dense_smoother(B, D, lam) if lam > 0 else B @ np.linalg.solve(B.T @ B, B.T), atol=1e-9)

    def test_spectrum_keeps_no_dense_factor(self):
        # the design matrix is kept only as row blocks; sizes come from them
        assert "A" not in {f.name for f in dataclasses.fields(AxisSpectrum)}
        sp = axis_spectrum(midpoints(30), AxisSpec(3, 2, 10))
        assert not hasattr(sp, "A")
        assert (sp.n_points, sp.n_basis) == (30, 13)

    def test_null_space_dimension(self):
        for spec in [AxisSpec(3, 2, 10), AxisSpec(3, 3, 9), AxisSpec(1, 1, 12)]:
            sp = axis_spectrum(midpoints(30), spec)
            n_zero = int(np.sum(sp.s < 1e-8 * sp.s.max()))
            assert n_zero == spec.penalty_order
            assert np.all(sp.s >= 0)
            assert np.all(np.diff(sp.s) >= 0)

    @pytest.mark.parametrize("n, segments, hint", [
        (4, 2, "use at most 1 knot segment$"),
        (6, 8, "use at most 3 knot segments$"),
        (3, 1, "3 points are too few for any degree-3 basis$"),
    ])
    def test_fewer_points_than_basis_functions(self, n, segments, hint):
        spec = AxisSpec(3, 2, segments)
        with pytest.raises(SingularGram, match=(
                rf"^an axis of {n} points cannot determine {spec.n_basis} basis "
                rf"functions \(knot_segments={segments}, degree=3\); {hint}")):
            axis_spectrum(midpoints(n), spec)

    def test_empty_support_reports_indices(self):
        # all data in the left half: rightmost cubic basis functions unsupported
        spec = AxisSpec(3, 2, 10)
        with pytest.raises(SingularGram, match=r"\d"):
            axis_spectrum(np.linspace(0.0, 0.45, 15), spec)


class TestRowBlocks:
    @pytest.mark.parametrize("order", ["sorted", "shuffled", "uneven"])
    def test_blocks_hold_every_row_once_and_all_its_nonzeros(self, order):
        points = midpoints(200)
        if order == "shuffled":
            points = np.random.default_rng(0).permutation(points)
        elif order == "uneven":
            points = points ** 3
        spec = AxisSpec(knot_segments=30)
        sp = axis_spectrum(points, spec)
        B = design_matrix(points, spec)
        hits = np.zeros(points.size, int)
        for rows, cols, block in sp.blocks:
            hits[rows] += 1
            assert np.array_equal(block, B[rows, cols])
            outside = B[rows].copy()
            outside[:, cols] = 0.0
            assert not outside.any()
            assert cols.stop - cols.start <= BLOCK_SEGMENTS + spec.degree
        assert (hits == 1).all()
        if order == "sorted":  # 30 segments in groups of 8
            assert len(sp.blocks) == 4
        # the banded products serve points in any order
        y = np.random.default_rng(1).standard_normal(200)
        npt.assert_allclose(_project(y, [sp]), dense_factor(sp, points).T @ y,
                            rtol=0, atol=1e-12)
        coefs = np.random.default_rng(2).standard_normal(sp.n_basis)
        npt.assert_allclose(_expand(coefs, [sp]), B @ coefs, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, segments, layout", [
        # two points per segment: groups of 16 segments hold 32 rows
        (70, 35, [(0, 32, 0, 19), (32, 64, 16, 35), (64, 70, 32, 38)]),
        # more than BLOCK_ROWS / BLOCK_SEGMENTS points per segment: groups of 8
        (400, 35, [(0, 91, 0, 11), (91, 183, 8, 19), (183, 274, 16, 27),
                   (274, 366, 24, 35), (366, 400, 32, 38)]),
    ])
    def test_short_axes_group_more_segments(self, n, segments, layout):
        sp = axis_spectrum(midpoints(n), AxisSpec(knot_segments=segments))
        assert [(b.rows.start, b.rows.stop, b.cols.start, b.cols.stop)
                for b in sp.blocks] == layout

    def test_without_segments_the_design_is_one_block(self):
        B = design_matrix(midpoints(20), AxisSpec(3, 2, 5))
        (block,) = build_spectrum(B, diff_matrix(8, 2)).blocks
        assert (block.rows, block.cols) == (slice(0, 20), slice(0, 8))
        assert np.array_equal(block.B, B)


class TestApplySmoother:
    def test_projection_fixes_range(self):
        spec = AxisSpec(3, 2, 8)
        B = design_matrix(midpoints(16), spec)
        sp = build_spectrum(B, diff_matrix(spec.n_basis, 2), spec)
        V = B @ np.random.default_rng(0).normal(size=(spec.n_basis, 3))
        npt.assert_allclose(apply_smoother(sp, midpoints(16), 0.0, V), V, atol=1e-10)

    def test_huge_lambda_is_polynomial_fit(self):
        spec = AxisSpec(3, 2, 10)
        x = midpoints(25)
        sp = axis_spectrum(x, spec)
        rng = np.random.default_rng(5)
        V = rng.normal(size=(25, 2))
        got = apply_smoother(sp, x, 1e12, V)
        X = np.vstack([np.ones_like(x), x]).T
        expected = X @ np.linalg.lstsq(X, V, rcond=None)[0]
        npt.assert_allclose(got, expected, atol=1e-4)

    def test_matches_dense(self):
        spec = AxisSpec(1, 1, 3)
        B = design_matrix(midpoints(6), spec)
        D = diff_matrix(spec.n_basis, 1)
        sp = build_spectrum(B, D, spec)
        V = np.random.default_rng(9).normal(size=(6, 4))
        npt.assert_allclose(apply_smoother(sp, midpoints(6), 0.7, V),
                            dense_smoother(B, D, 0.7) @ V, atol=1e-10)

    def test_linearity(self):
        sp = axis_spectrum(midpoints(12), AxisSpec(3, 2, 5))
        rng = np.random.default_rng(2)
        U, V = rng.normal(size=(2, 12, 3))
        x = midpoints(12)
        lhs = apply_smoother(sp, x, 2.5, 1.3 * U - 0.4 * V)
        rhs = 1.3 * apply_smoother(sp, x, 2.5, U) - 0.4 * apply_smoother(sp, x, 2.5, V)
        npt.assert_allclose(lhs, rhs, atol=1e-10)

    def test_negative_lambda_rejected(self):
        sp = axis_spectrum(midpoints(10), AxisSpec(3, 2, 4))
        with pytest.raises(ValueError):
            apply_smoother(sp, midpoints(10), -1.0, np.zeros(10))


class TestTrace:
    def test_lambda_zero_gives_basis_dimension(self):
        spec = AxisSpec(3, 2, 10)
        sp = axis_spectrum(midpoints(30), spec)
        assert trace_smoother(sp.s, 0.0) == pytest.approx(spec.n_basis)

    def test_lambda_infinite_gives_null_dimension(self):
        sp = axis_spectrum(midpoints(30), AxisSpec(3, 2, 10))
        assert trace_smoother(sp.s, 1e12) == pytest.approx(2.0, abs=1e-6)

    def test_matches_dense_trace(self):
        spec = AxisSpec(3, 2, 6)
        B = design_matrix(midpoints(14), spec)
        D = diff_matrix(spec.n_basis, 2)
        sp = build_spectrum(B, D, spec)
        assert trace_smoother(sp.s, 1.0) == pytest.approx(np.trace(dense_smoother(B, D, 1.0)), abs=1e-9)

    def test_strictly_decreasing(self):
        sp = axis_spectrum(midpoints(20), AxisSpec(3, 2, 8))
        lams = np.logspace(-4, 6, 15)
        traces = [trace_smoother(sp.s, lam) for lam in lams]
        assert all(a > b for a, b in zip(traces, traces[1:]))
        assert all(sp.spec.penalty_order <= t <= sp.spec.n_basis for t in traces)
