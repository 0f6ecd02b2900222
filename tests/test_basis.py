import warnings

import numpy as np
import numpy.testing as npt
import pytest

from sandsmooth.basis import AxisSpec, auto_knot_segments, design_matrix, diff_matrix, eval_basis, make_knots


def cox_de_boor(x, k, i, t):
    """Naive recursive B-spline value B_{i,k}(x) on knots t; independent oracle."""
    if k == 0:
        return 1.0 if t[i] <= x < t[i + 1] else 0.0
    c1 = c2 = 0.0
    if t[i + k] != t[i]:
        c1 = (x - t[i]) / (t[i + k] - t[i]) * cox_de_boor(x, k - 1, i, t)
    if t[i + k + 1] != t[i + 1]:
        c2 = (t[i + k + 1] - x) / (t[i + k + 1] - t[i + 1]) * cox_de_boor(x, k - 1, i + 1, t)
    return c1 + c2


def eval_basis_loop(knots, degree, x):
    """The per-point de Boor evaluation that the batched one replaced, kept
    as its oracle."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"evaluation point {x} outside [0, 1]")
    p = degree
    c = len(knots) - p - 1
    K = c - p
    # Index of the knot interval containing x, clamped so 1.0 lands in the
    # last interior segment.
    seg = min(int(x * K), K - 1)
    left = p + seg

    # Iterative de Boor triangle: after round k, work[:k+1] holds the values
    # of the k-degree splines supported on the interval.
    work = np.zeros(p + 1)
    work[0] = 1.0
    for k in range(1, p + 1):
        saved = 0.0
        for j in range(k):
            right_knot = knots[left + j + 1]
            left_knot = knots[left + j + 1 - k]
            term = work[j] / (right_knot - left_knot)
            work[j] = saved + (right_knot - x) * term
            saved = (x - left_knot) * term
        work[k] = saved

    out = np.zeros(c)
    out[left - p : left + 1] = work
    return out


class TestKnots:
    def test_single_constant_segment(self):
        npt.assert_allclose(make_knots(AxisSpec(0, 1, 1)), [0.0, 1.0])

    def test_linear_two_segments(self):
        npt.assert_allclose(make_knots(AxisSpec(1, 1, 2)), [-0.5, 0.0, 0.5, 1.0, 1.5])

    def test_cubic_ten_segments(self):
        spec = AxisSpec(3, 2, 10)
        knots = make_knots(spec)
        assert len(knots) == spec.n_basis + spec.degree + 1
        npt.assert_allclose(knots, np.arange(-3, 14) / 10)

    def test_auto_rule(self):
        assert auto_knot_segments(20) == 10
        assert auto_knot_segments(80) == 35
        assert auto_knot_segments(500) == 35
        assert auto_knot_segments(7) == 3


class TestEvalBasis:
    def test_piecewise_constant_indicator(self):
        spec = AxisSpec(0, 1, 4)
        npt.assert_allclose(eval_basis(make_knots(spec), 0, 0.3), [0, 1, 0, 0])

    def test_hat_functions(self):
        spec = AxisSpec(1, 1, 2)
        npt.assert_allclose(eval_basis(make_knots(spec), 1, 0.25), [0.5, 0.5, 0.0])

    def test_against_recursive_oracle(self):
        spec = AxisSpec(3, 2, 10)
        knots = make_knots(spec)
        for x in [0.5, 0.0, 1.0, 0.123, 0.987, 0.31415]:
            vals = eval_basis(knots, spec.degree, x)
            # right-closed last segment: nudge x=1 into it for the half-open oracle
            xo = min(x, 1.0 - 1e-12)
            expected = [cox_de_boor(xo, spec.degree, i, knots) for i in range(spec.n_basis)]
            npt.assert_allclose(vals, expected, atol=1e-10)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(7)
        for spec in [AxisSpec(3, 2, 10), AxisSpec(2, 1, 7), AxisSpec(1, 1, 5)]:
            knots = make_knots(spec)
            for x in rng.uniform(0, 1, 1000):
                b = eval_basis(knots, spec.degree, x)
                assert abs(b.sum() - 1.0) < 1e-12
                assert np.all(b >= -1e-15) and np.all(b <= 1 + 1e-15)

    def test_local_support(self):
        spec = AxisSpec(3, 2, 8)
        knots = make_knots(spec)
        rng = np.random.default_rng(11)
        for x in rng.uniform(0, 1, 200):
            b = eval_basis(knots, spec.degree, x)
            for k in np.nonzero(b)[0]:
                assert knots[k] < x < knots[k + spec.degree + 1] or x in (0.0, 1.0)

    def test_domain_error(self):
        spec = AxisSpec(3, 2, 5)
        knots = make_knots(spec)
        with pytest.raises(ValueError):
            eval_basis(knots, 3, -0.01)
        with pytest.raises(ValueError):
            eval_basis(knots, 3, 1.01)


class TestDesignMatrix:
    def test_midpoint_identity(self):
        n = 6
        x = (np.arange(n) + 0.5) / n
        npt.assert_allclose(design_matrix(x, AxisSpec(0, 1, n)), np.eye(n))

    def test_row_sums(self):
        rng = np.random.default_rng(3)
        B = design_matrix(np.sort(rng.uniform(0, 1, 40)), AxisSpec(3, 2, 10))
        npt.assert_allclose(B.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("degree", range(6))
    @pytest.mark.parametrize("segments", [1, 3, 10, 35])
    def test_matches_per_point_loop(self, degree, segments):
        spec = AxisSpec(degree, 1, segments)
        knots = make_knots(spec)
        rng = np.random.default_rng(degree * 100 + segments)
        x = np.concatenate([[0.0, 1.0], np.arange(segments + 1) / segments,
                            rng.uniform(size=200)])
        B = design_matrix(x, spec)
        assert np.array_equal(B, np.array([eval_basis_loop(knots, degree, v) for v in x]))
        for v in x[:10]:
            assert np.array_equal(eval_basis(knots, degree, v), B[x == v][0])

    @pytest.mark.parametrize("bad", [-0.25, 1.5, np.nan])
    def test_domain_error_names_point(self, bad):
        x = np.array([0.0, 0.5, bad, 0.7])
        with pytest.raises(ValueError, match=f"evaluation point {bad} outside"):
            design_matrix(x, AxisSpec(3, 2, 5))

    def test_bandwidth(self):
        x = (np.arange(20) + 0.5) / 20
        B = design_matrix(x, AxisSpec(3, 2, 10))
        assert np.count_nonzero(B, axis=1).max() <= 4


class TestDiffMatrix:
    def test_first_differences(self):
        npt.assert_allclose(diff_matrix(3, 1), [[-1, 1, 0], [0, -1, 1]])

    def test_second_differences(self):
        npt.assert_allclose(diff_matrix(4, 2), [[1, -2, 1, 0], [0, 1, -2, 1]])

    def test_recursion_identity(self):
        for c, m in [(6, 2), (8, 3), (10, 4)]:
            npt.assert_allclose(diff_matrix(c, m), diff_matrix(c - 1, m - 1) @ diff_matrix(c, 1))

    def test_polynomial_null_space(self):
        pos = np.arange(9, dtype=float)
        for m in (1, 2, 3):
            D = diff_matrix(9, m)
            for deg in range(m):
                npt.assert_allclose(D @ pos**deg, 0.0, atol=1e-10)

    def test_dimension_error(self):
        with pytest.raises(ValueError):
            diff_matrix(2, 2)


def test_degree_zero_builds_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = AxisSpec(0, 1, 4)
    assert spec.n_basis == 4
