import math

import numpy as np
import numpy.testing as npt
import pytest

from sandsmooth.basis import AxisSpec
from sandsmooth.kernelcheck import (
    AsymptoticReport,
    EquivalentKernel,
    asymptotic_report,
    equivalent_bandwidths,
    kernel_eval,
    kernel_l2,
    kernel_moment,
    kernel_roots,
    profile_gap,
    rate_exponent,
    smoother_rows,
)
from sandsmooth.surfaces import midpoints


def numeric_roots(m):
    """Independent oracle: solve x^(2m) + (-1)^m = 0 numerically."""
    coeffs = np.zeros(2 * m + 1)
    coeffs[0] = 1.0
    coeffs[-1] = (-1.0) ** m
    r = np.roots(coeffs)
    r = r[r.real > 0]
    return r[np.argsort(r.imag)]


class TestKernelRoots:
    def test_matches_numeric_polynomial_solver(self):
        for m in range(1, 7):
            npt.assert_allclose(kernel_roots(m), numeric_roots(m), atol=1e-10)

    def test_polynomial_residual(self):
        for m in range(1, 7):
            r = kernel_roots(m)
            resid = np.abs(r ** (2 * m) + (-1.0) ** m)
            assert float(resid.max()) <= 1e-10

    def test_closed_under_conjugation(self):
        for m in range(1, 7):
            r = kernel_roots(m)
            npt.assert_allclose(np.conj(r)[::-1], r, atol=1e-14)

    def test_real_root_only_for_odd_order(self):
        for m in range(1, 7):
            r = kernel_roots(m)
            assert r.size == m
            assert (r.real > 0).all()
            n_real = int((np.abs(r.imag) < 1e-12).sum())
            assert n_real == (1 if m % 2 == 1 else 0)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            kernel_roots(0)


class TestKernelEval:
    def test_order_one_is_half_laplace(self):
        x = np.linspace(-5.0, 5.0, 201)
        npt.assert_allclose(kernel_eval(1, x), 0.5 * np.exp(-np.abs(x)), atol=1e-14)
        assert kernel_eval(1, 0.0) == pytest.approx(0.5)

    def test_order_two_closed_form(self):
        # roots exp(+-i pi/4) give (sqrt2/4) e^(-a|x|) (cos a|x| + sin a|x|)
        a = math.sqrt(2.0) / 2.0
        x = np.linspace(-6.0, 6.0, 301)
        ax = np.abs(x)
        want = (math.sqrt(2.0) / 4.0) * np.exp(-a * ax) * (np.cos(a * ax) + np.sin(a * ax))
        npt.assert_allclose(kernel_eval(2, x), want, atol=1e-14)
        assert kernel_eval(2, 0.0) == pytest.approx(math.sqrt(2.0) / 4.0)

    def test_order_three_independent_complex_sum(self):
        r = numeric_roots(3)
        want = (r * np.exp(-r * 1.7)).sum() / 6.0
        assert abs(want.imag) < 1e-12
        assert kernel_eval(3, 1.7) == pytest.approx(want.real, rel=1e-10)

    def test_even_function(self):
        x = np.linspace(0.0, 8.0, 101)
        for m in (1, 2, 3, 4):
            npt.assert_array_equal(kernel_eval(m, x), kernel_eval(m, -x))

    def test_scalar_and_shape(self):
        assert isinstance(kernel_eval(2, 1.3), float)
        out = kernel_eval(2, np.zeros((3, 4)))
        assert out.shape == (3, 4)


def analytic_even_moment(m, l):
    """(l!/m) sum_nu psi_nu^(-l): termwise gamma integral of the mixture."""
    r = kernel_roots(m)
    val = math.factorial(l) / m * (r ** (-float(l))).sum()
    assert abs(val.imag) < 1e-10
    return val.real


class TestKernelMoment:
    def test_moment_table(self):
        for m in (1, 2, 3):
            assert kernel_moment(m, 0) == pytest.approx(1.0, abs=1e-8)
            for l in range(1, 2 * m, 2):
                assert kernel_moment(m, l) == 0.0
            for l in range(2, 2 * m - 1, 2):
                assert kernel_moment(m, l) == pytest.approx(0.0, abs=1e-8)
            top = (-1.0) ** (m + 1) * math.factorial(2 * m)
            assert kernel_moment(m, 2 * m) == pytest.approx(top, rel=1e-6)

    def test_matches_termwise_integration(self):
        for m in (1, 2, 3, 4):
            for l in range(0, 2 * m + 1, 2):
                want = analytic_even_moment(m, l)
                assert kernel_moment(m, l) == pytest.approx(want, abs=1e-7)

    def test_exact_top_moment_order_two(self):
        assert kernel_moment(2, 4) == pytest.approx(-24.0, abs=1e-12)

    def test_order_beyond_table_rejected(self):
        with pytest.raises(ValueError):
            kernel_moment(2, 5)
        with pytest.raises(ValueError):
            kernel_moment(1, -1)


class TestKernelL2:
    def test_order_one_closed_form(self):
        assert kernel_l2(1) == pytest.approx(0.25, abs=1e-8)

    def test_exact_order_two(self):
        assert kernel_l2(2) == pytest.approx(3.0 * math.sqrt(2.0) / 16.0, rel=1e-15)

    def test_dual_quadrature_agreement(self):
        # second rule: trapezoid on a fine uniform grid over the same tail
        for m in (1, 2, 3):
            kern = EquivalentKernel(m)
            T = 40.0 / kern.min_decay
            x = np.linspace(0.0, T, 400_001)
            alt = 2.0 * np.trapezoid(kern.evaluate(x) ** 2, x)
            assert kernel_l2(m) == pytest.approx(alt, abs=1e-8)

    def test_termwise_closed_form(self):
        # int H^2 = 2 (2m)^-2 sum_{nu,mu} psi_nu psi_mu / (psi_nu + psi_mu)
        for m in range(1, 6):
            r = kernel_roots(m)
            s = (np.outer(r, r) / np.add.outer(r, r)).sum() / (2.0 * m * m)
            assert abs(s.imag) < 1e-12
            assert kernel_l2(m) == pytest.approx(s.real, rel=1e-10)

    def test_positive(self):
        for m in range(1, 6):
            assert kernel_l2(m) > 0.0


class TestEquivalentBandwidths:
    def test_unit_inner_factor(self):
        h1, h2, hn = equivalent_bandwidths(10.0 / 5.0, 3.0, 5, 8, 10, 12, 2, 2)
        assert h1 == pytest.approx(1.0 / 5.0)
        assert hn == pytest.approx(h1 * h2)

    def test_zero_lambda(self):
        h1, _, hn = equivalent_bandwidths(0.0, 1.0, 10, 10, 100, 100, 2, 2)
        assert h1 == 0.0
        assert hn == 0.0

    def test_direct_arithmetic(self):
        h1, _, _ = equivalent_bandwidths(1.0, 1.0, 10, 10, 100, 100, 2, 2)
        assert h1 == pytest.approx(0.1 * 0.1**0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            equivalent_bandwidths(-1.0, 1.0, 10, 10, 100, 100, 2, 2)
        with pytest.raises(ValueError):
            equivalent_bandwidths(1.0, 1.0, 0, 10, 100, 100, 2, 2)
        with pytest.raises(ValueError):
            equivalent_bandwidths(1.0, 1.0, 10, 10, 100, 100, 2, 0)


class TestAsymptoticReport:
    def test_linear_surface_has_no_bias(self):
        rep = asymptotic_report(0.0, 0.0, 1.0, 0.7, 0.9, 2, 2)
        assert rep.bias == 0.0

    def test_rate_exponent_cubic_case(self):
        assert rate_exponent(2, 2) == pytest.approx(0.4)
        rep = asymptotic_report(1.0, 1.0, 1.0, 1.0, 1.0, 2, 2)
        assert rep.rate_exponent == pytest.approx(0.4)

    def test_variance_order_one(self):
        rep = asymptotic_report(0.0, 0.0, 1.0, 1.0, 1.0, 1, 1)
        assert rep.variance_const == pytest.approx(1.0 / 16.0, abs=1e-8)

    def test_equal_orders_match_single_axis_formula(self):
        for m in range(1, 6):
            assert rate_exponent(m, m) == pytest.approx(m / (2.0 * m + 1.0))
            # slower than the one-axis smoother rate 2m/(4m+1)
            assert rate_exponent(m, m) < 2.0 * m / (4.0 * m + 1.0)

    def test_bias_sign_and_scale(self):
        rep = asymptotic_report(3.0, -5.0, 0.0, 0.5, 0.25, 2, 1)
        want = -(0.5**4) * 3.0 + (0.25**2) * (-5.0)
        assert rep.bias == pytest.approx(want)
        assert rep.variance_const == 0.0

    def test_bandwidth_passthrough(self):
        rep = asymptotic_report(0.0, 0.0, 1.0, 1.0, 1.0, 2, 2, bandwidths=(0.05, 0.07))
        assert rep.hn1 == 0.05
        assert rep.hn2 == 0.07

    def test_validation(self):
        with pytest.raises(ValueError):
            asymptotic_report(0.0, 0.0, -1.0, 1.0, 1.0, 2, 2)
        with pytest.raises(ValueError):
            asymptotic_report(0.0, 0.0, 1.0, 0.0, 1.0, 2, 2)
        with pytest.raises(ValueError):
            AsymptoticReport(2, 2, 1.0, 1.0, 0.7, 0.0, 1.0)


class TestSmootherRows:
    def test_rows_reproduce_constants_and_lines(self):
        spec = AxisSpec(degree=3, penalty_order=2, knot_segments=12)
        x, W = smoother_rows(80, spec, 5.0)
        npt.assert_allclose(W @ np.ones(80), np.ones(80), atol=1e-10)
        npt.assert_allclose(W @ x, x, atol=1e-8)

    def test_row_subset(self):
        spec = AxisSpec(degree=3, penalty_order=2, knot_segments=10)
        _, full = smoother_rows(50, spec, 2.0)
        _, some = smoother_rows(50, spec, 2.0, rows=[7, 31])
        npt.assert_array_equal(some, full[[7, 31]])


class TestProfileGap:
    def test_interior_weights_track_kernel(self):
        assert profile_gap(400, 80, 10.0) <= 0.1

    def test_gap_shrinks_with_smoothing(self):
        gaps = [profile_gap(400, 80, lam) for lam in (1.0, 10.0, 100.0)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_empty_interior_window(self):
        with pytest.raises(ValueError):
            profile_gap(50, 10, 1.0, interior=(0.411, 0.419))

    def test_profile_matches_direct_reconstruction(self):
        n, K, lam = 200, 40, 5.0
        spec = AxisSpec(degree=3, penalty_order=2, knot_segments=K)
        x = midpoints(n)
        rows = np.nonzero((x >= 0.25) & (x <= 0.75))[0]
        _, W = smoother_rows(n, spec, lam, rows=rows)
        h = (lam * K / n) ** 0.25 / K
        pred = kernel_eval(2, (x[rows][:, None] - x[None, :]) / h)
        want = float(np.abs(n * h * W - pred).max())
        assert profile_gap(n, K, lam) == pytest.approx(want, rel=1e-12)
