import math

import numpy as np
import pytest
from scipy.special import gammainc

from tmlab import (LogValue, ProblemParams, critical_alpha,
                   critical_alpha_beta, log_phi, lower_incomplete_gamma, phi,
                   phi_derivative, sphere_area)
from tmlab.errors import DomainError, InvalidDimensionError

from conftest import assert_rel_close


class TestSphereArea:
    def test_closed_forms(self):
        assert_rel_close(sphere_area(2), 2 * math.pi, 1e-14)
        assert_rel_close(sphere_area(3), 4 * math.pi, 1e-14)
        assert_rel_close(sphere_area(4), 2 * math.pi ** 2, 1e-14)

    def test_rejects_bad_dimension(self):
        for bad in (1, 0, -3):
            with pytest.raises(InvalidDimensionError):
                sphere_area(bad)
        with pytest.raises(InvalidDimensionError):
            sphere_area(2.0)


class TestCriticalAlpha:
    def test_dimension_two(self):
        assert_rel_close(critical_alpha(2), 4 * math.pi, 1e-14)

    def test_dimension_three_four(self):
        assert_rel_close(critical_alpha(3), 3 * (4 * math.pi) ** 0.5, 1e-14)
        assert_rel_close(critical_alpha(4), 4 * (2 * math.pi ** 2) ** (1 / 3), 1e-14)

    def test_weighted_reduction(self):
        p = ProblemParams(2, 1.0, 0.0, 0.0)
        assert critical_alpha_beta(p) == critical_alpha(2)
        p = ProblemParams(2, 1.0, 0.7, 0.0)
        assert_rel_close(critical_alpha_beta(p), 2 * math.pi * (2 - 0.7), 1e-14)
        p = ProblemParams(3, 1.0, 1.0, 0.5)
        assert_rel_close(critical_alpha_beta(p), 2 * (4 * math.pi) ** 0.5, 1e-14)


class TestProblemParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            ProblemParams(2, -1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            ProblemParams(2, 1.0, 2.0, 0.0)  # beta >= dim
        with pytest.raises(DomainError):
            ProblemParams(2, 1.0, 0.0, 0.5)  # gamma > beta
        with pytest.raises(InvalidDimensionError):
            ProblemParams(1, 1.0, 0.0, 0.0)

    def test_derived(self):
        p = ProblemParams(3, 2.0, 1.0, 0.5)
        assert_rel_close(p.exponent, 1.5, 1e-15)
        assert_rel_close(critical_alpha_beta(p), (2.0 / 3.0) * critical_alpha(3),
                         1e-15)


class TestPhi:
    def test_n2_is_expm1(self):
        for t in (0.0, 0.3, 1.7, 25.0):
            assert_rel_close(phi(2, t), math.expm1(t), 1e-13)

    def test_zero(self):
        for n in (2, 3, 4, 6):
            assert phi(n, 0.0) == 0.0

    def test_n3_at_one(self):
        assert_rel_close(phi(3, 1.0), math.e - 2.0, 1e-14)

    def test_small_t_tail_series(self):
        # all-positive tail series; reference from the exact leading terms
        t = 1e-4
        assert_rel_close(phi(4, t), t ** 3 / 6 + t ** 4 / 24 + t ** 5 / 120, 1e-13)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            phi(2, -0.1)
        with pytest.raises(DomainError):
            phi(3, np.array([0.5, -1.0]))

    def test_lower_bound_by_first_tail_term(self):
        # the series tail dominates its first term
        for n in (2, 3, 4, 6):
            t = np.linspace(0.0, 50.0, 201)
            assert np.all(phi(n, t) >= t ** (n - 1) / math.factorial(n - 1) - 1e-300)

    def test_monotone(self):
        for n in (2, 3, 5):
            t = np.linspace(0.0, 40.0, 300)
            assert np.all(np.diff(phi(n, t)) > 0)

    def test_saturates_to_inf(self):
        assert phi(2, 720.0) == math.inf


class TestPhiDerivative:
    def test_n2(self):
        assert phi_derivative(2, 1.3) == pytest.approx(math.exp(1.3), rel=1e-14)

    def test_n3_at_zero(self):
        assert phi_derivative(3, 0.0) == 0.0

    def test_n4_at_one(self):
        assert_rel_close(phi_derivative(4, 1.0), math.e - 2.0, 1e-14)

    def test_matches_finite_differences(self):
        # central differences are well conditioned once t clears the step scale
        h = 1e-5
        for n in (2, 3, 4, 6):
            for t in np.linspace(0.2, 30.0, 60):
                fd = (phi(n, t + h) - phi(n, t - h)) / (2 * h)
                assert_rel_close(phi_derivative(n, t), fd, 1e-8, f"n={n} t={t}")

    def test_small_t_via_truncation_identity(self):
        # d/dt phi(n, .) is itself a truncated exponential: exact at every t
        t = np.linspace(0.0, 0.5, 40)
        for n in (3, 4, 6):
            assert np.array_equal(phi_derivative(n, t), phi(n - 1, t))
        assert np.allclose(phi_derivative(2, t), np.exp(t), rtol=1e-15)


class TestLogPhi:
    def test_matches_direct_log(self):
        for n in (2, 3, 5):
            for t in (1e-3, 0.5, 5.0, 100.0, 650.0):
                assert_rel_close(log_phi(n, t), math.log(phi(n, t)), 1e-12)

    def test_far_beyond_overflow(self):
        assert log_phi(2, 5000.0) == pytest.approx(5000.0)
        # the subtracted polynomial is ~e^-700 relative there: log phi == t
        val = log_phi(4, 710.0)
        assert val <= 710.0
        assert val == pytest.approx(710.0, abs=1e-9)

    def test_zero_maps_to_neg_inf(self):
        assert log_phi(3, 0.0) == -math.inf


class TestLogValue:
    def test_roundtrip(self):
        v = LogValue.from_value(3.5)
        assert v.value == pytest.approx(3.5, rel=1e-15)
        assert not v.saturated
        assert float(v) == v.value

    def test_zero(self):
        v = LogValue.from_value(0.0)
        assert v.log == -math.inf
        assert v.value == 0.0

    def test_saturation(self):
        v = LogValue(log=800.0)
        assert v.saturated
        assert v.value == math.inf

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            LogValue.from_value(-1.0)


class TestLowerIncompleteGamma:
    @pytest.mark.parametrize("a,x", [
        (1.0, 0.5), (3.0, 2.5), (5.0, 3.0), (5.0, 12.0), (2.5, 40.0),
        (7.0, 6.0), (4.0, 400.0),
    ])
    def test_against_scipy(self, a, x):
        ref = gammainc(a, x) * math.gamma(a)
        assert_rel_close(lower_incomplete_gamma(a, x), ref, 1e-12)

    def test_edges(self):
        assert lower_incomplete_gamma(3.0, 0.0) == 0.0
        assert_rel_close(lower_incomplete_gamma(3.0, 900.0), math.gamma(3.0), 1e-15)
        with pytest.raises(DomainError):
            lower_incomplete_gamma(-1.0, 1.0)
        with pytest.raises(DomainError):
            lower_incomplete_gamma(2.0, -1.0)
