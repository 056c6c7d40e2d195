import math

import mpmath
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

    def test_cache_keeps_the_dimension_check(self):
        # the area is cached per validated dimension: the entry of 2 must not
        # answer 2.0 (== 2) or True (== 1), nor make 1 valid
        first = sphere_area(2)
        assert sphere_area(np.int64(2)) == first
        for bad in (2.0, True, 1):
            with pytest.raises(InvalidDimensionError):
                sphere_area(bad)
        assert sphere_area(2) == first


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
        with pytest.raises(DomainError, match=r"only defined for t >= 0"):
            phi(2, -0.1)
        with pytest.raises(DomainError, match=r"only defined for t >= 0"):
            phi(3, np.array([0.5, -1.0]))

    def test_rejects_nan(self):
        for fn in (phi, phi_derivative, log_phi):
            for n in (2, 4):
                with pytest.raises(DomainError, match="must not be NaN"):
                    fn(n, math.nan)
                # NaN wins over a negative entry in the same array
                with pytest.raises(DomainError, match="must not be NaN"):
                    fn(n, np.array([0.5, -1.0, math.nan]))

    def test_scalar_in_float_out(self):
        for fn in (phi, phi_derivative, log_phi):
            for n in (2, 3, 5):
                assert type(fn(n, 0.7)) is float
                assert type(fn(n, np.float64(700.5))) is float
                assert fn(n, np.array(0.7)) == fn(n, 0.7)
                assert fn(n, np.array([0.7]))[0] == fn(n, 0.7)
                assert fn(n, np.zeros((2, 3))).shape == (2, 3)
                assert fn(n, np.array([])).shape == (0,)

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

    @pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
    def test_limit_at_infinity(self, n):
        # Phi_N(t), its derivative and its log all tend to +inf; finite
        # entries of the same array keep the bits they have on their own
        t = np.array([0.5, 1.0, 30.0, 700.0, math.inf])
        for fn in (phi, phi_derivative, log_phi):
            assert fn(n, math.inf) == math.inf, fn.__name__
            out = fn(n, t)
            assert out[-1] == math.inf, fn.__name__
            assert np.array_equal(out[:-1], fn(n, t[:-1])), fn.__name__
            assert out[1] == fn(n, 1.0), fn.__name__
        # also where the subtracted Taylor terms overflow (log_phi reads t
        # there, see TestLogPhi)
        assert phi(n, 1e300) == math.inf
        assert phi_derivative(n, 1e300) == math.inf


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

    def test_no_overflow_of_the_polynomial(self):
        # P(t) e^-t stays finite where P(t) itself overflows
        for n in (2, 3, 4, 6):
            t = np.array([1e80, 1e200, 1e300])
            assert np.array_equal(log_phi(n, t), t)

    def test_zero_maps_to_neg_inf(self):
        assert log_phi(3, 0.0) == -math.inf


class TestLogValue:
    def test_roundtrip(self):
        v = LogValue(log=math.log(3.5))
        assert v.value == pytest.approx(3.5, rel=1e-15)
        assert not v.saturated

    def test_zero(self):
        v = LogValue(log=-math.inf)
        assert v.value == 0.0
        assert not v.saturated

    def test_saturation(self):
        v = LogValue(log=800.0)
        assert v.saturated
        assert v.value == math.inf


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


# Independent references at 400 digits. Phi_N is e^x minus its Taylor
# polynomial; at x = 1e-8 and N = 6 that subtraction cancels ~40 digits, so
# 400 leave far more than double precision (40 would not).
_ORACLE_DPS = 400
_DIMS = (2, 3, 4, 5, 6)


def _oracle_exp_minus_taylor(x, n_terms):
    """e^x - sum_{j < n_terms} x^j / j!, as an mpf at _ORACLE_DPS digits."""
    with mpmath.workdps(_ORACLE_DPS):
        x = mpmath.mpf(float(x))
        return mpmath.exp(x) - mpmath.fsum(x ** j / mpmath.factorial(j)
                                           for j in range(n_terms))


def _rel_err(value, ref):
    with mpmath.workdps(_ORACLE_DPS):
        return float(abs(mpmath.mpf(float(value)) - ref) / abs(ref))


def _phi_bound(n):
    """The accuracy the scalar layer promises, relative to Phi_N."""
    return 1e-15 if n <= 4 else 2e-14


def _oracle_grid():
    """x in [1e-8, 700], dense on both sides of x = 1 and x = 690."""
    below_one = np.nextafter(1.0, 0.0)
    below_690 = np.nextafter(690.0, 0.0)
    return np.unique(np.concatenate([
        np.geomspace(1e-8, 700.0, 120),
        np.linspace(0.9, 1.1, 41), [below_one, 1.0],
        np.linspace(0.5, 5.0, 46),
        np.linspace(680.0, 700.0, 21), [below_690, 690.0],
    ]))


class TestMpmathOracle:
    @pytest.mark.parametrize("n", _DIMS)
    def test_phi(self, n):
        xs = _oracle_grid()
        vals = phi(n, xs)
        errs = [_rel_err(v, _oracle_exp_minus_taylor(x, n - 1))
                for x, v in zip(xs, vals)]
        worst = int(np.argmax(errs))
        assert errs[worst] <= _phi_bound(n), f"N={n} x={xs[worst]!r}: {errs[worst]:.2e}"

    @pytest.mark.parametrize("n", _DIMS)
    def test_phi_derivative(self, n):
        xs = _oracle_grid()
        vals = phi_derivative(n, xs)
        errs = [_rel_err(v, _oracle_exp_minus_taylor(x, n - 2))
                for x, v in zip(xs, vals)]
        worst = int(np.argmax(errs))
        assert errs[worst] <= _phi_bound(n), f"N={n} x={xs[worst]!r}: {errs[worst]:.2e}"

    @pytest.mark.parametrize("n", _DIMS)
    def test_log_phi(self, n):
        # also past the overflow of e^x at ~709.78; the error is absolute
        # (relative in Phi) while |log Phi| <= 1 and relative beyond
        xs = np.concatenate([_oracle_grid(), [705.0, 709.7, 710.0, 750.0, 1e3, 5e3]])
        vals = log_phi(n, xs)
        errs = []
        for x, v in zip(xs, vals):
            with mpmath.workdps(_ORACLE_DPS):
                ref = mpmath.log(_oracle_exp_minus_taylor(x, n - 1))
                errs.append(float(abs(mpmath.mpf(float(v)) - ref)
                                  / max(1, abs(ref))))
        worst = int(np.argmax(errs))
        assert errs[worst] <= _phi_bound(n), f"N={n} x={xs[worst]!r}: {errs[worst]:.2e}"

    @pytest.mark.parametrize("n", _DIMS)
    def test_lower_incomplete_gamma(self, n):
        # the shape the Moser weight norm uses, a = N + 1; both sides of the
        # series / continued-fraction switch at x = a + 1
        a = n + 1.0
        xs = np.unique(np.concatenate([
            np.geomspace(1e-8, 900.0, 60),
            a + 1.0 + np.linspace(-0.25, 0.25, 21),
            [np.nextafter(a + 1.0, 0.0)],
        ]))
        for x in xs:
            with mpmath.workdps(50):
                ref = mpmath.gammainc(a, 0, float(x))
            err = _rel_err(lower_incomplete_gamma(a, float(x)), ref)
            # below x = 1 the prefactor is x^a e^-x, a few ulps; from there on
            # it is e^(a ln x - x), exact to a few ulps of its argument
            bound = (2e-15 if x < 1.0
                     else 2e-15 + 4e-16 * abs(a * math.log(x) - x))
            assert err <= bound, f"a={a} x={x!r}: {err:.2e} > {bound:.2e}"
