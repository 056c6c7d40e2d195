import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from tmlab import (critical_alpha_beta, functional, functional_log,
                   grad_norm_pow, norms, sphere_area, weighted_lp_pow)
from tmlab.errors import DomainError
from tmlab.moser import (asymptotic_lower_scan, build, normalized,
                         plateau_lower_bound, select_index,
                         weight_norm_closed_form, weight_norm_limit)

from conftest import MATRIX, assert_rel_close, make_params, mp_segment_functional


class TestBuild:
    def test_unit_gradient_norm_exact(self, cell):
        params = make_params(cell)
        for n in (1, 7, 50, 200):
            elem = build(n, params)
            assert grad_norm_pow(elem.profile, params) == pytest.approx(1.0, abs=1e-12)

    def test_defining_relation(self, cell):
        # (A_n b_n)^(N/(N-1)) = n / critical
        params = make_params(cell)
        crit = critical_alpha_beta(params)
        for n in (1, 10, 100):
            elem = build(n, params)
            lhs = (elem.amplitude * elem.log_depth) ** params.exponent
            assert_rel_close(lhs, n / crit, 1e-12)

    def test_constants_n2_beta0(self):
        params = make_params((2, 0.0, 0.0))
        for n in (1, 4, 9):
            elem = build(n, params)
            assert_rel_close(elem.amplitude,
                             (2 * math.pi) ** -0.5 * (n / 2.0) ** -0.5, 1e-14)
            assert_rel_close(elem.log_depth, n / 2.0, 1e-15)

    def test_profile_shape(self, cell):
        params = make_params(cell)
        elem = build(12, params)
        assert elem.profile.num_nodes == 2
        # stored in t = log r: the cone runs from t = -b_n to t = 0
        assert np.array_equal(elem.profile.log_radii, [-elem.log_depth, 0.0])
        assert elem.profile.values[0] == elem.amplitude * elem.log_depth

    def test_rejects_bad_index(self):
        with pytest.raises(DomainError):
            build(0, make_params((2, 0.0, 0.0)))
        # no finite double depth n/(N-beta): refused, naming the index
        with pytest.raises(DomainError, match=r"index n=10{400} is too large"):
            build(10 ** 400, make_params((2, 0.0, 0.0)))

    @pytest.mark.parametrize("cell", MATRIX + [(2, 1.9, 0.0)], ids=str)
    def test_index_far_beyond_plateau_underflow(self, cell):
        # e^(-b_n) is 0 in doubles long before n = 10^5 (from n = 75 at
        # beta = 1.9), but the cone is stored in t and still integrates
        params = make_params(cell, alpha_ratio=1.0)
        n = 10 ** 5
        elem = build(n, params)
        assert math.exp(elem.profile.log_radii[0]) == 0.0
        quadded = weighted_lp_pow(elem.profile, params.dim, params.gamma, params)
        assert_rel_close(quadded, weight_norm_closed_form(n, params), 1e-8)
        assert grad_norm_pow(elem.profile, params) == pytest.approx(1.0, abs=1e-12)
        log_j = functional_log(normalized(n, params).profile, params).log
        assert math.isfinite(log_j)
        assert log_j >= plateau_lower_bound(n, params).log


class TestWeightNormClosedForm:
    def test_matches_quadrature_route(self, cell):
        params = make_params(cell)
        for n in (1, 5, 20, 200):
            elem = build(n, params)
            closed = weight_norm_closed_form(n, params)
            quadded = weighted_lp_pow(elem.profile, params.dim, params.gamma, params)
            assert_rel_close(closed, quadded, 1e-8, f"n={n}")

    def test_matches_scipy_oracle(self):
        # independent quadrature at one awkward cell
        params = make_params((3, 1.0, 0.5))
        n = 20
        elem = build(n, params)
        a, b = elem.amplitude, elem.log_depth

        def f(r):
            return (a * math.log(1.0 / r)) ** 3 * r ** (3 - 1 - 0.5)

        seg, _ = quad(f, math.exp(-b), 1.0, epsabs=0.0, epsrel=1e-12)
        plateau = (a * b) ** 3 * math.exp(-b) ** 2.5 / 2.5
        ref = sphere_area(params.dim) * (plateau + seg)
        assert_rel_close(weight_norm_closed_form(n, params), ref, 1e-10)

    def test_large_n_limit(self, cell):
        params = make_params(cell)
        limit = weight_norm_limit(params)
        val = 200 * weight_norm_closed_form(200, params)
        assert abs(val - limit) / limit < 0.05

    def test_n2_unweighted_half_over_n(self):
        # leading term 2*Gamma(3)/2^3 * (1/n) = 1/(2n)
        params = make_params((2, 0.0, 0.0))
        n = 100
        assert_rel_close(weight_norm_closed_form(n, params), 1.0 / (2 * n), 2e-2)
        assert_rel_close(weight_norm_limit(params), 0.5, 1e-15)


class TestNormalized:
    def test_unit_full_norm(self, cell):
        params = make_params(cell)
        for n in (1, 10, 100):
            elem = normalized(n, params)
            rep = norms(elem.profile, params)
            assert abs(rep.full_pow - 1.0) < 1e-10

    def test_lambda_increases_to_one(self, cell):
        # the weight norm peaks near n ~ 2 before its 1/n decay, so lambda is
        # monotone only beyond the hump; it always stays in (0, 1) and tends to 1
        params = make_params(cell)
        lams = [build(n, params).lam for n in range(1, 201)]
        assert all(0.0 < v < 1.0 for v in lams)
        assert np.all(np.diff(lams[4:]) > 0)
        assert lams[-1] > 1.0 - 2.0 * weight_norm_limit(params) / (params.dim * 200)

    def test_one_minus_lambda_pow_scales_like_inverse_n(self, cell):
        params = make_params(cell)
        vals = [n * (1.0 - build(n, params).lam ** params.dim)
                for n in range(50, 201, 25)]
        assert max(vals) < 3 * weight_norm_limit(params) + 1.0
        assert min(vals) > 0.0


class TestPlateauLowerBound:
    def test_closed_form_instance(self):
        # alpha = crit/2, n = 10, N = 2, beta = 0
        params = make_params((2, 0.0, 0.0), alpha_ratio=0.5)
        lam10 = build(10, params).lam
        expected = (2 * math.pi / 2.0) * math.exp(-10) \
            * (math.exp(5.0 * lam10 ** 2) - 1.0)
        assert_rel_close(plateau_lower_bound(10, params).value, expected, 1e-12)

    def test_is_lower_bound_for_functional(self, cell):
        params = make_params(cell, alpha_ratio=0.8)
        for n in (2, 8, 30):
            elem = normalized(n, params)
            assert plateau_lower_bound(n, params).value \
                <= functional(elem.profile, params) * (1 + 1e-9)

    def test_supercritical_divergence(self, cell):
        params = make_params(cell, alpha_ratio=1.05)
        logs = [plateau_lower_bound(n, params).log for n in range(50, 201)]
        assert np.all(np.diff(logs) > 0)

    def test_critical_boundedness(self, cell):
        params = make_params(cell, alpha_ratio=1.0)
        logs = [plateau_lower_bound(n, params).log for n in range(1, 501)]
        assert np.isfinite(logs).all()
        assert max(logs) < 50.0


class TestAsymptoticScan:
    def test_products_bounded_and_comparable(self, cell):
        params = make_params(cell, alpha_ratio=0.5)
        crit = critical_alpha_beta(params)
        table = asymptotic_lower_scan(params, [r * crit for r in (0.9, 0.99, 0.999)])
        products = table.column("product")
        assert all(p > 0 for p in products)
        assert max(products) / min(products) < 10.0

    def test_selected_index_window(self):
        params = make_params((2, 0.0, 0.0))
        crit = critical_alpha_beta(params)
        for ratio in (0.55, 0.9, 0.99, 0.9999):
            n = select_index(ratio * crit, crit)
            assert 1.0 <= n * (1.0 - ratio) <= 2.0

    def test_far_subcritical_rows_flagged_not_errors(self):
        params = make_params((4, 2.0, 1.0), alpha_ratio=0.5)
        crit = critical_alpha_beta(params)
        table = asymptotic_lower_scan(params, [0.3 * crit])
        assert table.rows[0][table.columns.index("flags")] == "below-window"

    def test_rejects_critical_grid_point(self):
        params = make_params((2, 0.0, 0.0))
        crit = critical_alpha_beta(params)
        with pytest.raises(DomainError):
            asymptotic_lower_scan(params, [crit])

    def test_csv_emission(self):
        params = make_params((2, 1.0, 0.5))
        crit = critical_alpha_beta(params)
        table = asymptotic_lower_scan(params, [0.9 * crit, 0.99 * crit])
        text = table.to_csv()
        assert text.startswith("#")
        assert "alpha,n,ratio,product,flags" in text


class TestFunctionalOnNormalizedFamily:
    def test_plateau_contribution_formula(self):
        # the plateau piece of the functional equals the closed form used in
        # the blow-up computation
        params = make_params((3, 1.0, 0.5), alpha_ratio=0.9)
        n = 12
        elem = normalized(n, params)
        u0 = elem.profile.values[0]
        r0 = elem.profile.radii[0]
        from tmlab import phi

        c = params.dim - params.beta
        plateau = sphere_area(params.dim) * phi(params.dim, params.alpha * u0 ** params.exponent) \
            * r0 ** c / c
        assert_rel_close(plateau, plateau_lower_bound(n, params).value, 1e-11)

    def test_no_saturation_at_critical(self, cell):
        params = make_params(cell, alpha_ratio=1.0)
        for n in (1, 50, 200):
            lv = functional_log(normalized(n, params).profile, params)
            assert not lv.saturated


class TestDeepElementsN2:
    """At N = 2 J is a closed form, so every buildable index evaluates right.

    log J of the normalized element must be finite, raise no warning and
    match a 50-digit evaluation of the stored nodes to max(1e-12, 8 n eps):
    the n eps term is the rounding of t0 = -n/(2 - beta) itself.
    """

    @pytest.mark.parametrize("alpha", [4.0, None], ids=["alpha4", "critical"])
    @pytest.mark.parametrize("cell", [c for c in MATRIX if c[0] == 2], ids=str)
    def test_log_j_matches_mpmath(self, cell, alpha):
        params = make_params(cell, alpha=alpha, alpha_ratio=1.0)
        c = 2.0 - params.beta
        for k in range(5, 13):
            n = 10 ** k
            profile = normalized(n, params).profile
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = functional_log(profile, params).log
            assert math.isfinite(got), n
            (t0, t1), (u0, u1) = profile.log_radii, profile.values
            with mp.workdps(60):
                head = mp.exp(c * mp.mpf(t0)) * mp.expm1(params.alpha * mp.mpf(u0) ** 2) / c
                cone = mp_segment_functional(t0, t1, u0, u1, params.alpha, c)[0]
                want = mp.log(2 * mp.pi * (head + cone))
            assert abs(got - float(want)) <= max(1e-12, 8 * n * sys.float_info.epsilon), n


class TestDeepElementsN3:
    """At N >= 3 J takes one fixed pass, whose long segments keep a window
    at each end: deep elements evaluate right.

    At alpha_crit the cone adds N - 1 plateaus, so log J - log(plateau
    bound) tends to log N, and here it lies within 10/n of it.  (At n = 10^8
    and beyond, the rounding of the plateau exponent x - n, about n eps,
    takes over: that cancellation is still open.)
    """

    @pytest.mark.parametrize("cell", [c for c in MATRIX if c[0] >= 3], ids=str)
    def test_log_j_tends_to_plateau_bound_plus_log_n(self, cell):
        params = make_params(cell, alpha_ratio=1.0)
        for k in range(1, 8):
            n = 10 ** k
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                log_j = functional_log(normalized(n, params).profile, params).log
            bound = plateau_lower_bound(n, params).log
            assert log_j >= bound, n
            assert abs(log_j - bound - math.log(params.dim)) <= 10.0 / n, n
