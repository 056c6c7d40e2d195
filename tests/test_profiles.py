import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from tmlab import (ProblemParams, RadialProfile, at_normalize, dilate,
                   functional, functional_gradient, functional_log,
                   grad_norm_pow, norms, norms_gradient, sphere_area,
                   weighted_lp_pow)
from tmlab import profiles, quadrature
from tmlab.optimizer import OptimizerConfig, starting_profiles
from tmlab.moser import normalized
from tmlab.profiles import (dilated_norms, functional_log_batch,
                            weighted_lp_pow_batch)
from tmlab.errors import (DegenerateInputError, DivergentWeightError,
                          DomainError, ValidationError)

from conftest import (MATRIX, assert_rel_close, finite_difference_gradient,
                      gradient_rel_error, make_params, oracle_functional,
                      oracle_weighted_lp, random_profile)

ZERO = RadialProfile.from_radii([1.0], [0.0])


def _singles(p, params):
    """J and its gradient from the single-quantity functions."""
    return [functional(p, params), functional_gradient(p, params)]


def _counted(monkeypatch, profile, params, gradient=True):
    """(passes of the fixed rule, results) of one functional_log_batch call
    on one profile: J and its gradient from one pass, or J alone."""
    passes = []
    inner = quadrature.segment_functional

    def counting(*args, **kwargs):
        passes.append(1)
        return inner(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(quadrature, "segment_functional", counting)
        results = functional_log_batch([profile], params, gradient=gradient)[0]
    return len(passes), results


def _as_array(result):
    return np.atleast_1d(getattr(result, "value", result))


class TestRadialProfileValidation:
    def test_fields_keyword_only(self):
        # an old positional (radii, values) call fails instead of taking
        # radii for log-radii
        with pytest.raises(TypeError):
            RadialProfile([1.0, 2.0], [1.0, 0.0])
        p = RadialProfile(log_radii=[0.0, 1.0], values=[1.0, 0.0])
        assert np.array_equal(p.radii, np.exp([0.0, 1.0]))

    def test_rejects_bad_shapes(self):
        assert RadialProfile.from_radii(1.0, 0.0).num_nodes == 1  # scalars: one node
        with pytest.raises(ValidationError):
            RadialProfile.from_radii([], [])
        with pytest.raises(ValidationError):
            RadialProfile.from_radii([1.0, 2.0], [1.0])

    def test_rejects_nonincreasing_radii(self):
        with pytest.raises(ValidationError):
            RadialProfile.from_radii([1.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValidationError):
            RadialProfile.from_radii([2.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValidationError):
            RadialProfile.from_radii([-1.0, 1.0], [1.0, 0.0])

    def test_from_radii_checks_once(self, monkeypatch):
        # the positivity check and the log are shared with checked_nodes; the
        # node checks run once, in __post_init__
        calls = []
        check = profiles._check_nodes
        monkeypatch.setattr(profiles, "_check_nodes",
                            lambda t, u: calls.append(t.shape) or check(t, u))
        RadialProfile.from_radii([1.0, 2.0, 5.0], [1.0, 0.5, 0.0])
        assert calls == [(3,)]

    def test_rejects_negative_values_and_open_tail(self):
        with pytest.raises(ValidationError):
            RadialProfile.from_radii([1.0, 2.0], [-0.5, 0.0])
        with pytest.raises(ValidationError):
            RadialProfile.from_radii([1.0, 2.0], [1.0, 0.5])

    def test_value_at(self):
        p = RadialProfile.from_radii([1.0, math.e], [2.0, 0.0])
        assert p.value_at(0.0) == 2.0
        assert p.value_at(0.5) == 2.0
        assert p.value_at(math.e) == 0.0
        assert p.value_at(10.0) == 0.0
        # affine in log r: halfway in t
        assert p.value_at(math.exp(0.5)) == pytest.approx(1.0, rel=1e-12)

    def test_json_roundtrip_lossless(self):
        rng = np.random.default_rng(7)
        p = random_profile(rng)
        q = RadialProfile.from_json(json.dumps(p.to_dict()))
        assert np.array_equal(p.radii, q.radii)
        assert np.array_equal(p.values, q.values)

    def test_from_dict_malformed(self):
        with pytest.raises(ValidationError):
            RadialProfile.from_dict({"radii": [1.0]})


class TestGradNormPow:
    def test_zero_profile(self, cell):
        assert grad_norm_pow(ZERO, make_params(cell)) == 0.0

    def test_single_segment_closed_form(self):
        # plateau 1 to r0, one segment down to 0 at r1, N=2
        params = make_params((2, 0.0, 0.0))
        r0, r1 = 0.5, 4.0
        p = RadialProfile.from_radii([r0, r1], [1.0, 0.0])
        expected = 2 * math.pi / math.log(r1 / r0)
        assert_rel_close(grad_norm_pow(p, params), expected, 1e-14)

    def test_matches_high_order_oracle(self, cell):
        # |u'(r)|^N r^(N-1) integrates to |s|^N per unit log r on each segment
        params = make_params(cell)
        rng = np.random.default_rng(42)
        for _ in range(10):
            p = random_profile(rng)
            n = params.dim
            t = np.log(p.radii)
            slopes = np.diff(p.values) / np.diff(t)

            total = 0.0
            for i in range(len(slopes)):
                val, _ = quad(lambda r, s=slopes[i]: abs(s) ** n / r,
                              p.radii[i], p.radii[i + 1], epsrel=1e-13)
                total += val
            assert_rel_close(grad_norm_pow(p, params),
                             sphere_area(params.dim) * total, 1e-12)


class TestWeightedLpPow:
    def test_zero_profile(self, cell):
        params = make_params(cell)
        assert weighted_lp_pow(ZERO, params.dim, params.gamma, params) == 0.0

    def test_plateau_surrogate_frozen_value(self):
        # u = 1 on [0,1], one segment to 0 at r = e; p = 2, N = 2, gamma = 0:
        # 2 pi (1/2 + int_0^1 (1-t)^2 e^(2t) dt), second term by quadrature oracle
        params = make_params((2, 0.0, 0.0))
        p = RadialProfile.from_radii([1.0, math.e], [1.0, 0.0])
        inner, _ = quad(lambda t: (1 - t) ** 2 * math.exp(2 * t), 0.0, 1.0,
                        epsabs=1e-14, epsrel=1e-12)
        expected = 2 * math.pi * (0.5 + inner)
        got = weighted_lp_pow(p, 2.0, 0.0, params)
        assert_rel_close(got, expected, 1e-10)
        # frozen: the closed form of the inner integral is (e^2 - 5)/4
        assert_rel_close(inner, (math.e ** 2 - 5.0) / 4.0, 1e-12)

    def test_against_oracle(self, cell):
        params = make_params(cell)
        rng = np.random.default_rng(3)
        for _ in range(5):
            p = random_profile(rng)
            got = weighted_lp_pow(p, params.dim, params.gamma, params)
            ref = oracle_weighted_lp(p, params.dim, params.gamma, params)
            assert_rel_close(got, ref, 1e-9)

    def test_high_moments_against_oracle(self):
        params = make_params((2, 1.0, 1.0))
        rng = np.random.default_rng(5)
        p = random_profile(rng, vmax=1.5)
        for pw in (4.0, 10.0, 24.0):
            got = weighted_lp_pow(p, pw, params.beta, params)
            ref = oracle_weighted_lp(p, pw, params.beta, params)
            assert_rel_close(got, ref, 1e-9)

    def test_rel_tol_changes_nothing(self):
        # J at N >= 3 comes from one fixed pass, without a tolerance or a cap,
        # and the norms are closed forms: the four functions that still take
        # a rel_tol give the same bits at any, and nothing warns
        params = make_params((3, 1.0, 0.5))
        p = RadialProfile.from_radii([1.0, 2.0, 5.0], [1.0, 0.5, 0.0])
        q = RadialProfile.from_radii([0.5, 3.0], [2.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for prof in (p, ZERO, q):
                w = weighted_lp_pow(prof, 3, 0.5, params)
                j = functional_log(prof, params)
                dj = functional_gradient(prof, params)
                dn = norms_gradient(prof, params)
                for tol in (1e-30, 1e-3):
                    assert weighted_lp_pow(prof, 3, 0.5, params, rel_tol=tol) == w
                    assert functional_log(prof, params, rel_tol=tol).log == j.log
                    assert np.array_equal(
                        functional_gradient(prof, params, rel_tol=tol), dj)
                    assert all(map(np.array_equal,
                                   norms_gradient(prof, params, rel_tol=tol), dn))

    def test_divergent_weight_rejected(self):
        params = make_params((2, 0.0, 0.0))
        with pytest.raises(DivergentWeightError):
            weighted_lp_pow(ZERO, 2.0, 2.0, params)
        with pytest.raises(DomainError):
            weighted_lp_pow(ZERO, 0.5, 0.0, params)

    def test_non_integer_exponent_refused(self):
        # the closed form sums the Bernstein moments of an integer power
        params = make_params((2, 0.0, 0.0))
        p = random_profile(np.random.default_rng(2))
        for bad in (3.5, 2.000001, math.nan):
            with pytest.raises(DomainError):
                weighted_lp_pow(p, bad, 0.0, params)
        with pytest.raises(DomainError):
            weighted_lp_pow_batch([p, p], [2.0, 2.5], 0.0, params)


class TestNorms:
    def test_zero(self, cell):
        rep = norms(ZERO, make_params(cell))
        assert (rep.grad_pow, rep.weight_pow, rep.full_pow) == (0.0, 0.0, 0.0)

    def test_full_is_sum(self, cell):
        rng = np.random.default_rng(11)
        rep = norms(random_profile(rng), make_params(cell))
        assert rep.full_pow == rep.grad_pow + rep.weight_pow

    def test_homogeneity(self, cell):
        params = make_params(cell)
        rng = np.random.default_rng(13)
        p = random_profile(rng)
        for c in (0.3, 2.0, 7.5):
            rep = norms(p, params)
            rep_c = norms(p.scaled(c), params)
            n = params.dim
            assert_rel_close(rep_c.grad_pow, c ** n * rep.grad_pow, 1e-12)
            assert_rel_close(rep_c.weight_pow, c ** n * rep.weight_pow, 1e-12)
            assert_rel_close(rep_c.full_pow, c ** n * rep.full_pow, 1e-12)


class TestFunctional:
    def test_zero_profile(self, cell):
        assert functional(ZERO, make_params(cell)) == 0.0
        assert functional_log(ZERO, make_params(cell)).log == -math.inf

    def test_against_oracle(self, cell):
        params = make_params(cell, alpha_ratio=0.6)
        rng = np.random.default_rng(17)
        for _ in range(5):
            p = random_profile(rng, vmax=1.2)
            assert_rel_close(functional(p, params),
                             oracle_functional(p, params), 1e-8)

    def test_monotone_in_alpha(self, cell):
        params = make_params(cell, alpha_ratio=0.4)
        rng = np.random.default_rng(19)
        p = random_profile(rng)
        doubled = make_params(cell, alpha=2 * params.alpha)
        assert functional(p, doubled) > functional(p, params)

    def test_zero_iff_zero_profile(self, cell):
        params = make_params(cell)
        rng = np.random.default_rng(23)
        assert functional(ZERO, params) == 0.0
        assert functional(random_profile(rng), params) > 0.0

    def test_log_scale_blowup_regime(self):
        # plateau value large enough that exp overflows linear doubles
        params = ProblemParams(2, 4 * math.pi, 0.0, 0.0)
        p = RadialProfile.from_radii([1.0, 2.0], [16.0, 0.0])
        lv = functional_log(p, params)
        assert lv.saturated
        assert lv.value == math.inf
        # plateau term alone: log(omega/2) + log_phi(alpha*u0^2) >= 3000
        assert lv.log > 3000.0

    def test_refinement_stability(self, cell):
        params = make_params(cell, alpha_ratio=0.5)
        rng = np.random.default_rng(29)
        p = random_profile(rng)
        # insert a collinear-in-log-r node in the middle of segment 3
        t = p.log_radii
        tm = 0.5 * (t[3] + t[4])
        um = p.values[3] + (p.values[4] - p.values[3]) * 0.5
        p2 = RadialProfile(log_radii=np.insert(t, 4, tm),
                           values=np.insert(p.values, 4, um))
        assert_rel_close(functional(p, params), functional(p2, params), 1e-10)
        assert_rel_close(
            weighted_lp_pow(p, params.dim, params.gamma, params),
            weighted_lp_pow(p2, params.dim, params.gamma, params), 1e-10)
        assert_rel_close(grad_norm_pow(p, params),
                         grad_norm_pow(p2, params), 1e-12)


class TestGradients:
    def test_zero_profile_gradient_is_zero(self):
        for cell in MATRIX:
            params = make_params(cell)
            assert np.all(functional_gradient(ZERO, params) == 0.0)
            d_grad, d_weight = norms_gradient(ZERO, params)
            assert np.all(d_grad == 0.0)
            assert np.all(d_weight == 0.0)

    def test_functional_gradient_matches_fd(self, cell):
        params = make_params(cell, alpha_ratio=0.5)
        rng = np.random.default_rng(31)
        for _ in range(5):
            p = random_profile(rng, n_nodes=8)
            analytic = functional_gradient(p, params)
            fd = finite_difference_gradient(
                lambda pr: functional(pr, params), p)
            assert gradient_rel_error(analytic, fd) < 1e-5

    def test_norms_gradient_matches_fd(self, cell):
        params = make_params(cell)
        rng = np.random.default_rng(37)
        for _ in range(3):
            p = random_profile(rng, n_nodes=8)
            d_grad, d_weight = norms_gradient(p, params)
            fd_g = finite_difference_gradient(
                lambda pr: grad_norm_pow(pr, params), p)
            fd_w = finite_difference_gradient(
                lambda pr: weighted_lp_pow(pr, params.dim, params.gamma, params,
                                           rel_tol=1e-13), p)
            assert gradient_rel_error(d_grad, fd_g) < 1e-5
            assert gradient_rel_error(d_weight, fd_w) < 1e-5

    @pytest.mark.parametrize("cell", [(3, 1.0, 0.5), (4, 2.0, 1.0), (3, 0.0, -1.0)],
                             ids=str)
    @pytest.mark.parametrize("index", [800, 2000])
    def test_deep_element_gradient_finite(self, cell, index):
        # at alpha_crit the rows' Phi_N' overflows where e^(c t) underflows
        # on a deep Moser cone; taken together in log scale they stay finite
        params = make_params(cell, alpha_ratio=1.0)
        cone = normalized(index, params).profile
        (t0, t1), u0 = cone.log_radii, cone.values[0]
        p = RadialProfile(log_radii=[t0, 0.5 * (t0 + t1), t1],
                          values=[u0, 0.5 * u0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            analytic = functional_gradient(p, params)
        assert np.isfinite(analytic).all()
        fd = finite_difference_gradient(
            lambda pr: functional_log(pr, params, rel_tol=1e-13).value, p)
        assert gradient_rel_error(analytic, fd) < 1e-5

    def test_gradient_locality(self):
        params = make_params((3, 1.0, 0.5), alpha_ratio=0.5)
        rng = np.random.default_rng(41)
        p = random_profile(rng, n_nodes=9)
        g0 = functional_gradient(p, params)
        bumped = p.values.copy()
        bumped[4] += 0.1
        g1 = functional_gradient(p.with_values(bumped), params)
        changed = np.nonzero(g0 != g1)[0]
        assert set(changed) <= {3, 4, 5}

    def test_plateau_perturbation_locality(self):
        params = make_params((3, 1.0, 0.5), alpha_ratio=0.5)
        rng = np.random.default_rng(43)
        p = random_profile(rng, n_nodes=9)
        bumped = p.values.copy()
        bumped[0] += 0.1
        g0 = functional_gradient(p, params)
        g1 = functional_gradient(p.with_values(bumped), params)
        changed = np.nonzero(g0 != g1)[0]
        assert set(changed) <= {0, 1}


class TestDilate:
    def test_identity(self):
        rng = np.random.default_rng(47)
        p = random_profile(rng)
        q = dilate(p, 1.0)
        assert np.array_equal(p.radii, q.radii)
        assert np.array_equal(p.values, q.values)

    def test_scaling_laws(self, cell):
        params = make_params(cell)
        rng = np.random.default_rng(53)
        p = random_profile(rng)
        for lam in (0.2, 1.7, 30.0):
            q = dilate(p, lam)
            # exact on the representation: log-radii shift, values untouched
            assert np.array_equal(q.values, p.values)
            assert np.array_equal(q.log_radii, p.log_radii - math.log(lam))
            assert_rel_close(grad_norm_pow(q, params),
                             grad_norm_pow(p, params), 5e-14)
            n, g = params.dim, params.gamma
            assert_rel_close(
                weighted_lp_pow(q, n, g, params),
                lam ** (-(n - g)) * weighted_lp_pow(p, n, g, params), 1e-11)

    def test_dilated_norms_match_integrated(self, cell):
        # the dilation polish takes its norms from these laws
        params = make_params(cell)
        rng = np.random.default_rng(59)
        for _ in range(4):
            p = random_profile(rng)
            rep = norms(p, params)
            for lam in (math.exp(-2.0), 0.6, 1.0, 1.9, math.exp(2.0)):
                law = dilated_norms(rep, lam, params)
                direct = norms(dilate(p, lam), params)
                assert law.grad_pow == rep.grad_pow
                assert_rel_close(law.full_pow, direct.full_pow, 1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            dilate(ZERO, 0.0)
        with pytest.raises(DomainError):
            dilate(ZERO, -2.0)


class TestAtNormalize:
    def test_unit_weight_norm(self, cell):
        params = make_params(cell)
        rng = np.random.default_rng(59)
        for _ in range(5):
            p = random_profile(rng)
            q = at_normalize(p, params)
            w = weighted_lp_pow(q, params.dim, params.gamma, params)
            assert abs(w - 1.0) < 1e-10
            assert_rel_close(grad_norm_pow(q, params),
                             grad_norm_pow(p, params), 5e-14)

    def test_already_normalized_is_identity(self):
        params = make_params((2, 1.0, 0.5))
        rng = np.random.default_rng(61)
        q = at_normalize(random_profile(rng), params)
        q2 = at_normalize(q, params)
        assert np.allclose(q2.radii, q.radii, rtol=1e-10)

    def test_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            at_normalize(ZERO, make_params((2, 0.0, 0.0)))


class TestCknEmbeddingSanity:
    def test_interpolation_ratio_bounded(self):
        # embedding sanity scan: ||u||_{N,beta} <= C ||u||_{N,gamma}^theta ||grad u||^(1-theta),
        # theta = (N-beta)/(N-gamma); the empirical constant stays O(1) on samples
        rng = np.random.default_rng(67)
        worst = 0.0
        for cell in MATRIX:
            params = make_params(cell)
            n, b, g = params.dim, params.beta, params.gamma
            theta = (n - b) / (n - g)
            for _ in range(10):
                p = random_profile(rng)
                lhs = weighted_lp_pow(p, n, b, params) ** (1 / n)
                wg = weighted_lp_pow(p, n, g, params) ** (1 / n)
                gr = grad_norm_pow(p, params) ** (1 / n)
                ratio = lhs / (wg ** theta * gr ** (1 - theta))
                assert math.isfinite(ratio)
                worst = max(worst, ratio)
        assert worst < 50.0


class TestFusedPass:
    # J is integrated at N >= 3 only (at N = 2 it is a closed form): one pass
    # of the fixed rule gives J and both gradient rows, and its J is J alone
    @pytest.mark.parametrize("cell", [(3, 1.0, 0.5), (3, 0.0, -1.0)], ids=str)
    def test_start_profiles_bit_identical(self, cell, monkeypatch):
        # the concentrating starts on a fine grid at a small alpha
        params = make_params(cell, alpha_ratio=0.1)
        config = OptimizerConfig(node_count=513, random_starts=0)
        for sid, p in starting_profiles(params, config)[:len(config.moser_starts)]:
            passes, fused = _counted(monkeypatch, p, params)
            assert passes == 1, sid
            for got, alone in zip(fused, _singles(p, params)):
                assert np.array_equal(_as_array(got), _as_array(alone)), sid

    @pytest.mark.parametrize("case", ["peak", "N3_moser"])
    def test_refining_profile_bit_identical(self, case, monkeypatch):
        # profiles the adaptive rule refined further for the gradient rows
        # than for J alone: the fixed rule lays out both the same
        if case == "peak":
            params = make_params((3, 1.0, 0.5), alpha_ratio=1.0)
            p = RadialProfile(log_radii=[-3.0, -1.0, 0.0, 1.0, 3.0],
                              values=[0.2, 1.0, 2.5, 0.3, 0.0])
        else:
            params = make_params((3, 1.0, 0.5), alpha_ratio=0.9)
            p = dict(starting_profiles(params, OptimizerConfig(node_count=65)))[
                "moser-5"]
        passes, fused = _counted(monkeypatch, p, params)
        assert passes == _counted(monkeypatch, p, params, gradient=False)[0] == 1
        for got, alone in zip(fused, _singles(p, params)):
            assert np.array_equal(_as_array(got), _as_array(alone))

    def test_zero_profile(self):
        params = make_params((3, 1.0, 0.5))
        j, dj = functional_log_batch([ZERO], params, gradient=True)[0]
        assert j.log == -math.inf and not dj.any()
        assert weighted_lp_pow(ZERO, 3, 0.5, params) == 0.0
        assert not norms_gradient(ZERO, params)[1].any()


def _mixed_batch(rng, params):
    """Zero profiles, random ones and concentrating elements, in one list."""
    return [ZERO, random_profile(rng), random_profile(rng, n_nodes=3),
            normalized(3, params).profile, ZERO, random_profile(rng, n_nodes=5),
            normalized(30, params).profile, random_profile(rng, n_nodes=12)]


class TestBatch:
    """A profile's results in a batch equal its results alone, bit for bit."""

    def test_weight_norms_and_functional(self, cell):
        params = make_params(cell, alpha_ratio=0.9)
        batch = _mixed_batch(np.random.default_rng(17), params)
        n, b, g = params.dim, params.beta, params.gamma
        for p in (1.0, 2.0, float(n), 7):
            for delta in (0.0, g, b):
                assert weighted_lp_pow_batch(batch, p, delta, params) == \
                    [weighted_lp_pow(u, p, delta, params) for u in batch]
        assert [j.log for j in functional_log_batch(batch, params)] == \
            [functional_log(u, params).log for u in batch]

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(cell=st.sampled_from([c for c in MATRIX if c[0] >= 3]),
           ratio=st.sampled_from([0.3, 0.9, 1.0, 1.3]),
           seeds=st.lists(st.integers(0, 2 ** 32 - 1), max_size=5),
           zeros=st.lists(st.integers(0, 6), max_size=3),
           index=st.sampled_from([None, 2, 40, 10 ** 6]))
    def test_functional_alone_and_in_any_batch(self, cell, ratio, seeds, zeros,
                                               index):
        # at N >= 3 J comes from one fixed pass: a profile's J, and its
        # gradient, are the same bits alone, in any batch (zero profiles and
        # the empty batch too), and with or without the gradient rows
        params = make_params(cell, alpha_ratio=ratio)
        batch = [random_profile(np.random.default_rng(seed), n_nodes=3 + seed % 9)
                 for seed in seeds]
        if index is not None:
            batch.append(normalized(index, params).profile)
        for z in zeros:
            batch.insert(min(z, len(batch)), ZERO)
        with warnings.catch_warnings():
            # a deep element's gradient saturates above critical, and says so
            warnings.simplefilter("ignore", RuntimeWarning)
            js = functional_log_batch(batch, params)
            fused = functional_log_batch(batch, params, gradient=True)
            assert len(js) == len(fused) == len(batch)
            for p, j, (jf, grad) in zip(batch, js, fused):
                alone = functional_log_batch([p], params)[0]
                ja, grad_alone = functional_log_batch([p], params,
                                                      gradient=True)[0]
                assert j.log == alone.log == jf.log == ja.log
                assert np.array_equal(grad, grad_alone)

    def test_one_exponent_per_profile(self):
        # each profile's rows use its own scalar exponent
        params = make_params((2, 1.0, 0.5))
        batch = _mixed_batch(np.random.default_rng(19), params)
        exponents = [2.0 * j for j in range(1, len(batch) + 1)]
        assert weighted_lp_pow_batch(batch, exponents, 1.0, params) == \
            [weighted_lp_pow(u, p, 1.0, params) for u, p in zip(batch, exponents)]
        v = batch[1]
        assert weighted_lp_pow_batch([v] * 30, [2.0 * j for j in range(1, 31)],
                                     1.0, params) == \
            [weighted_lp_pow(v, 2.0 * j, 1.0, params) for j in range(1, 31)]
        # one segment of z = c dt <= 2 at c = 2 - 1 and at c = 2 - 0.5 is one
        # piece: alone each series is contracted for one column, in the
        # batch for 399 columns of up to 401 rows
        one = RadialProfile(log_radii=[-0.5, 0.8], values=[1.3, 0.0])
        exponents = list(range(2, 401))
        assert weighted_lp_pow_batch([one] * len(exponents), exponents, 1.0,
                                     params) == \
            [weighted_lp_pow(one, p, 1.0, params) for p in exponents]
        # the weight norm's gradient rows, of the one piece too, alone and
        # in a batch
        batch.insert(3, one)
        for u, (w, grad) in zip(batch, profiles.weight_norm_batch(batch, params)):
            ((w_alone, grad_alone),) = profiles.weight_norm_batch([u], params)
            assert w == w_alone and np.array_equal(grad, grad_alone)

    def test_node_array_tables_match_profile_tables(self):
        # a table built from (k, m) node arrays, and one rescaled row by row,
        # equal the tables of the profiles themselves: rows with dead
        # segments, a row scaled to 0 and a row whose small values underflow
        rng = np.random.default_rng(29)
        batch = [random_profile(rng, n_nodes=9) for _ in range(4)]
        t = np.stack([p.log_radii for p in batch])
        u = np.stack([p.values for p in batch])
        u[0, 2:5] = 0.0
        u[3, 0] = 0.0
        u[2, 1:3], u[2, 3] = 0.1, 1.5  # 1e-323 times 0.1 is 0, times 1.5 not
        rows = [RadialProfile(log_radii=a, values=b) for a, b in zip(t, u)]
        s = np.array([0.7, 0.0, 1e-323, 2.0])
        table = profiles.LiveSegments.of_nodes(t, u)
        for got, want in ((table, profiles.LiveSegments.of(rows)),
                          (table.scaled(s), profiles.LiveSegments.of(
                              [p.scaled(c) for p, c in zip(rows, s)]))):
            for name, a, b in zip(got._fields, got, want):
                assert np.array_equal(a, b), name
        params = make_params((2, 1.0, 0.5))
        assert weighted_lp_pow_batch(table, 2, 0.5, params) == \
            weighted_lp_pow_batch(rows, 2, 0.5, params)

    def test_empty_batch(self):
        params = make_params((2, 0.0, 0.0))
        assert weighted_lp_pow_batch([], 2.0, 0.0, params) == []
        # profiles without a live segment, one exponent each
        assert weighted_lp_pow_batch([ZERO, ZERO], [2, 4], 0.0, params) == [0.0, 0.0]

    @pytest.mark.parametrize("cell", [(2, 0.0, 0.0), (3, 1.0, 0.5)], ids=str)
    def test_cuts_match_truncated_profiles(self, cell):
        # the half-mass radius sums the segments' closed forms cumulatively;
        # brute force: the first node m whose truncation u * [r < r_m] holds
        # half the weight norm power, each truncation evaluated on its own
        from tmlab.optimizer import _half_mass_radius

        params = make_params(cell)
        rng = np.random.default_rng(23)
        gappy = RadialProfile(log_radii=np.linspace(-4.0, 3.0, 9),
                              values=[1.0, 0.0, 0.0, 2.0, 0.5, 0.0, 1.5, 0.3, 0.0])
        for p in (random_profile(rng), random_profile(rng, n_nodes=4), gappy,
                  normalized(5, params).profile):
            n, g = params.dim, params.gamma
            total = weighted_lp_pow(p, n, g, params)
            cuts = []
            for m in range(1, p.num_nodes):
                values = p.values.copy()
                values[m:] = 0.0
                cuts.append(weighted_lp_pow(p.with_values(values), n, g, params))
            assert np.all(np.diff(cuts) >= -1e-15 * total)
            assert_rel_close(cuts[-1], total, 1e-15)
            m = next(m for m, cut in enumerate(cuts, 1) if cut >= 0.5 * total)
            assert _half_mass_radius(p, params) == p.radii[m]
