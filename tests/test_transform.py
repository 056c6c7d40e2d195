import math

import numpy as np
import pytest

from tmlab import (ProblemParams, RadialProfile, critical_alpha_beta,
                   functional, grad_norm_pow, norms, weighted_lp_pow)
from tmlab.errors import ValidationError
from tmlab.transform import (TransformSpec, integral_identity_factor,
                             pull_profile, push_profile, transformed_params,
                             verify_integral_identity,
                             verify_integral_identity_batch)

from conftest import assert_rel_close, make_params, random_profile


def spec_for(cell):
    return TransformSpec.from_params(make_params(cell))


def _profile_at(t):
    """A profile with nodes at log-radii t, values falling from 1 to 0."""
    return RadialProfile(log_radii=t, values=np.linspace(1.0, 0.0, len(t)))


def jacobian_det(r, spec):
    """det DF at radius r: shrink^(N-1) * (kappa r^(N/(N-gamma)))^gamma."""
    return math.exp((spec.dim - 1.0) * math.log(spec.shrink)
                    + spec.gamma * (spec.log_radius_prefactor
                                    + spec.radius_power * math.log(r)))


class TestRadiusMap:
    # the radial map r -> kappa r^(N/(N-gamma)) acts on log-radii as
    # t -> log(kappa) + p t: pull_profile moves nodes by it, push by its inverse
    def test_identity_when_unweighted(self):
        spec = TransformSpec(dim=3, gamma=0.0)
        t = np.log([0.1, 1.0, 17.0])
        assert np.array_equal(pull_profile(_profile_at(t), spec).log_radii, t)
        assert np.array_equal(push_profile(_profile_at(t), spec).log_radii, t)

    def test_two_dim_gamma_one(self):
        spec = TransformSpec(dim=2, gamma=1.0)
        # (1/2)^2 * 4^2 = 4
        t = pull_profile(_profile_at([math.log(4.0), 2.0]), spec).log_radii
        assert t[0] == pytest.approx(math.log(4.0), rel=1e-14)

    def test_roundtrip(self, cell):
        spec = spec_for(cell)
        t = np.linspace(math.log(1e-8), math.log(1e6), 40)
        back = push_profile(pull_profile(_profile_at(t), spec), spec).log_radii
        assert np.allclose(back, t, rtol=0.0, atol=1e-14)

    def test_monotone_bijection(self, cell):
        spec = spec_for(cell)
        t = np.linspace(math.log(1e-6), math.log(1e4), 50)
        assert np.all(np.diff(pull_profile(_profile_at(t), spec).log_radii) > 0)

    def test_rejects_nonpositive(self):
        # linear radii enter only through from_radii, which refuses r <= 0
        for radii in ([0.0, 1.0], [-1.0, 1.0]):
            with pytest.raises(ValidationError):
                RadialProfile.from_radii(radii, [1.0, 0.0])


class TestJacobianDet:
    # the determinant the integral identity's factor is built from
    def test_identity_when_unweighted(self):
        spec = TransformSpec(dim=4, gamma=0.0)
        assert jacobian_det(3.3, spec) == pytest.approx(1.0, rel=1e-15)

    def test_two_dim_gamma_one(self):
        spec = TransformSpec(dim=2, gamma=1.0)
        # (1/2) * (kappa 4^2) = (1/2) * 4 = 2
        assert jacobian_det(4.0, spec) == pytest.approx(2.0, rel=1e-14)

    def test_matches_fd_determinant_of_full_jacobian(self, cell):
        # build the vector field F on R^N and difference it coordinate-wise
        spec = spec_for(cell)
        n, g = spec.dim, spec.gamma
        kappa = math.exp(spec.log_radius_prefactor)

        def field(x):
            return kappa * np.linalg.norm(x) ** (g / (n - g)) * x

        rng = np.random.default_rng(101)
        for _ in range(20):
            x = rng.normal(size=n)
            x *= rng.uniform(0.5, 3.0) / np.linalg.norm(x)
            h = 1e-6
            jac = np.empty((n, n))
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                jac[:, j] = (field(x + e) - field(x - e)) / (2 * h)
            det_fd = float(np.linalg.det(jac))
            det = jacobian_det(float(np.linalg.norm(x)), spec)
            assert_rel_close(det, det_fd, 1e-6)


class TestPushPull:
    def test_gamma_zero_is_identity(self):
        spec = TransformSpec(dim=3, gamma=0.0)
        rng = np.random.default_rng(7)
        p = random_profile(rng)
        v = push_profile(p, spec)
        assert np.array_equal(v.log_radii, p.log_radii)
        assert np.array_equal(v.values, p.values)

    def test_gradient_norm_preserved_exactly(self, cell):
        params = make_params(cell)
        spec = TransformSpec.from_params(params)
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = random_profile(rng)
            v = push_profile(p, spec)
            assert_rel_close(grad_norm_pow(v, params),
                             grad_norm_pow(p, params), 1e-13)

    def test_weighted_norm_becomes_plain(self, cell):
        params = make_params(cell)
        spec = TransformSpec.from_params(params)
        n = params.dim
        rng = np.random.default_rng(13)
        for _ in range(10):
            p = random_profile(rng)
            v = push_profile(p, spec)
            assert_rel_close(weighted_lp_pow(v, n, 0.0, params),
                             weighted_lp_pow(p, n, params.gamma, params), 1e-8)

    def test_roundtrip_nodewise(self, cell):
        params = make_params(cell)
        spec = spec_for(cell)
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = random_profile(rng)
            q = pull_profile(push_profile(p, spec), spec)
            assert np.allclose(q.log_radii, p.log_radii, rtol=0.0, atol=1e-14)
            assert np.allclose(q.values, p.values, rtol=1e-14)
        # the recomputed norm report survives the roundtrip
        p = random_profile(rng)
        q = pull_profile(push_profile(p, spec), spec)
        rp, rq = norms(p, params), norms(q, params)
        assert_rel_close(rp.grad_pow, rq.grad_pow, 1e-12)
        assert_rel_close(rp.weight_pow, rq.weight_pow, 1e-12)
        assert_rel_close(rp.full_pow, rq.full_pow, 1e-12)

    def test_feasibility_transport(self, cell):
        # full weighted norm <= 1 iff full plain norm of the image <= 1
        params = make_params(cell)
        spec = TransformSpec.from_params(params)
        plain = ProblemParams(params.dim, params.alpha, 0.0, 0.0)
        rng = np.random.default_rng(19)
        for _ in range(5):
            p = random_profile(rng)
            full = norms(p, params).full_pow
            p_scaled = p.scaled((1.0 / full) ** (1.0 / params.dim))
            v = push_profile(p_scaled, spec)
            assert_rel_close(norms(v, plain).full_pow, 1.0, 1e-8)


class TestIntegralIdentity:
    def test_unweighted_is_exact_zero(self):
        params = make_params((2, 0.0, 0.0), alpha_ratio=0.5)
        rng = np.random.default_rng(23)
        p = random_profile(rng)
        assert verify_integral_identity(p, params) == 0.0

    def test_residual_small_across_matrix(self, cell):
        params = make_params(cell, alpha_ratio=0.5)
        rng = np.random.default_rng(29)
        for _ in range(10):
            p = random_profile(rng)
            assert verify_integral_identity(p, params) < 1e-7

    def test_zero_profile(self, cell):
        params = make_params(cell)
        z = RadialProfile.from_radii([1.0], [0.0])
        assert verify_integral_identity(z, params) == 0.0

    def test_batch_of_pushed_profiles_matches_singles(self, cell):
        # the batch takes the pushed profiles from its caller; each residual
        # is the one verify_integral_identity gives alone, bit for bit
        params = make_params(cell, alpha_ratio=0.5)
        spec = TransformSpec.from_params(params)
        rng = np.random.default_rng(31)
        us = [random_profile(rng) for _ in range(4)] + [RadialProfile.from_radii([1.0], [0.0])]
        vs = [push_profile(u, spec) for u in us]
        assert verify_integral_identity_batch(us, vs, params) \
            == [verify_integral_identity(u, params) for u in us]

    def test_moser_profile_residual(self):
        from tmlab.moser import build

        params = make_params((2, 1.0, 0.5), alpha_ratio=0.5)
        elem = build(5, params)
        assert verify_integral_identity(elem.profile, params) < 1e-8

    def test_critical_exponent_consistency(self, cell):
        # (N/(N-gamma)) * alpha_crit(beta) == alpha_crit(beta_tilde) algebraically
        params = make_params(cell)
        spec = TransformSpec.from_params(params)
        lhs = spec.induced_alpha(critical_alpha_beta(params))
        tp = transformed_params(params)
        assert_rel_close(lhs, critical_alpha_beta(tp), 1e-13)

    def test_both_sides_independently_against_oracle(self):
        from conftest import oracle_functional

        params = make_params((3, 1.0, 0.5), alpha_ratio=0.4)
        rng = np.random.default_rng(31)
        p = random_profile(rng)
        spec = TransformSpec.from_params(params)
        v = push_profile(p, spec)
        lhs = oracle_functional(p, params)
        rhs = math.exp(integral_identity_factor(params)) \
            * oracle_functional(v, transformed_params(params))
        assert_rel_close(lhs, rhs, 1e-8)
        assert_rel_close(functional(p, params), lhs, 1e-8)
