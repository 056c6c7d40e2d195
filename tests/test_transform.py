import json
import math

import numpy as np
import pytest

from tmlab import (ProblemParams, RadialProfile, critical_alpha_beta,
                   functional, grad_norm_pow, norms, weighted_lp_pow)
from tmlab.cli import run
from tmlab.errors import DomainError, ValidationError
from tmlab.profiles import random_nodes, weighted_lp_pow_batch
from tmlab.transform import (TransformSpec, integral_identity_factor,
                             pull_nodes, pull_profile, push_nodes,
                             push_profile, transformed_params,
                             verify_integral_identity,
                             verify_integral_identity_batch)

from conftest import MATRIX, assert_rel_close, make_params, random_profile


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


def _reference_random_profile(rng, n_nodes=10, vmax=2.0):
    """random_profile as drawn before random_nodes: one profile at a time."""
    t_lo, t_hi = -7.0, 4.5
    gaps = rng.uniform(0.15, 1.2, size=n_nodes - 1)
    t = t_lo + (t_hi - t_lo) * np.concatenate([[0.0], np.cumsum(gaps)]) / np.sum(gaps)
    values = rng.uniform(0.0, vmax, size=n_nodes)
    values[-1] = 0.0
    return RadialProfile(log_radii=t, values=values)


def _reference_rows(params, seed, count):
    """transform-check's rows by the per-profile loop the command ran before
    it took node arrays: three profiles and two grad_norm_pow calls a row."""
    rng = np.random.default_rng(seed)
    spec = TransformSpec.from_params(params)
    n = params.dim
    us = [_reference_random_profile(rng) for _ in range(count)]
    vs = [RadialProfile(
        log_radii=(u.log_radii - spec.log_radius_prefactor) / spec.radius_power,
        values=spec.amplitude_factor * u.values) for u in us]
    w_us = weighted_lp_pow_batch(us, n, params.gamma, params)
    w_vs = weighted_lp_pow_batch(vs, n, 0.0, params)
    resids = verify_integral_identity_batch(us, vs, params)
    rows = []
    for i, (u, v, w_u, w_v, resid) in enumerate(zip(us, vs, w_us, w_vs, resids)):
        g_u, g_v = grad_norm_pow(u, params), grad_norm_pow(v, params)
        grad_err = abs(g_u - g_v) / max(g_u, 1e-300)
        weight_err = abs(w_u - w_v) / max(w_u, 1e-300)
        back = RadialProfile(
            log_radii=spec.log_radius_prefactor + spec.radius_power * v.log_radii,
            values=v.values / spec.amplitude_factor)
        rt = max(float(np.max(np.abs(back.radii - u.radii) / u.radii)),
                 float(np.max(np.abs(back.values - u.values)
                              / np.maximum(u.values, 1e-300))))
        rows.append([i, grad_err, weight_err, resid, rt])
    return rows


class TestBatchedCommand:
    """transform-check on node arrays gives the per-profile loop's rows bit
    for bit."""

    @pytest.mark.parametrize("cell", MATRIX + [(2, 1.9, 0.0), (3, 2.5, 2.9)],
                             ids=str)
    def test_rows_match_per_profile_loop(self, cell, tmp_path, capsys):
        dim, beta, gamma = cell
        out = tmp_path / "out"
        args = ["transform-check", "--dim", str(dim), "--beta", str(beta),
                "--gamma", str(gamma), "--alpha-ratio", "0.5",
                "--output", str(out)]
        try:
            params = make_params(cell, alpha_ratio=0.5)
        except DomainError as exc:  # refused before any profile is drawn
            assert run(args) == 3
            assert capsys.readouterr().err == f"error: {exc}\n"
            return
        for seed in (0, 3, 77):
            for count in (1, 2, 30):
                want = _reference_rows(params, seed, count)
                flags = ["--seed", str(seed), "--count", str(count)]
                assert run([*args, *flags, "--format", "json"]) == 0
                assert json.loads(out.read_text())["rows"] == want
                assert run([*args, *flags, "--format", "csv"]) == 0
                lines = out.read_bytes().decode().split("\r\n")
                start = lines.index(",".join(("index", "grad_rel_err",
                                              "weight_map_rel_err",
                                              "identity_residual",
                                              "roundtrip_rel_err"))) + 1
                assert lines[start:] == [",".join(map(str, row))
                                         for row in want] + [""]

    @pytest.mark.parametrize("seed", [0, 3, 77])
    def test_random_profile_is_batch_of_one(self, seed):
        one, batch, ref = (np.random.default_rng(seed) for _ in range(3))
        p = random_profile(one)
        t, u = random_nodes(batch, 1)
        want = _reference_random_profile(ref)
        assert t.shape == u.shape == (1, 10)
        assert np.array_equal(p.log_radii, t[0])
        assert np.array_equal(p.values, u[0])
        assert np.array_equal(p.log_radii, want.log_radii)
        assert np.array_equal(p.values, want.values)
        # the stream goes on from the same place
        assert one.random() == batch.random() == ref.random()

    @pytest.mark.parametrize("n_nodes", [2, 5, 10, 17])
    def test_random_nodes_rows_are_successive_profiles(self, n_nodes):
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        t, u = random_nodes(rng, 40, n_nodes=n_nodes, vmax=1.5)
        for row_t, row_u in zip(t, u):
            want = _reference_random_profile(ref, n_nodes=n_nodes, vmax=1.5)
            assert np.array_equal(row_t, want.log_radii)
            assert np.array_equal(row_u, want.values)
        assert rng.random() == ref.random()

    def test_node_maps_are_profile_maps_row_by_row(self, cell):
        spec = spec_for(cell)
        t, u = random_nodes(np.random.default_rng(41), 12)
        t_v, u_v = push_nodes(t, u, spec)
        t_b, u_b = pull_nodes(t_v, u_v, spec)
        for i in range(t.shape[0]):
            v = push_profile(RadialProfile(log_radii=t[i], values=u[i]), spec)
            assert np.array_equal(v.log_radii, t_v[i])
            assert np.array_equal(v.values, u_v[i])
            back = pull_profile(v, spec)
            assert np.array_equal(back.log_radii, t_b[i])
            assert np.array_equal(back.values, u_b[i])
