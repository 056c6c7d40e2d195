import math
from dataclasses import replace

import numpy as np
import pytest

from tmlab import (ProblemParams, RadialProfile, at_normalize,
                   critical_alpha_beta, functional, grad_norm_pow, norms)
from tmlab.moser import normalized
from tmlab.profiles import functional_log_batch, weighted_lp_pow_batch
from tmlab.analysis import (g_factor, lemma2_transport, moment_ratio_table,
                            orbit_derivative, relation_scan,
                            theorem13_transport)
from tmlab.errors import (DegenerateInputError, DomainError, PreconditionError)
from tmlab.optimizer import OptimizerConfig

from conftest import assert_rel_close, make_params, random_profile


def feasible_slice_profile(rng, params):
    """Random profile normalized to the gradient ball + unit weight norm."""
    p = random_profile(rng)
    g = grad_norm_pow(p, params)
    p = p.scaled(g ** (-1.0 / params.dim))
    return at_normalize(p, params)


def unit_sphere_profile(rng, params):
    p = random_profile(rng)
    full = norms(p, params).full_pow
    return p.scaled(full ** (-1.0 / params.dim))


class TestGFactor:
    def test_monotone_decreasing(self):
        params = make_params((3, 1.0, 0.5))
        crit = critical_alpha_beta(params)
        alphas = np.linspace(0.05, 0.95, 12) * crit
        vals = [g_factor(a, params) for a in alphas]
        assert np.all(np.diff(vals) < 0)

    def test_endpoint_limits(self):
        params = make_params((2, 0.0, 0.0))
        crit = critical_alpha_beta(params)
        assert g_factor(1e-9 * crit, params) > 1e6
        assert g_factor((1 - 1e-9) * crit, params) < 1e-6

    def test_rejects_out_of_range(self):
        params = make_params((2, 0.0, 0.0))
        with pytest.raises(DomainError):
            g_factor(critical_alpha_beta(params), params)


class TestLemma2Transport:
    def test_feasibility_and_value_identity(self, cell):
        params = make_params(cell)
        crit = critical_alpha_beta(params)
        rng = np.random.default_rng(83)
        for ratio in (0.25, 0.5, 0.9):
            for _ in range(3):
                u = feasible_slice_profile(rng, params)
                out = lemma2_transport(u, ratio * crit, params)
                assert out.full_norm_pow <= 1.0 + 1e-10
                assert out.residual < 1e-7

    def test_transport_value_matches_g_factor_scaling(self):
        # lam^-(N-beta) equals g_factor(alpha) by the defining algebra
        params = make_params((3, 1.0, 0.5))
        crit = critical_alpha_beta(params)
        alpha = 0.6 * crit
        rng = np.random.default_rng(89)
        u = feasible_slice_profile(rng, params)
        out = lemma2_transport(u, alpha, params)
        n = params.dim
        assert_rel_close(out.dilation ** (-(n - params.beta)),
                         g_factor(alpha, params), 1e-12)

    def test_near_critical_limits(self):
        params = make_params((2, 1.0, 0.5))
        crit = critical_alpha_beta(params)
        rng = np.random.default_rng(97)
        u = feasible_slice_profile(rng, params)
        out = lemma2_transport(u, 0.999999 * crit, params)
        assert out.amplitude > 0.999999
        # lam = (C^N/(1-C^N))^(1/(N-gamma)) ~ (1e6)^(2/3) here
        assert out.dilation > 5e3
        # g ~ (1e-6)^(2/3) at this cell
        assert g_factor(0.999999 * crit, params) < 1e-3

    def test_unit_gradient_norm_gives_unit_ball_boundary(self):
        params = make_params((2, 0.0, 0.0))
        crit = critical_alpha_beta(params)
        rng = np.random.default_rng(101)
        u = feasible_slice_profile(rng, params)  # grad norm exactly 1 here
        out = lemma2_transport(u, 0.5 * crit, params)
        assert abs(out.full_norm_pow - 1.0) < 1e-9

    def test_infeasible_rejected(self):
        params = make_params((2, 0.0, 0.0))
        rng = np.random.default_rng(103)
        u = random_profile(rng).scaled(3.0)
        with pytest.raises(PreconditionError):
            lemma2_transport(u, 0.5 * critical_alpha_beta(params), params)


class TestTheorem13Transport:
    def test_norm_bookkeeping_and_chain(self, cell):
        params = make_params(cell)
        rng = np.random.default_rng(107)
        for _ in range(5):
            u = unit_sphere_profile(rng, params)
            out = theorem13_transport(u, params)
            assert_rel_close(grad_norm_pow(out.profile, params), 1.0, 1e-10)
            assert out.weight_pow <= 1.0 + 1e-8
            assert out.residual < 1e-7
            # the ratio bound dominates the exact chain value
            assert out.ratio_bound >= out.rhs - 1e-8 * max(1.0, abs(out.rhs))
            assert out.alpha_prime < critical_alpha_beta(params)

    def test_degenerate_inputs_rejected(self):
        params = make_params((2, 0.0, 0.0))
        z = RadialProfile.from_radii([1.0], [0.0])
        with pytest.raises(DegenerateInputError):
            theorem13_transport(z, params)
        # a feasible profile with unit gradient norm cannot exist (its weight
        # norm would have to vanish), so infeasibility is caught first
        rng = np.random.default_rng(109)
        u = random_profile(rng)
        g = grad_norm_pow(u, params)
        with pytest.raises(PreconditionError):
            theorem13_transport(u.scaled(g ** (-1.0 / params.dim)), params)


LIGHT_SCAN = OptimizerConfig(moser_starts=(3,), random_starts=0, max_iters=60,
                             polish_rounds=1, node_count=65)


class TestRelationScan:
    def test_one_sided_bound_and_rows(self):
        params = make_params((2, 0.0, 0.0))
        crit = critical_alpha_beta(params)
        grid = [0.3 * crit, 0.5 * crit, 0.7 * crit]
        scan = relation_scan(params, grid, LIGHT_SCAN)
        assert len(scan.rows) == 3
        for row in scan.rows:
            assert scan.b_result.value >= row.product - 1e-6
        g_vals = [r.g_factor for r in scan.rows]
        assert np.all(np.diff(g_vals) < 0)
        assert scan.gap >= 0.0

    def test_table_emission(self):
        params = make_params((2, 0.0, 0.0))
        crit = critical_alpha_beta(params)
        scan = relation_scan(params, [0.5 * crit], LIGHT_SCAN)
        text = scan.table().to_csv()
        assert "alpha,g_factor,a_estimate,product,b_estimate" in text

    def test_each_transport_integrated_once(self, monkeypatch):
        # every J quadrature pass of an N = 3 scan is made inside the ratio
        # maximizers, the transports or the full-norm maximizer: the
        # transported profile's J is lemma2_transport's lhs, not a second pass
        from tmlab import analysis, profiles

        passes, inside = [], []
        inner = profiles.integrate_segments
        monkeypatch.setattr(profiles, "integrate_segments",
                            lambda *a, **k: passes.append(1) or inner(*a, **k))
        for name in ("_scan_a", "lemma2_transport", "maximize_B"):
            def counted(*a, fn=getattr(analysis, name), **k):
                before = len(passes)
                try:
                    return fn(*a, **k)
                finally:
                    inside.append(len(passes) - before)
            monkeypatch.setattr(analysis, name, counted)
        params = make_params((3, 1.0, 0.5))
        crit = critical_alpha_beta(params)
        relation_scan(params, [0.4 * crit, 0.6 * crit], OptimizerConfig(
            node_count=17, moser_starts=(3,), random_starts=0, max_iters=3,
            dilation_polish=False))
        assert len(inside) == 4 and len(passes) == sum(inside) > 0

    def test_grid_validation(self):
        params = make_params((2, 0.0, 0.0))
        crit = critical_alpha_beta(params)
        with pytest.raises(DomainError):
            relation_scan(params, [crit], LIGHT_SCAN)


ORBIT_CELLS = [(2, 0.0, 0.0), (2, 0.5, 0.5), (2, 1.0, 1.0)]


class TestOrbitDerivative:
    @pytest.mark.parametrize("cell", ORBIT_CELLS, ids=str)
    def test_series_matches_fd(self, cell):
        params = make_params(cell, alpha_ratio=0.6)
        crit = critical_alpha_beta(params)
        rng = np.random.default_rng(113)
        for _ in range(4):
            v = unit_sphere_profile(rng, params)
            rep = orbit_derivative(v, 0.6 * crit, params)
            assert not rep.saturated
            assert rep.rel_err < 1e-4

    @pytest.mark.parametrize("cell", ORBIT_CELLS, ids=str)
    def test_small_alpha_negative(self, cell):
        params = make_params(cell)
        crit = critical_alpha_beta(params)
        rng = np.random.default_rng(127)
        for _ in range(4):
            v = unit_sphere_profile(rng, params)
            rep = orbit_derivative(v, 0.01 * crit, params)
            assert rep.series < 0
            assert rep.sign == -1

    def test_chunked_moments_match_per_j_series(self):
        # the series takes its log moments in chunks; each term and the
        # truncation are those of one weighted_lp_pow_batch call per moment,
        # bit for bit
        params = make_params((2, 0.5, 0.5), alpha_ratio=0.6)
        v = normalized(20, params).profile
        v = v.scaled(norms(v, params).full_pow ** -0.5)
        rep = orbit_derivative(v, params.alpha, params)
        assert rep.truncation_index > 24  # more than one chunk
        nrm = norms(v, params)
        terms, total, log_fact = [], 0.0, 0.0
        for j in range(1, rep.truncation_index + 1):
            log_fact += math.log(j)
            log_m2j = weighted_lp_pow_batch([v], 2 * j, params.beta, params,
                                            log=True)[0]
            terms.append(math.exp(j * math.log(params.alpha) - log_fact
                                  + log_m2j)
                         * (1.0 - params.beta / 2.0)
                         * (-nrm.grad_pow + (j - 1.0) * nrm.weight_pow))
            total += terms[-1]
        assert rep.terms == tuple(terms)
        assert rep.series == total

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_series_matches_closed_form_gradient(self, beta):
        # N = 2, gamma = beta: sum_j j alpha^j m_2j / j! = int alpha v^2
        # e^(alpha v^2) = K = grad J(v).v / 2 (Euler), so the series is
        # (1 - beta/2) (b K - (a + b) J) with a, b the norm powers; this ties
        # the chunked moments to the closed-form gradient rows
        params = make_params((2, beta, beta))
        crit = critical_alpha_beta(params)
        rng = np.random.default_rng(151)
        profiles = [normalized(n, params).profile for n in (1, 10, 60)]
        profiles += [random_profile(rng, n_nodes=k) for k in (3, 12) for _ in range(8)]
        for ratio in (0.1, 0.6, 0.95, 1.0):
            at = replace(params, alpha=ratio * crit)
            for p in profiles:
                v = p.scaled(norms(p, params).full_pow ** -0.5)
                rep = norms(v, params)
                a, b = rep.grad_pow, rep.weight_pow
                ((j, grad),) = functional_log_batch([v], at, gradient=True)
                k = 0.5 * float(grad @ v.values)
                closed = (1.0 - beta / 2.0) * (b * k - (a + b) * j.value)
                series = orbit_derivative(v, at.alpha, params).series
                bound = 1e-13 * (1.0 - beta / 2.0) * (b * k + (a + b) * j.value)
                assert abs(series - closed) <= bound, (ratio, p.num_nodes)

    def test_unweighted_factor_is_one(self):
        # beta = 0 reduces the prefactor (1 - beta/2) to 1: first term is
        # exactly -alpha * grad_pow * weight_pow
        params = make_params((2, 0.0, 0.0))
        rng = np.random.default_rng(131)
        v = unit_sphere_profile(rng, params)
        alpha = 0.05
        rep_n = norms(v, params)
        out = orbit_derivative(v, alpha, params)
        first = -alpha * rep_n.grad_pow * rep_n.weight_pow
        assert_rel_close(out.terms[0], first, 1e-10)

    def test_rejects_wrong_setting(self):
        rng = np.random.default_rng(137)
        v = random_profile(rng)
        with pytest.raises(PreconditionError):
            orbit_derivative(v, 1.0, make_params((3, 1.0, 0.5)))
        with pytest.raises(PreconditionError):
            orbit_derivative(v, 1.0, make_params((2, 1.0, 0.5)))
        params = make_params((2, 0.5, 0.5))
        with pytest.raises(PreconditionError):
            # not normalized to the sphere
            orbit_derivative(random_profile(rng), 1.0, params)

    def test_stationary_at_b_maximizer(self):
        # along the orbit the converged full-norm maximizer is a critical
        # point; the dilation polish enforces exactly this direction
        params = ProblemParams(2, 0.9 * 2 * math.pi * (2 - 0.5), 0.5, 0.5)
        cfg = OptimizerConfig(moser_starts=(2,), random_starts=0, max_iters=200,
                              polish_rounds=3)
        from tmlab.optimizer import maximize_B

        res = maximize_B(params, cfg)
        rep = orbit_derivative(res.profile, params.alpha, params)
        assert abs(rep.series) < 1e-3 * res.value
        assert abs(rep.fd) < 1e-3 * res.value


class TestMomentRatioTable:
    def test_bounded_and_stabilizing(self):
        params = make_params((2, 0.5, 0.5))
        crit = critical_alpha_beta(params)
        rng = np.random.default_rng(139)
        v = unit_sphere_profile(rng, params)
        table = moment_ratio_table(v, 0.8 * crit, params, j_max=40)
        ratios = table.column("ratio")
        assert all(math.isfinite(r) and r >= 0 for r in ratios)
        # running max stabilizes by j = 40: the tail no longer raises it
        assert max(ratios) == max(ratios[:30])

    def test_amplitude_invariance(self):
        params = make_params((2, 1.0, 1.0))
        crit = critical_alpha_beta(params)
        rng = np.random.default_rng(149)
        v = random_profile(rng)
        t1 = moment_ratio_table(v, 0.5 * crit, params, j_max=8)
        t2 = moment_ratio_table(v.scaled(2.5), 0.5 * crit, params, j_max=8)
        for r1, r2 in zip(t1.column("ratio"), t2.column("ratio")):
            assert_rel_close(r1, r2, 1e-9)

    def test_zero_profile_rejected(self):
        params = make_params((2, 0.5, 0.5))
        with pytest.raises(DegenerateInputError):
            moment_ratio_table(RadialProfile.from_radii([1.0], [0.0]), 1.0, params)
