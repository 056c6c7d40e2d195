import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmlab import (ProblemParams, RadialProfile, at_normalize, dilate,
                   functional, grad_norm_pow, norms, weighted_lp_pow)
from tmlab.errors import SupercriticalError, ValidationError
from tmlab.moser import normalized
from tmlab.optimizer import (OptimizerConfig, maximize_A, maximize_B,
                             starting_profiles)
from tmlab.profiles import (dilated_norms, functional_log_batch, norms_gradient,
                            weight_norm_batch)

from conftest import (MATRIX, assert_rel_close, make_params, random_profile,
                      worst_gradient_error)

# single-start config keeps the module tests quick; quality is acceptance's job
LIGHT = OptimizerConfig(moser_starts=(5,), random_starts=0, max_iters=120,
                        polish_rounds=2)


@pytest.fixture(scope="module")
def b_result_2d():
    params = ProblemParams(2, 4 * math.pi, 0.0, 0.0)
    return params, maximize_B(params, LIGHT)


@pytest.fixture(scope="module")
def a_result_2d():
    params = ProblemParams(2, 2 * math.pi, 0.0, 0.0)
    return params, maximize_A(params, LIGHT)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            OptimizerConfig(node_count=2)

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ValidationError):
            OptimizerConfig.from_dict({"nodes": 10})
        # the grid span and the L-BFGS constants are not config keys
        with pytest.raises(ValidationError):
            OptimizerConfig.from_dict({"r_min": 1e-6})
        cfg = OptimizerConfig.from_dict({"node_count": 65, "moser_starts": [1, 2]})
        assert cfg.node_count == 65
        assert cfg.moser_starts == (1, 2)


class TestRefusals:
    def test_b_above_critical(self):
        params = make_params((2, 1.0, 0.5), alpha_ratio=1.05)
        with pytest.raises(SupercriticalError, match="plateau_lower_bound"):
            maximize_B(params, LIGHT)

    def test_b_accepts_critical(self):
        # alpha == critical is allowed for the full-norm problem
        params = make_params((2, 1.0, 1.0), alpha_ratio=1.0)
        res = maximize_B(params, OptimizerConfig(
            moser_starts=(3,), random_starts=0, max_iters=30, polish_rounds=1))
        assert res.value > 0

    def test_a_at_critical_refused(self):
        params = make_params((3, 1.0, 0.5), alpha_ratio=1.0)
        with pytest.raises(SupercriticalError):
            maximize_A(params, LIGHT)


class TestAscentContracts:
    def test_trace_nondecreasing(self, b_result_2d):
        _, res = b_result_2d
        t = np.asarray(res.trace)
        assert np.all(np.diff(t) >= -1e-12 * np.abs(t[1:]))

    def test_feasibility(self, b_result_2d, a_result_2d):
        for _, res in (b_result_2d, a_result_2d):
            for name, r in res.constraint_residuals.items():
                assert r < 1e-8, (name, r)

    def test_value_consistent_with_profile(self, b_result_2d, a_result_2d):
        # reported value must be reproducible from the reported profile
        params, res = b_result_2d
        assert_rel_close(functional(res.profile, params), res.value, 1e-9)
        params_a, res_a = a_result_2d
        n, b, g = params_a.dim, params_a.beta, params_a.gamma
        theta = (n - b) / (n - g)
        w = weighted_lp_pow(res_a.profile, n, g, params_a)
        ratio = functional(res_a.profile, params_a) / w ** theta
        assert_rel_close(ratio, res_a.value, 1e-9)

    def test_dominates_every_start(self, b_result_2d):
        params, res = b_result_2d
        for sid, prof in starting_profiles(params, LIGHT):
            rep = norms(prof, params)
            feas = prof.scaled(rep.full_pow ** (-1.0 / params.dim))
            assert res.value >= functional(feas, params) - 1e-9

    def test_dominates_concentrating_family(self, b_result_2d):
        params, res = b_result_2d
        for n in range(1, 51):
            vn = functional(normalized(n, params).profile, params)
            assert res.value >= vn - 1e-9, n

    def test_diagnostics_present(self, b_result_2d):
        _, res = b_result_2d
        for key in ("half_mass_radius", "support_radius", "iterations"):
            assert key in res.diagnostics
        assert res.diagnostics["half_mass_radius"] > 0


def _polish(profile, params):
    """(profile, value, s of each evaluation) of one dilation polish from value 0.

    Drives _polish_steps by hand; s is the log-dilation of each requested
    dilate, whose log-radii are the profile's minus s.
    """
    from tmlab import optimizer

    steps = optimizer._polish_steps(profile, params, 0.0)
    request, evaluated = next(steps), []
    try:
        while True:
            fn, values, radii = request
            evaluated.append(profile.log_radii[0] - math.log(radii[0]))
            request = steps.send(fn(values[None], radii[None], params)[0])
    except StopIteration as stop:
        return (*stop.value, evaluated)


def _on_sphere(cell, ratio, start, nodes):
    params = make_params(cell, alpha_ratio=ratio)
    prof = dict(starting_profiles(params, OptimizerConfig(node_count=nodes)))[start]
    return prof.scaled(norms(prof, params).full_pow ** (-1.0 / params.dim)), params


class TestDilationPolish:
    def test_interior_maximum_matches_dense_scan(self):
        # J over the dilation family of this start peaks inside the bracket;
        # Brent's parabolic steps find it in far fewer J values than the 39
        # of golden section, and where a dense scan puts it
        from tmlab import optimizer

        v, params = _on_sphere((3, 1.0, 0.5), 1.0, "moser-5", 65)
        polished, value, evaluated = _polish(v, params)
        assert len(evaluated) <= 15
        s_best = v.log_radii[0] - polished.log_radii[0]
        rep = norms(v, params)

        def family(s):
            scale = np.array([dilated_norms(rep, math.exp(x), params).full_pow
                              for x in s]) ** (-1.0 / params.dim)
            return np.array(optimizer._functional_values(
                scale[:, None] * v.values, np.exp(v.log_radii - s[:, None]),
                params))

        center, half = 0.0, optimizer._POLISH_SPAN
        while half > 1e-8:  # zoom a 201-point scan in on its best point
            s = np.linspace(max(center - half, -2.0), min(center + half, 2.0), 201)
            center, half = s[np.argmax(family(s))], 2.0 * (s[1] - s[0])
        assert -1.9 < s_best < 1.9
        assert abs(s_best - center) <= optimizer._POLISH_TOL
        assert value >= family(np.array([center]))[0] - 1e-12 * value

    def test_vanishing_case_ends_on_the_bracket_edge(self):
        # below the existence threshold at (2, 0, 0) the best dilate spreads
        # out as far as the bracket allows; Brent then takes golden steps
        # toward the edge, no more than golden section's 39
        from tmlab import optimizer

        v, params = _on_sphere((2, 0.0, 0.0), 0.5, "moser-5", 65)
        polished, value, evaluated = _polish(v, params)
        assert len(evaluated) <= 39
        s_best = v.log_radii[0] - polished.log_radii[0]
        assert abs(s_best + optimizer._POLISH_SPAN) <= 1e-6
        assert value > functional(v, params)


class TestDeterminism:
    def test_bit_identical_repeat(self):
        params = make_params((2, 1.0, 0.5), alpha_ratio=0.6)
        cfg = OptimizerConfig(moser_starts=(2,), random_starts=1, max_iters=25,
                              polish_rounds=1, node_count=65)
        a = json.dumps(maximize_A(params, cfg).to_dict(), sort_keys=True)
        b = json.dumps(maximize_A(params, cfg).to_dict(), sort_keys=True)
        assert a == b


@pytest.mark.slow
class TestDefaultConfigValues:
    # the maximizer values of the default config at N=2, beta=gamma=0; no leg
    # converges, so they follow each leg's exact path and any change to the
    # arithmetic on that path shows here
    def test_mode_a_at_half_critical(self):
        res = maximize_A(make_params((2, 0.0, 0.0), alpha_ratio=0.5))
        assert_rel_close(res.value, 13.440784313528077, 1e-9, "sup A")
        assert res.start_id == "bump"

    def test_mode_b_at_critical(self):
        res = maximize_B(make_params((2, 0.0, 0.0), alpha_ratio=1.0))
        assert_rel_close(res.value, 14.271839247371013, 1e-9, "sup B")
        assert res.start_id == "moser-5"


class TestRatioInvariance:
    def test_at_ratio_equals_slice_value(self, cell):
        # the dilation identity J(dilate(v, lam)) = lam^-(N-beta) J(v) makes
        # the ratio equal to the functional of the weight-normalized profile
        params = make_params(cell, alpha_ratio=0.5)
        n, b, g = params.dim, params.beta, params.gamma
        theta = (n - b) / (n - g)
        rng = np.random.default_rng(71)
        for _ in range(5):
            u = random_profile(rng)
            v = u.scaled(grad_norm_pow(u, params) ** (-1.0 / n))
            w = weighted_lp_pow(v, n, g, params)
            lhs = functional(at_normalize(v, params), params)
            rhs = functional(v, params) / w ** theta
            assert_rel_close(lhs, rhs, 1e-8)

    def test_slice_result_reports_ratio(self, a_result_2d):
        # Lemma-1 equivalence on the reported maximizer: the slice profile's
        # functional equals the unconstrained ratio value
        params, res = a_result_2d
        rep = norms(res.profile, params)
        assert abs(rep.grad_pow - 1.0) < 1e-8
        assert abs(rep.weight_pow - 1.0) < 1e-8
        assert_rel_close(functional(res.profile, params), res.value, 1e-9)


class TestStability:
    def test_a_value_stable_under_grid_doubling(self):
        params = ProblemParams(2, 2 * math.pi, 0.0, 0.0)
        cfg1 = OptimizerConfig(moser_starts=(5,), random_starts=0, node_count=129)
        cfg2 = OptimizerConfig(moser_starts=(5,), random_starts=0, node_count=257)
        v1 = maximize_A(params, cfg1).value
        v2 = maximize_A(params, cfg2).value
        assert abs(v1 - v2) / v1 < 0.02


class TestGradientCheck:
    @pytest.mark.parametrize("cell", [(2, 0.0, 0.0), (3, 1.0, 0.5), (4, 2.0, 1.0)],
                             ids=str)
    def test_worst_error_small(self, cell):
        params = make_params(cell, alpha_ratio=0.5)
        rng = np.random.default_rng(73)
        for _ in range(3):
            p = random_profile(rng, n_nodes=8)
            assert worst_gradient_error(params, p) < 1e-5

    def test_zero_profile(self):
        params = make_params((3, 1.0, 0.5))
        z = RadialProfile.from_radii([1.0, 2.0], [0.0, 0.0])
        assert worst_gradient_error(params, z) == 0.0


class TestCompositeObjectives:
    def test_objective_gradients_match_fd(self, cell):
        # chain-rule gradients of both scale-invariant composites
        from tmlab.optimizer import _objective_a, _objective_b

        params = make_params(cell, alpha_ratio=0.7)
        rng = np.random.default_rng(79)
        p = random_profile(rng, n_nodes=8)
        for objective in (_objective_a, _objective_b):
            fn = lambda u: objective(u, p.radii, params, 1e-13)
            val, grad = fn(p.values)
            for i in range(p.values.size - 1):
                h = 1e-6 * max(p.values[i], 1.0)
                up, dn = p.values.copy(), p.values.copy()
                up[i] += h
                dn[i] = max(dn[i] - h, 0.0)
                fd = (fn(up)[0] - fn(dn)[0]) / (up[i] - dn[i])
                scale = max(abs(fd), abs(grad[i]), 1e-3 * np.abs(grad).max())
                assert abs(grad[i] - fd) / scale < 1e-5, (objective.__name__, i)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), cell=st.sampled_from(MATRIX),
           c=st.floats(0.1, 10.0), log_lam=st.floats(-3.0, 3.0))
    def test_objective_a_scale_invariant(self, seed, cell, c, log_lam):
        # R(u) = J(v)/||v||_w^theta, v = u/||grad u||: amplitude drops out by
        # v, dilation (a shift of log_radii) by the ratio
        from tmlab.optimizer import _objective_a

        params = make_params(cell, alpha_ratio=0.5)
        p = random_profile(np.random.default_rng(seed), n_nodes=8)
        moved = dilate(p, math.exp(log_lam)).scaled(c)
        base, _ = _objective_a(p.values, p.radii, params, 1e-12)
        value, _ = _objective_a(moved.values, moved.radii, params, 1e-12)
        assert_rel_close(value, base, 1e-8)

    def test_quadrature_passes_per_call(self, monkeypatch):
        # one pass of the fixed rule for the J rows per mode-A or mode-B call
        # (the weight norms are closed forms), and in the polish one pass per
        # evaluated dilate
        from tmlab import optimizer, quadrature

        passes, polish_steps = [], []
        inner = quadrature.segment_functional
        inner_values = optimizer._functional_values
        monkeypatch.setattr(quadrature, "segment_functional",
                            lambda *a, **k: passes.append(1) or inner(*a, **k))
        monkeypatch.setattr(optimizer, "_functional_values", lambda *a, **k:
                            polish_steps.append(1) or inner_values(*a, **k))
        params = make_params((3, 1.0, 0.5), alpha_ratio=0.7)
        p = random_profile(np.random.default_rng(83), n_nodes=8)
        for objective, count in ((optimizer._objective_a, 1),
                                 (optimizer._objective_b, 1)):
            passes.clear()
            objective(p.values, p.radii, params)
            assert len(passes) == count, objective.__name__
        unit = p.scaled(norms(p, params).full_pow ** (-1.0 / params.dim))
        passes.clear()
        optimizer._dilation_polish(unit, params, 0.0)
        assert len(passes) == len(polish_steps) > 0


def _tapped(leg, log):
    """The leg unchanged, appending the name of each request's fn to log."""
    answer = None
    try:
        while True:
            request = leg.send(answer)
            log.append(request[0].__name__)
            answer = yield request
    except StopIteration as stop:
        return stop.value


class TestLockStep:
    # a roster of five legs: an extra start on its own 20-node grid, two
    # Moser starts, the bump and a random start on the 33-node grid
    CONFIG = OptimizerConfig(node_count=33, moser_starts=(2, 6), random_starts=1,
                             max_iters=12, polish_rounds=2)

    def _roster(self, params):
        extra = random_profile(np.random.default_rng(97), n_nodes=20)
        return [("extra", extra)] + starting_profiles(params, self.CONFIG)

    @pytest.mark.parametrize("mode", ["A", "B"])
    @pytest.mark.parametrize("cell", [(2, 0.0, 0.0), (3, 1.0, 0.5)], ids=str)
    def test_each_leg_as_alone(self, cell, mode):
        # in lock step every leg's result has the bytes of the leg run alone
        from tmlab import optimizer

        params = make_params(cell, alpha_ratio=0.6 if mode == "A" else 1.0)
        cfg = self.CONFIG
        starts = self._roster(params)
        logs = [[] for _ in starts]
        legs = [_tapped(optimizer._leg(sid, prof, params, cfg, mode), log)
                for (sid, prof), log in zip(starts, logs)]
        together = optimizer._drive(legs, params)
        for (sid, prof), res in zip(starts, together):
            alone = optimizer._ascend(sid, prof, params, cfg, mode)
            assert json.dumps(res.to_dict()) == json.dumps(alone.to_dict()), sid
        # the legs end at different steps
        assert len({len(log) for log in logs}) > 1
        if mode == "B":
            # at some step one leg is in L-BFGS while another polishes
            phases = [{log[s] for log in logs if s < len(log)}
                      for s in range(max(map(len, logs)))]
            assert {"_objective_b", "_functional_values"} in phases

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_passes_per_step_whatever_k(self, monkeypatch, k):
        # one step answers k requests of one kind with 1 pass in mode A, in
        # mode B and for polish values
        from tmlab import optimizer, quadrature

        passes = []
        inner = quadrature.segment_functional
        monkeypatch.setattr(quadrature, "segment_functional",
                            lambda *a, **kw: passes.append(1) or inner(*a, **kw))
        params = make_params((3, 1.0, 0.5), alpha_ratio=0.7)
        rng = np.random.default_rng(89)
        batch = [random_profile(rng, n_nodes=8) for _ in range(k)]
        values = np.stack([p.values for p in batch])
        radii = np.stack([p.radii for p in batch])
        for fn, count in ((optimizer._objective_a, 1), (optimizer._objective_b, 1),
                          (optimizer._functional_values, 1)):
            passes.clear()
            assert len(fn(values, radii, params)) == k
            assert len(passes) == count, fn.__name__

    def test_steps_do_not_grow_with_legs(self, monkeypatch):
        # k copies of one leg make as many batched calls as the leg alone
        from tmlab import optimizer

        calls = []
        for name in ("_objective_b", "_functional_values"):
            inner = getattr(optimizer, name)
            monkeypatch.setattr(optimizer, name, lambda *a, inner=inner, **kw:
                                calls.append(1) or inner(*a, **kw))
        params = make_params((2, 0.0, 0.0), alpha_ratio=1.0)
        cfg = self.CONFIG
        sid, prof = self._roster(params)[2]
        counts = []
        for k in (1, 3):
            calls.clear()
            legs = [optimizer._leg(sid, prof, params, cfg, "B") for _ in range(k)]
            optimizer._drive(legs, params)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


def _reference(values, radii, params, theta, kappa):
    """The objective row by row from profile objects and the one-profile
    entry points: the chain rule of optimizer._objective, one row at a time."""
    n = params.dim
    out = []
    for u, r in zip(values, radii):
        prof = RadialProfile.from_radii(r, u)
        ((w, d_w),) = weight_norm_batch([prof], params)
        full = grad_norm_pow(prof, params) + kappa * w
        if not (full > 0.0 and w > 0.0):
            out.append((0.0, np.zeros_like(u)))
            continue
        s = full ** (-1.0 / n)
        ((j, g_j),) = functional_log_batch([prof.scaled(s)], params,
                                           gradient=True)
        j, w_v = j.value, w * s ** n
        dr = (g_j * w_v ** -theta
              - theta * j * w_v ** (-theta - 1.0) * s ** (n - 1) * d_w)
        grad = s * dr - (float(dr @ u) / n) * (s / full) \
            * (norms_gradient(prof, params)[0] + kappa * d_w)
        out.append((j * w_v ** -theta, grad))
    return out


def _request_batch(k, seed, nodes=12):
    """(values, radii) of k random profiles on k different grids."""
    rng = np.random.default_rng(seed)
    batch = [dilate(random_profile(rng, n_nodes=nodes), math.exp(rng.normal()))
             for _ in range(k)]
    return np.stack([p.values for p in batch]), np.stack([p.radii for p in batch])


def _one_request(fn, values, radii):
    """A leg that makes one request and returns its answer."""
    return (yield fn, values, radii)


class TestNodeArrayBatches:
    """The objectives and polish values of a stacked batch, built on node
    arrays with no profile object, have the bytes of profile-by-profile
    evaluation, and refuse exactly the batches RadialProfile refuses."""

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_objectives_match_the_per_row_reference(self, cell, k):
        from tmlab import optimizer

        params = make_params(cell, alpha_ratio=0.6)
        values, radii = _request_batch(k, 101 + k)
        theta_a = (params.dim - params.beta) / (params.dim - params.gamma)
        for fn, theta, kappa in ((optimizer._objective_a, theta_a, 0.0),
                                 (optimizer._objective_b, 0.0, 1.0)):
            got = fn(values, radii, params)
            want = _reference(values, radii, params, theta, kappa)
            assert len(got) == k
            for (v, g), (v_ref, g_ref) in zip(got, want):
                assert v == v_ref and g.tobytes() == g_ref.tobytes(), fn.__name__
        want = [functional_log_batch([RadialProfile.from_radii(r, u)],
                                     params)[0].value for u, r in zip(values, radii)]
        assert optimizer._functional_values(values, radii, params) == want

    def test_one_profile_and_zero_rows(self):
        # micro() passes one profile's 1-D nodes; a zero row gives (0, 0)
        # and leaves the other rows' bytes alone
        from tmlab import optimizer

        params = make_params((3, 1.0, 0.5), alpha_ratio=0.6)
        values, radii = _request_batch(3, 7)
        values[1] = 0.0
        for fn in (optimizer._objective_a, optimizer._objective_b):
            got = fn(values, radii, params)
            assert got[1][0] == 0.0
            assert got[1][1].tobytes() == np.zeros(12).tobytes()
            for i in (0, 2):
                value, grad = fn(values[i], radii[i], params)
                assert value == got[i][0] and grad.tobytes() == got[i][1].tobytes()

    @pytest.mark.parametrize("n_dim", [2, 3])
    def test_a_drive_step_builds_no_profile(self, monkeypatch, n_dim):
        from tmlab import optimizer

        params = make_params((n_dim, 1.0, 0.5), alpha_ratio=0.6)
        values, radii = _request_batch(4, 11)
        built = []
        inner = RadialProfile.__post_init__
        monkeypatch.setattr(RadialProfile, "__post_init__",
                            lambda self: built.append(1) or inner(self))
        for fn in (optimizer._objective_a, optimizer._objective_b,
                   optimizer._functional_values):
            legs = [_one_request(fn, u, r) for u, r in zip(values, radii)]
            assert len(optimizer._drive(legs, params)) == 4
        assert built == []

    FAULTS = {
        "radii not increasing": (1, "radii", lambda r: r[::-1].copy()),
        "radius not positive": (0, "radii", lambda r: np.concatenate([[0.0], r[1:]])),
        "negative value": (2, "values", lambda u: np.concatenate([u[:1], [-0.5], u[2:]])),
        "last value nonzero": (1, "values", lambda u: np.concatenate([u[:-1], [0.1]])),
        "value not finite": (2, "values", lambda u: np.concatenate([[np.nan], u[1:]])),
        "radius not finite": (0, "radii", lambda r: np.concatenate([r[:-1], [np.inf]])),
    }

    @pytest.mark.parametrize("fault", list(FAULTS))
    def test_refuses_what_a_profile_refuses(self, fault):
        from tmlab import optimizer

        row, name, spoil = self.FAULTS[fault]
        params = make_params((2, 1.0, 0.5), alpha_ratio=0.6)
        values, radii = _request_batch(3, 13)
        for fn in (optimizer._objective_a, optimizer._objective_b,
                   optimizer._functional_values):
            fn(values, radii, params)  # the clean batch passes
        bad = {"values": values.copy(), "radii": radii.copy()}
        bad[name][row] = spoil(bad[name][row])
        with pytest.raises(ValidationError):
            RadialProfile.from_radii(bad["radii"][row], bad["values"][row])
        for fn in (optimizer._objective_a, optimizer._objective_b,
                   optimizer._functional_values):
            with pytest.raises(ValidationError):
                fn(bad["values"], bad["radii"], params)


class TestResultSerialization:
    def test_json_roundtrip_fields(self, b_result_2d):
        _, res = b_result_2d
        data = json.loads(json.dumps(res.to_dict()))
        assert set(data) == {"profile", "value", "constraint_residuals", "trace",
                             "start_id", "converged", "diagnostics"}
        assert data["value"] == res.value
