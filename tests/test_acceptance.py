"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines with timings.  Criterion 8 drives the full optimizer twice and
dominates the runtime (several minutes) and is marked ``slow``, so
`pytest -m "not slow"` gives a quick loop; everything else is seconds.
"""

import math
import time
import warnings

import numpy as np
import pytest

from tmlab import (ProblemParams, at_normalize, critical_alpha_beta,
                   functional_log, grad_norm_pow, norms, weighted_lp_pow)
from tmlab.analysis import (lemma2_transport, orbit_derivative,
                            relation_scan)
from tmlab.moser import (asymptotic_lower_scan, build, normalized,
                         plateau_lower_bound, weight_norm_closed_form,
                         weight_norm_limit)
from tmlab.optimizer import OptimizerConfig
from tmlab.transform import (TransformSpec, pull_profile, push_profile,
                             verify_integral_identity)

from conftest import MATRIX, make_params, random_profile, worst_gradient_error

_T0 = {}


def _report(num, detail=""):
    dt = time.time() - _T0[num]
    print(f"ACCEPTANCE {num:2d} PASS ({dt:6.1f}s) {detail}")


def _start(num):
    _T0[num] = time.time()


def test_criterion_01_moser_gradient_normalization():
    _start(1)
    for cell in MATRIX:
        params = make_params(cell)
        for n in (1, 10, 100):
            g = grad_norm_pow(build(n, params).profile, params)
            assert abs(g - 1.0) < 1e-12, (cell, n, g)
    _report(1, "unit gradient norm, every cell, n in {1,10,100}")


def test_criterion_02_moser_weight_asymptotics():
    _start(2)
    for cell in MATRIX:
        params = make_params(cell)
        limit = weight_norm_limit(params)
        val = 200 * weight_norm_closed_form(200, params)
        assert abs(val - limit) / limit < 0.05, (cell, val, limit)
        for n in (1, 20, 200):
            closed = weight_norm_closed_form(n, params)
            quadded = weighted_lp_pow(build(n, params).profile, params.dim,
                                      params.gamma, params)
            assert abs(closed - quadded) / closed < 1e-8, (cell, n)
    _report(2, "n*weight within 5% of limit at n=200; closed form == quadrature")


def test_criterion_03_transformation_identities():
    _start(3)
    rng = np.random.default_rng(2025)
    worst = 0.0
    for cell in MATRIX:
        params = make_params(cell, alpha_ratio=0.5)
        spec = TransformSpec.from_params(params)
        n = params.dim
        for _ in range(50):
            u = random_profile(rng)
            v = push_profile(u, spec)
            g_u, g_v = grad_norm_pow(u, params), grad_norm_pow(v, params)
            assert abs(g_u - g_v) / max(g_u, 1e-300) < 1e-7
            w_u = weighted_lp_pow(u, n, params.gamma, params)
            w_v = weighted_lp_pow(v, n, 0.0, params)
            assert abs(w_u - w_v) / max(w_u, 1e-300) < 1e-7
            resid = verify_integral_identity(u, params)
            worst = max(worst, resid)
            assert resid < 1e-7
            back = pull_profile(v, spec)
            assert np.all(np.abs(back.radii - u.radii) / u.radii < 1e-14)
            assert np.all(np.abs(back.values - u.values)
                          <= 1e-14 * np.maximum(u.values, 1.0))
    _report(3, f"norm equalities, identity residual (worst {worst:.2e}), roundtrip")


def test_criterion_04_supercritical_divergence():
    _start(4)
    for cell in MATRIX:
        params = make_params(cell, alpha_ratio=1.05)
        logs = [plateau_lower_bound(n, params).log for n in range(50, 201)]
        assert np.all(np.diff(logs) > 0), cell
    _report(4, "plateau lower bound strictly increasing, n=50..200, alpha=1.05crit")


def test_criterion_05_critical_boundedness():
    _start(5)
    spans = []
    for cell in MATRIX:
        params = make_params(cell, alpha_ratio=1.0)
        logs = []
        for n in range(1, 501):
            lv = functional_log(normalized(n, params).profile, params)
            assert not lv.saturated, (cell, n)
            logs.append(lv.log)
        assert np.all(np.isfinite(logs)), cell
        spans.append((math.exp(min(logs)), math.exp(max(logs))))
    _report(5, f"no saturation, n=1..500; value ranges e.g. {spans[0][0]:.2f}..{spans[0][1]:.2f}")


def test_criterion_06_gradient_correctness():
    _start(6)
    rng = np.random.default_rng(4242)
    worst = 0.0
    for cell in MATRIX:
        params = make_params(cell, alpha_ratio=0.5)
        for _ in range(50):
            p = random_profile(rng, n_nodes=8)
            err = worst_gradient_error(params, p)
            worst = max(worst, err)
            assert err < 1e-5, (cell, err)
    _report(6, f"worst analytic-vs-FD relative error {worst:.2e}")


def test_criterion_07_lemma2_transport():
    _start(7)
    rng = np.random.default_rng(77)
    worst_resid = 0.0
    count = 0
    for cell in MATRIX:
        params = make_params(cell)
        crit = critical_alpha_beta(params)
        for _ in range(9 if cell != MATRIX[0] else 5):
            u = random_profile(rng)
            u = u.scaled(grad_norm_pow(u, params) ** (-1.0 / params.dim))
            u = at_normalize(u, params)
            for ratio in (0.25, 0.5, 0.9):
                out = lemma2_transport(u, ratio * crit, params)
                assert out.full_norm_pow <= 1.0 + 1e-10
                assert out.residual < 1e-7
                worst_resid = max(worst_resid, out.residual)
                count += 1
    assert count >= 50 * 3
    _report(7, f"{count} transports feasible, worst value residual {worst_resid:.2e}")


@pytest.mark.slow
def test_criterion_08_relation_one_sided():
    _start(8)
    gaps = {}
    for cell in ((2, 0.0, 0.0), (3, 1.0, 0.5)):
        params = make_params(cell)
        crit = critical_alpha_beta(params)
        grid = list(np.linspace(0.1, 0.95, 16) * crit)
        scan = relation_scan(params, grid, OptimizerConfig())
        for row in scan.rows:
            assert scan.b_result.value >= row.product - 1e-6, (cell, row)
        gaps[cell] = scan.gap
        print(f"  relation gap at {cell}: {scan.gap:.4f} "
              f"(B={scan.b_result.value:.4f}, sup gA={scan.sup_product:.4f})")
        if scan.gap >= 0.15:
            warnings.warn(f"two-sided relation gap {scan.gap:.3f} >= 0.15 at "
                          f"{cell} (soft threshold)")
    _report(8, f"one-sided bound everywhere; gaps {['%.3f' % g for g in gaps.values()]}")


def test_criterion_09_asymptotic_bracket():
    _start(9)
    for cell in MATRIX:
        params = make_params(cell)
        crit = critical_alpha_beta(params)
        table = asymptotic_lower_scan(params,
                                      [r * crit for r in (0.9, 0.99, 0.999)])
        products = table.column("product")
        assert all(p > 0 for p in products), cell
        assert max(products) / min(products) < 10.0, (cell, products)
    _report(9, "scan products positive and within a factor 10 per cell")


def test_criterion_10_orbit_derivative():
    _start(10)
    rng = np.random.default_rng(10)
    worst = 0.0
    checked = 0
    for beta in (0.0, 0.5, 1.0):
        params = ProblemParams(2, 1.0, beta, beta)
        crit = critical_alpha_beta(params)
        for _ in range(7):
            v = random_profile(rng)
            v = v.scaled(norms(v, params).full_pow ** -0.5)
            rep = orbit_derivative(v, 0.6 * crit, params)
            assert rep.rel_err < 1e-4, (beta, rep.rel_err)
            worst = max(worst, rep.rel_err)
            small = orbit_derivative(v, 0.01 * crit, params)
            assert small.series < 0.0, beta
            assert small.fd < 0.0, beta
            checked += 1
    assert checked >= 20
    _report(10, f"{checked} profiles, worst series-vs-FD error {worst:.2e}; "
                "negative at 0.01 crit")


def test_criterion_11_cli_determinism(tmp_path):
    _start(11)
    from tmlab.cli import run

    import json

    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"optimizer": {
        "moser_starts": [3], "random_starts": 1, "max_iters": 40,
        "polish_rounds": 1, "node_count": 65}}))
    cases = [
        ["asymptotic", "--dim", "2", "--alpha-ratio", "0.5", "--beta", "1.0",
         "--gamma", "0.5", "--alpha-ratios", "0.9,0.99,0.999"],
        ["moser", "--dim", "4", "--alpha-ratio", "0.5", "--beta", "2.0",
         "--gamma", "1.0", "--n-min", "1", "--n-max", "10"],
        ["optimize", "--config", str(cfgfile), "--dim", "2", "--alpha-ratio",
         "0.5", "--beta", "0.5", "--gamma", "0.5", "--mode", "A", "--seed", "3"],
    ]
    for i, args in enumerate(cases):
        o1 = tmp_path / f"{i}_1.out"
        o2 = tmp_path / f"{i}_2.out"
        assert run(args + ["--output", str(o1)]) == 0
        assert run(args + ["--output", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes(), args[0]
    _report(11, "three commands, repeated runs byte-identical")
