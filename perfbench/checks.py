"""Output checks, one function per command class.

Each check takes the parameters of the command (``meta``) and its parsed JSON
output, and raises CheckFailed naming the property that does not hold. The
properties are ones the method must have, and the reference values come from
``oracles``, which computes them apart from tmlab.
"""

from __future__ import annotations

import math

import oracles

# Moser indices whose J at critical sup_B must reach (every one is feasible).
MOSER_FLOOR_INDICES = tuple(range(1, 61)) + (80, 100, 150, 200)


class CheckFailed(Exception):
    """An output breaks a property; the message starts with the check's name."""


def _fail(name, detail):
    raise CheckFailed(f"{name}: {detail}")


def _rel_close(name, got, want, tol):
    if not abs(got - want) <= tol * max(abs(want), 1e-300):
        _fail(name, f"{got!r} vs {want!r} (tolerance {tol:g} relative)")


def _table(doc):
    cols = doc["columns"]
    return [dict(zip(cols, row)) for row in doc["rows"]]


# --- optimize -------------------------------------------------------------

def moser_floor(dim, beta, gamma):
    """Largest J at critical over the normalized Moser elements, computed apart."""
    return max(math.exp(oracles.moser_functional_log(k, dim, beta, gamma, 1.0))
               for k in MOSER_FLOOR_INDICES)


def check_optimize(meta, doc):
    res = doc["result"]
    radii, values = res["profile"]["radii"], res["profile"]["values"]
    n, beta, gamma = meta["dim"], meta["beta"], meta["gamma"]
    g = oracles.grad_pow(radii, values, n)
    w = oracles.weighted_lp_pow(radii, values, n, gamma, n)
    if meta["mode"] == "A":
        _rel_close("optimize.A_grad_pow", g, 1.0, 1e-8)
        _rel_close("optimize.A_weight_pow", w, 1.0, 1e-8)
    else:
        _rel_close("optimize.B_full_pow", g + w, 1.0, 1e-8)
        floor = moser_floor(n, beta, gamma)
        if not res["value"] >= floor * (1.0 - 1e-8):
            _fail("optimize.B_moser_floor",
                  f"sup_B {res['value']!r} below the Moser element J {floor!r}")
    alpha = meta["ratio"] * oracles.critical_alpha(n, beta)
    j = math.exp(oracles.functional_log(radii, values, n, alpha, beta))
    _rel_close("optimize.value_is_J", res["value"], j, 1e-8)


# --- relation -------------------------------------------------------------

def check_relation(meta, doc):
    rows, summary = doc["rows"], doc["summary"]
    n, beta, gamma = meta["dim"], meta["beta"], meta["gamma"]
    if len(rows) != meta["points"]:
        _fail("relation.rows", f"{len(rows)} rows, expected {meta['points']}")
    for prev, cur in zip(rows, rows[1:]):
        if not cur["alpha"] > prev["alpha"]:
            _fail("relation.alpha_order", "alpha grid not increasing")
        if not cur["a_estimate"] >= prev["a_estimate"]:
            _fail("relation.a_monotone",
                  f"a_estimate falls from {prev['a_estimate']!r} to "
                  f"{cur['a_estimate']!r} at alpha {cur['alpha']!r}")
    crit = oracles.critical_alpha(n, beta)
    for row in rows:
        g = oracles.g_factor(row["alpha"] / crit, n, beta, gamma)
        _rel_close("relation.g_factor", row["g_factor"], g, 1e-12)
        _rel_close("relation.product", row["product"],
                   row["g_factor"] * row["a_estimate"], 1e-14)
        if row["b_estimate"] != summary["b_estimate"]:
            _fail("relation.b_column", "b_estimate differs between rows")
        if not row["b_estimate"] >= row["product"] - 1e-6:
            _fail("relation.one_sided",
                  f"b {row['b_estimate']!r} < g*A {row['product']!r} at "
                  f"alpha {row['alpha']!r}")
    if summary["sup_product"] != max(r["product"] for r in rows):
        _fail("relation.sup_product", "sup_product is not the largest product")


# --- family ---------------------------------------------------------------

def check_moser(meta, doc):
    rows = _table(doc)
    n, beta, gamma, ratio = meta["dim"], meta["beta"], meta["gamma"], meta["ratio"]
    if [r["n"] for r in rows] != list(range(1, meta["n_max"] + 1)):
        _fail("moser.rows", "rows are not n = 1 .. n_max")
    last = rows[-1]
    limit = oracles.moser_weight_limit(n, beta, gamma)
    if not abs(last["n"] * last["weight_closed_form"] / limit - 1.0) <= 0.05:
        _fail("moser.weight_limit",
              f"n*weight {last['n'] * last['weight_closed_form']!r} vs limit {limit!r}")
    for r in rows:
        k = r["n"]
        if not abs(r["grad_pow"] - 1.0) <= 1e-12:
            _fail("moser.grad_pow", f"n={k}: grad_pow {r['grad_pow']!r}")
        _rel_close("moser.weight_quadrature", r["weight_quadrature"],
                   r["weight_closed_form"], 1e-8)
        if k == 1 or k % 50 == 0 or k == meta["n_max"]:
            a, b = oracles.moser_constants(k, n, beta)
            _rel_close("moser.amplitude", r["amplitude"], a, 1e-13)
            _rel_close("moser.log_depth", r["log_depth"], b, 1e-13)
            _rel_close("moser.weight_closed_form", r["weight_closed_form"],
                       oracles.moser_weight(k, n, beta, gamma), 1e-12)
            _rel_close("moser.lam", r["lam"],
                       oracles.moser_lam(k, n, beta, gamma), 1e-13)
            want = oracles.plateau_lower_bound_log(k, n, beta, gamma, ratio)
            if not abs(r["plateau_lower_bound_log"] - want) <= 1e-10 * max(1.0, abs(want)):
                _fail("moser.plateau_lower_bound",
                      f"n={k}: {r['plateau_lower_bound_log']!r} vs {want!r}")


def check_transform_check(meta, doc):
    rows = _table(doc)
    if [r["index"] for r in rows] != list(range(meta["count"])):
        _fail("transform_check.rows", "rows are not index = 0 .. count-1")
    for r in rows:
        for col in ("grad_rel_err", "weight_map_rel_err", "identity_residual"):
            if not r[col] <= 1e-7:
                _fail(f"transform_check.{col}", f"row {r['index']}: {r[col]!r}")
        if not r["roundtrip_rel_err"] <= 1e-13:
            _fail("transform_check.roundtrip",
                  f"row {r['index']}: {r['roundtrip_rel_err']!r}")


def check_asymptotic(meta, doc):
    rows = _table(doc)
    n, beta = meta["dim"], meta["beta"]
    if len(rows) != len(meta["ratios"]):
        _fail("asymptotic.rows", f"{len(rows)} rows")
    crit = oracles.critical_alpha(n, beta)
    for r in rows:
        if not r["product"] > 0.0:
            _fail("asymptotic.positive", f"product {r['product']!r}")
        window = r["n"] * (1.0 - r["alpha"] / crit)
        if not 1.0 - 1e-6 <= window <= 2.0 + 1e-6:
            _fail("asymptotic.index_window", f"n (1 - ratio) = {window!r}")
    products = [r["product"] for r in rows]
    if not max(products) < 10.0 * min(products):
        _fail("asymptotic.bounded", f"products {products!r} spread over 10x")


def check_eval(meta, doc):
    n, beta, gamma, ratio, k = (meta["dim"], meta["beta"], meta["gamma"],
                                meta["ratio"], meta["n"])
    fn = doc["functional"]
    if fn["saturated"] or fn["value"] is None:
        _fail("eval.unsaturated", f"n={k}: functional saturated")
    if not abs(doc["norms"]["full_pow"] - 1.0) <= 1e-10:
        _fail("eval.full_pow", f"n={k}: full_pow {doc['norms']['full_pow']!r}")
    bound = oracles.plateau_lower_bound_log(k, n, beta, gamma, ratio)
    if not fn["log"] >= bound:
        _fail("eval.plateau_bound", f"n={k}: log J {fn['log']!r} < bound {bound!r}")
    if k % 50 == 0:
        want = oracles.moser_functional_log(k, n, beta, gamma, ratio)
        if not abs(fn["log"] - want) <= 1e-8:
            _fail("eval.J", f"n={k}: log J {fn['log']!r} vs {want!r}")


def check_orbit(meta, doc):
    o = doc["orbit"]
    err = abs(o["series"] - o["fd"]) / max(1.0, abs(o["fd"]))
    if not err <= 1e-4:
        _fail("orbit.series_vs_fd",
              f"n={meta['n']}: series {o['series']!r} fd {o['fd']!r}")


CHECKS = {
    "optimize_A": check_optimize,
    "optimize_B": check_optimize,
    "relation": check_relation,
    "moser": check_moser,
    "moser_underflow": check_moser,
    "transform_check": check_transform_check,
    "asymptotic": check_asymptotic,
    "eval": check_eval,
    "orbit": check_orbit,
}
