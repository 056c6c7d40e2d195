"""Self-test of the output checks: each must reject a slightly wrong output.

    python3 perfbench/selftest.py

Runs one small command of every class through tmlab (from this checkout's
src/), confirms that its real output passes its check, then feeds the check
perturbed copies and confirms that each is rejected by the named property.
Exits 1 if an output is wrongly accepted or wrongly rejected.
"""

import copy
import json
import os
import shutil
import sys
import tempfile

import checks
import hostspeed
import oracles
import run
import workloads


def _scale_values(doc, factor):
    doc["result"]["profile"]["values"] = [
        v * factor for v in doc["result"]["profile"]["values"]]


def _set(doc, col, row, fn):
    i = doc["columns"].index(col)
    doc["rows"][row][i] = fn(doc["rows"][row][i])


def _optimize_cases(meta, doc):
    mode = meta["mode"]
    cases = [("value moved by 1e-6 relative",
              lambda d: d["result"].update(value=d["result"]["value"] * (1 + 1e-6)),
              "optimize.value_is_J"),
             ("profile values scaled by 1 + 1e-7",
              lambda d: _scale_values(d, 1 + 1e-7),
              "optimize.A_grad_pow" if mode == "A" else "optimize.B_full_pow")]
    if mode == "B":
        floor = checks.moser_floor(meta["dim"], meta["beta"], meta["gamma"])
        cases.append(("value below the best Moser element",
                      lambda d: d["result"].update(value=0.5 * floor),
                      "optimize.B_moser_floor"))
    return cases


def _relation_swap(d):
    r0, r1 = d["rows"][0], d["rows"][1]
    r0["a_estimate"], r1["a_estimate"] = r1["a_estimate"], r0["a_estimate"]
    for r in (r0, r1):
        r["product"] = r["g_factor"] * r["a_estimate"]


def _relation_lower_b(d):
    b = max(r["product"] for r in d["rows"]) - 1e-5
    d["summary"]["b_estimate"] = b
    for r in d["rows"]:
        r["b_estimate"] = b


def _relation_cases(meta, doc):
    return [("non-monotone a_estimate column", _relation_swap, "relation.a_monotone"),
            ("g_factor moved by 1e-9 relative",
             lambda d: d["rows"][1].update(g_factor=d["rows"][1]["g_factor"] * (1 + 1e-9)),
             "relation.g_factor"),
            ("b_estimate 1e-5 below the largest g*A", _relation_lower_b,
             "relation.one_sided"),
            ("sup_product not the largest product",
             lambda d: d["summary"].update(sup_product=d["summary"]["sup_product"] + 1.0),
             "relation.sup_product")]


def _moser_cases(meta, doc):
    last = len(doc["rows"]) - 1
    return [("grad_pow off by 1e-9 in row 37",
             lambda d: _set(d, "grad_pow", 36, lambda v: v + 1e-9), "moser.grad_pow"),
            ("weight_quadrature moved by 1e-7 relative",
             lambda d: _set(d, "weight_quadrature", 10, lambda v: v * (1 + 1e-7)),
             "moser.weight_quadrature"),
            ("both weight columns moved by 1e-9 relative at n = 50",
             lambda d: [_set(d, c, 49, lambda v: v * (1 + 1e-9))
                        for c in ("weight_closed_form", "weight_quadrature")],
             "moser.weight_closed_form"),
            ("lam moved by 1e-12 relative at n = 100",
             lambda d: _set(d, "lam", 99, lambda v: v * (1 + 1e-12)), "moser.lam"),
            ("plateau bound log off by 1e-8 at n = 1",
             lambda d: _set(d, "plateau_lower_bound_log", 0, lambda v: v + 1e-8),
             "moser.plateau_lower_bound"),
            ("last row's weights 6% high",
             lambda d: [_set(d, c, last, lambda v: v * 1.06)
                        for c in ("weight_closed_form", "weight_quadrature")],
             "moser.weight_limit")]


def _transform_cases(meta, doc):
    return [("identity residual 2e-7",
             lambda d: _set(d, "identity_residual", 2, lambda v: 2e-7),
             "transform_check.identity_residual"),
            ("round trip off by 1e-12",
             lambda d: _set(d, "roundtrip_rel_err", 0, lambda v: 1e-12),
             "transform_check.roundtrip")]


def _asymptotic_cases(meta, doc):
    return [("a negative product",
             lambda d: _set(d, "product", 0, lambda v: -v), "asymptotic.positive"),
            ("one product 20 times the others",
             lambda d: _set(d, "product", 3, lambda v: 20 * v), "asymptotic.bounded"),
            ("index outside the window",
             lambda d: _set(d, "n", 1, lambda v: 3 * v), "asymptotic.index_window")]


def _eval_cases(meta, doc):
    cases = [("full_pow off by 1e-9",
              lambda d: d["norms"].update(full_pow=d["norms"]["full_pow"] + 1e-9),
              "eval.full_pow"),
             ("saturated flag set",
              lambda d: d["functional"].update(saturated=True), "eval.unsaturated")]
    if meta["n"] % 50 == 0:
        cases.append(("J moved by 1e-6 relative",
                      lambda d: d["functional"].update(log=d["functional"]["log"] + 1e-6),
                      "eval.J"))
    else:
        bound = oracles.plateau_lower_bound_log(meta["n"], meta["dim"], meta["beta"],
                                                meta["gamma"], meta["ratio"])
        cases.append(("log J below the plateau bound",
                      lambda d: d["functional"].update(log=bound - 1e-9),
                      "eval.plateau_bound"))
    return cases


def _orbit_cases(meta, doc):
    return [("series and fd 2e-4 apart",
             lambda d: d["orbit"].update(
                 fd=d["orbit"]["series"] + 2e-4 * max(1.0, abs(d["orbit"]["series"]))),
             "orbit.series_vs_fd")]


CASES = {
    "optimize_A": _optimize_cases,
    "optimize_B": _optimize_cases,
    "relation": _relation_cases,
    "moser": _moser_cases,
    "transform_check": _transform_cases,
    "asymptotic": _asymptotic_cases,
    "eval": _eval_cases,
    "orbit": _orbit_cases,
}


def sample_ops(tmpdir):
    opt = workloads._config_file(tmpdir, "opt.json",
                                 workloads.OPTIMIZE_PROBE_OPTIMIZER)
    rel = workloads._config_file(tmpdir, "rel.json",
                                 workloads.RELATION_PROBE_OPTIMIZER)
    cell = (2, 1.0, 0.5)
    asym = [op for op in workloads._cells() if op.cls == "asymptotic"][:1]
    return (workloads._optimize(opt) + workloads._relation(rel, 2)
            + [workloads._moser(cell, 0.5, 120), workloads._transform_check(cell, 5)]
            + asym + workloads._evals(cell, (7, 50))
            + workloads._orbits((0.5,), (0.6,), (2,)))


def main():
    cli = run.import_tmlab()
    os.makedirs(run.OUT, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    bad = 0
    try:
        results = run.run_round(cli, sample_ops(tmpdir), 0, tmpdir,
                                hostspeed.HostSpeed())
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    for op, code, _, text in results:
        label = " ".join(op.argv[:1] + op.argv[-2:])
        if code != 0:
            print(f"FAIL {label}: exit code {code}")
            bad += 1
            continue
        doc = json.loads(text)
        check = checks.CHECKS[op.cls]
        try:
            check(op.meta, doc)
            print(f"ok   {label}: real output accepted")
        except checks.CheckFailed as exc:
            print(f"FAIL {label}: real output rejected: {exc}")
            bad += 1
        for what, mutate, expected in CASES[op.cls](op.meta, doc):
            wrong = copy.deepcopy(doc)
            mutate(wrong)
            try:
                check(op.meta, wrong)
                print(f"FAIL {label}: accepted {what}")
                bad += 1
            except checks.CheckFailed as exc:
                fired = str(exc).split(":")[0]
                ok = fired == expected
                bad += not ok
                print(f"{'ok  ' if ok else 'FAIL'} {label}: {what} -> {fired}")
    print(f"selftest: {'all checks reject' if not bad else f'{bad} failure(s)'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
