"""Spans and counters at the boundaries of tmlab's modules, from outside src/.

``install`` rebinds each traced function wherever tmlab code looks it up:
the defining module and every tmlab module that bound the name with
``from ... import``. A wrapper records a span (name, start, end, parent) and
passes arguments and results through untouched, so traced outputs are the
untraced ones bit for bit. Spans stay in memory until ``save``.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# module -> traced functions; each reports <module>.<function>.calls and .self_s
TARGETS = {
    "core": ("phi", "log_phi", "phi_derivative", "lower_incomplete_gamma"),
    "quadrature": ("integrate_segments",),
    "profiles": ("grad_norm_pow", "weighted_lp_pow", "norms", "functional_log",
                 "functional_gradient", "norms_gradient", "at_normalize"),
    "transform": ("push_profile", "pull_profile", "verify_integral_identity"),
    "moser": ("build", "normalized", "weight_norm_closed_form",
              "plateau_lower_bound", "asymptotic_lower_scan"),
    "optimizer": ("maximize_A", "maximize_B", "_objective_a", "_objective_b",
                  "_lbfgs_ascend", "_dilation_polish", "_half_mass_radius"),
    "analysis": ("relation_scan", "lemma2_transport", "orbit_derivative"),
    "cli": ("run",),
}
_INTEGRAND = "quadrature.integrand"

COUNTERS = ("core.phi.elements", "core.log_phi.elements", "quadrature.segments",
            "quadrature.rounds", "quadrature.points", "quadrature.integrand_s",
            "quadrature.first_round_share", "optimizer.iterations",
            "optimizer.accept_ratio", "optimizer.legs_converged")

MICRO = ("micro.phi_ns_per_elem", "micro.log_phi_ns_per_elem",
         "micro.integrate_segments_setup_ms",
         "micro.integrate_segments_integrand_ms", "micro.weighted_lp_pow_ms",
         "micro.functional_log_ms", "micro.functional_gradient_ms",
         "micro.norms_gradient_ms", "micro.objective_a_ms", "micro.objective_b_ms")


def function_names():
    return [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


class Tracer:
    """In-memory spans plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = defaultdict(float)

    def name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def call(self, nid, fn, args, kwargs):
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(math.nan)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[sid] = time.perf_counter()
            self.stack.pop()

    def self_times(self):
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested],
                              minlength=dur.size)
        return dur, dur - covered

    def metrics(self):
        names = np.frombuffer(self.name, dtype=np.int32)
        dur, own = self.self_times()
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=own, minlength=len(self.names))
        total_s = np.bincount(names, weights=dur, minlength=len(self.names))
        out = {}
        for fname in function_names():
            i = self.names.index(fname) if fname in self.names else None
            out[f"{fname}.calls"] = int(calls[i]) if i is not None else 0
            out[f"{fname}.self_s"] = float(self_s[i]) if i is not None else 0.0
        c = self.counts
        integrand = self.names.index(_INTEGRAND) if _INTEGRAND in self.names else None
        objective_calls = (out["optimizer._objective_a.calls"]
                           + out["optimizer._objective_b.calls"])
        out.update({
            "core.phi.elements": c["phi.elements"],
            "core.log_phi.elements": c["log_phi.elements"],
            "quadrature.segments": c["segments"],
            "quadrature.rounds": c["rounds"],
            "quadrature.points": c["points"],
            "quadrature.integrand_s": float(total_s[integrand]) if integrand is not None else 0.0,
            "quadrature.first_round_share": (c["first_round_points"] / c["points"]
                                             if c["points"] else 0.0),
            "optimizer.iterations": c["iterations"],
            "optimizer.accept_ratio": (c["iterations"] / objective_calls
                                       if objective_calls else 0.0),
            "optimizer.legs_converged": c["legs_converged"],
        })
        return out

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float))


def _wrapper(tracer, name, fn):
    nid = tracer.name_id(name)
    counts = tracer.counts

    if name in ("core.phi", "core.log_phi"):
        key = name[len("core."):] + ".elements"

        def traced(*args, **kwargs):
            counts[key] += np.size(args[1] if len(args) > 1 else kwargs["t"])
            return tracer.call(nid, fn, args, kwargs)
    elif name == "quadrature.integrate_segments":
        integrand_id = tracer.name_id(_INTEGRAND)

        def traced(f, lefts, rights, *args, **kwargs):
            first = [True]

            def integrand(t, seg):
                counts["rounds"] += 1
                counts["points"] += t.size
                if first[0]:
                    counts["first_round_points"] += t.size
                    first[0] = False
                return tracer.call(integrand_id, f, (t, seg), {})

            counts["segments"] += np.size(lefts)
            return tracer.call(nid, fn, (integrand, lefts, rights) + args, kwargs)
    elif name == "optimizer._lbfgs_ascend":
        def traced(*args, **kwargs):
            result = tracer.call(nid, fn, args, kwargs)
            counts["iterations"] += len(result[2]) - 1
            return result
    else:
        def traced(*args, **kwargs):
            return tracer.call(nid, fn, args, kwargs)
    return traced


def _count_converged_legs(tracer, fn):
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.counts["legs_converged"] += bool(result.converged)
        return result
    return counted


def _rebind(orig, replacement):
    """Point every tmlab binding of ``orig`` at ``replacement``; return an undo list."""
    undo = []
    for modname, mod in list(sys.modules.items()):
        if modname != "tmlab" and not modname.startswith("tmlab."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, orig))
    return undo


def install(tracer):
    """Trace every function in TARGETS; returns a callable that undoes it."""
    undo = []
    for modname, fns in TARGETS.items():
        mod = sys.modules[f"tmlab.{modname}"]
        for fn in fns:
            orig = getattr(mod, fn)
            undo += _rebind(orig, _wrapper(tracer, f"{modname}.{fn}", orig))
    ascend = sys.modules["tmlab.optimizer"]._ascend
    undo += _rebind(ascend, _count_converged_legs(tracer, ascend))

    def uninstall():
        for mod, attr, orig in reversed(undo):
            setattr(mod, attr, orig)
    return uninstall


# --- micro measurements on one fixed profile --------------------------------

def _median_ms(fn, reps):
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(samples)


def micro(reps=15):
    """Per-call costs on the moser-5 start of the default grid, N=2, beta=gamma=0.

    The profile is the optimize workload's 129-node start at alpha_crit.
    """
    from tmlab import core, optimizer, profiles

    params = core.ProblemParams(dim=2, alpha=core.critical_alpha(2))
    config = optimizer.OptimizerConfig()
    profile = dict(optimizer.starting_profiles(params, config))["moser-5"]
    tol = config.quad_tol
    q = params.exponent

    # arguments like the functional's integrand sees: alpha u^q at 15 points
    # of every live segment, as many as one GK15 round evaluates
    t = profile.log_radii
    u = profile.values
    live = (u[:-1] > 0.0) | (u[1:] > 0.0)
    frac = np.linspace(0.0, 1.0, 15)
    ts = (t[:-1][live, None] + (t[1:] - t[:-1])[live, None] * frac).ravel()
    y = params.alpha * np.interp(ts, t, u) ** q
    elems = y.size * 50

    def per_elem_ns(fn):
        return 1e6 * _median_ms(lambda: [fn(2, y) for _ in range(50)], reps) / elems

    out = {
        "micro.phi_ns_per_elem": per_elem_ns(core.phi),
        "micro.log_phi_ns_per_elem": per_elem_ns(core.log_phi),
        "micro.weighted_lp_pow_ms": _median_ms(
            lambda: profiles.weighted_lp_pow(profile, 2, 0.0, params, rel_tol=tol), reps),
        "micro.functional_log_ms": _median_ms(
            lambda: profiles.functional_log(profile, params, rel_tol=tol), reps),
        "micro.functional_gradient_ms": _median_ms(
            lambda: profiles.functional_gradient(profile, params, rel_tol=tol), reps),
        "micro.norms_gradient_ms": _median_ms(
            lambda: profiles.norms_gradient(profile, params, rel_tol=tol), reps),
        "micro.objective_a_ms": _median_ms(
            lambda: optimizer._objective_a(profile.values, profile.radii, params, tol), reps),
        "micro.objective_b_ms": _median_ms(
            lambda: optimizer._objective_b(profile.values, profile.radii, params, tol), reps),
    }

    # integrate_segments inside functional_log, split into the integrand's
    # time and the rest (panel layout and bookkeeping)
    split = Tracer()
    uninstall = install(split)
    try:
        for _ in range(reps):
            profiles.functional_log(profile, params, rel_tol=tol)
    finally:
        uninstall()
    m = split.metrics()
    out["micro.integrate_segments_setup_ms"] = (
        1e3 * m["quadrature.integrate_segments.self_s"] / reps)
    out["micro.integrate_segments_integrand_ms"] = (
        1e3 * m["quadrature.integrand_s"] / reps)
    return out
