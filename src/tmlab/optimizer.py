"""Constrained maximization of the two weighted exponential-functional suprema.

Both problems are driven through scale-invariant composite objectives that
build the constraints in exactly, using the representation's closed-form
scaling laws:

  mode B   R(u) = J(u / ||u||_X)        full-norm unit sphere by construction
  mode A   R(u) = J(v) / ||v||_w^theta  with v = u / ||grad u||_N, using
           J(dilate(v, lam)) = lam^-(N-beta) J(v) to fold the weight-norm
           normalization into the ratio (the rescaling-equivalence identity)

On these fixed-coordinate objectives a box-projected L-BFGS ascent with an
Armijo backtracking line search is valid and fast; the grid's zero lower
bound is the only constraint left.  Mode B additionally interleaves rounds
with an exact golden-section polish along the dilation family, the direction
a fixed value grid cannot represent.  Multistarts (concentrating elements, a
broad bump, seeded noise) are merged by best value.  Everything is
deterministic under a fixed config and seed.

The multistart legs run in lock step.  Each leg is a generator that yields
its next evaluation request: a mode-A objective, a mode-B objective, or one
J value of the dilation polish.  At every step _drive groups the pending
requests of all legs by kind and node count and answers each group with one
batched call, so a step costs one quadrature pass per mode-A group, two per
mode-B group and one per group of polish values, whatever the number of
legs.  integrate_batch gives each profile the same bits as a batch of one,
so every leg computes exactly what it computes alone; an executor pool runs
the legs one at a time through _ascend and returns the same result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import moser
from .core import ProblemParams, critical_alpha_beta
from .errors import SupercriticalError, ValidationError
from .profiles import (RadialProfile, at_normalize, dilated_norms,
                       functional_gradient_quantity, functional_log_batch,
                       functional_quantity, grad_norm_pow,
                       grad_norm_pow_gradient, integrate_batch, norms,
                       weight_gradient_quantity, weight_quantity,
                       weighted_lp_pow_cuts)

_CRIT_SLACK = 1e-12
# the node grid spans these radii geometrically
_R_MIN = 1e-8
_R_MAX = 1e3
# L-BFGS step rule (see _lbfgs_steps), stop tolerance and curvature pairs kept
_STEP_INIT = 1.0
_BACKTRACK = 0.5
_ARMIJO = 1e-4
_GRAD_TOL = 1e-7
_STEP_FLOOR = 1e-16
_LBFGS_MEMORY = 12
# the dilation polish's golden-section bracket in log(lam) and its stop width
_POLISH_SPAN = 2.0
_POLISH_TOL = 1e-7


@dataclass(frozen=True)
class OptimizerConfig:
    """Grid, step rule, stopping rule, and multistart policy."""

    node_count: int = 129
    max_iters: int = 200
    moser_starts: tuple = (1, 5, 20)
    random_starts: int = 1
    seed: int = 0
    dilation_polish: bool = True
    polish_rounds: int = 3
    quad_tol: float = 1e-10

    def __post_init__(self):
        if self.node_count < 8:
            raise ValidationError("need at least 8 grid nodes")
        for name in ("max_iters", "polish_rounds", "quad_tol"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.random_starts < 0:
            raise ValidationError("random_starts must be >= 0")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")

    @classmethod
    def from_dict(cls, data: dict) -> "OptimizerConfig":
        allowed = set(cls.__dataclass_fields__)
        unknown = set(data) - allowed
        if unknown:
            raise ValidationError(f"unknown optimizer config keys: {sorted(unknown)}")
        if "moser_starts" in data:
            data = dict(data, moser_starts=tuple(data["moser_starts"]))
        return cls(**data)


@dataclass
class MaximizationResult:
    """Best profile found, its value, and the audit trail of the run."""

    profile: RadialProfile
    value: float
    constraint_residuals: dict
    trace: list
    start_id: str
    converged: bool
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "profile": self.profile.to_dict(),
            "value": self.value,
            "constraint_residuals": {k: float(v) for k, v in
                                     sorted(self.constraint_residuals.items())},
            "trace": [float(v) for v in self.trace],
            "start_id": self.start_id,
            "converged": self.converged,
            "diagnostics": {k: float(v) for k, v in
                            sorted(self.diagnostics.items())},
        }


def _grid(config: OptimizerConfig) -> np.ndarray:
    return np.geomspace(_R_MIN, _R_MAX, config.node_count)


def _half_mass_radius(profile: RadialProfile, params: ProblemParams) -> float:
    """Radius enclosing half of the weighted L^N mass; the spread diagnostic."""
    if profile.is_zero:
        return math.nan
    total, cut = weighted_lp_pow_cuts(profile, params.dim, params.gamma, params)
    radii = profile.radii
    lo, hi = 0, radii.size - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if cut(mid) >= 0.5 * total:
            hi = mid
        else:
            lo = mid
    return float(radii[hi])


def starting_profiles(params: ProblemParams, config: OptimizerConfig):
    """Multistart roster: concentrating elements, one broad bump, seeded noise.

    Both concentrating and spread competitors matter: near-critical maximizers
    concentrate, small-alpha sequences spread, so the roster covers both ends.
    """
    radii = _grid(config)
    t = np.log(radii)
    starts = []
    for n in config.moser_starts:
        values = moser.normalized(n, params).profile.value_at(radii)
        values[-1] = 0.0
        starts.append((f"moser-{n}", RadialProfile.from_radii(radii, values)))
    mid = 0.5 * (t[0] + t[-1])
    width = 0.25 * (t[-1] - t[0])
    bump = np.exp(-((t - mid) / width) ** 2)
    bump[-1] = 0.0
    starts.append(("bump", RadialProfile.from_radii(radii, bump)))
    rng = np.random.default_rng(config.seed)
    envelope = np.sin(np.linspace(0.0, math.pi, radii.size)) ** 2
    for i in range(config.random_starts):
        values = rng.uniform(0.2, 1.0, size=radii.size) * envelope
        values[-1] = 0.0
        starts.append((f"random-{i}", RadialProfile.from_radii(radii, values)))
    return starts


def _objective_b(values, radii, params, quad_tol):
    """R(u) = J(u / ||u||_X) and its gradient on fixed radii grids.

    values and radii are one profile's nodes, giving (value, gradient), or
    (k, nodes) arrays of k profiles, giving a list of k such pairs.  Two
    quadrature passes for the whole batch: the weight norm power and its
    gradient on each u, then J and its gradient on each normalized profile.
    """
    single = np.ndim(values) == 1
    values, radii = np.atleast_2d(values), np.atleast_2d(radii)
    n = params.dim
    out = [(0.0, np.zeros_like(u)) for u in values]
    profs = [RadialProfile.from_radii(r, u) for u, r in zip(values, radii)]
    weights = integrate_batch(profs, [weight_quantity(n, params.gamma, params),
                                      weight_gradient_quantity(params)], quad_tol)
    live = []
    for i, (prof, (w_pow, d_weight)) in enumerate(zip(profs, weights)):
        full_pow = grad_norm_pow(prof, params) + w_pow
        if full_pow > 0.0:
            live.append((i, prof, d_weight, full_pow, full_pow ** (-1.0 / n)))
    passes = integrate_batch(
        [prof.scaled(scale) for _, prof, _, _, scale in live],
        [functional_quantity(params), functional_gradient_quantity(params)],
        quad_tol)
    for (i, prof, d_weight, full_pow, scale), (j, g) in zip(live, passes):
        grad = scale * g - (float(g @ values[i]) / n) * (scale / full_pow) \
            * (grad_norm_pow_gradient(prof, params) + d_weight)
        out[i] = (j.value, grad)
    return out[0] if single else out


def _objective_a(values, radii, params, quad_tol):
    """R(u) = J(v) / ||v||_w^theta with v = u / ||grad u||; gradient by chain rule.

    theta = (N - beta)/(N - gamma); dividing by the weight norm power to theta
    equals dilating v onto the unit weight sphere, by the dilation identity.
    One quadrature pass on the v of the whole batch gives J, the weight norm
    power and both their gradients; the gradient norm and its gradient are
    closed forms.  values and radii are as in _objective_b.
    """
    single = np.ndim(values) == 1
    values, radii = np.atleast_2d(values), np.atleast_2d(radii)
    n = params.dim
    theta = (n - params.beta) / (n - params.gamma)
    out = [(0.0, np.zeros_like(u)) for u in values]
    live = []
    for i, (u, r) in enumerate(zip(values, radii)):
        prof = RadialProfile.from_radii(r, u)
        g_pow = grad_norm_pow(prof, params)
        if g_pow > 0.0:
            live.append((i, prof, g_pow, g_pow ** (-1.0 / n)))
    passes = integrate_batch(
        [prof.scaled(c) for _, prof, _, c in live],
        [weight_quantity(n, params.gamma, params),
         weight_gradient_quantity(params),
         functional_quantity(params),
         functional_gradient_quantity(params)], quad_tol)
    for (i, prof, g_pow, c), (w_pow, d_weight_v, j_log, g_j) in zip(live, passes):
        if w_pow <= 0.0:
            continue
        j = j_log.value
        value = j * w_pow ** (-theta)
        # dF/dv, then pull back through v = c(u) * u
        df = g_j * w_pow ** (-theta) - theta * j * w_pow ** (-theta - 1.0) * d_weight_v
        dc = -(1.0 / n) * g_pow ** (-1.0 / n - 1.0) * grad_norm_pow_gradient(prof, params)
        out[i] = (value, c * df + float(df @ values[i]) * dc)
    return out[0] if single else out


def _functional_values(values, radii, params, quad_tol):
    """J of each profile of a (k, nodes) batch, from one quadrature pass."""
    profiles = [RadialProfile.from_radii(r, u) for u, r in zip(values, radii)]
    return [j.value for j in functional_log_batch(profiles, params, quad_tol)]


def _drive(legs, params, quad_tol):
    """Run generator legs in lock step; returns what each leg returns, in order.

    A leg yields a request (fn, values, radii) for one profile and is sent
    fn(values, radii, params, quad_tol) of it.  Each step collects the next
    request of every leg still running, groups them by fn and node count, and
    answers each group with one call on the stacked batch.  A profile's
    answer is the same bit for bit in any batch, so a leg runs exactly as it
    would alone, and a step costs one call per group whatever the number of
    legs.
    """
    results = [None] * len(legs)
    answers = dict.fromkeys(range(len(legs)))  # a fresh generator is sent None
    while answers:
        pending = {}
        for i, answer in answers.items():
            try:
                pending[i] = legs[i].send(answer)
            except StopIteration as stop:
                results[i] = stop.value
        groups = {}
        for i, (fn, values, _) in pending.items():
            groups.setdefault((fn, values.size), []).append(i)
        answers = {}
        for (fn, _), members in groups.items():
            out = fn(np.stack([pending[i][1] for i in members]),
                     np.stack([pending[i][2] for i in members]), params, quad_tol)
            answers.update(zip(members, out))
    return results


def _lbfgs_steps(request, values, config):
    """Box-projected L-BFGS ascent of objective(u) over u >= 0, last node pinned.

    A generator: each evaluation yields request(u) and is sent back
    objective(u) = (value, gradient); it returns (u, value, trace, converged).
    Standard two-loop recursion; curvature pairs with nonpositive s.y are
    skipped, and the memory is dropped whenever the pair direction fails to
    ascend.  Acceptance is an Armijo backtracking test from _STEP_INIT with
    factor _BACKTRACK; a line search that falls below _STEP_FLOOR ends the
    run with the convergence flag false.
    """
    u = values.copy()
    value, grad = yield request(u)
    trace = [value]
    pairs = []
    converged = False

    for _ in range(config.max_iters):
        # ascent gradient respecting the active bound u = 0
        g_free = np.where((u > 0.0) | (grad > 0.0), grad, 0.0)
        g_free[-1] = 0.0
        if float(np.linalg.norm(g_free)) <= _GRAD_TOL * (1.0 + abs(value)):
            converged = True
            break
        q = g_free.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            a = rho * float(s @ q)
            alphas.append(a)
            q -= a * y
        if pairs:
            s, y, _ = pairs[-1]
            q *= float(s @ y) / float(y @ y)
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            b = rho * float(y @ q)
            q += (a - b) * s
        direction = q
        if float(direction @ g_free) <= 0.0:
            pairs.clear()
            direction = g_free.copy()
        slope = float(direction @ g_free)

        step = _STEP_INIT
        accepted = False
        while step >= _STEP_FLOOR:
            trial = np.maximum(u + step * direction, 0.0)
            trial[-1] = 0.0
            trial_value, trial_grad = yield request(trial)
            if trial_value >= value + _ARMIJO * step * slope:
                s = trial - u
                y = grad - trial_grad  # pair convention for minimizing -R
                if float(s @ y) > 1e-12 * float(np.linalg.norm(s)) \
                        * float(np.linalg.norm(y)):
                    pairs.append((s, y, 1.0 / float(s @ y)))
                    if len(pairs) > _LBFGS_MEMORY:
                        pairs.pop(0)
                u, value, grad = trial, trial_value, trial_grad
                trace.append(value)
                accepted = True
                break
            step *= _BACKTRACK
        if not accepted:
            break
    return u, value, trace, converged


def _lbfgs_ascend(objective, values, config):
    """_lbfgs_steps with objective(u) answering each request for u."""
    steps = _lbfgs_steps(lambda u: u, values, config)
    u = next(steps)
    try:
        while True:
            u = steps.send(objective(u))
    except StopIteration as stop:
        return stop.value


def _polish_steps(profile, params, value, quad_tol):
    """Golden-section ascent of J over the renormalized dilation family.

    Dilation shifts log-radii, a direction the fixed value grid cannot take,
    so an exact one-parameter search recovers it; only improvements are kept.
    The norms of each dilate come from the profile's own by the exact
    dilation laws, so a step costs one J value.  A generator of
    _functional_values requests (see _drive); returns (profile, value), the
    profile itself when no dilate improves on value.
    """
    n = params.dim
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    rep = norms(profile, params, rel_tol=quad_tol)

    def dilate_request(s):
        # dilate(profile, lam).scaled(full ** (-1/n)), as nodes
        lam = math.exp(s)
        full = dilated_norms(rep, lam, params).full_pow
        return (_functional_values, full ** (-1.0 / n) * profile.values,
                np.exp(profile.log_radii - s))

    a, b = -_POLISH_SPAN, _POLISH_SPAN
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    p1 = dilate_request(x1)
    f1 = yield p1
    p2 = dilate_request(x2)
    f2 = yield p2
    best_val, best = max((f1, p1), (f2, p2), key=lambda t: t[0])
    while b - a > _POLISH_TOL:
        if f1 < f2:
            a, x1, f1, p1 = x1, x2, f2, p2
            x2 = a + invphi * (b - a)
            p2 = dilate_request(x2)
            f2 = yield p2
            if f2 > best_val:
                best_val, best = f2, p2
        else:
            b, x2, f2, p2 = x2, x1, f1, p1
            x1 = b - invphi * (b - a)
            p1 = dilate_request(x1)
            f1 = yield p1
            if f1 > best_val:
                best_val, best = f1, p1
    if best_val > value:
        _, values, radii = best
        return RadialProfile.from_radii(radii, values), best_val
    return profile, value


def _dilation_polish(profile, params, value, quad_tol):
    """_polish_steps run alone: (profile, value) after the dilation polish."""
    return _drive([_polish_steps(profile, params, value, quad_tol)],
                  params, quad_tol)[0]


def _leg(start_id, profile, params, config, mode):
    """One multistart leg: L-BFGS rounds plus dilation polish (mode B).

    A generator of evaluation requests (see _drive); returns the leg's
    MaximizationResult.
    """
    quad_tol = config.quad_tol
    n = params.dim
    trace = []
    converged = False

    if mode == "A":
        radii = profile.radii
        values, value, trace, converged = yield from _lbfgs_steps(
            lambda u: (_objective_a, u, radii), profile.values, config)
        best = RadialProfile.from_radii(radii, values)
        g_pow = grad_norm_pow(best, params)
        best = at_normalize(best.scaled(g_pow ** (-1.0 / n)), params,
                            rel_tol=quad_tol)
        rep = norms(best, params, rel_tol=quad_tol)
        residuals = {"grad_norm": abs(rep.grad_pow - 1.0),
                     "weight_norm": abs(rep.weight_pow - 1.0)}
    else:
        rounds = config.polish_rounds if config.dilation_polish else 1
        working = profile
        value = None
        for r in range(rounds):
            radii = working.radii
            leg_config = config if r == 0 \
                else replace(config, max_iters=max(config.max_iters // 3, 10))
            values, value, leg, converged = yield from _lbfgs_steps(
                lambda u: (_objective_b, u, radii), working.values, leg_config)
            trace.extend(leg if not trace else leg[1:])
            working = RadialProfile.from_radii(radii, values)
            rep = norms(working, params, rel_tol=quad_tol)
            working = working.scaled(rep.full_pow ** (-1.0 / n))
            if not config.dilation_polish:
                break
            polished, new_value = yield from _polish_steps(working, params,
                                                           value, quad_tol)
            polish_gained = polished is not working
            if polish_gained:
                trace.append(new_value)
            working, value = polished, new_value
            if converged and not polish_gained:
                break
        best = working
        rep = norms(best, params, rel_tol=quad_tol)
        residuals = {"full_norm": abs(rep.full_pow - 1.0)}

    diagnostics = {
        "half_mass_radius": _half_mass_radius(best, params),
        "support_radius": float(best.radii[-1]),
        "last_interior_value": float(best.values[-2]),
        "iterations": float(len(trace) - 1),
    }
    return MaximizationResult(profile=best, value=value,
                              constraint_residuals=residuals, trace=trace,
                              start_id=start_id, converged=converged,
                              diagnostics=diagnostics)


def _ascend(start_id, profile, params, config, mode):
    """One multistart leg run alone, through the lock-step driver."""
    return _drive([_leg(start_id, profile, params, config, mode)],
                  params, config.quad_tol)[0]


def _best_over_starts(params, config, mode, extra_starts, pool):
    starts = list(extra_starts) + starting_profiles(params, config)
    # legs are independent, so running them in lock step or in a pool only
    # changes where and when they run; results come back in roster order and
    # max keeps the first of equal values
    if pool:
        ids, profs = zip(*starts)
        k = len(starts)
        results = list(pool.map(_ascend, ids, profs, [params] * k,
                                 [config] * k, [mode] * k))
    else:
        results = _drive([_leg(sid, prof, params, config, mode)
                          for sid, prof in starts], params, config.quad_tol)
    return max(results, key=lambda r: r.value)


def maximize_B(params: ProblemParams, config: OptimizerConfig | None = None,
               extra_starts=(), pool=None) -> MaximizationResult:
    """Maximize the functional over the unit ball of the full weighted norm.

    The maximum sits on the unit sphere (scaling any interior point up
    strictly increases the functional), which the composite objective encodes
    by renormalizing.  Requires alpha <= critical; beyond that the supremum is
    infinite and the request is refused with a pointer to the witness.
    An executor given as pool runs the multistart legs; the result is the
    same with or without it.
    """
    config = config or OptimizerConfig()
    crit = critical_alpha_beta(params)
    if params.alpha > crit * (1.0 + _CRIT_SLACK):
        raise SupercriticalError(
            f"alpha={params.alpha} exceeds the critical coefficient {crit}: the "
            "supremum is infinite; see moser.plateau_lower_bound for the "
            "diverging lower bound along the concentrating family")
    return _best_over_starts(params, config, "B", extra_starts, pool)


def maximize_A(params: ProblemParams, config: OptimizerConfig | None = None,
               extra_starts=(), pool=None) -> MaximizationResult:
    """Maximize the scale-invariant ratio form (gradient ball, weight ratio).

    Requires alpha strictly below critical: the ratio supremum is infinite at
    and above the critical coefficient.  pool is as in maximize_B.
    """
    config = config or OptimizerConfig()
    crit = critical_alpha_beta(params)
    if params.alpha >= crit * (1.0 - _CRIT_SLACK):
        raise SupercriticalError(
            f"alpha={params.alpha} is not strictly below the critical "
            f"coefficient {crit}: the ratio supremum is infinite there; see "
            "moser.plateau_lower_bound for the diverging lower bound")
    return _best_over_starts(params, config, "A", extra_starts, pool)
