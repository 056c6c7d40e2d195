"""Constrained maximization of the two weighted exponential-functional suprema.

Both problems are driven through one family of scale-invariant objectives
that build the constraints in exactly, using the representation's
closed-form scaling laws:

  R(u) = J(s u) w(s u)^-theta,   s = (g + kappa w)^(-1/N)

with g and w the gradient and weight norm powers of u.  Mode B, (theta,
kappa) = (0, 1), is J on the full-norm unit sphere.  Mode A, ((N - beta)/(N -
gamma), 0), is J on the gradient unit sphere over the weight norm power to
theta; by J(dilate(v, lam)) = lam^-(N-beta) J(v) that equals J of v dilated
onto the unit weight sphere (the rescaling-equivalence identity).

On these fixed-coordinate objectives a box-projected L-BFGS ascent with an
Armijo backtracking line search is valid and fast; the grid's zero lower
bound is the only constraint left.  One leg (_leg) serves both modes: each
round ascends R and rescales the result by s onto the mode's sphere.  Mode
A runs one round; mode B runs up to polish_rounds, with a polish along the
dilation family between them, the direction a fixed value grid cannot
represent: Brent's bounded search on J.  Multistarts (concentrating
elements, a broad bump, seeded noise) are merged by best value.  Everything
is deterministic under a fixed config and seed.

The multistart legs run in lock step.  Each leg is a generator that yields
its next evaluation request: a mode-A objective, a mode-B objective, or one
J value of the dilation polish.  At every step _drive groups the pending
requests of all legs by kind and node count and answers each group with one
batched call on its stacked node arrays, building no profile object: one
check, one live-segment table and, at N >= 3, one quadrature pass (the norms
and J at N = 2 are closed forms), whatever the number of legs.  The batch
functions of profiles give each profile the same bits as a batch of one, so
every leg computes exactly what it computes alone; every maximization runs
its legs so, in one process.  _ascend, _lbfgs_ascend and _dilation_polish run
one leg, one ascent or one polish alone; no tmlab code calls them, but the
tests use them as references and perfbench/tracing.py looks them up by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from . import moser
from .core import ProblemParams, critical_alpha_beta, sphere_area
from .errors import SupercriticalError, ValidationError
from .profiles import (LiveSegments, RadialProfile, at_normalize,
                       checked_nodes, dilated_norms, functional_log_batch,
                       grad_norm_pow, grad_norm_pow_nodes, norms,
                       segment_weights, weight_norm_batch)

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
# the dilation polish's bracket in log(lam) and its stop width
_POLISH_SPAN = 2.0
_POLISH_TOL = 1e-7


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class OptimizerConfig:
    """Grid, step rule, stopping rule, and multistart policy.

    seed draws the random starts; a config document does not set it (see
    from_dict).  quad_tol is a constant, not a field: J and the norms are
    closed forms or one fixed pass, so no tolerance applies, and
    perfbench/tracing.py's micro() reads it.
    """

    node_count: int = 129
    max_iters: int = 200
    moser_starts: tuple = (1, 5, 20)
    random_starts: int = 1
    seed: int = 0
    dilation_polish: bool = True
    polish_rounds: int = 3
    quad_tol: ClassVar[float] = 1e-10

    def __post_init__(self):
        # the types first, as the range checks below compare: a JSON config
        # can hold any value, and bool is an int subclass but no count
        kinds = [(name, _is_int, "an integer") for name in (
            "node_count", "max_iters", "random_starts", "seed", "polish_rounds")]
        kinds += [
            ("moser_starts", lambda v: isinstance(v, tuple)
             and all(map(_is_int, v)), "a list of integers"),
            ("dilation_polish", lambda v: isinstance(v, bool), "true or false")]
        for name, ok, kind in kinds:
            if not ok(getattr(self, name)):
                raise ValidationError(
                    f"{name} must be {kind}, got {getattr(self, name)!r}")
        if self.node_count < 8:
            raise ValidationError("need at least 8 grid nodes")
        for name in ("max_iters", "polish_rounds"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.random_starts < 0:
            raise ValidationError("random_starts must be >= 0")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")

    @classmethod
    def from_dict(cls, data: dict, seed: int = 0) -> "OptimizerConfig":
        """The config of a JSON object, with the given seed: the CLI passes
        its top-level seed key, and the object may not set its own."""
        allowed = {f.name for f in fields(cls)} - {"seed"}
        unknown = set(data) - allowed
        if unknown:
            raise ValidationError(f"unknown optimizer config keys: {sorted(unknown)}")
        if isinstance(data.get("moser_starts"), list):  # JSON has no tuple
            data = dict(data, moser_starts=tuple(data["moser_starts"]))
        return cls(seed=seed, **data)


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
    t, u = profile.log_radii, profile.values
    n, gamma = params.dim, params.gamma
    plateau = (sphere_area(n) * u[0] ** n * math.exp((n - gamma) * t[0])
               / (n - gamma))
    segments = segment_weights(t[:-1], t[1:], u[:-1], u[1:], n, gamma, params)
    ramps = segment_weights(t[:-1], t[1:], u[:-1], np.zeros(t.size - 1), n,
                            gamma, params)
    # cuts[m - 1] is the mass of the profile with values[m:] set to 0: the
    # plateau, segments 0..m-2 and segment m-1 ramped down to 0; it grows
    # with m, and the last cut is the profile itself
    cuts = plateau + np.concatenate([[0.0], np.cumsum(segments[:-1])]) + ramps
    m = 1 + int(np.searchsorted(cuts, 0.5 * cuts[-1]))
    return float(profile.radii[m])


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
        if not values.any():  # a zero start has no normalization
            raise ValidationError(
                f"moser start {n} samples to zero on the grid, radii "
                f"{radii[0]:g} to {radii[-1]:g}: its element is too "
                "concentrated for the grid to resolve")
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


def _objective(values, radii, params, theta, kappa):
    """R(u) = J(v) w(v)^-theta, v = s u, s = (g + kappa w)^(-1/N), and its gradient.

    g and w are the gradient and weight norm powers of u, both closed forms
    with their node gradients; w(v) = s^N w and grad_v w = s^(N-1) grad w by
    homogeneity.  values and radii are one profile's nodes, giving (value,
    gradient), or (k, nodes) arrays of k profiles, giving a list of k such
    pairs.  One live-segment table of the checked batch gives the weights at
    u and, scaled, J at each v in one pass; the chain rule takes all rows.
    """
    single = np.ndim(values) == 1
    t, u = checked_nodes(np.atleast_2d(radii), np.atleast_2d(values))
    n = params.dim
    live = LiveSegments.of_nodes(t, u)
    w, d_w = zip(*weight_norm_batch(live, params))
    g = grad_norm_pow_nodes(t, u, params).tolist()
    full = [x + kappa * y for x, y in zip(g, w)]
    # the rows' scalars in Python floats: numpy's ** rounds some powers otherwise
    s = [f ** (-1.0 / n) if f > 0.0 and x > 0.0 else 0.0 for f, x in zip(full, w)]
    passes = functional_log_batch(live.scaled(np.array(s)), params, gradient=True)
    j = [jl.value for jl, _ in passes]
    w_v = [x * si ** n for x, si in zip(w, s)]
    a = [wv ** -theta if si else 0.0 for wv, si in zip(w_v, s)]
    b = [theta * jv * wv ** (-theta - 1.0) * si ** (n - 1) if si else 0.0
         for wv, jv, si in zip(w_v, j, s)]
    d_w = np.stack(d_w)
    # dR/dv, then pulled back through v = s(u) u
    dr = np.stack([d for _, d in passes]) * np.array(a)[:, None] \
        - np.array(b)[:, None] * d_w
    c = [(float(d @ ui) / n) * (si / f) if si else 0.0
         for d, ui, si, f in zip(dr, u, s, full)]
    grad = np.array(s)[:, None] * dr - np.array(c)[:, None] \
        * (grad_norm_pow_nodes(t, u, params, gradient=True) + kappa * d_w)
    # a row with g + kappa w or w zero has s = a = b = c = 0: its gradient is 0
    out = [(jv * x, d) for jv, x, d in zip(j, a, grad)]
    return out[0] if single else out


def _objective_b(values, radii, params, quad_tol=None):
    """Mode B, R(u) = J(u / ||u||_X): theta = 0 on the full-norm sphere.
    quad_tol is unused: perfbench/tracing.py's micro() passes it."""
    return _objective(values, radii, params, 0.0, 1.0)


def _objective_a(values, radii, params, quad_tol=None):
    """Mode A, R(u) = J(v) / ||v||_w^theta with v = u / ||grad u||.
    quad_tol is unused: perfbench/tracing.py's micro() passes it."""
    theta = (params.dim - params.beta) / (params.dim - params.gamma)
    return _objective(values, radii, params, theta, 0.0)


def _functional_values(values, radii, params):
    """J of each profile of a checked (k, nodes) batch, from one J pass."""
    live = LiveSegments.of_nodes(*checked_nodes(radii, values))
    return [j.value for j in functional_log_batch(live, params)]


def _drive(legs, params):
    """Run generator legs in lock step; returns what each leg returns, in order.

    A leg yields a request (fn, values, radii) for one profile and is sent
    fn(values, radii, params) of it.  Each step collects the next
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
                     np.stack([pending[i][2] for i in members]), params)
            answers.update(zip(members, out))
    return results


def _lbfgs_steps(request, values, max_iters):
    """Box-projected L-BFGS ascent of objective(u) over u >= 0, last node pinned,
    for at most max_iters iterations.

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

    for _ in range(max_iters):
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
    steps = _lbfgs_steps(lambda u: u, values, config.max_iters)
    u = next(steps)
    try:
        while True:
            u = steps.send(objective(u))
    except StopIteration as stop:
        return stop.value


def _bounded_max(ask, lo, hi):
    """Brent's bounded search for the maximum of f on [lo, hi], as fminbound.

    A generator: yields ask(x) for each abscissa x, is sent f(x), and returns
    (x, f(x)) of the best point.  A step takes the vertex of the parabola
    through the three best points when it lies in the bracket and moves less
    than half the step before last, else a golden-section step into the
    larger side, until the bracket is within _POLISH_TOL (R. P. Brent,
    Algorithms for Minimization without Derivatives, 1973).  It works on -f.
    """
    golden = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    x = w = v = a + golden * (b - a)
    fx = fw = fv = -(yield ask(x))
    d = e = 0.0
    while True:
        xm = 0.5 * (a + b)
        tol1 = math.sqrt(2.2e-16) * abs(x) + _POLISH_TOL / 3.0
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            return x, -fx
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p if q > 0.0 else p), abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                parabolic, d = True, p / q
                if x + d - a < tol2 or b - (x + d) < tol2:
                    d = tol1 if xm >= x else -tol1
        if not parabolic:
            e = a - x if x >= xm else b - x
            d = golden * e
        u = x - max(-d, tol1) if d < 0.0 else x + max(d, tol1)
        fu = -(yield ask(u))
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _polish_steps(profile, params, value):
    """Brent's bounded ascent of J over the renormalized dilation family.

    Dilation shifts log-radii, a direction the fixed value grid cannot take,
    so a one-parameter search over log(lam) in [-_POLISH_SPAN, _POLISH_SPAN]
    recovers it; only improvements are kept.  The norms of each dilate come
    from the profile's own by the exact dilation laws, so a step costs one J
    value.  A generator of _functional_values requests (see _drive); returns
    (profile, value), the profile itself when no dilate improves on value.
    """
    n = params.dim
    rep = norms(profile, params)

    def dilate_request(s):
        # dilate(profile, e^s).scaled(full ** (-1/n)), as nodes
        full = dilated_norms(rep, math.exp(s), params).full_pow
        return (_functional_values, full ** (-1.0 / n) * profile.values,
                np.exp(profile.log_radii - s))

    s, best = yield from _bounded_max(dilate_request, -_POLISH_SPAN, _POLISH_SPAN)
    if best > value:
        _, values, radii = dilate_request(s)
        return RadialProfile.from_radii(radii, values), best
    return profile, value


def _dilation_polish(profile, params, value):
    """_polish_steps run alone: (profile, value) after the dilation polish."""
    return _drive([_polish_steps(profile, params, value)], params)[0]


def _leg(start_id, profile, params, config, mode):
    """One multistart leg: rounds of L-BFGS, each rescaled by (g + kappa
    w)^(-1/N), with the dilation polish between them in mode B; mode A's
    result is then dilated onto the unit weight sphere.  A generator of
    evaluation requests (see _drive); returns the leg's MaximizationResult.
    """
    n = params.dim
    objective = _objective_b if mode == "B" else _objective_a
    polish = mode == "B" and config.dilation_polish
    trace = []
    working = profile
    for r in range(config.polish_rounds if polish else 1):
        radii = working.radii
        values, value, leg, converged = yield from _lbfgs_steps(
            lambda u: (objective, u, radii), working.values,
            max(config.max_iters // 3, 10) if r else config.max_iters)
        trace.extend(leg if not trace else leg[1:])
        working = RadialProfile.from_radii(radii, values)
        full = (norms(working, params).full_pow if mode == "B"
                else grad_norm_pow(working, params))
        working = working.scaled(full ** (-1.0 / n))
        if not polish:
            break
        polished, new_value = yield from _polish_steps(working, params, value)
        polish_gained = polished is not working
        if polish_gained:
            trace.append(new_value)
        working, value = polished, new_value
        if converged and not polish_gained:
            break

    if mode == "A":
        working = at_normalize(working, params)
    rep = norms(working, params)
    residuals = ({"full_norm": abs(rep.full_pow - 1.0)} if mode == "B" else
                 {"grad_norm": abs(rep.grad_pow - 1.0),
                  "weight_norm": abs(rep.weight_pow - 1.0)})
    diagnostics = {
        "half_mass_radius": _half_mass_radius(working, params),
        "support_radius": float(working.radii[-1]),
        "last_interior_value": float(working.values[-2]),
        "iterations": float(len(trace) - 1),
    }
    return MaximizationResult(profile=working, value=value,
                              constraint_residuals=residuals, trace=trace,
                              start_id=start_id, converged=converged,
                              diagnostics=diagnostics)


def _ascend(start_id, profile, params, config, mode):
    """One multistart leg run alone, through the lock-step driver."""
    return _drive([_leg(start_id, profile, params, config, mode)], params)[0]


def _best_over_starts(params, config, mode, extra_starts):
    starts = list(extra_starts) + starting_profiles(params, config)
    # results come back in roster order, and max keeps the first of equal values
    return max(_drive([_leg(sid, prof, params, config, mode)
                       for sid, prof in starts], params),
               key=lambda r: r.value)


def maximize_B(params: ProblemParams, config: OptimizerConfig | None = None,
               extra_starts=()) -> MaximizationResult:
    """Maximize the functional over the unit ball of the full weighted norm.

    The maximum sits on the unit sphere (scaling any interior point up
    strictly increases the functional), which the composite objective encodes
    by renormalizing.  Requires alpha <= critical; beyond that the supremum is
    infinite and the request is refused with a pointer to the witness.
    """
    config = config or OptimizerConfig()
    crit = critical_alpha_beta(params)
    if params.alpha > crit * (1.0 + _CRIT_SLACK):
        raise SupercriticalError(
            f"alpha={params.alpha} exceeds the critical coefficient {crit}: the "
            "supremum is infinite; see moser.plateau_lower_bound for the "
            "diverging lower bound along the concentrating family")
    return _best_over_starts(params, config, "B", extra_starts)


def maximize_A(params: ProblemParams, config: OptimizerConfig | None = None,
               extra_starts=()) -> MaximizationResult:
    """Maximize the scale-invariant ratio form (gradient ball, weight ratio).

    Requires alpha strictly below critical: the ratio supremum is infinite at
    and above the critical coefficient.
    """
    config = config or OptimizerConfig()
    crit = critical_alpha_beta(params)
    if params.alpha >= crit * (1.0 - _CRIT_SLACK):
        raise SupercriticalError(
            f"alpha={params.alpha} is not strictly below the critical "
            f"coefficient {crit}: the ratio supremum is infinite there; see "
            "moser.plateau_lower_bound for the diverging lower bound")
    return _best_over_starts(params, config, "A", extra_starts)
