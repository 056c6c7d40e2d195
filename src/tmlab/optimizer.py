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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import moser
from .core import ProblemParams, critical_alpha_beta
from .errors import SupercriticalError, ValidationError
from .profiles import (RadialProfile, at_normalize, dilate, dilated_norms,
                       functional, functional_gradient,
                       functional_gradient_quantity, functional_quantity,
                       grad_norm_pow, grad_norm_pow_gradient,
                       integrate_quantities, norms, norms_gradient,
                       weight_gradient_quantity, weight_quantity,
                       weighted_lp_pow, weighted_lp_pow_cuts)

_CRIT_SLACK = 1e-12


@dataclass(frozen=True)
class OptimizerConfig:
    """Grid, step rule, stopping rule, and multistart policy."""

    node_count: int = 129
    r_min: float = 1e-8
    r_max: float = 1e3
    max_iters: int = 200
    step_init: float = 1.0
    backtrack: float = 0.5
    armijo: float = 1e-4
    grad_tol: float = 1e-7
    step_floor: float = 1e-16
    lbfgs_memory: int = 12
    moser_starts: tuple = (1, 5, 20)
    random_starts: int = 1
    seed: int = 0
    dilation_polish: bool = True
    polish_rounds: int = 3
    quad_tol: float = 1e-10

    def __post_init__(self):
        if self.node_count < 8:
            raise ValidationError("need at least 8 grid nodes")
        if not 0 < self.r_min < self.r_max:
            raise ValidationError("need 0 < r_min < r_max")
        for name in ("max_iters", "step_init", "backtrack", "armijo",
                     "grad_tol", "step_floor", "lbfgs_memory", "polish_rounds",
                     "quad_tol"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.backtrack >= 1.0:
            raise ValidationError("backtrack factor must be < 1")
        if not self.grad_tol < self.step_init:
            raise ValidationError("stop tolerance must be below the initial step")
        if self.random_starts < 0:
            raise ValidationError("random_starts must be >= 0")

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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _grid(config: OptimizerConfig) -> np.ndarray:
    return np.geomspace(config.r_min, config.r_max, config.node_count)


def _resample(profile: RadialProfile, radii: np.ndarray) -> RadialProfile:
    values = profile.value_at(radii)
    values[-1] = 0.0
    return RadialProfile(radii, values)


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
        starts.append((f"moser-{n}",
                       _resample(moser.normalized(n, params).profile, radii)))
    mid = 0.5 * (t[0] + t[-1])
    width = 0.25 * (t[-1] - t[0])
    bump = np.exp(-((t - mid) / width) ** 2)
    bump[-1] = 0.0
    starts.append(("bump", RadialProfile(radii, bump)))
    rng = np.random.default_rng(config.seed)
    envelope = np.sin(np.linspace(0.0, math.pi, radii.size)) ** 2
    for i in range(config.random_starts):
        values = rng.uniform(0.2, 1.0, size=radii.size) * envelope
        values[-1] = 0.0
        starts.append((f"random-{i}", RadialProfile(radii, values)))
    return starts


def _objective_b(values, radii, params, quad_tol):
    """R(u) = J(u / ||u||_X) and its gradient on the fixed radii grid.

    Two quadrature passes: the weight norm power and its gradient on u, then
    J and its gradient on the normalized profile.
    """
    n = params.dim
    prof = RadialProfile(radii, values)
    w_pow, d_weight = integrate_quantities(
        prof, [weight_quantity(n, params.gamma, params),
               weight_gradient_quantity(params)], quad_tol)
    full_pow = grad_norm_pow(prof, params) + w_pow
    if full_pow <= 0.0:
        return 0.0, np.zeros_like(values)
    scale = full_pow ** (-1.0 / n)
    scaled = prof.scaled(scale)
    j, g = integrate_quantities(
        scaled, [functional_quantity(params),
                 functional_gradient_quantity(params)], quad_tol)
    grad = scale * g - (float(g @ values) / n) * (scale / full_pow) \
        * (grad_norm_pow_gradient(prof, params) + d_weight)
    return j.value, grad


def _objective_a(values, radii, params, quad_tol):
    """R(u) = J(v) / ||v||_w^theta with v = u / ||grad u||; gradient by chain rule.

    theta = (N - beta)/(N - gamma); dividing by the weight norm power to theta
    equals dilating v onto the unit weight sphere, by the dilation identity.
    One quadrature pass on v gives J, the weight norm power and both their
    gradients; the gradient norm and its gradient are closed forms.
    """
    n = params.dim
    theta = (n - params.beta) / (n - params.gamma)
    prof = RadialProfile(radii, values)
    g_pow = grad_norm_pow(prof, params)
    if g_pow <= 0.0:
        return 0.0, np.zeros_like(values)
    c = g_pow ** (-1.0 / n)
    v = prof.scaled(c)
    w_pow, d_weight_v, j_log, g_j = integrate_quantities(
        v, [weight_quantity(n, params.gamma, params),
            weight_gradient_quantity(params),
            functional_quantity(params),
            functional_gradient_quantity(params)], quad_tol)
    if w_pow <= 0.0:
        return 0.0, np.zeros_like(values)
    j = j_log.value
    value = j * w_pow ** (-theta)
    # dF/dv, then pull back through v = c(u) * u
    df = g_j * w_pow ** (-theta) - theta * j * w_pow ** (-theta - 1.0) * d_weight_v
    dc = -(1.0 / n) * g_pow ** (-1.0 / n - 1.0) * grad_norm_pow_gradient(prof, params)
    grad = c * df + float(df @ values) * dc
    return value, grad


def _lbfgs_ascend(objective, values, config):
    """Box-projected L-BFGS ascent of objective(u) over u >= 0, last node pinned.

    Standard two-loop recursion; curvature pairs with nonpositive s.y are
    skipped, and the memory is dropped whenever the pair direction fails to
    ascend.  Acceptance is an Armijo backtracking test from step_init with the
    configured backtracking factor; a line search that falls below step_floor
    ends the run with the convergence flag false.
    """
    u = values.copy()
    value, grad = objective(u)
    trace = [value]
    pairs = []
    converged = False

    for _ in range(config.max_iters):
        # ascent gradient respecting the active bound u = 0
        g_free = np.where((u > 0.0) | (grad > 0.0), grad, 0.0)
        g_free[-1] = 0.0
        if float(np.linalg.norm(g_free)) <= config.grad_tol * (1.0 + abs(value)):
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

        step = config.step_init
        accepted = False
        while step >= config.step_floor:
            trial = np.maximum(u + step * direction, 0.0)
            trial[-1] = 0.0
            trial_value, trial_grad = objective(trial)
            if trial_value >= value + config.armijo * step * slope:
                s = trial - u
                y = grad - trial_grad  # pair convention for minimizing -R
                if float(s @ y) > 1e-12 * float(np.linalg.norm(s)) \
                        * float(np.linalg.norm(y)):
                    pairs.append((s, y, 1.0 / float(s @ y)))
                    if len(pairs) > config.lbfgs_memory:
                        pairs.pop(0)
                u, value, grad = trial, trial_value, trial_grad
                trace.append(value)
                accepted = True
                break
            step *= config.backtrack
        if not accepted:
            break
    return u, value, trace, converged


def _dilation_polish(profile, params, value, quad_tol, span=2.0, tol=1e-7):
    """Golden-section ascent of J over the renormalized dilation family.

    Dilation moves radii, a direction the fixed value grid cannot take, so an
    exact one-parameter search recovers it; only improvements are kept.  The
    norms of each dilate come from the profile's own by the exact dilation
    laws, so a step costs one quadrature pass, for J.
    """
    n = params.dim
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    rep = norms(profile, params, rel_tol=quad_tol)

    def value_at(s):
        lam = math.exp(s)
        full = dilated_norms(rep, lam, params).full_pow
        moved = dilate(profile, lam).scaled(full ** (-1.0 / n))
        return functional(moved, params, rel_tol=quad_tol), moved

    a, b = -span, span
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, p1 = value_at(x1)
    f2, p2 = value_at(x2)
    best_val, best_prof = max((f1, p1), (f2, p2), key=lambda t: t[0])
    while b - a > tol:
        if f1 < f2:
            a, x1, f1, p1 = x1, x2, f2, p2
            x2 = a + invphi * (b - a)
            f2, p2 = value_at(x2)
            if f2 > best_val:
                best_val, best_prof = f2, p2
        else:
            b, x2, f2, p2 = x2, x1, f1, p1
            x1 = b - invphi * (b - a)
            f1, p1 = value_at(x1)
            if f1 > best_val:
                best_val, best_prof = f1, p1
    if best_val > value:
        return best_prof, best_val
    return profile, value


def _ascend(start_id, profile, params, config, mode):
    """One multistart leg: L-BFGS rounds plus dilation polish (mode B)."""
    quad_tol = config.quad_tol
    n = params.dim
    trace = []
    converged = False

    if mode == "A":
        objective = lambda u: _objective_a(u, profile.radii, params, quad_tol)
        values, value, trace, converged = _lbfgs_ascend(
            objective, profile.values, config)
        best = RadialProfile(profile.radii, values)
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
            objective = lambda u: _objective_b(u, working.radii, params, quad_tol)
            leg_config = config if r == 0 \
                else replace(config, max_iters=max(config.max_iters // 3, 10))
            values, value, leg, converged = _lbfgs_ascend(
                objective, working.values, leg_config)
            trace.extend(leg if not trace else leg[1:])
            working = RadialProfile(working.radii, values)
            rep = norms(working, params, rel_tol=quad_tol)
            working = working.scaled(rep.full_pow ** (-1.0 / n))
            if not config.dilation_polish:
                break
            polished, new_value = _dilation_polish(working, params, value,
                                                   quad_tol)
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


def _best_over_starts(params, config, mode, extra_starts, pool):
    starts = list(extra_starts) + starting_profiles(params, config)
    ids, profs = zip(*starts)
    k = len(starts)
    # legs are independent, so a pool only changes where they run; results
    # come back in roster order and max keeps the first of equal values
    results = list((pool.map if pool else map)(
        _ascend, ids, profs, [params] * k, [config] * k, [mode] * k))
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


def gradient_check(params: ProblemParams, profile: RadialProfile,
                   rel_step: float = 1e-6) -> float:
    """Worst relative error of the analytic gradients against central differences.

    Differences every interior node (the last is pinned by the representation)
    of the functional and both norm powers, evaluating the oracle at quadrature
    tolerance 1e-13.  Per-component relative errors are floored at 1e-3 of each
    gradient's largest component: entries far below that scale sit beneath the
    finite-difference noise floor.
    """
    tight = 1e-13
    d_grad, d_weight = norms_gradient(profile, params, rel_tol=tight)
    targets = [
        (functional_gradient(profile, params, rel_tol=tight),
         lambda p: functional(p, params, rel_tol=tight)),
        (d_grad, lambda p: grad_norm_pow(p, params)),
        (d_weight, lambda p: weighted_lp_pow(p, params.dim, params.gamma,
                                             params, rel_tol=tight)),
    ]
    worst = 0.0
    base = profile.values
    for analytic, fn in targets:
        fd = np.full(base.size, np.nan)
        for i in range(base.size - 1):
            h = rel_step * max(abs(base[i]), 1.0)
            up, dn = base.copy(), base.copy()
            up[i] += h
            dn[i] = max(dn[i] - h, 0.0)
            fd[i] = (fn(profile.with_values(up)) - fn(profile.with_values(dn))) \
                / (up[i] - dn[i])
        mask = ~np.isnan(fd)
        a, f = analytic[mask], fd[mask]
        scale = max(np.abs(f).max(initial=0.0), np.abs(a).max(initial=0.0))
        if scale <= 1e-7:
            continue  # both vanish at this precision: nothing to resolve
        denom = np.maximum(np.maximum(np.abs(f), np.abs(a)), 1e-3 * scale)
        worst = max(worst, float((np.abs(a - f) / denom).max(initial=0.0)))
    return worst
