"""Theorem-level verification engines built on the optimizer and profiles.

lemma2_transport moves a gradient-ball/unit-weight profile into the full-norm
unit ball with an exact value relation; theorem13_transport runs the reverse
construction used to bound the full-norm supremum by ratio suprema;
relation_scan assembles both into the product identity between the two
supremum families.  orbit_derivative and moment_ratio_table implement the
dimension-two vanishing analysis: the derivative of the functional along the
normalized dilation-amplitude orbit, once as an exact series in the weighted
even moments and once by finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .core import ProblemParams, critical_alpha_beta
from .errors import (DegenerateInputError, DomainError, PreconditionError)
from .optimizer import MaximizationResult, OptimizerConfig, maximize_A, maximize_B
from .profiles import (RadialProfile, dilate, functional, functional_log_batch,
                       grad_norm_pow, norms, weighted_lp_pow,
                       weighted_lp_pow_batch)
from .report import ScanTable

_FEAS_TOL = 1e-8
# even moments of the orbit series summed per call
_MOMENT_CHUNK = 12
# orbit_derivative: most series terms, their truncation tolerance, FD step in tau
_ORBIT_J_MAX = 200
_ORBIT_TERM_TOL = 1e-14
_ORBIT_FD_STEP = 1e-5


def g_factor(alpha: float, params: ProblemParams) -> float:
    """((1 - r^(N-1)) / r^(N-1))^((N-beta)/(N-gamma)) with r = alpha/critical.

    The exchange rate between the ratio supremum at alpha and the full-norm
    supremum at critical; decreasing in alpha, blowing up at 0, vanishing at
    critical.
    """
    crit = critical_alpha_beta(params)
    r = alpha / crit
    if not 0.0 < r < 1.0:
        raise DomainError(f"alpha must lie strictly inside (0, critical), got {alpha}")
    n = params.dim
    power = (n - params.beta) / (n - params.gamma)
    rn = r ** (n - 1.0)
    return ((1.0 - rn) / rn) ** power


@dataclass(frozen=True)
class Lemma2Transport:
    """Transported profile and the two independently integrated sides."""

    profile: RadialProfile
    amplitude: float          # C = (alpha/critical)^((N-1)/N)
    dilation: float           # lam = (C^N/(1-C^N))^(1/(N-gamma))
    full_norm_pow: float      # of the transported profile, <= 1
    lhs: float                # J_critical(transported)
    rhs: float                # lam^-(N-beta) * J_alpha(input)
    residual: float


def lemma2_transport(u: RadialProfile, alpha: float,
                     params: ProblemParams) -> Lemma2Transport:
    """Move a feasible ratio-problem profile into the full-norm unit ball.

    Input must satisfy the gradient-ball and unit-weight-norm normalization
    within 1e-8.  The output profile C * u(lam x) lands inside the unit ball
    and carries J_critical(v) = lam^-(N-beta) J_alpha(u) exactly; both sides
    are integrated independently and the relative residual is reported.
    """
    crit = critical_alpha_beta(params)
    if not 0.0 < alpha < crit:
        raise PreconditionError(f"need 0 < alpha < critical={crit}, got {alpha}")
    n = params.dim
    rep = norms(u, params)
    if rep.grad_pow > 1.0 + _FEAS_TOL:
        raise PreconditionError(f"gradient norm power {rep.grad_pow} exceeds 1")
    if abs(rep.weight_pow - 1.0) > _FEAS_TOL:
        raise PreconditionError(
            f"weight norm power must be 1, got {rep.weight_pow}")
    big_c = (alpha / crit) ** ((n - 1.0) / n)
    cn = big_c ** n
    lam = (cn / (1.0 - cn)) ** (1.0 / (n - params.gamma))
    v = dilate(u, lam).scaled(big_c)
    at_critical = replace(params, alpha=crit)
    at_alpha = replace(params, alpha=alpha)
    lhs = functional(v, at_critical)
    rhs = lam ** (-(n - params.beta)) * functional(u, at_alpha)
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return Lemma2Transport(profile=v, amplitude=big_c, dilation=lam,
                           full_norm_pow=norms(v, params).full_pow,
                           lhs=lhs, rhs=rhs, residual=residual)


@dataclass(frozen=True)
class Theorem13Transport:
    """Rescaled maximizing-sequence element and its verified value chain."""

    profile: RadialProfile
    alpha_prime: float
    dilation: float
    weight_pow: float          # <= 1 for the rescaled profile
    lhs: float                 # J_critical(input)
    rhs: float                 # lam^(N-beta) * J_alpha'(rescaled)
    ratio_bound: float         # lam^(N-beta) * ratio value of the rescaled profile
    residual: float


def theorem13_transport(u: RadialProfile,
                        params: ProblemParams) -> Theorem13Transport:
    """Rescale a full-norm-ball profile onto the gradient sphere.

    Needs ||u||_X^N <= 1 and 0 < ||grad u||_N^N < 1 strictly.  Produces
    v = u(lam x)/||grad u|| with unit gradient norm, weight norm power at most
    one, and the exact chain J_critical(u) = lam^(N-beta) J_alpha'(v) with
    alpha' = critical * ||grad u||^(N/(N-1)), bounded by the transported ratio.
    """
    n = params.dim
    rep = norms(u, params)
    if rep.full_pow > 1.0 + _FEAS_TOL:
        raise PreconditionError(f"full norm power {rep.full_pow} exceeds 1")
    if not 0.0 < rep.grad_pow < 1.0:
        raise DegenerateInputError(
            f"need 0 < gradient norm power < 1, got {rep.grad_pow}")
    crit = critical_alpha_beta(params)
    g_pow = rep.grad_pow
    lam = ((1.0 - g_pow) / g_pow) ** (1.0 / (n - params.gamma))
    v = dilate(u, lam).scaled(g_pow ** (-1.0 / n))
    alpha_prime = crit * g_pow ** (1.0 / (n - 1.0))
    lhs = functional(u, replace(params, alpha=crit))
    j_v = functional(v, replace(params, alpha=alpha_prime))
    rhs = lam ** (n - params.beta) * j_v
    w_pow = weighted_lp_pow(v, n, params.gamma, params)
    theta = (n - params.beta) / (n - params.gamma)
    ratio_bound = lam ** (n - params.beta) * j_v / w_pow ** theta
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return Theorem13Transport(profile=v, alpha_prime=alpha_prime, dilation=lam,
                              weight_pow=w_pow, lhs=lhs, rhs=rhs,
                              ratio_bound=ratio_bound, residual=residual)


@dataclass(frozen=True)
class RelationRow:
    alpha: float
    g_factor: float
    a_estimate: float
    product: float
    b_estimate: float


@dataclass(frozen=True)
class RelationScan:
    rows: tuple
    b_result: MaximizationResult
    sup_product: float
    gap: float                 # |sup g*A - B| / B, a soft optimizer-quality metric

    def table(self) -> ScanTable:
        t = ScanTable(columns=("alpha", "g_factor", "a_estimate", "product",
                               "b_estimate"),
                      comments=["product = g_factor * a_estimate",
                                f"sup_product={self.sup_product!r}",
                                f"b_estimate={self.b_result.value!r}",
                                f"two_sided_gap={self.gap!r}"])
        for row in self.rows:
            t.append(row.alpha, row.g_factor, row.a_estimate, row.product,
                     row.b_estimate)
        return t


def relation_scan(params: ProblemParams, alpha_grid,
                  config: OptimizerConfig) -> RelationScan:
    """Estimate both supremum families and assemble the product identity.

    Runs the ratio maximizer at every grid alpha (warm-starting each point
    with its neighbor's maximizer: the ratio objective is dilation invariant,
    so maximizers transfer well along the grid), transports every maximizer
    into the full-norm ball, and seeds the critical full-norm maximizer with
    the transported profiles.  That makes the one-sided bound
    b_estimate >= g(alpha) * a_estimate(alpha) hold by construction up to
    quadrature error; the two-sided gap is reported as a quality diagnostic,
    not asserted.  Each maximization runs its multistart legs in lock step in
    this process.
    """
    crit = critical_alpha_beta(params)
    grid = sorted(float(a) for a in alpha_grid)
    if not grid or not (0.0 < grid[0] and grid[-1] < crit):
        raise DomainError("alpha grid must lie strictly inside (0, critical)")
    a_results = _scan_a(params, grid, config)
    transported = []
    for alpha, res in zip(grid, a_results):
        moved = lemma2_transport(res.profile, alpha, replace(params, alpha=alpha))
        transported.append((f"transport-{alpha:.6g}", moved.profile, moved.lhs))
    # ascending from the best-valued transport dominates every transported
    # value, so seeding with it alone keeps the one-sided bound guaranteed
    best_transport = max(transported, key=lambda t: t[2])
    b_result = maximize_B(replace(params, alpha=crit), config,
                          extra_starts=[best_transport[:2]])
    rows = []
    for alpha, res in zip(grid, a_results):
        g = g_factor(alpha, params)
        rows.append(RelationRow(alpha=alpha, g_factor=g, a_estimate=res.value,
                                product=g * res.value,
                                b_estimate=b_result.value))
    # plain floats: numpy scalars would print as np.float64(...) in the header
    sup_product = float(max(r.product for r in rows))
    gap = float(abs(sup_product - b_result.value) / b_result.value)
    return RelationScan(rows=tuple(rows), b_result=b_result,
                        sup_product=sup_product, gap=gap)


def _scan_a(params, grid, config):
    """Ratio maximizers along the grid, each warm-started from the previous."""
    results = []
    warm = []
    for alpha in grid:
        res = maximize_A(replace(params, alpha=alpha), config, extra_starts=warm)
        warm = [("warm", res.profile)]
        results.append(res)
    return results


@dataclass(frozen=True)
class OrbitReport:
    """Both routes to the orbit derivative at tau = 1, term by term."""

    series: float
    fd: float
    terms: tuple
    truncation_index: int
    saturated: bool

    @property
    def sign(self) -> int:
        return int(math.copysign(1.0, self.series)) if self.series != 0.0 else 0

    @property
    def rel_err(self) -> float:
        return abs(self.series - self.fd) / max(1.0, abs(self.fd))

    def to_dict(self) -> dict:
        return {"series": self.series, "fd": self.fd, "terms": list(self.terms),
                "truncation_index": self.truncation_index,
                "saturated": self.saturated, "sign": self.sign,
                "rel_err": self.rel_err}


def _require_orbit_setting(params: ProblemParams):
    if params.dim != 2:
        raise PreconditionError("the orbit analysis is a dimension-2 construction")
    if params.gamma != params.beta:
        raise PreconditionError(
            "the orbit analysis needs matching weight exponents (gamma = beta)")


def _orbit_profile(v: RadialProfile, tau: float) -> RadialProfile:
    """sqrt(tau) v(sqrt(tau) x), exactly representable."""
    rt = math.sqrt(tau)
    return dilate(v, rt).scaled(rt)


def orbit_derivative(v: RadialProfile, alpha: float,
                     params: ProblemParams) -> OrbitReport:
    """d/dtau at tau=1 of the functional along the normalized orbit, two ways.

    Series route: sum over j of (alpha^j/j!) (1 - beta/2) m_2j
    (-grad_pow + (j-1) weight_pow) with m_2j the weighted even moments,
    truncated once terms fall below _ORBIT_TERM_TOL relative for three
    consecutive terms; growth past _ORBIT_J_MAX sets the saturation flag.  FD route:
    central differences with Richardson refinement of tau -> J(orbit(tau)), rebuilding
    and renormalizing the profile at every tau.  Needs ||v||_X = 1 within 1e-8.
    """
    _require_orbit_setting(params)
    if alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if v.is_zero:
        raise DegenerateInputError("orbit through the zero profile is undefined")
    rep = norms(v, params)
    if abs(rep.full_pow - 1.0) > _FEAS_TOL:
        raise PreconditionError(
            f"profile must sit on the unit sphere, full norm power {rep.full_pow}")
    beta = params.beta
    a_pow, b_pow = rep.grad_pow, rep.weight_pow

    terms = []
    total = 0.0
    log_alpha = math.log(alpha)
    log_fact = 0.0
    saturated = False
    quiet = 0
    log_moments = []
    j = 0
    while j < _ORBIT_J_MAX:
        j += 1
        if j > len(log_moments):
            exponents = [2 * i for i in
                         range(j, min(j + _MOMENT_CHUNK, _ORBIT_J_MAX + 1))]
            log_moments += list(weighted_lp_pow_batch(
                [v] * len(exponents), exponents, beta, params, log=True))
        log_fact += math.log(j)
        log_m2j = float(log_moments[j - 1])
        if log_m2j == -math.inf:
            break
        term = math.exp(j * log_alpha - log_fact + log_m2j) \
            * (1.0 - beta / 2.0) * (-a_pow + (j - 1.0) * b_pow)
        terms.append(term)
        total += term
        if abs(term) <= _ORBIT_TERM_TOL * max(abs(total), 1e-300):
            quiet += 1
            if quiet >= 3:
                break
        else:
            quiet = 0
        if len(terms) >= 3 and abs(terms[-1]) > abs(terms[-2]) > abs(terms[-3]) \
                and abs(terms[-1]) > 1e3 * max(abs(total), 1e-300):
            saturated = True
            break
    if j >= _ORBIT_J_MAX and quiet < 3:
        saturated = True

    # J(orbit(tau)) at tau = 1 +- h and 1 +- h/2, each profile scaled onto
    # the unit sphere: the four weight norms in closed form, one pass for the
    # four J
    at_alpha = replace(params, alpha=alpha)
    steps = (_ORBIT_FD_STEP, _ORBIT_FD_STEP / 2.0)
    moved = [_orbit_profile(v, 1.0 + sign * h) for h in steps for sign in (1, -1)]
    weights = weighted_lp_pow_batch(moved, params.dim, params.gamma, at_alpha)
    on_sphere = [m.scaled((grad_norm_pow(m, at_alpha) + w) ** (-0.5))
                 for m, w in zip(moved, weights)]
    j_vals = [lv.value for lv in functional_log_batch(on_sphere, at_alpha,
                                                      rel_tol=1e-12)]
    d_h, d_h2 = ((j_vals[2 * i] - j_vals[2 * i + 1]) / (2.0 * h)
                 for i, h in enumerate(steps))
    fd = (4.0 * d_h2 - d_h) / 3.0
    return OrbitReport(series=total, fd=fd, terms=tuple(terms),
                       truncation_index=len(terms), saturated=saturated)


def moment_ratio_table(v: RadialProfile, alpha_tilde: float,
                       params: ProblemParams, j_max: int = 40) -> ScanTable:
    """Ratios m_2j alpha~^j / (j! grad_pow^(j-1) weight_pow) for j = 2..j_max.

    The moment bound asserts these stay below a constant depending only on
    alpha~; the table's running maximum is that empirical constant.  Each
    ratio is invariant under amplitude scaling of the profile.
    """
    _require_orbit_setting(params)
    if j_max < 2:
        raise DomainError("need j_max >= 2")
    if alpha_tilde <= 0.0:
        raise DomainError(f"alpha_tilde must be positive, got {alpha_tilde}")
    if v.is_zero:
        raise DegenerateInputError("moment ratios of the zero profile are undefined")
    rep = norms(v, params)
    if rep.grad_pow <= 0.0 or rep.weight_pow <= 0.0:
        raise DegenerateInputError("profile needs nonzero gradient and weight norms")
    log_a = math.log(rep.grad_pow)
    log_b = math.log(rep.weight_pow)
    table = ScanTable(columns=("j", "ratio"),
                      comments=["moment-bound ratios; running max is the "
                                "empirical constant",
                                f"alpha_tilde={alpha_tilde!r}"])
    js = range(2, j_max + 1)
    log_moments = weighted_lp_pow_batch([v] * len(js), [2 * j for j in js],
                                        params.beta, params, log=True)
    for j, log_m2j in zip(js, log_moments):
        log_ratio = (float(log_m2j) + j * math.log(alpha_tilde)
                     - math.lgamma(j + 1.0) - (j - 1.0) * log_a - log_b)
        table.append(j, math.exp(log_ratio))
    return table
