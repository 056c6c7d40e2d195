"""Closed-form concentrating sequences and their norms and lower bounds.

The n-th element is the log-cone, in t = log r

    u_n = A_n b_n            for t <= -b_n
    u_n = -A_n t             on [-b_n, 0]
    u_n = 0                  for t >= 0

with A_n = sphere_area^(-1/N) (n/(N-beta))^(-1/N) and b_n = n/(N-beta), chosen
so that (A_n b_n)^(N/(N-1)) = n / critical_alpha_beta and the gradient norm
power is exactly 1.  Profiles are stored in t, so an element can be built
however far its plateau radius e^-b_n lies below the smallest double; only an
index whose depth overflows the closed forms is refused, and normalized also
refuses one whose plateau exponent, about n alpha/alpha_crit, doubled
overflows.  Below that every closed form is finite: the products that
overflow first (omega (A_n b_n)^N, n alpha) are taken in logs there.  The
weighted L^N norm power has the closed form I + II with an incomplete-gamma
tail, which the segment closed form of profiles.weighted_lp_pow must
reproduce; the plateau piece of the exponential functional gives a rigorous
lower bound that diverges above the critical coefficient and powers the
near-critical scan.

family_table tabulates elements n_min..n_max batch first: per row only the
scalar closed forms (the constants and the weight norm power with its
incomplete-gamma loop, from one _element call, and lambda_n and its power
N/(N-1)); the cone nodes, as
one (k, 2) batch, are checked once and give every gradient norm power and
segment weight in one pass each, and plateau_lower_bound, of which one index
is the batch of one, takes all rows in one log_phi pass.  The powers of
lambda_n stay Python floats: numpy's array ** rounds some of them
differently from float.__pow__, which would move the table's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (LogValue, ProblemParams, critical_alpha_beta, log_phi,
                   lower_incomplete_gamma, phi, sphere_area)
from .errors import DomainError
from .profiles import (LiveSegments, RadialProfile, checked_nodes,
                       grad_norm_pow_nodes, weighted_lp_pow_batch)
from .report import ScanTable

# the validity-threshold searches give up beyond this index
_THRESHOLD_CAP = 100000


@dataclass(frozen=True)
class MoserElement:
    """One member of the concentrating family, with its defining constants."""

    index: int
    amplitude: float      # A_n
    log_depth: float      # b_n
    lam: float            # normalization factor lambda_n
    weight_pow: float     # closed-form weighted L^N norm power, un-normalized
    profile: RadialProfile
    normalized: bool = False


def _element(n: int, params: ProblemParams):
    """A_n, b_n and the closed-form weight norm power of the n-th element."""
    if n < 1 or not isinstance(n, int):
        raise DomainError(f"index must be a positive integer, got {n!r}")
    nd, g = params.dim, params.gamma
    # the closed forms take (N-gamma) b_n and b_n^(N-1) = omega (A_n b_n)^N
    try:
        b_n = n / (nd - params.beta)
        finite = (math.isfinite((nd - g) * b_n)
                  and math.isfinite(b_n ** (nd - 1)))
    except OverflowError:
        finite = False
    if not finite:
        raise DomainError(
            f"index n={n} is too large for N={nd}, beta={params.beta}, "
            f"gamma={g}: the depth n/(N-beta) overflows the "
            "element's closed forms in double precision")
    omega = sphere_area(nd)
    a_n = (1.0 / omega) ** (1.0 / nd) * b_n ** (-1.0 / nd)
    c = nd - g
    try:
        term_i = omega * (a_n * b_n) ** nd * math.exp(-c * b_n) / c
    except OverflowError:
        term_i = math.inf
    if not math.isfinite(term_i):  # omega (A_n b_n)^N overflowed, e^(-c b_n) is 0
        term_i = math.exp(math.log(omega) + nd * math.log(a_n * b_n) - c * b_n) / c
    term_ii = ((nd - params.beta) / n) * c ** (-(nd + 1.0)) \
        * lower_incomplete_gamma(nd + 1.0, c * b_n)
    return a_n, b_n, term_i + term_ii


def build(n: int, params: ProblemParams) -> MoserElement:
    """The n-th element, un-normalized: the cone on t = log r in [-b_n, 0]."""
    a_n, b_n, w = _element(n, params)
    profile = RadialProfile(log_radii=[-b_n, 0.0], values=[a_n * b_n, 0.0])
    return MoserElement(index=n, amplitude=a_n, log_depth=b_n,
                        lam=_lam_from_weight(w, params), weight_pow=w,
                        profile=profile, normalized=False)


def weight_norm_closed_form(n: int, params: ProblemParams) -> float:
    """Exact weighted L^N norm power of the n-th element.

    Plateau piece plus the log-cone piece, the latter reduced by rho = log(1/r)
    to an incomplete-gamma integral:

        I  = omega (A_n b_n)^N e^(-(N-gamma) b_n) / (N - gamma)
        II = ((N-beta)/n) (N-gamma)^-(N+1) gamma_inc(N+1, (N-gamma) b_n)

    I is taken in log scale where omega (A_n b_n)^N overflows.
    """
    return _element(n, params)[2]


def weight_norm_limit(params: ProblemParams) -> float:
    """Limit of n * weight_norm_closed_form(n) as n grows."""
    nd = params.dim
    return (nd - params.beta) * math.gamma(nd + 1.0) / (nd - params.gamma) ** (nd + 1.0)


def _lam_from_weight(w: float, params: ProblemParams) -> float:
    """Normalization lambda_n with lambda^N (1 + w) = 1, w the weight norm power."""
    return (1.0 + w) ** (-1.0 / params.dim)


def normalized(n: int, params: ProblemParams) -> MoserElement:
    """The n-th element scaled by lambda_n: full norm power exactly 1.

    An index is refused where twice its plateau exponent x = alpha u_0^q,
    q = N/(N-1), about 2 n alpha/alpha_crit, overflows: the slope and the
    curvature of J's exponent on the cone are that large.  Both are taken
    in the two roundings dawson.segment_functional takes at N = 2.
    """
    elem = build(n, params)
    profile = elem.profile.scaled(elem.lam)
    u0 = float(profile.values[0])
    au = params.alpha * u0 ** (params.exponent - 1.0)
    if not (math.isfinite(2.0 * u0 * au) and math.isfinite(2.0 * (au * u0))):
        raise DomainError(
            f"index n={n} is too large for N={params.dim}, beta={params.beta}, "
            f"gamma={params.gamma} at alpha={params.alpha!r}: twice the plateau "
            "exponent alpha u_0^(N/(N-1)), about 2 n alpha/alpha_crit, "
            "overflows in double precision")
    return replace(elem, profile=profile, normalized=True)


def plateau_lower_bound(n, params: ProblemParams, weight_pow=None):
    """Exact plateau piece of the functional of the normalized element.

    (omega/(N-beta)) e^-n Phi_N((n alpha / alpha_crit) lambda_n^(N/(N-1))):
    a rigorous lower bound for the whole functional, valid for every alpha
    including the supercritical range where it diverges with n.  A caller
    that has weight_norm_closed_form(n, params) passes it as weight_pow.
    For one index a LogValue; for a sequence of indices (and of weight_pow)
    the array of their logs, the same bits as one by one.
    """
    one = np.ndim(n) == 0
    indices = [n] if one else list(n)
    if weight_pow is None:
        weights = [weight_norm_closed_form(k, params) for k in indices]
    else:
        weights = [weight_pow] if one else list(weight_pow)
    # lambda_n^(N/(N-1)) by float.__pow__, row by row (see the module notes)
    lam_pows = np.array([_lam_from_weight(w, params) ** params.exponent
                         for w in weights])
    index = np.array(indices, dtype=float)
    with np.errstate(over="ignore"):  # inf, as in float arithmetic
        arg = index * params.alpha / critical_alpha_beta(params) * lam_pows
    nd = params.dim
    head = math.log(sphere_area(nd) / (nd - params.beta))
    logs = head - index + log_phi(nd, arg)
    deep = np.isinf(arg)
    if deep.any():  # n alpha overflowed: there log Phi_N(x) = x, and
        # x - n = n (r lambda^q - 1), r = alpha/alpha_crit
        ratio = params.alpha / critical_alpha_beta(params)
        logs[deep] = head + index[deep] * (ratio * lam_pows[deep] - 1.0)
    return LogValue(float(logs[0])) if one else logs


def family_table(params: ProblemParams, n_min: int, n_max: int) -> ScanTable:
    """The elements n_min..n_max, one row each, from one pass per column.

    Each row's constants, closed-form weight norm power and lambda_n are
    Python floats; the cone nodes are checked once as a (k, 2) batch, which
    gives the gradient norm powers, the segment closed form of the weight
    norm (against the Moser closed form: rel_err) and the plateau bounds.
    An index too deep for the closed forms is refused, naming the first.
    """
    indices = range(n_min, n_max + 1)
    amplitude, depth, closed = zip(*(_element(n, params) for n in indices))
    lam = [_lam_from_weight(w, params) for w in closed]
    b = np.array(depth)[:, None]  # the cones' nodes: t = (-b, 0), u = (A b, 0)
    t, u = checked_nodes(b * [-1.0, 0.0],
                         np.array(amplitude)[:, None] * b * [1.0, 0.0], log=True)
    quadded = np.array(weighted_lp_pow_batch(
        LiveSegments.of_nodes(t, u), params.dim, params.gamma, params))
    closed_arr = np.array(closed)
    rel = np.abs(closed_arr - quadded) / np.maximum(closed_arr, 1e-300)
    return ScanTable(
        columns=("n", "amplitude", "log_depth", "lam", "grad_pow",
                 "weight_closed_form", "weight_quadrature", "rel_err",
                 "plateau_lower_bound_log"),
        rows=list(zip(indices, amplitude, depth, lam,
                      grad_norm_pow_nodes(t, u, params).tolist(), closed,
                      quadded.tolist(), rel.tolist(),
                      plateau_lower_bound(indices, params, closed).tolist())),
        comments=["concentrating-family table",
                  "weight columns: Moser closed form vs segment closed form"])


def select_index(alpha: float, crit: float) -> int:
    """Index selection for the near-critical scan: ceil(1/(1 - alpha/crit)).

    Lands inside the window [1/(1-ratio), 2/(1-ratio)], i.e. the selected n
    satisfies 1 <= n (1 - ratio) <= 2.
    """
    ratio = alpha / crit
    if not 0.0 < ratio < 1.0:
        raise DomainError(f"alpha must lie strictly below critical, got ratio {ratio}")
    return math.ceil(1.0 / (1.0 - ratio))


def half_exponential_threshold(params: ProblemParams) -> int:
    """Smallest n with Phi_N((alpha/crit) n) >= e^((alpha/crit) n) / 2."""
    ratio = params.alpha / critical_alpha_beta(params)
    for n in range(1, _THRESHOLD_CAP + 1):
        x = ratio * n
        if x < 690.0:
            if phi(params.dim, x) >= 0.5 * math.exp(x):
                return n
        else:
            return n  # the subtracted polynomial is negligible out here
    raise DomainError("no half-exponential threshold found below the cap")


def weight_decay_threshold(params: ProblemParams) -> int:
    """Smallest n with n * weight_norm <= twice its large-n limit."""
    bound = 2.0 * weight_norm_limit(params)
    for n in range(1, _THRESHOLD_CAP + 1):
        if n * weight_norm_closed_form(n, params) <= bound:
            return n
    raise DomainError("no weight-decay threshold found below the cap")


def asymptotic_lower_scan(params: ProblemParams, alpha_grid) -> ScanTable:
    """Near-critical lower-bound products over a grid of subcritical alphas.

    For each alpha the scan picks n = ceil(1/(1 - alpha/crit)), forms the
    ratio plateau_lower_bound(n) / weight_norm^((N-beta)/(N-gamma)) and
    multiplies by (1 - (alpha/crit)^(N-1))^((N-beta)/(N-gamma)).  The products
    stay bounded below by a positive constant as alpha approaches critical;
    rows with n below the validity thresholds are flagged, not rejected.
    ``params.alpha`` is ignored in favor of the grid.
    """
    crit = critical_alpha_beta(params)
    nd, b, g = params.dim, params.beta, params.gamma
    theta = (nd - b) / (nd - g)
    table = ScanTable(
        columns=("alpha", "n", "ratio", "product", "flags"),
        comments=[
            "near-critical lower-bound scan over the concentrating family",
            f"dim={nd} beta={b} gamma={g} critical={crit!r}",
            "ratio: plateau lower bound / weight_norm^((N-beta)/(N-gamma))",
            "product: ratio * (1 - (alpha/crit)^(N-1))^((N-beta)/(N-gamma))",
            "flags: below-window when n < max(half-exp, weight-decay thresholds)",
        ])
    # the weight-decay threshold reads N, beta and gamma only, not alpha
    decay = weight_decay_threshold(params)
    for alpha in sorted(alpha_grid):
        if not alpha < crit:
            raise DomainError(f"grid alpha {alpha} is not strictly below critical {crit}")
        point = replace(params, alpha=float(alpha))
        n = select_index(alpha, crit)
        w = weight_norm_closed_form(n, point)
        log_ratio = plateau_lower_bound(n, point, w).log - theta * math.log(w)
        ratio_val = LogValue(log_ratio).value
        product = LogValue(
            log_ratio + theta * math.log1p(-(alpha / crit) ** (nd - 1))).value
        window_lo = max(half_exponential_threshold(point), decay)
        flags = "" if n >= window_lo else "below-window"
        table.append(float(alpha), n, ratio_val, product, flags)
    return table
