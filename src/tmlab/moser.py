"""Closed-form concentrating sequences and their norms and lower bounds.

The n-th element is the log-cone, in t = log r

    u_n = A_n b_n            for t <= -b_n
    u_n = -A_n t             on [-b_n, 0]
    u_n = 0                  for t >= 0

with A_n = sphere_area^(-1/N) (n/(N-beta))^(-1/N) and b_n = n/(N-beta), chosen
so that (A_n b_n)^(N/(N-1)) = n / critical_alpha_beta and the gradient norm
power is exactly 1.  Profiles are stored in t, so an element can be built
however far its plateau radius e^-b_n lies below the smallest double; only an
index whose depth overflows the closed forms is refused.  The weighted L^N
norm power has the closed form I + II with an incomplete-gamma tail, which
the quadrature route must reproduce; the plateau piece of the exponential
functional gives a rigorous lower bound that diverges above the critical
coefficient and powers the near-critical scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .core import (LogValue, ProblemParams, critical_alpha_beta, log_phi,
                   lower_incomplete_gamma, phi, sphere_area)
from .errors import DomainError
from .profiles import RadialProfile
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


def _constants(n: int, params: ProblemParams):
    if n < 1 or not isinstance(n, int):
        raise DomainError(f"index must be a positive integer, got {n!r}")
    nd = params.dim
    # the closed forms take (N-gamma) b_n and b_n^(N-1) = omega (A_n b_n)^N
    try:
        b_n = n / (nd - params.beta)
        finite = (math.isfinite((nd - params.gamma) * b_n)
                  and math.isfinite(b_n ** (nd - 1)))
    except OverflowError:
        finite = False
    if not finite:
        raise DomainError(
            f"index n={n} is too large for N={nd}, beta={params.beta}, "
            f"gamma={params.gamma}: the depth n/(N-beta) overflows the "
            "element's closed forms in double precision")
    a_n = (1.0 / sphere_area(nd)) ** (1.0 / nd) * b_n ** (-1.0 / nd)
    return a_n, b_n


def build(n: int, params: ProblemParams) -> MoserElement:
    """The n-th element, un-normalized: the cone on t = log r in [-b_n, 0]."""
    a_n, b_n = _constants(n, params)
    w = weight_norm_closed_form(n, params)
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
    """
    a_n, b_n = _constants(n, params)
    nd, g = params.dim, params.gamma
    omega = sphere_area(nd)
    c = nd - g
    term_i = omega * (a_n * b_n) ** nd * math.exp(-c * b_n) / c
    term_ii = ((nd - params.beta) / n) * c ** (-(nd + 1.0)) \
        * lower_incomplete_gamma(nd + 1.0, c * b_n)
    return term_i + term_ii


def weight_norm_limit(params: ProblemParams) -> float:
    """Limit of n * weight_norm_closed_form(n) as n grows."""
    nd = params.dim
    return (nd - params.beta) * math.gamma(nd + 1.0) / (nd - params.gamma) ** (nd + 1.0)


def _lam_from_weight(w: float, params: ProblemParams) -> float:
    """Normalization lambda_n with lambda^N (1 + w) = 1, w the weight norm power."""
    return (1.0 + w) ** (-1.0 / params.dim)


def normalized(n: int, params: ProblemParams) -> MoserElement:
    """The n-th element scaled by lambda_n: full norm power exactly 1."""
    elem = build(n, params)
    return replace(elem, profile=elem.profile.scaled(elem.lam), normalized=True)


def plateau_lower_bound(n: int, params: ProblemParams,
                        weight_pow: float | None = None) -> LogValue:
    """Exact plateau piece of the functional of the normalized element.

    (omega/(N-beta)) e^-n Phi_N((n alpha / alpha_crit) lambda_n^(N/(N-1))):
    a rigorous lower bound for the whole functional, valid for every alpha
    including the supercritical range where it diverges with n.  A caller
    that has weight_norm_closed_form(n, params) passes it as weight_pow.
    """
    nd = params.dim
    crit = critical_alpha_beta(params)
    if weight_pow is None:
        weight_pow = weight_norm_closed_form(n, params)
    lam_n = _lam_from_weight(weight_pow, params)
    arg = (n * params.alpha / crit) * lam_n ** params.exponent
    log_val = (math.log(sphere_area(nd) / (nd - params.beta)) - n
               + log_phi(nd, arg))
    return LogValue(log_val)


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
        window_lo = max(half_exponential_threshold(point),
                        weight_decay_threshold(point))
        flags = "" if n >= window_lo else "below-window"
        table.append(float(alpha), n, ratio_val, product, flags)
    return table
