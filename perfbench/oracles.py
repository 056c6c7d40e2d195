"""Values computed apart from tmlab, for the benchmark's output checks.

Nothing here imports tmlab. A profile is taken as its stored nodes
(radii, values): u is constant on the plateau r <= r_0, affine in t = log r
between nodes and zero beyond the last node. Integrals are taken in t with
scipy's QUADPACK wrapper; closed forms use mpmath where cancellation or
underflow would cost digits in double precision.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import gammainc

_QUAD_REL = 1e-13
_PANEL = 1.0        # widest t-panel handed to one quad call
_NEGLIGIBLE = 60.0  # panels whose log bound sits this far below the peak are skipped


def sphere_area(n: int) -> float:
    return 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)


def critical_alpha(n: int, beta: float) -> float:
    """alpha_{N,beta} = (N - beta) * omega^(1/(N-1))."""
    return (n - beta) * sphere_area(n) ** (1.0 / (n - 1))


def g_factor(ratio: float, n: int, beta: float, gamma: float) -> float:
    """((1 - r^(N-1)) / r^(N-1))^((N-beta)/(N-gamma)) with r = alpha/critical."""
    rn = ratio ** (n - 1)
    return ((1.0 - rn) / rn) ** ((n - beta) / (n - gamma))


def log_phi(n: int, y: float) -> float:
    """log Phi_N(y) = y + log P(N-1, y), P the regularized lower incomplete gamma.

    sum_{j >= N-1} y^j/j! = e^y P(N-1, y) term by term, so no Taylor
    polynomial is subtracted and nothing cancels for small y.
    """
    if y <= 0.0:
        return -math.inf
    return y + math.log(gammainc(n - 1, y))


def grad_pow(radii, values, n: int) -> float:
    """omega * sum |du|^N / dt^(N-1): the exact gradient norm power."""
    t = np.log(np.asarray(radii, dtype=float))
    du = np.diff(np.asarray(values, dtype=float))
    return sphere_area(n) * float(np.sum(np.abs(du) ** n / np.diff(t) ** (n - 1)))


def _segments(radii, values):
    t = np.log(np.asarray(radii, dtype=float))
    u = np.asarray(values, dtype=float)
    for i in range(t.size - 1):
        if u[i] > 0.0 or u[i + 1] > 0.0:
            yield float(t[i]), float(t[i + 1]), float(u[i]), float(u[i + 1])


def _panels(tl, tr):
    count = max(1, math.ceil((tr - tl) / _PANEL))
    edges = np.linspace(tl, tr, count + 1)
    return zip(edges[:-1], edges[1:])


def weighted_lp_pow(radii, values, p: float, delta: float, n: int) -> float:
    """omega * int_0^inf u^p r^(N-1-delta) dr, plateau exact, segments by quad."""
    c = n - delta
    t0 = math.log(radii[0])
    total = values[0] ** p * math.exp(c * t0) / c
    for tl, tr, ul, ur in _segments(radii, values):
        slope = (ur - ul) / (tr - tl)
        for a, b in _panels(tl, tr):
            def f(x, a=a):
                return max(ul + slope * (x - tl), 0.0) ** p * math.exp(c * (x - a))
            val, _ = quad(f, a, b, epsabs=0.0, epsrel=_QUAD_REL, limit=200)
            total += val * math.exp(c * a)
    return sphere_area(n) * total


def functional_log(radii, values, n: int, alpha: float, beta: float) -> float:
    """log of omega * int_0^inf Phi_N(alpha u^(N/(N-1))) r^(N-1-beta) dr.

    Each panel is integrated after factoring out the peak of the bound
    alpha u^q + c t >= log integrand, which is convex in t, so its maximum
    on a panel sits at an endpoint; panels far below the peak are dropped.
    """
    q = n / (n - 1.0)
    c = n - beta
    logs = []
    t0 = math.log(radii[0])
    if values[0] > 0.0:
        logs.append(math.log(sphere_area(n) / c) + c * t0
                    + log_phi(n, alpha * values[0] ** q))
    pieces = []
    for tl, tr, ul, ur in _segments(radii, values):
        slope = (ur - ul) / (tr - tl)
        for a, b in _panels(tl, tr):
            bound = max(alpha * max(ul + slope * (a - tl), 0.0) ** q + c * a,
                        alpha * max(ul + slope * (b - tl), 0.0) ** q + c * b)
            pieces.append((a, b, tl, ul, slope, bound))
    if pieces:
        peak = max(p[-1] for p in pieces)
        if logs:
            peak = max(peak, logs[0])
        for a, b, tl, ul, slope, bound in pieces:
            if bound < peak - _NEGLIGIBLE:
                continue

            def f(x, tl=tl, ul=ul, slope=slope, shift=bound):
                u = max(ul + slope * (x - tl), 0.0)
                return math.exp(log_phi(n, alpha * u ** q) + c * x - shift)

            val, _ = quad(f, a, b, epsabs=0.0, epsrel=_QUAD_REL, limit=200)
            if val > 0.0:
                logs.append(bound + math.log(val) + math.log(sphere_area(n)))
    if not logs:
        return -math.inf
    top = max(logs)
    return top + math.log(sum(math.exp(v - top) for v in logs))


# --- the concentrating (Moser) family, from its definition -----------------

def moser_constants(k: int, n: int, beta: float):
    """A_k and b_k: plateau height A_k b_k, cone from r = e^-b_k to r = 1."""
    b = k / (n - beta)
    a = (sphere_area(n) * b) ** (-1.0 / n)
    return a, b


@lru_cache(maxsize=None)
def moser_weight(k: int, n: int, beta: float, gamma: float) -> float:
    """Weighted L^N norm power of the k-th element, by mpmath in 40 digits.

    Plateau omega (A b)^N e^(-c b)/c plus the cone, which the substitution
    rho = log(1/r) turns into omega A^N c^-(N+1) gamma_lower(N+1, c b).
    """
    with mpmath.workdps(40):
        c = mpmath.mpf(n) - mpmath.mpf(gamma)
        b = mpmath.mpf(k) / (mpmath.mpf(n) - mpmath.mpf(beta))
        omega = 2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2)
        a_pow = 1 / (omega * b)          # A^N
        plateau = omega * a_pow * b ** n * mpmath.exp(-c * b) / c
        cone = omega * a_pow * c ** (-(n + 1)) * mpmath.gammainc(n + 1, 0, c * b)
        return float(plateau + cone)


def moser_weight_limit(n: int, beta: float, gamma: float) -> float:
    """lim k * weight_k = (N - beta) Gamma(N+1) / (N - gamma)^(N+1)."""
    return (n - beta) * math.gamma(n + 1.0) / (n - gamma) ** (n + 1.0)


def moser_lam(k: int, n: int, beta: float, gamma: float) -> float:
    """lambda_k with lambda^N (1 + weight_k) = 1 (gradient power is 1)."""
    return (1.0 + moser_weight(k, n, beta, gamma)) ** (-1.0 / n)


def moser_profile(k: int, n: int, beta: float, gamma: float):
    """Nodes of the normalized k-th element: full norm power exactly 1."""
    a, b = moser_constants(k, n, beta)
    lam = moser_lam(k, n, beta, gamma)
    return [math.exp(-b), 1.0], [lam * a * b, 0.0]


@lru_cache(maxsize=None)
def moser_functional_log(k: int, n: int, beta: float, gamma: float,
                         ratio: float) -> float:
    """log J of the normalized k-th element at alpha = ratio * critical."""
    radii, values = moser_profile(k, n, beta, gamma)
    return functional_log(radii, values, n, ratio * critical_alpha(n, beta), beta)


def plateau_lower_bound_log(k: int, n: int, beta: float, gamma: float,
                            ratio: float) -> float:
    """log of (omega/(N-beta)) e^-k Phi_N(k * ratio * lambda_k^(N/(N-1))).

    The plateau piece of J of the normalized element, in 40-digit mpmath.
    """
    lam = moser_lam(k, n, beta, gamma)
    with mpmath.workdps(40):
        y = mpmath.mpf(k) * mpmath.mpf(ratio) * mpmath.mpf(lam) ** (mpmath.mpf(n) / (n - 1))
        poly = mpmath.fsum(y ** j / mpmath.factorial(j) for j in range(n - 1))
        phi = mpmath.exp(y) - poly
        omega = 2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2)
        return float(mpmath.log(omega / (n - mpmath.mpf(beta))) - k + mpmath.log(phi))
