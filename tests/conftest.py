"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's own quadrature: profiles are
re-evaluated from their stored nodes with plain interpolation and integrated
with scipy's QUADPACK wrapper, so agreement is a genuine two-route check.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from tmlab import (ProblemParams, functional, functional_gradient,
                   grad_norm_pow, norms_gradient, sphere_area, weighted_lp_pow)
from tmlab.profiles import random_profile  # noqa: F401  (the tests import it from here)

# Parameter matrix used throughout: (dim, beta, gamma).
MATRIX = [
    (2, 0.0, 0.0),
    (2, 1.0, 0.5),
    (2, 1.0, 1.0),
    (3, 1.0, 0.5),
    (3, 0.0, -1.0),
    (4, 2.0, 1.0),
]


def make_params(cell, alpha=None, alpha_ratio=None):
    dim, beta, gamma = cell
    if alpha is None:
        from tmlab import critical_alpha

        crit = (dim - beta) / dim * critical_alpha(dim)
        alpha = crit * (alpha_ratio if alpha_ratio is not None else 0.5)
    return ProblemParams(dim=dim, alpha=alpha, beta=beta, gamma=gamma)


@pytest.fixture(params=MATRIX, ids=lambda c: f"N{c[0]}_b{c[1]}_g{c[2]}")
def cell(request):
    return request.param


def eval_profile(profile, r):
    """Independent pointwise evaluation used by the oracles."""
    r = np.asarray(r, dtype=float)
    t = np.log(np.where(r > 0, r, 1.0))
    out = np.interp(t, np.log(profile.radii), profile.values,
                    left=profile.values[0], right=0.0)
    out = np.where(r <= profile.radii[0], profile.values[0], out)
    out = np.where(r >= profile.radii[-1], 0.0, out)
    return out


def oracle_weighted_lp(profile, p, delta, params, tol=1e-12):
    """Brute-force scipy quadrature of omega * int u^p r^(N-1-delta) dr."""
    n = params.dim

    def f(r):
        return float(eval_profile(profile, r)) ** p * r ** (n - 1 - delta)

    total = 0.0
    pts = [0.0] + list(profile.radii)
    for a, b in zip(pts[:-1], pts[1:]):
        val, _ = quad(f, a, b, epsabs=0.0, epsrel=tol, limit=300)
        total += val
    return sphere_area(params.dim) * total


def oracle_functional(profile, params, tol=1e-12):
    """Brute-force scipy quadrature of the exponential functional."""
    from tmlab import phi

    n, alpha, beta = params.dim, params.alpha, params.beta
    q = n / (n - 1)

    def f(r):
        return phi(n, alpha * float(eval_profile(profile, r)) ** q) * r ** (n - 1 - beta)

    total = 0.0
    pts = [0.0] + list(profile.radii)
    for a, b in zip(pts[:-1], pts[1:]):
        val, _ = quad(f, a, b, epsabs=0.0, epsrel=tol, limit=300)
        total += val
    return sphere_area(params.dim) * total


def finite_difference_gradient(fn, profile, rel_step=1e-6):
    """Central finite differences of fn(profile) over all interior node values.

    The last node is pinned at zero by the representation, so its entry is
    returned as NaN and excluded from comparisons.
    """
    base = profile.values.copy()
    grad = np.full(base.size, np.nan)
    for i in range(base.size - 1):
        h = rel_step * max(abs(base[i]), 1.0)
        up, dn = base.copy(), base.copy()
        up[i] += h
        dn[i] = max(dn[i] - h, 0.0)
        actual = up[i] - dn[i]
        grad[i] = (fn(profile.with_values(up)) - fn(profile.with_values(dn))) / actual
    return grad


def gradient_rel_error(analytic, fd):
    """Worst per-component relative error, floored at 1e-3 of the gradient scale.

    Components far below the gradient's own scale cannot be resolved by finite
    differences of the total (their contribution drowns in quadrature noise),
    so they are judged against that scale instead.
    """
    mask = ~np.isnan(fd)
    a, f = np.asarray(analytic)[mask], np.asarray(fd)[mask]
    scale = max(np.abs(f).max(initial=0.0), np.abs(a).max(initial=0.0), 1e-300)
    denom = np.maximum(np.maximum(np.abs(f), np.abs(a)), 1e-3 * scale)
    return float((np.abs(a - f) / denom).max(initial=0.0))


def worst_gradient_error(params, profile):
    """Worst gradient_rel_error of the three analytic node gradients.

    The gradients of the functional and of both norm powers are compared with
    finite_difference_gradient of the values.  A gradient whose analytic and
    difference forms both stay at or below 1e-7 is skipped: at that precision
    there is nothing to resolve.
    """
    d_grad, d_weight = norms_gradient(profile, params)
    targets = [
        (functional_gradient(profile, params), lambda p: functional(p, params)),
        (d_grad, lambda p: grad_norm_pow(p, params)),
        (d_weight, lambda p: weighted_lp_pow(p, params.dim, params.gamma,
                                             params)),
    ]
    worst = 0.0
    for analytic, fn in targets:
        fd = finite_difference_gradient(fn, profile)
        mask = ~np.isnan(fd)
        if max(np.abs(fd[mask]).max(initial=0.0),
               np.abs(analytic[mask]).max(initial=0.0)) <= 1e-7:
            continue
        worst = max(worst, gradient_rel_error(analytic, fd))
    return worst


def assert_rel_close(a, b, tol, msg=""):
    scale = max(abs(a), abs(b), 1e-300)
    assert abs(a - b) / scale < tol, f"{msg}: {a} vs {b} (rel {abs(a - b) / scale:.3e})"


def mp_segment_functional(t0, t1, u0, u1, alpha, c, dps=50):
    """50-digit (J, left row, right row) of the N = 2 functional on one segment.

    u is affine in t from u0 to u1 on [t0, t1]; J is int (e^(alpha u^2) - 1)
    e^(c t) dt and the rows are int 2 alpha u e^(alpha u^2 + c t) times the
    hat weights (t1 - t)/dt and (t - t0)/dt.  The inputs are taken exactly.
    With w = (t - t0)/dt the exponent is E0 + B w + C w^2; for C > 0 every
    integral is a polynomial in Y = (B + 2 C w)/(2 sqrt C) times e^(Y^2),
    whose antiderivatives are e^(Y^2) times a polynomial plus a multiple of
    F(Y) = (sqrt(pi)/2) erfi(Y); for C = 0, of e^(B w) times a polynomial.
    The end values are differenced with dps + 150 digits, so that the
    cancellation of nearly flat segments and of alpha u^2 -> 0 costs
    none of the dps digits of the result.
    """
    import mpmath as mp

    with mp.workdps(dps + 150):
        t0, t1, u0, u1, alpha, c = (mp.mpf(float(x)) for x in (t0, t1, u0, u1, alpha, c))
        dt, du = t1 - t0, u1 - u0
        z = c * dt
        e0 = alpha * u0 ** 2 + c * t0
        b = 2 * alpha * u0 * du + z
        cq = alpha * du ** 2
        ramp = (mp.exp(c * t1) - mp.exp(c * t0)) / c

        def moments():
            """int_0^1 w^k e^(E0 + B w + C w^2) dw for k = 0, 1, 2."""
            if cq == 0:
                # [e^(B w) (w^k/B - k w^(k-1)/B^2 + k(k-1) w^(k-2)/B^3)]
                e1 = mp.exp(e0 + b)
                m0 = (e1 - mp.exp(e0)) / b
                m1 = e1 / b - m0 / b
                m2 = e1 / b - 2 * m1 / b
                return m0, m1, m2
            r = mp.sqrt(cq)
            y0, y1 = b / (2 * r), (b + 2 * cq) / (2 * r)
            k = e0 - y0 ** 2  # E = Y^2 + k

            def prims(y):
                f = mp.sqrt(mp.pi) / 2 * mp.erfi(y)
                g = mp.exp(y ** 2)
                return f, g / 2, (y * g - f) / 2  # of e^(Y^2), Y e^(Y^2), Y^2 e^(Y^2)

            p = [q1 - q0 for q0, q1 in zip(prims(y0), prims(y1))]
            # w = (Y - y0)/r
            m0 = p[0] / r
            m1 = (p[1] - y0 * p[0]) / r ** 2
            m2 = (p[2] - 2 * y0 * p[1] + y0 ** 2 * p[0]) / r ** 3
            return tuple(mp.exp(k) * m for m in (m0, m1, m2))

        m0, m1, m2 = moments()
        j = dt * m0 - ramp
        # 2 alpha u w^k = 2 alpha (u0 w^k + du w^(k+1))
        left = 2 * alpha * dt * (u0 * (m0 - m1) + du * (m1 - m2))
        right = 2 * alpha * dt * (u0 * m1 + du * m2)
    with mp.workdps(dps):
        return +j, +left, +right
