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
    finite_difference_gradient of the values, integrated at quadrature
    tolerance 1e-13.  A gradient whose analytic and difference forms both stay
    at or below 1e-7 is skipped: at that precision there is nothing to resolve.
    """
    tol = 1e-13
    d_grad, d_weight = norms_gradient(profile, params, rel_tol=tol)
    targets = [
        (functional_gradient(profile, params, rel_tol=tol),
         lambda p: functional(p, params, rel_tol=tol)),
        (d_grad, lambda p: grad_norm_pow(p, params)),
        (d_weight, lambda p: weighted_lp_pow(p, params.dim, params.gamma,
                                             params, rel_tol=tol)),
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
