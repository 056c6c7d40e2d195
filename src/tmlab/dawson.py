"""Dawson's function and the closed-form N = 2 functional on log-affine segments.

On a segment of a profile, u is affine in t and Phi_2(x) = e^x - 1.  In the
segment variable w = (t - t0)/dt in [0, 1] the exponent of the integrand
e^(alpha u^2 + c t) is the quadratic

    E(w) = E0 + B w + C w^2,   B = 2 alpha u0 du + c dt,   C = alpha du^2,

of slope lam(w) = B + 2 C w.  Completing the square, y = lam/(2 sqrt C) and
E = y^2 + const, so every integral of a quadratic in w times e^E is a
difference of end values of Dawson's function D(y) = e^(-y^2) int_0^y
e^(x^2) dx and of the anchored moments

    S_1(y) = e^(-y^2) int_0^y (x - y) e^(x^2) dx,
    S_2(y) = e^(-y^2) int_0^y (x - y)^2 e^(x^2) dx,

each computed as a function of its own, so that no end value is the
difference of two larger ones.  With P0 = D/sqrt C, P1 = S_1/C and
P2 = S_2/C^(3/2) at each end, and e0, e1 the end values of e^E, the
Bernstein moments M_ab = int_0^1 (1-w)^a w^b e^E dw are

    M_00 = e1 P0(1) - e0 P0(0)
    M_02 = e1 (P0 + 2 P1 + P2)(1) - e0 P2(0)
    M_11 = e0 (P2 - P1)(0) - e1 (P1 + P2)(1)
    M_20 = e0 (2 P1 - P0 - P2)(0) + e1 P2(1)

and the node gradient's integrands 2 alpha u (1-w) and 2 alpha u w are
positive combinations of the last three.  From |y| = Y_BIG on, the end
functions are series in v = 1/(2 y^2) = 2 C/lam^2: P0 = (1 + v g1(v))/lam,
P1 = -g1(v)/lam^2 and P2 = g2(v)/lam^3, regular as C -> 0, so a flat
segment takes the same formulas.  Below Y_BIG, D, S_1 and S_2 come from
piecewise polynomial fits (_dawson_table, made by
tools/dawson_coefficients.py).

Two regimes cancel.  Where the exponent changes by at most _SMALL_RANGE
over a segment, |B| + C <= _SMALL_RANGE, the end values are close and their
difference loses digits; there the integrands are entire with small Taylor
coefficients, and a fixed Gauss-Legendre sum is exact for their Taylor
polynomial to far past rounding (no adaptivity, no error estimate needed).
And where alpha u^2 is small, the functional's "-1", int e^(c t) dw, cancels
against e^E: it is taken out pointwise in that sum, and end by end on
longer segments (c dt >= 1), as on the tail of a deep concentrating element.
"""

from __future__ import annotations

import math

import numpy as np

from ._dawson_table import COEFFICIENTS, H, Y_BIG

_TABLE = np.array(COEFFICIENTS).transpose(2, 0, 1)  # (power, interval, f)
# the asymptotic series take over at v = 1/(2 y^2) <= _V_BIG, where
# _ASYMPTOTIC_TERMS terms reach rounding
_V_BIG = 0.5 / Y_BIG ** 2
_ASYMPTOTIC_TERMS = 18
# g1 = sum (2k+1)!! v^k and g2 = sum (2k+2) (2k+1)!! v^k, highest power first
_ODD = np.array([math.prod(range(1, 2 * k + 2, 2))
                 for k in range(_ASYMPTOTIC_TERMS)], dtype=float)
_G = np.stack([_ODD, (2.0 * np.arange(_ASYMPTOTIC_TERMS) + 2.0) * _ODD])[:, ::-1]
# where the exponent changes by at most _SMALL_RANGE over a segment,
# |B| + C <= _SMALL_RANGE, the integrands are entire, and the 14-point
# Gauss-Legendre sum is exact for their Taylor polynomials of degree 27:
# the terms left out, from C^14/14! w^28 on, are below 1e-7 of the first,
# and the rule's error on w^28 is 2e-17
_SMALL_RANGE = 2.0
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(14)
_W = 0.5 * (_NODES[:, None] + 1.0)
# the node weights of M_20, M_11, M_02 and M_00, shape (node, 4, 1)
_MW = 0.5 * _WEIGHTS[:, None, None] * np.stack(
    [(1.0 - _W) ** 2, _W * (1.0 - _W), _W * _W, np.ones_like(_W)], axis=1)


def _reduced(a):
    """D/a, S_1/a^2 and S_2/a^3 at 0 <= a < Y_BIG, shape (3, n)."""
    k = np.minimum((a * (1.0 / H)).astype(int), _TABLE.shape[1] - 1)
    s = 2.0 * (a * (1.0 / H) - k) - 1.0
    rows = _TABLE[:, k]  # (power, n, f)
    out = rows[0] * s[:, None]
    for c in rows[1:-1]:
        out += c
        out *= s[:, None]
    out += rows[-1]
    return out.T


def dawson(y):
    """Dawson's function D(y) = e^(-y^2) int_0^y e^(x^2) dx, elementwise."""
    y = np.asarray(y, dtype=float)
    a = np.abs(y).ravel()
    near = a < Y_BIG
    out = np.empty_like(a)
    out[near] = a[near] * _reduced(a[near])[0]
    far = a[~near]
    with np.errstate(over="ignore"):
        v = 0.5 / far / far
    out[~near] = (1.0 + v * np.polyval(_G[0], v)) * (0.5 / far)
    out = np.copysign(out, y.ravel()).reshape(y.shape)
    return float(out) if out.ndim == 0 else out


def _ends(lam, cq):
    """P0, P1, P2 (stacked on a first axis) and G1 = lam P0 - 1 at segment
    ends of slope lam and curvature cq, and v = 2 cq/lam^2."""
    cq = cq + 0.0 * lam
    v = 2.0 * cq / (lam * lam)
    far = v <= _V_BIG
    p = np.empty((3,) + lam.shape)
    gap = np.empty(lam.shape)
    if far.any():
        inv, w = 1.0 / lam[far], v[far]
        g = np.zeros((2, w.size))
        for c in _G.T:
            g *= w
            g += c[:, None]
        gap[far] = w * g[0]
        p[:, far] = [(1.0 + gap[far]) * inv, -g[0] * inv * inv, g[1] * inv * inv * inv]
    near = ~far
    if near.any():
        c_near = cq[near]
        r = np.sqrt(c_near)
        y = lam[near] / (2.0 * r)
        a = np.abs(y)
        f = _reduced(a)
        s1 = a * a * f[1]
        p[:, near] = [np.copysign(a * f[0], y) / r, s1 / c_near,
                      np.copysign(a * a * a * f[2], y) / (r * c_near)]
        gap[near] = -2.0 * s1 - np.exp(-y * y)
    return p, gap, v


def _part(mask):
    """Index of the True entries of mask: a slice when they are all of it."""
    return slice(None) if mask.all() else np.flatnonzero(mask)


def segment_functional(t0, t1, u0, u1, alpha, c, gradient=False):
    """The N = 2 functional's integrals over log-affine segments, exact to rounding.

    On each segment u is affine in t from u0 >= 0 to u1 >= 0 on [t0, t1]
    (not both 0) and c = 2 - beta > 0.  Returns (shift, value), with
    int (e^(alpha u^2) - 1) e^(c t) dt = e^shift value; with gradient also
    (left, right), the integrals of 2 alpha u e^(alpha u^2 + c t) times the
    hat weights 1 - w and w, in units of e^shift.  shift is the larger end
    value of the exponent, which is convex in t.  Each segment's results are
    the same bit for bit among any others.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _segments(t0, t1, u0, u1, alpha, c, gradient)


def _segments(t0, t1, u0, u1, alpha, c, gradient):
    # end values stacked on axis 0: row 0 at t0, row 1 at t1
    u = np.concatenate([u0, u1]).reshape(2, -1)
    ct = c * np.concatenate([t0, t1]).reshape(2, -1)
    dt, du = t1 - t0, u1 - u0
    au = alpha * u
    x = au * u
    z = c * dt
    beta = 2.0 * du * au
    lam = beta + z  # E'(w) at the ends
    cq = alpha * du * du
    shift = np.maximum(x[0] + ct[0], x[1] + ct[1])
    f = np.exp(ct - shift)
    e = np.exp(x + ct - shift)
    # int_0^1 e^(c t) dw, from the end where it is largest
    ramp = f[1] * -np.expm1(-z) / z
    small = np.abs(lam[0]) + cq <= _SMALL_RANGE
    m = np.empty((4, dt.size))  # M_20, M_11, M_02, M_00
    value = np.empty(dt.size)

    if small.any():
        i = _part(small)
        w = u[0, i] + du[i] * _W
        # e^E at the nodes, and the integrand e^(c t) expm1(alpha u^2), used
        # where alpha u^2 < 1 on the segment and its "-1" would cancel
        at_nodes = np.concatenate(
            [np.exp(lam[0, i] * _W + cq[i] * (_W * _W))[:, None] * _MW,
             (f[1, i] * np.exp(z[i] * (_W - 1.0)) * np.expm1(alpha * w * w)
              )[:, None] * _MW[:, 3:]], axis=1)
        # the sums over the nodes run along axis 0 of a (node, 5, segment)
        # array, one node after another whatever the number of segments
        sums = np.add.reduce(at_nodes, axis=0)
        m[:, i] = e[0, i] * sums[:4]
        value[i] = np.where(np.maximum(x[0, i], x[1, i]) < 1.0, sums[4],
                            m[3, i] - ramp[i])

    if not small.all():
        i = _part(~small)
        p, gap, v = _ends(lam[:, i], cq[i])
        a0, a1, p0, p1 = e[0, i], e[1, i], p[:, 0], p[:, 1]
        m[:, i] = [a0 * (2.0 * p0[1] - p0[0] - p0[2]) + a1 * p1[2],
                   a0 * (p0[2] - p0[1]) - a1 * (p1[1] + p1[2]),
                   a1 * (p1[0] + 2.0 * p1[1] + p1[2]) - a0 * p0[2],
                   a1 * p1[0] - a0 * p0[0]]
        # the "-1" as a whole, or end by end where c dt >= 1: per end
        # e P0 - f/z, which is (e (1 - e^-x) + e G1 - f beta/z)/lam where
        # |y| >= 1, free of the cancellation of a small alpha u^2
        zi, ei, fi = z[i], e[:, i], f[:, i]
        per_end = np.where(v > 0.5, ei * p[0] - fi / zi,
                           (ei * (gap - np.expm1(-x[:, i])) - fi * beta[:, i] / zi)
                           / lam[:, i])
        value[i] = np.where(zi >= 1.0, per_end[1] - per_end[0], m[3, i] - ramp[i])

    value *= dt
    if not gradient:
        return shift, value
    scale = 2.0 * alpha * dt
    return (shift, value, scale * (u0 * m[0] + u1 * m[1]),
            scale * (u0 * m[1] + u1 * m[2]))
