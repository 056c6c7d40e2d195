"""Adaptive Gauss-Kronrod quadrature, batched over many intervals at once.

The radial integrals are sums over profile segments of smooth integrands in the
log-radius variable, so the natural unit of work is "integrate f over m
intervals simultaneously".  Interval i starts as c_i = ceil(width / _INIT_WIDTH)
equal panels (at most ``_MAX_INIT_PANELS``), laid out for all intervals at once
with np.linspace's arithmetic.  Every round evaluates all new panels in one
vectorized call, sums the panels of each interval with one bincount, compares
the embedded 7-point Gauss estimate against the 15-point Kronrod estimate, and
bisects the panels of intervals that have not met their relative tolerance.
A round thus costs a fixed number of numpy operations, whatever m is.
Each interval is refined on its own: whether it is split, and which of its
panels are, depends on its own tolerance and panels alone, and its panels
are summed in their own order.  So an interval's integral is the same bit
for bit whether it is integrated alone or among any other intervals, which
lets callers batch unrelated integrals into one call.
Subdivision is capped at ``_MAX_PANELS`` panels per interval, which sets the
``converged`` flag False and warns once instead of raising.
"""

from __future__ import annotations

import warnings

import numpy as np

# 15-point Kronrod extension of the 7-point Gauss-Legendre rule
# (node, Gauss weight, Kronrod weight); Gauss weight 0 marks Kronrod-only nodes.
_GK15 = np.array([
    (+0.949107912342759, 0.129484966168870, 0.063092092629979),
    (-0.949107912342759, 0.129484966168870, 0.063092092629979),
    (+0.741531185599394, 0.279705391489277, 0.140653259715525),
    (-0.741531185599394, 0.279705391489277, 0.140653259715525),
    (+0.405845151377397, 0.381830050505119, 0.190350578064785),
    (-0.405845151377397, 0.381830050505119, 0.190350578064785),
    (0.000000000000000, 0.417959183673469, 0.209482141084728),
    (+0.991455371120813, 0.000000000000000, 0.022935322010529),
    (-0.991455371120813, 0.000000000000000, 0.022935322010529),
    (+0.864864423359769, 0.000000000000000, 0.104790010322250),
    (-0.864864423359769, 0.000000000000000, 0.104790010322250),
    (+0.586087235467691, 0.000000000000000, 0.169004726639267),
    (-0.586087235467691, 0.000000000000000, 0.169004726639267),
    (+0.207784955007898, 0.000000000000000, 0.204432940075298),
    (-0.207784955007898, 0.000000000000000, 0.204432940075298),
])
_NODES = _GK15[:, 0]
_W_GAUSS = _GK15[:, 1]
_W_KRONROD = _GK15[:, 2]

_ABS_FLOOR = 1e-300
_MAX_ROUNDS = 64
_MAX_PANELS = 4096
_INIT_WIDTH = 2.0
_MAX_INIT_PANELS = 64


def _eval_panels(f, seg, left, right):
    """Gauss and Kronrod estimates plus |K - G| error for a batch of panels.

    f(t, seg) must return shape (k, n) (or (n,), promoted to one component).
    """
    half = 0.5 * (right - left)
    mid = 0.5 * (right + left)
    pts = mid[:, None] + half[:, None] * _NODES[None, :]
    n_panels = left.size
    vals = f(pts.ravel(), np.repeat(seg, _NODES.size))
    vals = np.asarray(vals, dtype=float)
    if vals.ndim == 1:
        vals = vals[None, :]
    vals = vals.reshape(vals.shape[0], n_panels, _NODES.size)
    i_kron = (vals * _W_KRONROD).sum(axis=-1) * half
    i_gauss = (vals * _W_GAUSS).sum(axis=-1) * half
    return i_kron, np.abs(i_kron - i_gauss)


def integrate_segments(f, lefts, rights, rel_tol=1e-10):
    """Integrate a (possibly multi-component) integrand over m intervals.

    f          -- callable f(t, seg_idx) -> (k, n) array; t is a flat array of
                  evaluation points and seg_idx the interval each belongs to
    lefts      -- (m,) left endpoints
    rights     -- (m,) right endpoints, strictly greater than lefts
    rel_tol    -- per-interval, per-component relative error target

    Returns (integrals (k, m), error_estimates (k, m), converged (m,) bool).
    """
    lefts = np.atleast_1d(np.asarray(lefts, dtype=float))
    rights = np.atleast_1d(np.asarray(rights, dtype=float))
    m = lefts.size
    if m == 0:
        return np.zeros((1, 0)), np.zeros((1, 0)), np.ones(0, dtype=bool)
    if np.any(rights <= lefts):
        raise ValueError("every interval needs right > left")

    # clipped before the cast: a width past 2^63 panels has no int value
    counts = np.clip(np.ceil((rights - lefts) / _INIT_WIDTH),
                     1, _MAX_INIT_PANELS).astype(int)
    seg = np.repeat(np.arange(m), counts)
    # panel j of interval i spans [j*h_i + l_i, (j+1)*h_i + l_i], h_i = width/c_i,
    # and the last right edge is r_i itself: np.linspace's own arithmetic
    ends = np.cumsum(counts)
    j = np.arange(seg.size) - np.repeat(ends - counts, counts)
    step = ((rights - lefts) / counts)[seg]
    pa = j * step + lefts[seg]
    pb = (j + 1) * step + lefts[seg]
    pb[ends - 1] = rights
    ivals, errs = _eval_panels(f, seg, pa, pb)
    k = ivals.shape[0]
    row_offsets = np.arange(3 * k)[:, None] * m
    capped = np.zeros(m, dtype=bool)

    for rnd in range(_MAX_ROUNDS + 1):  # the last pass only sums
        n_panels = np.bincount(seg, minlength=m)
        # one bincount over row*m + seg sums the k integral, k error and k
        # |integral| rows of every interval, each bin in panel order; the L1
        # panel magnitude is the scale, so cancelling integrals still converge
        weights = np.concatenate([ivals, errs, np.abs(ivals)]).ravel()
        sums = np.bincount((row_offsets + seg).ravel(), weights,
                           minlength=3 * k * m)
        i_seg, e_seg, a_seg = sums.reshape(3, k, m)
        tol_seg = rel_tol * np.maximum(a_seg, _ABS_FLOOR)
        bad = np.any(e_seg > tol_seg, axis=0)
        seg_bad = bad & ~capped
        newly_capped = seg_bad & (n_panels >= _MAX_PANELS)
        capped |= newly_capped
        seg_bad &= ~newly_capped
        if not np.any(seg_bad) or rnd == _MAX_ROUNDS:
            break
        # split panels carrying more than their share of the segment budget
        share = tol_seg[:, seg] / (2.0 * n_panels[seg])
        # (a bad interval always has one: if every panel's error were within
        # its share, their sum would be within half the interval's tolerance)
        panel_bad = seg_bad[seg] & np.any(errs > share, axis=0)
        keep = ~panel_bad
        mid = 0.5 * (pa[panel_bad] + pb[panel_bad])
        child_seg = np.concatenate([seg[panel_bad], seg[panel_bad]])
        child_a = np.concatenate([pa[panel_bad], mid])
        child_b = np.concatenate([mid, pb[panel_bad]])
        child_i, child_e = _eval_panels(f, child_seg, child_a, child_b)
        seg = np.concatenate([seg[keep], child_seg])
        pa = np.concatenate([pa[keep], child_a])
        pb = np.concatenate([pb[keep], child_b])
        ivals = np.concatenate([ivals[:, keep], child_i], axis=1)
        errs = np.concatenate([errs[:, keep], child_e], axis=1)

    if np.any(bad):
        warnings.warn(
            f"quadrature hit the {_MAX_PANELS}-panel cap on "
            f"{int(np.sum(bad))} interval(s)", RuntimeWarning)
    return i_seg, e_seg, ~bad
