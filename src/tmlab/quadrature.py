"""The N >= 3 functional on log-affine segments, by one fixed Gauss-Legendre pass.

On a segment of a profile, u is affine in t = log r from u0 to u1, and the
functional integrates f = Phi_N(x) e^(c t), x = alpha u^q, q = N/(N-1), with
the node-gradient rows alpha q Phi_(N-1)(x) u^(q-1) e^(c t) times the two
hat weights.  segment_functional cuts every segment into pieces worked out
in closed form from its end values, takes a 14-point Gauss-Legendre sum on
each piece and sums the pieces of each segment in order: no rounds, no error
estimate and no loop that depends on the data, so a call costs a fixed
number of numpy operations (a few more when a segment is long), and each
segment's integrals are the same bit for bit among any others.

The pieces.  On each piece x and c t change by at most _STEP, so the
log-integrand changes by at most 2 _STEP = 8, and the 14-point sum's error
on e^(8 w) over [0, 1], at most 8^29 (14!)^4 / (29 (28!)^3) or about 1e-20
of it, is far below rounding.  The pieces are equal in t, as many as
|dx/dt| at the high end of u (its largest value) and c ask for.  x = alpha
u^q has a branch point at u = 0, so the piece at the low end of u is graded
toward it: cut at u_1 g^k, k = 1.._GRADE_LEVELS, with g = _GRADE, down to
the low end.  Every other piece lies at least its own width from the branch
point.

Long segments.  A deep Moser cone is up to 10^15 long in t, and its
integrand lives within O(1) of its ends.  With E = x + c t, convex in t:
  - log f <= E, since Phi_N(x) <= e^x;
  - from the end where u is largest, log f falls at least as fast as E
    (Phi_N'/Phi_N >= 1), so f <= f_high e^(E - E_high);
  - toward larger u, log f rises by at most the rise of E plus
    N log(u'/u) (x Phi_N'/Phi_N <= N - 1 + x).
So a segment whose whole layout would take more than _DROP/_STEP pieces
keeps a window at its high end, past which E has fallen by _DROP: where u
rises to t1, E falls from t1 by at least the chord of x plus c tau; where u
falls from t0, by at least a quadratic in tau, whose root ends the window.
Where u falls toward t1, it also keeps a window at t1, past which E is
_DROP below what the integrand reaches near a point N/c from t1.  The part
between the windows is dropped when E there, at most its value at their
inner edges, is _DROP below both references; otherwise, and where the
windows would take more pieces than the whole, the segment is cut whole.
At rounding, e^-_DROP leaves room for factors of length and slope up to
about 10^19.

integrate_segments is adaptive Gauss-Kronrod quadrature of any integrand
over many intervals at once.  No tmlab code calls it: the tests keep it as a
reference, and perfbench/tracing.py looks it up by name.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .core import log_phi

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(14)
# the largest change of alpha u^q and of c t over one piece
_STEP = 4.0
# the pieces at a low end of u: ratio and number of cuts
_GRADE = 1.0 / 3.0
_GRADE_LEVELS = 4
# the fall of E past which a long segment's middle is dropped, and the
# extra fall the windows are laid out for, above E's rounding
_DROP = 80.0
_SLACK = 8.0
# stands in for u = 0 in the row factor x/u, which is 0 there
_TINY = 1e-300


def segment_functional(t0, t1, u0, u1, dim, alpha, c, gradient=False):
    """The N >= 3 functional's integrals over log-affine segments.

    On each segment u is affine in t from u0 >= 0 to u1 >= 0 on [t0, t1]
    (not both 0), N = dim >= 3, q = N/(N-1) and c = N - beta > 0.  Returns
    (shift, value), with int Phi_N(alpha u^q) e^(c t) dt = e^shift value;
    with gradient also (left, right), the integrals of alpha q Phi_(N-1)(alpha
    u^q) u^(q-1) e^(c t) times the hat weights 1 - w and w, in units of
    e^shift.  shift is the larger end value of alpha u^q + c t, which is
    convex in t.  Each segment's results are the same bit for bit among any
    others.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _segments(t0, t1, u0, u1, dim, alpha, c, gradient)


def _segments(t0, t1, u0, u1, n, alpha, c, gradient):
    q = n / (n - 1.0)
    dt = t1 - t0
    shift = np.maximum(alpha * u0 ** q + c * t0, alpha * u1 ** q + c * t1)
    seg, back, lo, hi = _pieces(t0, t1, u0, u1, n, alpha, c)
    # per piece: u, the exponent c t - shift and the other end's hat weight
    # are affine in the distance tau from the end the piece is laid from
    sign = np.where(back, -1.0, 1.0)
    u_a = np.where(back, u1[seg], u0[seg])
    e_a = c * np.where(back, t1[seg], t0[seg]) - shift[seg]
    du = sign * ((u1 - u0) / dt)[seg]
    half = 0.5 * (hi - lo)
    # (node, piece) arrays
    tau = 0.5 * (hi + lo) + half * _GL_NODES[:, None]
    u = np.maximum(u_a + du * tau, 0.0)
    e = e_a + (sign * c) * tau
    x = alpha * u ** q
    rows = [np.exp(log_phi(n, x) + e)]
    if gradient:
        # alpha q u^(q-1) Phi_(N-1)(x), Phi_(N-1) = Phi_N + x^(N-2)/(N-2)!
        g = (q * x / np.maximum(u, _TINY)) * (
            rows[0] + np.exp(e + (n - 2) * np.log(x) - math.lgamma(n - 1.0)))
        other = g * (tau / dt[seg])
        rows += [g - other, other]
    # the sums over the nodes run along axis 0, one node after another
    # whatever the number of pieces; then each segment's pieces in order
    sums = np.add.reduce(np.stack(rows, axis=1) * _GL_WEIGHTS[:, None, None],
                         axis=0) * half
    if gradient:  # (near end, other end) to (t0, t1)
        sums[1:] = np.where(back, sums[:0:-1], sums[1:])
    k, m = len(rows), t0.size
    out = np.bincount((np.arange(k)[:, None] * m + seg).ravel(), sums.ravel(),
                      minlength=k * m).reshape(k, m)
    return (shift, *out)


def _runs(counts):
    """(owner, position) of the entries of runs of the given lengths."""
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts,
                                                     counts)


def _pieces(t0, t1, u0, u1, n, alpha, c):
    """The pieces of every segment, (seg, back, lo, hi): piece j spans the
    distances [lo[j], hi[j]] from t1 of segment seg[j] where back[j], from
    its t0 otherwise.  Run A is laid from the high end of u and run B from
    the low end, whose first piece is graded; a segment cut whole has all its
    pieces but one in A."""
    q = n / (n - 1.0)
    dt = t1 - t0
    high_back = u1 >= u0  # the high end of u is t1 (on a flat segment too)
    u_hi, u_lo = np.maximum(u0, u1), np.minimum(u0, u1)
    rate = (u_hi - u_lo) / dt
    x_hi = alpha * u_hi ** q
    # |d(alpha u^q)/dt| is largest at the high end
    steep = np.maximum(q * x_hi * rate / u_hi, c)
    count = np.ceil(steep * dt / _STEP)
    n_a, n_b = count - 1.0, np.ones(count.size)
    w_a = w_b = dt / count
    long = np.flatnonzero(count > _DROP / _STEP)
    if long.size:
        w_a, w_b = w_a.copy(), w_b.copy()
        i, windows = _windows(long, t0, t1, u_hi, u_lo, x_hi, rate, steep,
                              high_back, count, n, alpha, c)
        n_a[i], n_b[i], w_a[i], w_b[i] = windows
    n_a, n_b = n_a.astype(int), n_b.astype(int)
    seg_a, j = _runs(n_a)
    lo_a = j * w_a[seg_a]
    seg_b, j = _runs(np.maximum(n_b - 1, 0))
    lo_b = (j + 1.0) * w_b[seg_b]
    # B's first piece, [0, w_b] from the low end, cut at u_1 g^k, u_1 its
    # inner end, down to the low end or _GRADE_LEVELS cuts
    u_1 = u_lo + rate * w_b
    cuts = np.clip(np.ceil(np.log(u_1 / u_lo) / -math.log(_GRADE)) - 1.0,
                   0, _GRADE_LEVELS).astype(int)
    seg_g, k = _runs(np.where(n_b > 0, cuts + 1, 0))
    u_k = u_1[seg_g] * _GRADE ** k
    hi_g = np.where(k == 0, w_b[seg_g], (u_k - u_lo[seg_g]) / rate[seg_g])
    lo_g = np.where(k == cuts[seg_g], 0.0,
                    (_GRADE * u_k - u_lo[seg_g]) / rate[seg_g])
    seg = np.concatenate([seg_a, seg_b, seg_g])
    back = np.concatenate([high_back[seg_a], ~high_back[seg_b],
                           ~high_back[seg_g]])
    lo = np.concatenate([lo_a, lo_b, lo_g])
    hi = np.concatenate([lo_a + w_a[seg_a], lo_b + w_b[seg_b], hi_g])
    return seg, back, lo, hi


def _windows(i, t0, t1, u_hi, u_lo, x_hi, rate, steep, high_back, count, n,
             alpha, c):
    """(kept, (n_a, n_b, w_a, w_b)) of the long segments i whose windows hold
    all but e^-_DROP of their integrals and take fewer pieces than the whole
    (see the module docstring)."""
    t0, t1, u_hi, u_lo, x_hi, rate, steep, high_back, count = (
        v[i] for v in (t0, t1, u_hi, u_lo, x_hi, rate, steep, high_back, count))
    q = n / (n - 1.0)
    dt = t1 - t0
    fall = _DROP + _SLACK
    # u rising to t1: from t1, E falls by c tau plus at least the chord of x
    rising = fall / (c + (x_hi - alpha * u_lo ** q) / dt)
    # u falling from t0: with tau0 the distance to u = 0 and rho = tau/tau0,
    # x = x_hi (1 - rho)^q <= x_hi e^(-q rho), so E falls by at least
    # b rho - a rho^2
    tau0 = u_hi / rate
    b = q * x_hi - c * tau0
    a = 0.5 * q * q * x_hi
    disc = b * b - 4.0 * a * fall
    high = np.where(high_back, rising,
                    np.where((b > 0.0) & (disc >= 0.0),
                             tau0 * 2.0 * fall / (b + np.sqrt(disc)), 0.0))
    # u falling to t1: the integrand reaches e^(c (t1 - ta)) f(a) e^-x_a, a
    # the point ta from t1; past the window, E is fall below that, less the
    # N log(u_hi/u_a) that log f can gain over E toward the high end
    ta = np.minimum(n / c, dt)
    u_a = u_lo + rate * ta
    lift = n * np.log(u_hi / u_a)
    guess = np.minimum(2.0 * (ta + (lift + fall) / c), dt)
    low = np.where(high_back, 0.0,
                   ta + (lift + fall + alpha * (u_lo + rate * guess) ** q) / c)
    # E at the windows' inner edges bounds it between them (E is convex)
    u_high, u_low = u_hi - rate * high, u_lo + rate * low
    edge = np.maximum(alpha * u_high ** q + c * np.where(high_back, t1 - high,
                                                         t0 + high),
                      np.where(high_back, -np.inf,
                               alpha * u_low ** q + c * (t1 - low)))
    ref = np.maximum(x_hi + c * np.where(high_back, t1, t0),
                     c * (t1 - ta) - lift)
    fuzz = 1e-14 * (x_hi + c * (np.abs(t0) + np.abs(t1)))  # E's rounding
    n_a = np.ceil(steep * high / _STEP)
    n_b = np.ceil(np.maximum(q * alpha * rate * u_low ** (q - 1.0), c) * low / _STEP)
    kept = ((high + low < dt) & (high_back | (edge <= ref - _DROP + fuzz))
            & (n_a + n_b < count))
    return i[kept], (n_a[kept], n_b[kept], (high / np.maximum(n_a, 1.0))[kept],
                     (low / np.maximum(n_b, 1.0))[kept])


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
