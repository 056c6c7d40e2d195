"""The N >= 3 functional's fixed rule against 50-digit mpmath, and the
adaptive Gauss-Kronrod integrator the package keeps as a reference.

mp_rows integrates each segment's J and gradient rows with 24-point
Gauss-Legendre sums at 50 digits, on break points of its own: found by
sampling the log-integrand in double precision, spanning at most 2 between
break points over the part within 60 of its largest value, and halving toward an end where
u = 0.  It shares no layout with quadrature.segment_functional.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammainc

from conftest import MATRIX, make_params
from tmlab import quadrature
from tmlab.core import critical_alpha
from tmlab.moser import normalized
from tmlab.profiles import LiveSegments
from tmlab.quadrature import _NODES, integrate_segments, segment_functional

with mp.workdps(50):
    _GL24 = mp.calculus.quadrature.GaussLegendre(mp.mp).get_nodes(-1, 1, 4, mp.mp.prec)


def _breaks(t0, t1, u0, u1, n, alpha, c):
    """Break points over the part of [t0, t1] where the log-integrand is
    within 90 of its largest sampled value, at most 1 apart in it, and
    halving toward an end where u = 0: sampled in double precision."""
    dt = t1 - t0
    d = np.concatenate([np.geomspace(1e-9 * min(dt, 1.0), dt, 3000),
                        np.linspace(0.0, dt, 3001)])
    t = np.unique(np.clip(np.concatenate([t0 + d, t1 - d]), t0, t1))
    x = alpha * np.maximum(u0 + (u1 - u0) * ((t - t0) / dt), 0.0) ** (n / (n - 1.0))
    with np.errstate(divide="ignore"):
        logf = np.where(x > 0, x + np.log(gammainc(n - 1, x)) + c * t, -np.inf)
    live = np.flatnonzero(logf >= logf.max() - 60.0)
    a, b = max(live[0] - 1, 0), min(live[-1] + 1, t.size - 1)
    pts, low, high = [t[a]], logf[a], logf[a]
    for k in range(a + 1, b):
        low, high = min(low, logf[k]), max(high, logf[k])
        if high - low >= 2.0:
            pts.append(t[k])
            low = high = logf[k]
    pts.append(t[b])
    # halving from the far end of the live part down to an end where u = 0,
    # so that no piece is wider than its distance from the branch point
    for end, far, u in ((t0, pts[-1], u0), (t1, pts[0], u1)):
        if u == 0.0 and end in (pts[0], pts[-1]):
            pts += [end + (far - end) * 0.5 ** k for k in range(1, 60)]
    return sorted(set(pts))


def mp_rows(t0, t1, u0, u1, n, alpha, c, shift):
    pts = _breaks(t0, t1, u0, u1, n, alpha, c)
    with mp.workdps(50):
        t0, t1, u0, u1, alpha, c, shift = map(mp.mpf, (t0, t1, u0, u1, alpha, c, shift))
        q, dt = mp.mpf(n) / (n - 1), t1 - t0
        s = (u1 - u0) / dt
        tail = 1 / mp.factorial(n - 2)
        total = [mp.mpf(0)] * 3
        pts = [mp.mpf(p) for p in pts]
        for a, b in zip(pts[:-1], pts[1:]):
            half, mid = (b - a) / 2, (b + a) / 2
            for z, w in _GL24:
                t = mid + half * z
                u = u0 + s * (t - t0)
                if u <= 0:
                    continue
                x = alpha * u ** q
                # Phi_N = sum_(k >= N-1) x^k/k!, and Phi_(N-1) = Phi_N + x^(N-2)/(N-2)!
                if x > 8:
                    phi = mp.exp(x) - sum(x ** j / mp.factorial(j) for j in range(n - 1))
                else:
                    term = x ** (n - 1) / mp.factorial(n - 1)
                    phi, k = term, n - 1
                    while term > mp.mpf(10) ** -52 * phi:
                        k += 1
                        term *= x / k
                        phi += term
                e = mp.exp(c * t - shift)
                g = alpha * q * (phi + x ** (n - 2) * tail) * u ** (q - 1) * e * w * half
                r = (t - t0) / dt
                total[0] += phi * e * w * half
                total[1] += g * (1 - r)
                total[2] += g * r
        return total


def _segments(seed, n, alpha, c, per):
    """Seeded segments (t0, t1, u0, u1), per of each kind, whose exponent
    alpha u^q + c t stays below about 1000 where the integrand lives (its
    rounding, eps |E|, stays below 1e-12)."""
    rng = np.random.default_rng(seed)
    q = n / (n - 1.0)
    out = []

    def add(t0, dt, u0, u1):
        out.append((t0, t0 + dt, u0, max(u1, 0.0)))

    for _ in range(per):  # optimizer-like: short, nearly flat or steep
        u0 = rng.uniform(0.0, 2.5)
        add(rng.uniform(-18, 7), rng.uniform(0.05, 0.4), u0,
            u0 + rng.normal(0.0, 0.3))
    for _ in range(per):  # wide: dt up to 30, any values
        add(rng.uniform(-10, 10), 10 ** rng.uniform(-3, math.log10(30)),
            rng.uniform(0, 3) * rng.integers(0, 2), rng.uniform(0, 3))
    for _ in range(per):  # s -> 0: s = 0 exactly, and |s| down to 1e-12
        u0, dt = rng.uniform(1e-4, 2.5), rng.uniform(0.05, 30)
        s = 0.0 if _ % 2 else rng.choice([-1, 1]) * 10 ** rng.uniform(-12, -3)
        add(rng.uniform(-5, 5), dt, u0, u0 + s * dt)
    for _ in range(per):  # alpha u^q <= 1e-12 on the whole segment
        top = (1e-12 / alpha) ** (1.0 / q)
        add(rng.uniform(-5, 5), 10 ** rng.uniform(-2, math.log10(30)),
            rng.uniform(0, top), rng.uniform(0, top))
    for _ in range(per):  # to or from u = 0, the tail and the foot of a profile
        u, dt = 10 ** rng.uniform(-7, 0.5), 10 ** rng.uniform(-2, math.log10(30))
        add(rng.uniform(-5, 5), dt, *((u, 0.0) if _ % 2 else (0.0, u)))
    for _ in range(per):  # c dt up to 1e6, the end where e^(c t) peaks near 0
        dt = 10 ** rng.uniform(1, 6) / c
        u0, u1 = rng.uniform(0, 3) * rng.integers(0, 2), rng.uniform(0, 3)
        add(rng.uniform(-5, 5) - dt, dt, *((u1, u0) if _ % 2 else (u0, u1)))
    for _ in range(per):  # steep cones
        add(rng.uniform(-40, -1), rng.uniform(1, 30), rng.uniform(1, 8), 0.0)
    for _ in range(per):  # Moser-like cones near critical: x(t0) ~ c dt
        dt = 10 ** rng.uniform(1, 2.7)
        x0 = c * dt * rng.uniform(0.9, 1.0)
        add(-dt, dt, (x0 / alpha) ** (1.0 / q), 0.0)
    return [s for s in out if s[2] > 0.0 or s[3] > 0.0]


def _rule(segs, n, alpha, c):
    t0, t1, u0, u1 = (np.array(x) for x in zip(*segs))
    return segment_functional(t0, t1, u0, u1, n, alpha, c, gradient=True)


@pytest.mark.slow
@pytest.mark.parametrize("n, beta", [(3, 1.0), (4, 2.0), (5, 1.0), (6, 0.5)])
def test_segments_match_mpmath(n, beta):
    c = n - beta
    for alpha in (c / n * critical_alpha(n), 0.5):
        segs = _segments(10 * n, n, alpha, c, per=2)
        assert len(segs) >= 15
        shift, *rows = _rule(segs, n, alpha, c)
        for k, seg in enumerate(segs):
            for got, want in zip(rows, mp_rows(*seg, n, alpha, c, shift[k])):
                err = abs(mp.mpf(float(got[k])) / want - 1)
                assert err <= 1e-12, (n, alpha, seg, float(err))


@pytest.mark.parametrize("n", [3, 4, 6])
def test_each_segment_as_alone(n):
    c = n - 0.5
    alpha = c / n * critical_alpha(n)
    segs = _segments(n, n, alpha, c, per=6)
    together = _rule(segs, n, alpha, c)
    for k, seg in enumerate(segs):
        alone = _rule([seg], n, alpha, c)
        assert [float(a[0]) for a in alone] == [float(b[k]) for b in together]
    # J alone is J of the gradient pass
    t0, t1, u0, u1 = (np.array(x) for x in zip(*segs))
    assert np.array_equal(segment_functional(t0, t1, u0, u1, n, alpha, c)[1],
                          together[1])


@pytest.mark.parametrize("cell", [c for c in MATRIX if c[0] >= 3], ids=str)
def test_deep_cone_takes_two_windows(cell):
    # a Moser cone 5e14 long keeps a window at each end: a few hundred pieces
    params = make_params(cell, alpha_ratio=1.0)
    live = LiveSegments.of([normalized(10 ** 15, params).profile])
    with np.errstate(divide="ignore", invalid="ignore"):
        seg, back, lo, hi = quadrature._pieces(
            live.t0, live.t1, live.u0, live.u1, params.dim, params.alpha,
            params.dim - params.beta)
    assert 100 < seg.size < 1000
    assert set(back) == {False, True}
    assert max(hi) < 1e3 and np.all(lo < hi)


def test_rule_warns_never():
    # no tolerance, no cap: nothing to warn about, at any size
    params = make_params((3, 1.0, 0.5), alpha_ratio=1.0)
    segs = _segments(5, 3, params.alpha, 2.0, per=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _rule(segs, 3, params.alpha, 2.0)


def test_polynomial_exact():
    vals, _, conv = integrate_segments(lambda t, seg: t ** 3 - 2 * t, [0.0], [2.0])
    assert conv.all()
    assert vals[0, 0] == pytest.approx(4.0 - 4.0, abs=1e-13)


def test_exponential():
    vals, _, conv = integrate_segments(lambda t, seg: np.exp(t), [-1.0], [3.0])
    assert conv.all()
    assert vals[0, 0] == pytest.approx(math.exp(3) - math.exp(-1), rel=1e-12)


def test_long_decaying_interval():
    # mass concentrated near the right endpoint of a 200-unit interval
    vals, _, conv = integrate_segments(lambda t, seg: np.exp(2.0 * t), [-200.0],
                                       [0.0], rel_tol=1e-11)
    assert conv.all()
    assert vals[0, 0] == pytest.approx(0.5, rel=1e-10)


def test_batched_segments_match_singles():
    lefts = np.array([-3.0, 0.0, 1.0])
    rights = np.array([0.0, 1.0, 8.0])

    def f(t, seg):
        return np.stack([np.exp(t) * (seg + 1), np.cos(t)])

    vals, errs, conv = integrate_segments(f, lefts, rights, rel_tol=1e-12)
    assert vals.shape == (2, 3)
    assert conv.all()
    for i, (a, b) in enumerate(zip(lefts, rights)):
        assert vals[0, i] == pytest.approx((i + 1) * (math.exp(b) - math.exp(a)), rel=1e-11)
        assert vals[1, i] == pytest.approx(math.sin(b) - math.sin(a), rel=1e-10, abs=1e-12)


def test_zero_integrand_converges_immediately():
    vals, errs, conv = integrate_segments(
        lambda t, seg: np.zeros((1, t.size)), [0.0], [5.0])
    assert conv.all()
    assert vals[0, 0] == 0.0


def test_cap_flags_nonconvergence(monkeypatch):
    # genuinely hard integrand with a near-singular spike and an absurd cap
    def f(t, seg):
        return (1.0 / np.sqrt(np.abs(t) + 1e-14))[None, :]

    monkeypatch.setattr(quadrature, "_MAX_PANELS", 4)
    with pytest.warns(RuntimeWarning, match="4-panel cap"):
        vals, errs, conv = integrate_segments(f, [-1.0], [1.0], rel_tol=1e-14)
    assert not conv.all()


def test_mild_endpoint_kink_converges():
    # u^(3/2)-type behavior at an endpoint, as in gradient integrands
    vals, _, conv = integrate_segments(lambda t, seg: np.maximum(t, 0.0) ** 1.5,
                                       [0.0], [1.0], rel_tol=1e-11)
    assert conv.all()
    assert vals[0, 0] == pytest.approx(0.4, rel=1e-10)


_MIXED_LEFTS = -40.0 + np.cumsum(np.random.default_rng(11).exponential(3.0, 60))
_MIXED_WIDTHS = 1e-3 + np.random.default_rng(12).exponential(4.0, 60)


def _first_call_points(lefts, rights):
    calls = []

    def f(t, seg):
        calls.append((t.copy(), seg.copy()))
        return np.zeros((1, t.size))

    integrate_segments(f, lefts, rights)
    return calls[0]


@pytest.mark.parametrize("lefts, rights", [
    # every width below _INIT_WIDTH: one panel each
    ([-3.0, 0.25, 1.0], [-2.7, 1.25, 2.999]),
    # width 200 asks for 100 panels and gets _MAX_INIT_PANELS
    ([-200.0, 0.0], [0.0, 129.5]),
    # many intervals of mixed width, as on a profile grid in log radius
    (_MIXED_LEFTS, _MIXED_LEFTS + _MIXED_WIDTHS),
])
def test_initial_panels_match_per_interval_linspace(lefts, rights):
    lefts, rights = np.asarray(lefts), np.asarray(rights)
    counts = np.clip(np.ceil((rights - lefts) / 2.0).astype(int), 1, 64)
    edges = [np.linspace(a, b, c + 1) for a, b, c in zip(lefts, rights, counts)]
    pa = np.concatenate([e[:-1] for e in edges])
    pb = np.concatenate([e[1:] for e in edges])
    expected = (0.5 * (pb + pa))[:, None] + (0.5 * (pb - pa))[:, None] * _NODES

    t, seg = _first_call_points(lefts, rights)
    assert np.array_equal(t, expected.ravel())
    assert np.array_equal(seg, np.repeat(np.repeat(np.arange(lefts.size), counts),
                                         _NODES.size))


def test_huge_width_clipped_before_the_cast():
    # ceil(1e20 / 2) has no int64 value: the count is clipped first, so the
    # interval starts as _MAX_INIT_PANELS panels and nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t, seg = _first_call_points(np.array([0.0]), np.array([1e20]))
        vals, _, conv = integrate_segments(lambda t, seg: np.ones_like(t),
                                           [0.0], [1e20])
    assert t.size == 64 * _NODES.size and np.all(seg == 0)
    assert conv.all() and vals[0, 0] == pytest.approx(1e20, rel=1e-14)


def test_three_components_one_refining():
    # a narrow Gaussian needs several rounds; a cubic and an exponential
    # converge at once on the same panels
    lefts = np.array([-2.0, 0.0, 1.5, 3.0])
    rights = np.array([0.0, 1.5, 3.0, 7.0])
    centers = np.array([-1.3, 0.2, 2.9, 5.0])
    width = 0.05
    calls = []

    def f(t, seg):
        calls.append(t.size)
        return np.stack([np.exp(-((t - centers[seg]) / width) ** 2),
                         t ** 3, np.exp(t)])

    vals, errs, conv = integrate_segments(f, lefts, rights, rel_tol=1e-12)
    assert vals.shape == errs.shape == (3, 4)
    assert conv.all()
    assert len(calls) > 3
    for i, (a, b, c) in enumerate(zip(lefts, rights, centers)):
        gauss = 0.5 * math.sqrt(math.pi) * width * (
            math.erf((b - c) / width) - math.erf((a - c) / width))
        assert vals[0, i] == pytest.approx(gauss, rel=1e-10)
        assert vals[1, i] == pytest.approx((b ** 4 - a ** 4) / 4, rel=1e-12, abs=1e-13)
        assert vals[2, i] == pytest.approx(math.exp(b) - math.exp(a), rel=1e-12)


def test_interval_alone_equals_interval_in_batch(monkeypatch):
    # every interval is refined on its own: its integral, error and flag are
    # the same bit for bit alone and among other intervals, capped or not
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 12)
    rng = np.random.default_rng(29)
    m = 40
    lefts = rng.uniform(-8.0, 2.0, m)
    rights = lefts + rng.uniform(0.05, 9.0, m)
    freq = rng.uniform(0.0, 12.0, m)
    growth = rng.uniform(-3.0, 3.0, m)

    def rows(t, fr, gr):
        return np.stack([np.exp(gr * t) * (1.5 + np.sin(fr * t)),
                         np.cos(fr * t) ** 2])

    with pytest.warns(RuntimeWarning, match="panel cap"):
        vals, errs, conv = integrate_segments(
            lambda t, seg: rows(t, freq[seg], growth[seg]), lefts, rights,
            rel_tol=1e-13)
    assert conv.any() and not conv.all()
    for i in range(m):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            v, e, c = integrate_segments(
                lambda t, seg: rows(t, freq[i], growth[i]), lefts[i:i + 1],
                rights[i:i + 1], rel_tol=1e-13)
        assert np.array_equal(vals[:, i], v[:, 0])
        assert np.array_equal(errs[:, i], e[:, 0])
        assert conv[i] == c[0]


def test_cap_hit_warns_once():
    # no tolerance below round-off is reachable: every interval runs into the
    # panel cap, and one call warns once, counting them
    lefts, rights = np.array([0.0, 1.0, -3.0, 2.0, 5.0]), np.array([1.0, 2.5, 0.0, 9.0, 5.5])
    for k in (1, 5):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, _, conv = integrate_segments(
                lambda t, seg: np.stack([np.exp(t), np.sin(3 * t) + 2.0]),
                lefts[:k], rights[:k], rel_tol=1e-30)
        assert not conv.any()
        assert [w.category for w in caught] == [RuntimeWarning]
        assert f"panel cap on {k} interval(s)" in str(caught[0].message)
