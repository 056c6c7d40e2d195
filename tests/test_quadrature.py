import math
import warnings

import numpy as np
import pytest

from tmlab import quadrature
from tmlab.quadrature import _NODES, integrate_segments


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
