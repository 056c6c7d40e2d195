"""The weighted moments' closed form against a 50-digit mpmath oracle.

profiles._segment_moments sums int u^p e^(c t) dt over a log-affine segment
as e^(c t1) dt/(p+1) sum_k u0^(p-k) u1^k E_k(z), E_k = e^-z 1F1(k+1; p+2; z),
from a Taylor series on pieces of z <= 2 and a cut of the far part of long
segments.  The oracle takes the same Bernstein sum with mpmath's own 1F1 for
E_0 and the contiguous relation in the first parameter for the rest, at
60 + p digits (the relation loses up to p digits upward at small z).
"""

import math

import mpmath as mp
import numpy as np
import pytest

from tmlab import moser
from tmlab.profiles import (_PIECE_TERMS, _PIECE_Z, RadialProfile,
                            _segment_moments, segment_weights, weighted_lp_pow,
                            weighted_lp_pow_batch)

from conftest import MATRIX, assert_rel_close, make_params


def _oracle(t0, t1, u0, u1, p, c):
    """(log I, dI/du0, dI/du1) of I = int_t0^t1 u^p e^(c t) dt, u affine in t."""
    with mp.workdps(60 + p):
        t0, t1, u0, u1, c = (mp.mpf(float(x)) for x in (t0, t1, u0, u1, c))
        dt = t1 - t0
        z = c * dt
        e = [mp.exp(-z), mp.exp(-z) * mp.hyp1f1(1, p + 2, z)]
        for k in range(p):
            e.append(((2 * k - p + z) * e[-1] + (p + 1 - k) * e[-2]) / (k + 1))
        moments = e[1:]

        def power(x, j):
            return mp.mpf(1) if j == 0 else x ** j

        pre = mp.exp(c * t1) * dt / (p + 1)
        value = pre * mp.fsum(power(u0, p - k) * power(u1, k) * moments[k]
                              for k in range(p + 1))
        d0 = pre * mp.fsum((p - k) * power(u0, p - 1 - k) * power(u1, k)
                           * moments[k] for k in range(p))
        d1 = pre * mp.fsum((k + 1) * power(u0, p - 1 - k) * power(u1, k)
                           * moments[k + 1] for k in range(p))
        return mp.log(value), d0, d1


def _closed_form(t0, t1, u0, u1, p, c):
    """(log I, dI/du0, dI/du1) from the pieces _segment_moments returns."""
    _, log_scale, rest, d0, d1 = _segment_moments(
        np.array([t0]), np.array([t1]), np.array([u0]), np.array([u1]), p, c,
        gradient=True)
    top = log_scale.max()
    return top + math.log(np.sum(rest * np.exp(log_scale - top))), d0.sum(), d1.sum()


def _segments(seed, count, p_max):
    """count random segments: z = c dt from 1e-12 to 1e300, and in two of
    every three the profile is 0 at one end."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        p = int(rng.integers(1, p_max + 1))
        z = 10.0 ** rng.uniform(-12.0, 300.0)
        c = rng.uniform(0.5, 4.0)
        t1 = rng.uniform(-5.0, 5.0)
        u0, u1 = rng.uniform(0.05, 3.0, 2)
        if i % 3 == 1:
            u0 = 0.0
        elif i % 3 == 2:
            u1 = 0.0
        yield t1 - z / c, t1, u0, u1, p, c


@pytest.mark.parametrize("seed, count, p_max", [(2024, 200, 40), (2025, 20, 400)],
                         ids=["p<=40", "p<=400"])
def test_segments_against_mpmath(seed, count, p_max):
    for t0, t1, u0, u1, p, c in _segments(seed, count, p_max):
        want, d0, d1 = _oracle(t0, t1, u0, u1, p, c)
        got, g0, g1 = _closed_form(t0, t1, u0, u1, p, c)
        # I is carried as e^log: its relative error is the log's absolute
        # error, and the log adds c t1, log dt and p log u, each to rounding
        scale = max(1.0, abs(c * t1) + abs(math.log(t1 - t0))
                    + p * abs(math.log(max(u0, u1))))
        case = (t0, t1, u0, u1, p, c)
        assert abs(got - float(want)) <= 1e-13 * scale, case
        for g, d in ((g0, d0), (g1, d1)):
            if 1e-290 < abs(d) < 1e290:  # a double holds it
                assert abs(g - float(d)) <= 1e-13 * scale * abs(float(d)), case


def test_segment_weights():
    # omega times each segment's integral alone; a segment where u is 0 at
    # both ends gives 0
    params = make_params((3, 1.0, 0.5))
    t0, t1 = np.array([-2.0, 0.0, 1.0]), np.array([0.0, 1.0, 40.0])
    u0, u1 = np.array([1.5, 0.0, 2.0]), np.array([0.5, 0.0, 0.0])
    got = segment_weights(t0, t1, u0, u1, 3, 0.5, params)
    assert got[1] == 0.0
    for i in (0, 2):
        want = _oracle(t0[i], t1[i], u0[i], u1[i], 3, 2.5)[0]
        assert_rel_close(got[i], 4.0 * math.pi * math.exp(want), 1e-13)


@pytest.mark.parametrize("cell", MATRIX, ids=str)
def test_moser_weight_to_index_1e15(cell):
    # the cone [-b_n, 0] has z = (N - gamma) b_n; quadrature read 0.0 from
    # n = 3e7 on, the closed form follows weight_norm_closed_form all the way
    params = make_params(cell)
    for k in range(16):
        elem = moser.build(10 ** k, params)
        w = weighted_lp_pow(elem.profile, params.dim, params.gamma, params)
        assert_rel_close(w, elem.weight_pow, 1e-13, f"n=10^{k}")


def test_log_moments_where_powers_overflow():
    # u^400 of a plateau at 1e5 is 1e2000: the log moment stays finite
    params = make_params((2, 1.0, 1.0))
    p = RadialProfile(log_radii=[-1.0, 0.5], values=[1e5, 0.0])
    log_m = weighted_lp_pow_batch([p] * 2, [400, 2], 1.0, params, log=True)
    assert_rel_close(weighted_lp_pow_batch([p], 2, 1.0, params)[0],
                     math.exp(log_m[1]), 1e-14)
    for got, power in zip(log_m, (400, 2)):
        seg, _, _ = _oracle(-1.0, 0.5, 1e5, 0.0, power, 1.0)
        with mp.workdps(60):
            plateau = power * mp.log(1e5) - 1.0
            want = mp.log(2 * mp.pi) + mp.log(mp.exp(seg) + mp.exp(plateau))
        assert abs(got - float(want)) <= 1e-13 * float(abs(want))


def _reference_moments(z, p):
    """_bernstein_moments by a broadcast product summed over m by add.reduce,
    which adds the terms in the order of m."""
    ragged = np.ndim(p) > 0
    k_max = int(np.max(p, initial=1))
    binomials = np.array([[math.comb(k + m, m) for k in range(k_max + 1)]
                          for m in range(_PIECE_TERMS)], dtype=float)
    inverse_rising = np.array([[1 / math.prod(range(e + 2, e + 2 + m))
                                for m in range(_PIECE_TERMS)]
                               for e in range(k_max + 1)])
    w = np.ones((_PIECE_TERMS, z.size))
    w[1] = z
    for h in (1, 2, 4, 8, 16):
        end = min(2 * h + 1, _PIECE_TERMS)
        np.multiply(w[1:end - h], w[h], out=w[h + 1:end])
    w *= inverse_rising[p].T if ragged else inverse_rising[p][:, None]
    moments = np.exp(-z) * np.add.reduce(binomials[:, :, None] * w[:, None], axis=0)
    if ragged:
        moments *= np.arange(k_max + 1.0)[:, None] <= p
    return moments


def _reference_segment_moments(t0, t1, u0, u1, p, c, gradient=False):
    """_segment_moments with the powers of (lo, hi) = (a, b)/top taken by a
    loop over k, and every sum over k by add.reduce."""
    dt = t1 - t0
    z = c * dt
    if z.size == 0 or z.max() <= _PIECE_Z:
        seg, y0, y1, a, b, width, right = np.arange(z.size), 1.0, 0.0, u0, u1, dt, t1
    else:
        kept = np.minimum(z, p + 10.0 * np.sqrt(p) + 50.0)
        count = np.ceil(kept / _PIECE_Z).astype(int)
        seg = np.repeat(np.arange(z.size), count)
        share, last, u0, u1, dt, t1 = np.array(
            [kept / z / count, np.cumsum(count), u0, u1, dt, t1])[:, seg]
        y0 = share * (last - np.arange(seg.size))
        y1 = y0 - share
        a, b = y0 * u0 + (1.0 - y0) * u1, y1 * u0 + (1.0 - y1) * u1
        width, right = share * dt, t1 - y1 * dt
        p = p[seg] if np.ndim(p) else p
    moments = _reference_moments(c * width, p)
    top = np.maximum(a, b)
    k = np.arange(moments.shape[0])[:, None]
    powers = np.ones((k.size, 2, seg.size))
    np.divide([a, b], top, out=powers[1])
    for j in range(2, k.size):
        np.multiply(powers[j - 1], powers[1], out=powers[j])
    lo = (powers[np.maximum(p - k, 0), 0, np.arange(seg.size)] if np.ndim(p)
          else powers[::-1, 0])
    rest = np.add.reduce(lo * powers[:, 1] * moments, axis=0)
    log_top = np.log(top)
    log_scale = c * right + np.log(width / (p + 1.0)) + p * log_top
    if not gradient:
        return seg, log_scale, rest
    below = powers[p - 1::-1, 0] * powers[:-1, 1] * np.exp(log_scale - log_top)
    d_a = np.add.reduce((p - k[:-1]) * below * moments[:-1], axis=0)
    d_b = np.add.reduce((k[:-1] + 1.0) * below * moments[1:], axis=0)
    return (seg, log_scale, rest, d_a * y0 + d_b * y1,
            d_a * (1.0 - y0) + d_b * (1.0 - y1))


@pytest.mark.parametrize("ragged", [False, True], ids=["one-p", "ragged-p"])
@pytest.mark.parametrize("cut, k_size, count", [
    (cut, k_size, count) for cut in (False, True)
    for k_size in (2, 3, 5, 50, 97, 401)
    # (the reference's product of 333 cut segments would take gigabytes)
    for count in ((0, 1, 2, 17, 333) if not cut else (0, 1, 2, 17))])
def test_contraction_order(cut, k_size, count, ragged):
    # the series is contracted over m by einsum and the powers of r are
    # gathered from one table: each must give the bits of the sums term by
    # term in the order of m and of k, for k_size = max(p) + 1 rows and
    # count segments, rising, falling, flat and ending at 0; whole segments
    # are one piece each, cut ones up to 13 (a changed loop order in a
    # numpy upgrade fails here first)
    rng = np.random.default_rng(1000 * k_size + count)
    c = 1.5
    z = rng.uniform(0.0, 25.0 if cut else _PIECE_Z, count)
    z[:1] = 25.0 if cut else _PIECE_Z
    t1 = rng.uniform(-3.0, 3.0, count)
    t0 = t1 - z / c
    u0, u1 = rng.uniform(0.05, 3.0, (2, count))
    u0[::4], u1[1::4], u1[2::4] = 0.0, 0.0, u0[2::4]
    p = k_size - 1
    if ragged:
        p = rng.integers(1, k_size, count)
        p[:1] = k_size - 1
    got = _segment_moments(t0, t1, u0, u1, p, c, gradient=not ragged)
    want = _reference_segment_moments(t0, t1, u0, u1, p, c, gradient=not ragged)
    assert got[0].size >= count and (cut or got[0].size == count)
    for name, g, w in zip(("seg", "log_scale", "rest", "d_u0", "d_u1"), got, want):
        assert np.array_equal(g, w), name
