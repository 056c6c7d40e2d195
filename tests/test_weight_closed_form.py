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
from tmlab.profiles import (RadialProfile, _segment_moments, segment_weights,
                            weighted_lp_pow, weighted_lp_pow_batch)

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
