"""The closed-form N = 2 functional against a 50-digit mpmath oracle.

tmlab.dawson evaluates Dawson's function from a fitted table and its
asymptotic series, and the functional's segment integrals and node-gradient
rows from end values of it; conftest.mp_segment_functional computes the same
integrals from mpmath's erfi with the plain antiderivatives.
"""

import math
import pathlib
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import dawsn

from conftest import MATRIX, make_params, mp_segment_functional, random_profile
from tmlab.dawson import dawson, segment_functional
from tmlab.profiles import dilate, functional_log

EPS = sys.float_info.epsilon
N2_CELLS = [cell for cell in MATRIX if cell[0] == 2]


def _segments(seed, alpha, c):
    """Seeded segments (t0, t1, u0, u1), 30 of each kind, for alpha u^2 + c t."""
    rng = np.random.default_rng(seed)
    out = []

    def add(t0, dt, u0, u1):
        out.append((t0, t0 + dt, u0, max(u1, 0.0)))

    for _ in range(30):  # optimizer-like: short, nearly flat or steep
        u0 = rng.uniform(0.0, 2.5)
        add(rng.uniform(-18, 7), rng.uniform(0.05, 0.4), u0, u0 + rng.normal(0.0, 0.3))
    for _ in range(30):  # wide: dt up to 30, any values
        add(rng.uniform(-10, 10), 10 ** rng.uniform(-3, math.log10(30)),
            rng.uniform(0, 3) * rng.integers(0, 2), rng.uniform(0, 3))
    for _ in range(30):  # flat: s = 0 exactly, and |s| down to 1e-12
        u0, dt = rng.uniform(1e-4, 2.5), rng.uniform(0.05, 30)
        s = 0.0 if _ % 3 == 0 else rng.choice([-1, 1]) * 10 ** rng.uniform(-12, -3)
        add(rng.uniform(-5, 5), dt, u0, u0 + s * dt)
    for _ in range(30):  # alpha u^2 <= 1e-12 on the whole segment
        add(rng.uniform(-5, 5), 10 ** rng.uniform(-2, math.log10(30)),
            rng.uniform(0, 2.8e-7), rng.uniform(0, 2.8e-7))
    for _ in range(30):  # |y| > 30: y = sqrt(alpha) (u + c/(2 alpha s)), s = du/dt
        u0, dt = rng.uniform(0, 1.5), rng.uniform(0.5, 30)
        s = rng.uniform(-1, 1) * c / (2 * math.sqrt(alpha) * (30 + math.sqrt(alpha) * 1.5))
        add(rng.uniform(-5, 5), dt, u0, u0 + s * dt)
    for _ in range(30):  # to or from 0, the tail and the foot of a profile
        u, dt = 10 ** rng.uniform(-7, 0.5), 10 ** rng.uniform(-2, math.log10(30))
        add(rng.uniform(-5, 5), dt, *((u, 0.0) if _ % 2 else (0.0, u)))
    for _ in range(30):  # the exponent past 709, where only its log is finite
        add(rng.uniform(710, 900) / c, rng.uniform(0.1, 30), rng.uniform(0, 9),
            rng.uniform(0, 9))
    for _ in range(30):  # steep cones, as of a concentrating element
        add(rng.uniform(-40, -1), rng.uniform(1, 30), rng.uniform(1, 8), 0.0)
    return [s for s in out if s[2] > 0.0 or s[3] > 0.0]


@pytest.mark.parametrize("alpha, c", [(4 * math.pi, 2.0), (2 * math.pi, 1.0),
                                      (4.0, 1.5), (0.5, 2.0)])
def test_segments_match_mpmath(alpha, c):
    segs = _segments(int(alpha * 10 + c), alpha, c)
    assert len(segs) >= 200
    t0, t1, u0, u1 = (np.array(x) for x in zip(*segs))
    shift, value, left, right = segment_functional(t0, t1, u0, u1, alpha, c,
                                                   gradient=True)
    assert np.all(np.isfinite(shift + np.log(value)))
    exponent = np.maximum(np.abs(alpha * u0 * u0 + c * t0), np.abs(alpha * u1 * u1 + c * t1))
    for k, seg in enumerate(segs):
        # the exponent alpha u^2 + c t is itself rounded, to eps |E|
        tol = 1e-13 + 4 * EPS * exponent[k]
        scale = mp.exp(mp.mpf(shift[k]))
        for got, want in zip((value[k], left[k], right[k]),
                             mp_segment_functional(*seg, alpha, c)):
            err = abs(mp.mpf(got) * scale / want - 1)
            assert err <= tol, (seg, float(err))


def test_each_segment_as_alone():
    alpha, c = 4 * math.pi, 1.0
    segs = _segments(3, alpha, c)
    t0, t1, u0, u1 = (np.array(x) for x in zip(*segs))
    together = segment_functional(t0, t1, u0, u1, alpha, c, gradient=True)
    for k in range(len(segs)):
        alone = segment_functional(t0[k:k + 1], t1[k:k + 1], u0[k:k + 1],
                                   u1[k:k + 1], alpha, c, gradient=True)
        assert [float(a[0]) for a in alone] == [float(b[k]) for b in together]


def test_dawson_matches_mpmath_and_scipy():
    mags = np.logspace(-300, 300, 1201)
    ys = np.concatenate([mags, -mags, np.linspace(-12, 12, 2401), [0.0]])
    got = dawson(ys)
    # past |y| = 1e8 the asymptotic series' third term, 3/(4 y^4), is below 1e-32
    with mp.workdps(40):
        want = [mp.sqrt(mp.pi) / 2 * mp.exp(-mp.mpf(y) ** 2) * mp.erfi(mp.mpf(y))
                if abs(y) < 1e8 else 1 / (2 * mp.mpf(y)) * (1 + 1 / (2 * mp.mpf(y) ** 2))
                for y in ys]
        rel = max(abs(mp.mpf(g) / w - 1) if w else abs(g) for g, w in zip(got, want))
    assert rel <= 4 * EPS
    assert np.all(np.abs(got - dawsn(ys)) <= 1e-14 * np.abs(dawsn(ys)))
    assert dawson(0.0) == 0.0 and math.copysign(1.0, dawson(-0.0)) == -1.0
    assert dawson(math.inf) == 0.0 and dawson(-math.inf) == 0.0
    assert np.array_equal(dawson(np.array([[1.0, -2.0]])), [[dawson(1.0), dawson(-2.0)]])


@settings(max_examples=60, deadline=None)
@given(cell=st.sampled_from(N2_CELLS), seed=st.integers(0, 10 ** 6),
       nodes=st.integers(2, 12), sigma=st.floats(-5.0, 5.0))
def test_dilation_law(cell, seed, nodes, sigma):
    # J(u(e^sigma x)) = e^(-(2 - beta) sigma) J(u)
    params = make_params(cell, alpha_ratio=0.9)
    u = random_profile(np.random.default_rng(seed), n_nodes=nodes)
    lhs = functional_log(dilate(u, math.exp(sigma)), params).log
    rhs = functional_log(u, params).log - (2.0 - params.beta) * sigma
    assert abs(lhs - rhs) <= 1e-13


def test_table_is_the_generator_output():
    # _dawson_table.py says "do not edit": regenerating it must give its bytes
    root = pathlib.Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "tools" / "dawson_coefficients.py")],
        capture_output=True, timeout=300, check=True)
    assert proc.stdout == (root / "src" / "tmlab" / "_dawson_table.py").read_bytes()
