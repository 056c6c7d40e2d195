"""Radial profiles and the three weighted quantities computed on them.

A profile is a nonnegative radial function stored exactly, in t = log r, as

    u = u_0             for t <= t_0          (plateau)
    u   affine in t     on [t_i, t_{i+1}]     (segments)
    u = 0               for t >= t_M          (compact-support tail)

This class is closed under dilation and under the weighted-to-unweighted
change of functions, both affine maps of t, and it contains the concentrating
log-cone sequences exactly.  So the gradient norm and every weighted moment
int u^p r^(N-1-delta) dr with integer p have closed forms (the latter a sum
of Bernstein moments, see _segment_moments), exact to rounding with their
node gradients.  So has the exponential functional at N = 2, where
Phi_2(x) = e^x - 1: its segment integrals and gradient rows are end values
of Dawson's function (dawson.segment_functional).  At N >= 3 the functional
is integrated in t, where its integrand is smooth, by one fixed
Gauss-Legendre pass (quadrature.segment_functional): functional_log_batch
hands it the live segments of all profiles of a batch at once, with the
gradient rows in the same pass when asked.  Every batch function takes a
list of profiles or a LiveSegments table, also built from (k, m) node
arrays, and gives each profile the same bits as alone.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import LogValue, ProblemParams, log_phi, sphere_area
from .errors import (DegenerateInputError, DivergentWeightError, DomainError,
                     ValidationError)
from . import dawson, quadrature

# The weighted moments cut a segment into pieces of z = (N - delta) dt at
# most _PIECE_Z, where _PIECE_TERMS terms of a series reach rounding
# (2^25/25! < 3e-18).
_PIECE_Z = 2.0
_PIECE_TERMS = 25
# The span [t_lo, t_hi] in t = log r of random_profile's grid.
_RANDOM_T_SPAN = (-7.0, 4.5)


@dataclass(frozen=True, kw_only=True)
class RadialProfile:
    """Plateau + piecewise-log-affine radial function with compact support.

    Stored in t = log r: node log-radii ``log_radii`` and node ``values``.
    ``from_radii`` builds one from linear radii; ``radii`` derives them.
    """

    log_radii: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.array(self.log_radii, dtype=float, ndmin=1)
        values = np.array(self.values, dtype=float, ndmin=1)
        if t.ndim != 1 or values.ndim != 1:
            raise ValidationError("radii and values must be one-dimensional")
        _check_nodes(t, values)
        t.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "log_radii", t)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_radii(cls, radii, values) -> "RadialProfile":
        """The profile with nodes at the given positive radii."""
        return cls(log_radii=_log_radii(radii), values=values)

    @cached_property
    def radii(self) -> np.ndarray:
        r = np.exp(self.log_radii)
        r.setflags(write=False)
        return r

    @property
    def num_nodes(self) -> int:
        return self.values.size

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.values == 0.0))

    def value_at(self, r):
        """Pointwise evaluation; accepts scalars or arrays."""
        arr = np.asarray(r, dtype=float)
        if np.any(arr < 0):
            raise DomainError("radius must be nonnegative")
        with np.errstate(divide="ignore"):
            # the last node value is 0, so right=0 makes u vanish from it on
            out = np.interp(np.log(arr), self.log_radii, self.values,
                            left=self.values[0], right=0.0)
        return float(out) if arr.ndim == 0 else out

    def scaled(self, c: float) -> "RadialProfile":
        """Amplitude scaling c*u, c >= 0."""
        if c < 0:
            raise DomainError("amplitude factor must be nonnegative")
        return self.with_values(c * self.values)

    def with_values(self, values) -> "RadialProfile":
        return RadialProfile(log_radii=self.log_radii, values=values)

    def to_dict(self) -> dict:
        return {"radii": self.radii.tolist(), "values": self.values.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "RadialProfile":
        try:
            radii = np.asarray(data["radii"], dtype=float)
            values = np.asarray(data["values"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed profile object: {exc}") from exc
        return cls.from_radii(radii, values)

    @classmethod
    def from_json(cls, text: str) -> "RadialProfile":
        return cls.from_dict(json.loads(text))


def _check_nodes(t, values):
    """RadialProfile's checks, of one profile's nodes or of each row of (k, m)
    arrays; np.count_nonzero is the cheapest test, and thousands are run."""
    if t.shape != values.shape or t.shape[-1] == 0:
        raise ValidationError("radii and values must have equal nonzero length")
    if np.count_nonzero(~np.isfinite(t)) or np.count_nonzero(~np.isfinite(values)):
        raise ValidationError("radii and values must be finite")
    if np.count_nonzero(t[..., 1:] <= t[..., :-1]):
        raise ValidationError("radii must be strictly increasing")
    if np.count_nonzero(values < 0.0):
        raise ValidationError("node values must be nonnegative")
    if np.count_nonzero(values[..., -1]):
        raise ValidationError("last node value must be 0 (compact support)")


def _log_radii(radii):
    """log of an array of radii, every one of which must be positive."""
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if not np.all(radii > 0.0):
        raise ValidationError("radii must be positive")
    return np.log(radii)


def checked_nodes(radii, values, log=False):
    """(t, u) = (log radii, values) of (k, m) node arrays, whose every row
    RadialProfile.from_radii accepts (with log, radii holds t and every row
    RadialProfile accepts); it raises ValidationError otherwise."""
    t = np.asarray(radii, dtype=float) if log else _log_radii(radii)
    u = np.atleast_1d(np.asarray(values, dtype=float))
    _check_nodes(t, u)
    return t, u


@dataclass(frozen=True)
class NormReport:
    """The three norm powers of a profile.

    grad_pow   -- gradient N-norm to the N-th power
    weight_pow -- weighted L^N norm (weight |x|^-gamma) to the N-th power
    full_pow   -- their sum, the full weighted Sobolev norm power
    """

    grad_pow: float
    weight_pow: float
    full_pow: float


class LiveSegments(NamedTuple):
    """The segments where u is not zero, of a batch of profiles, end to end.

    Nodes of all profiles are numbered in turn, profile b's from firsts[b];
    profile b owns entries bounds[b]:bounds[b+1], in segment order, and
    node, owner, (t0, u0) and (t1, u1) are an entry's left node, profile and
    end nodes.  u_first and t_first are each profile's first node."""

    bounds: list
    firsts: list
    node: np.ndarray
    owner: np.ndarray
    t0: np.ndarray
    t1: np.ndarray
    u0: np.ndarray
    u1: np.ndarray
    u_first: np.ndarray
    t_first: np.ndarray

    @classmethod
    def of(cls, profiles) -> "LiveSegments":
        """The table of a list of profiles; a table is its own."""
        if isinstance(profiles, LiveSegments):
            return profiles
        profiles = tuple(profiles)
        if len(profiles) == 1:  # its own arrays, no copy
            (p,) = profiles
            return cls.of_nodes(p.log_radii, p.values, [0, p.num_nodes])
        return cls.of_nodes(
            np.concatenate([p.log_radii for p in profiles] or [[]]),
            np.concatenate([p.values for p in profiles] or [[]]),
            list(itertools.accumulate((p.num_nodes for p in profiles), initial=0)))

    @classmethod
    def of_nodes(cls, t, u, firsts=None) -> "LiveSegments":
        """The table of nodes t = log r and u: the rows of (k, m) arrays (see
        checked_nodes), or flat arrays with profile b's nodes from firsts[b]."""
        if firsts is None:
            (k, m), t, u = u.shape, t.ravel(), u.ravel()
            firsts = list(range(0, k * m + 1, m))
        live = (u[:-1] > 0.0) | (u[1:] > 0.0)
        if len(firsts) > 2:  # a profile's last node (u = 0) starts no segment
            live[np.array(firsts[1:-1]) - 1] = False
        node = np.flatnonzero(live)
        bounds = [0] + np.searchsorted(node, firsts[1:]).tolist()
        owner = np.searchsorted(bounds[1:], np.arange(node.size), "right")
        heads = firsts[:-1]
        return cls(bounds, firsts, node, owner, t[node], t[node + 1],
                   u[node], u[node + 1], u[heads], t[heads])

    def scaled(self, s) -> "LiveSegments":
        """The table of s[b] u for each profile b, s >= 0: an entry whose ends
        both become 0 leaves it, as from the profiles s[b] u themselves."""
        u0, u1 = self.u0 * s[self.owner], self.u1 * s[self.owner]
        out = self._replace(u0=u0, u1=u1, u_first=self.u_first * s)
        keep = (u0 > 0.0) | (u1 > 0.0)
        return out if keep.all() else out._replace(
            bounds=np.concatenate([[0], np.cumsum(keep)])[out.bounds].tolist(),
            **{f: getattr(out, f)[keep]
               for f in ("node", "owner", "t0", "t1", "u0", "u1")})


@functools.cache
def _series_tables(size: int):
    """C(k+m, m) for m < _PIECE_TERMS (rows) and k < size, and 1 / (p+2)_m
    for p < size (rows) and m < _PIECE_TERMS, each rounded once."""
    return (np.array([[math.comb(k + m, m) for k in range(size)]
                      for m in range(_PIECE_TERMS)], dtype=float),
            np.array([[1 / d for d in itertools.accumulate(
                range(p + 2, p + 1 + _PIECE_TERMS), operator.mul, initial=1)]
                for p in range(size)]))


def _bernstein_moments(z, p):
    """E[k] = e^-z 1F1(k+1; p+2; z) = (p+1) int_0^1 C(p,k) x^k (1-x)^(p-k)
    e^(-z(1-x)) dx, k = 0..max(p), 0 past a row's p.  e^z E_k = sum_m C(k+m, m)
    z^m / (p+2)_m has positive terms of ratio at most z/(m+1): for z <= _PIECE_Z
    the first _PIECE_TERMS reach rounding.  One einsum, m the rows of both
    operands, adds them in the order of m, so E_k has the same bits in any
    batch (test_contraction_order); a BLAS product, or m read from a (k, m)
    table, takes partial sums.  Tables of power-of-two sizes: few are built."""
    ragged = np.ndim(p) > 0
    k_max = int(p.max(initial=1) if ragged else p)
    binomials, inverse_rising = _series_tables(1 << k_max.bit_length())
    w = np.ones((_PIECE_TERMS, z.size))
    w[1] = z
    for h in (1, 2, 4, 8, 16):  # z^(h+i) = z^h z^i
        end = min(2 * h + 1, _PIECE_TERMS)
        np.multiply(w[1:end - h], w[h], out=w[h + 1:end])
    w *= inverse_rising[p].T if ragged else inverse_rising[p][:, None]
    moments = np.exp(-z) * np.einsum("mk,mn->kn", binomials[:, :k_max + 1], w)
    if ragged:  # the series of a k past p is no moment of degree p
        moments *= np.arange(k_max + 1.0)[:, None] <= p
    return moments


def _segment_moments(t0, t1, u0, u1, p, c, gradient=False):
    """Pieces of int_t0^t1 u^p e^(c t) dt on log-affine segments, exact to rounding.

    u is affine in t from u0 to u1, not both 0; p is one int >= 1 or one per
    segment.  With z = c (t1 - t0), the Bernstein basis of degree p gives
    int = e^(c t1) (t1 - t0)/(p+1) sum_k u0^(p-k) u1^k E_k(z) (see
    _bernstein_moments).  All of it but e^-58 lies within (p + 10 sqrt(p) +
    50)/c of t1; that part is cut into equal pieces of z <= _PIECE_Z, and
    piece j, of segment seg[j], integrates to e^log_scale[j] rest[j].  With
    gradient (one p), also each piece's derivatives in its u0 and its u1.
    Both sums run in order: over m in _bernstein_moments, then over k here by
    add.reduce, as an einsum over k does not keep that order for every shape."""
    dt = t1 - t0
    z = c * dt
    if z.size == 0 or z.max() <= _PIECE_Z:  # the layout below, short-cut
        seg, y0, y1, a, b, width, right = np.arange(z.size), 1.0, 0.0, u0, u1, dt, t1
    else:
        # a piece spans [t1 - y0 dt, t1 - y1 dt]; a whole segment has y0 = 1, y1 = 0
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
    moments = _bernstein_moments(c * width, p)
    # rest = sum_k lo^(p-k) hi^k E_k, (lo, hi) = (a, b)/top: one is 1, so the
    # term is r^k E_k where a >= b, else r^(p-k) E_k, r^j = r^(j-1) r
    top = np.maximum(a, b)
    k = np.arange(moments.shape[0])[:, None]
    powers = np.ones((k.size, seg.size))
    powers[1:] = np.minimum(a, b) / top
    np.multiply.accumulate(powers, axis=0, out=powers)
    falling = a >= b
    if np.ndim(p):  # no gradient: r^(p-k) where rising, r^0 past p (E_k = 0)
        rising = np.flatnonzero(~falling)
        powers[:, rising] = powers[np.maximum(p[rising] - k, 0), rising]
    terms = powers if np.ndim(p) else np.where(falling, powers, powers[::-1])
    rest = np.add.reduce(terms * moments, axis=0)
    log_top = np.log(top)
    log_scale = c * right + np.log(width / (p + 1.0)) + p * log_top
    if not gradient:
        return seg, log_scale, rest
    # d/da of e^log_scale rest is e^log_scale/top times d rest/d lo = sum_(k<p)
    # (p-k) lo^(p-1-k) hi^k E_k; for b, (k+1) E_(k+1) in place of (p-k) E_k
    below = (np.where(falling, powers[:-1], powers[-2::-1])
             * np.exp(log_scale - log_top))
    d_a = np.add.reduce((p - k[:-1]) * below * moments[:-1], axis=0)
    d_b = np.add.reduce((k[:-1] + 1.0) * below * moments[1:], axis=0)
    return (seg, log_scale, rest, d_a * y0 + d_b * y1,
            d_a * (1.0 - y0) + d_b * (1.0 - y1))


def _weighted_moments(profiles, p, delta: float, params: ProblemParams,
                      gradient=False):
    """(top, sums) with omega int_0^inf u^p r^(N-1-delta) dr = omega e^top sums.

    p is one integer >= 1 or one per profile.  The plateau piece, omega u_0^p
    e^(c t_0)/c, is one more term x of a profile's sum, each taken as e^top
    e^(x - top) with top the largest, so no power of u overflows.  With
    gradient (one p) also each profile's node gradient."""
    uniform = np.ndim(p) == 0
    exponents = [p] if uniform else list(p)
    for x in set(exponents):
        if not (x >= 1 and x == int(x)):
            raise DomainError(
                f"exponent p must be an integer >= 1, got {x}: the weighted "
                "moments are summed in closed form for integer exponents")
    n = params.dim
    if delta >= n:
        raise DivergentWeightError(
            f"weight exponent {delta} >= dimension {n}: plateau integral diverges")
    c, exponents = n - delta, np.array(exponents, dtype=int)
    live = LiveSegments.of(profiles)
    owner = live.owner
    seg, log_scale, rest, *d_ends = _segment_moments(
        live.t0, live.t1, live.u0, live.u1,
        int(exponents[0]) if uniform else exponents[owner], c, gradient)
    heads = np.flatnonzero(live.u_first > 0.0)
    log_head = np.log(live.u_first[heads])
    plateau = (c * live.t_first[heads] - math.log(c)
               + exponents[0 if uniform else heads] * log_head)
    group = np.concatenate([owner[seg], heads])
    log_scale = np.concatenate([log_scale, plateau])
    top = np.full(len(live.firsts) - 1, -np.inf)
    np.maximum.at(top, group, log_scale)
    # (an empty bincount is of int dtype)
    sums = np.bincount(group, np.concatenate([rest, np.ones(heads.size)])
                       * np.exp(log_scale - top[group]),
                       minlength=top.size).astype(float)
    if not gradient:
        return top, sums
    node, starts = live.node[seg], live.firsts
    grad = np.bincount(np.concatenate([node, node + 1]), np.concatenate(d_ends),
                       minlength=starts[-1]).astype(float)
    # the plateau's d/du_0 (u_0^n e^(c t_0) / c) = n e^plateau / u_0
    grad[np.array(starts)[heads]] += n * np.exp(plateau - log_head)
    grad *= sphere_area(n)
    return top, sums, [grad[a:b] for a, b in zip(starts[:-1], starts[1:])]


def functional_log_batch(profiles, params: ProblemParams, *,
                         gradient=False) -> list:
    """The functional of each profile as a LogValue; with gradient, (LogValue,
    node gradient) pairs.  Each segment's integral is kept as e^shift times
    a value, with shift the larger end value of the exponent (convex in t),
    so J past overflow stays exact in log; a profile's results are the same
    bit for bit in any batch, and J the same with or without the gradient.
    The gradient rows are the chain rule times the two hat weights.  Warns
    if a gradient row overflowed.

    At N = 2 every segment integral is a closed form in Dawson's function
    (dawson.segment_functional), exact to rounding with its gradient rows.
    At N >= 3 one quadrature.segment_functional call takes the live segments
    of all profiles: a fixed Gauss-Legendre layout worked out from each
    segment's end values, checked against 50-digit quadrature to 1e-12.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _functional_log_batch(profiles, params, gradient)


def _functional_log_batch(profiles, params, gradient):
    n, alpha, c = params.dim, params.alpha, params.dim - params.beta
    q, omega = params.exponent, sphere_area(n)
    live = LiveSegments.of(profiles)
    u_first, t_first = live.u_first, live.t_first
    heads = np.flatnonzero(u_first > 0.0)
    if n == 2:
        shift, *vals = dawson.segment_functional(live.t0, live.t1, live.u0,
                                                 live.u1, alpha, c, gradient)
        # the plateau: omega/c e^(c t_0) (e^x - 1) and its d/du_0, x = alpha u_0^2
        u, ct = u_first[heads], c * t_first[heads]
        x = alpha * u * u
        head_logs = math.log(omega / c) + ct + x + np.log(-np.expm1(-x))
        head_grads = (omega * 2.0 * alpha / c) * u * np.exp(x + ct) if gradient else []
    else:
        shift, *vals = quadrature.segment_functional(
            live.t0, live.t1, live.u0, live.u1, n, alpha, c, gradient)
        # the plateau: omega/c e^(c t_0) Phi_N(x) and its d/du_0, x = alpha u_0^q
        u, ct = u_first[heads], c * t_first[heads]
        x = alpha * u ** q
        head_logs = math.log(omega / c) + ct + log_phi(n, x)
        head_grads = (omega * alpha * q / c) * np.exp(
            log_phi(n - 1, x) + (q - 1.0) * np.log(u) + ct) if gradient else []
    # each profile's logs in a row, plateau first, padded with -inf, and
    # summed left to right by one logaddexp reduction
    bounds, owner = np.array(live.bounds), live.owner
    logs = np.full((len(live.firsts) - 1,
                    1 + (bounds[1:] - bounds[:-1]).max(initial=0)), -math.inf)
    logs[heads, 0] = head_logs
    seg_logs = shift + np.log(vals[0]) + math.log(omega)
    seg_logs[~np.isfinite(seg_logs)] = -math.inf
    logs[owner, 1 + np.arange(owner.size) - bounds[owner]] = seg_logs
    js = [LogValue(x) for x in np.logaddexp.reduce(logs, axis=1).tolist()]
    if not gradient:
        return js
    # left-node integrals of every segment first, then the right-node ones,
    # in units of e^shift (an empty bincount is of int dtype)
    rows = np.concatenate(vals[1:]) * np.exp(np.concatenate([shift, shift]))
    firsts = live.firsts
    grad = np.bincount(np.concatenate([live.node, live.node + 1]), omega * rows,
                       minlength=firsts[-1]).astype(float)
    grad[np.array(firsts[:-1], dtype=int)[heads]] += head_grads
    if not np.isfinite(grad).all():
        warnings.warn("node gradient saturated: integrand overflowed",
                      RuntimeWarning)
    return [(j, grad[a:b]) for j, a, b in zip(js, firsts[:-1], firsts[1:])]


def grad_norm_pow(profile: RadialProfile, params: ProblemParams) -> float:
    """Gradient norm power: exact closed form, zero quadrature error.

    On a log-affine segment with slope s the integrand |u'|^N r^{N-1} reduces
    to |s|^N / r, so each segment contributes |s|^N * log(r_{i+1}/r_i) and the
    plateau and tail contribute nothing.
    """
    return float(grad_norm_pow_nodes(profile.log_radii, profile.values, params))


def grad_norm_pow_nodes(t, u, params: ProblemParams, gradient=False):
    """grad_norm_pow, or with gradient its node gradient, of one profile's
    nodes t = log r and u or of each row of (k, m) arrays: closed forms."""
    n = params.dim
    dt, du = t[..., 1:] - t[..., :-1], u[..., 1:] - u[..., :-1]
    if not gradient:
        return sphere_area(n) * np.add.reduce(np.abs(du) ** n / dt ** (n - 1),
                                              axis=-1)
    edge = np.abs(du) ** (n - 1) * np.sign(du) / dt ** (n - 1)
    pad = np.zeros(edge.shape[:-1] + (1,))
    return sphere_area(n) * n * (np.concatenate([pad, edge], axis=-1)
                                 - np.concatenate([edge, pad], axis=-1))


def weighted_lp_pow(profile: RadialProfile, p: float, delta: float,
                    params: ProblemParams, rel_tol=None) -> float:
    """Weighted integral omega * int_0^inf u(r)^p r^(N-1-delta) dr, p an integer.

    Exact to rounding (see _segment_moments).  rel_tol is unused:
    perfbench/tracing.py's micro() passes it.
    """
    return weighted_lp_pow_batch([profile], p, delta, params)[0]


def weighted_lp_pow_batch(profiles, p, delta: float, params: ProblemParams,
                          log=False) -> list:
    """weighted_lp_pow of each profile (p: one or one per profile), bit for
    bit; with log their logs, finite where u^p overflows."""
    top, sums = _weighted_moments(profiles, p, delta, params)
    with np.errstate(divide="ignore"):
        return (math.log(sphere_area(params.dim)) + top + np.log(sums) if log
                else sphere_area(params.dim) * np.exp(top) * sums).tolist()


def weight_norm_batch(profiles, params: ProblemParams) -> list:
    """(weight norm power, its node gradient) of each profile, bit for bit."""
    top, sums, grads = _weighted_moments(profiles, params.dim, params.gamma,
                                         params, gradient=True)
    return list(zip((sphere_area(params.dim) * np.exp(top) * sums).tolist(),
                    grads))


def segment_weights(t0, t1, u0, u1, p: int, delta: float,
                    params: ProblemParams) -> np.ndarray:
    """omega int u^p r^(N-1-delta) dr over each segment alone: t = log r in
    [t0[i], t1[i]], u affine in t from u0[i] to u1[i] (0 if both are 0)."""
    live = (u0 > 0.0) | (u1 > 0.0)
    seg, log_scale, rest = _segment_moments(t0[live], t1[live], u0[live],
                                            u1[live], p, params.dim - delta)
    out = np.zeros(live.size)
    out[live] = np.bincount(seg, np.exp(log_scale) * rest, minlength=np.sum(live))
    return sphere_area(params.dim) * out


def norms(profile: RadialProfile, params: ProblemParams) -> NormReport:
    """Gradient, weighted, and full norm powers in one report."""
    g = grad_norm_pow(profile, params)
    w = weighted_lp_pow(profile, params.dim, params.gamma, params)
    return NormReport(grad_pow=g, weight_pow=w, full_pow=g + w)


def functional_log(profile: RadialProfile, params: ProblemParams,
                   rel_tol=None) -> LogValue:
    """omega * int_0^inf Phi_N(alpha u^(N/(N-1))) r^(N-1-beta) dr in log scale.
    rel_tol is unused: perfbench/tracing.py's micro() passes it."""
    return functional_log_batch([profile], params)[0]


def functional(profile: RadialProfile, params: ProblemParams) -> float:
    """Linear-scale functional value (inf when saturated; see functional_log)."""
    return functional_log(profile, params).value


def functional_gradient(profile: RadialProfile, params: ProblemParams,
                        rel_tol=None) -> np.ndarray:
    """Partial derivatives of the functional with respect to the node values.
    rel_tol is unused: perfbench/tracing.py's micro() passes it."""
    return functional_log_batch([profile], params, gradient=True)[0][1]


def norms_gradient(profile: RadialProfile, params: ProblemParams,
                   rel_tol=None):
    """Gradients of grad_pow and weight_pow with respect to node values.

    Both are exact (closed forms).  rel_tol is unused:
    perfbench/tracing.py's micro() passes it.
    """
    d_weight = weight_norm_batch([profile], params)[0][1]
    return (grad_norm_pow_nodes(profile.log_radii, profile.values, params,
                                gradient=True), d_weight)


def dilate(profile: RadialProfile, lam: float) -> RadialProfile:
    """Dilation u_lam(x) = u(lam x): log-radii minus log(lam), values unchanged.

    Leaves the gradient norm power invariant and scales the weighted norm
    power by lam^-(N - gamma).
    """
    if not (lam > 0 and math.isfinite(lam)):
        raise DomainError(f"dilation factor must be a positive real, got {lam}")
    return RadialProfile(log_radii=profile.log_radii - math.log(lam),
                         values=profile.values)


def dilated_norms(report: NormReport, lam: float,
                  params: ProblemParams) -> NormReport:
    """The norms of dilate(u, lam) from those of u, by the exact dilation laws."""
    w = lam ** (-(params.dim - params.gamma)) * report.weight_pow
    return NormReport(grad_pow=report.grad_pow, weight_pow=w,
                      full_pow=report.grad_pow + w)


def at_normalize(profile: RadialProfile, params: ProblemParams) -> RadialProfile:
    """Dilate so the weighted L^N norm is exactly 1; gradient norm untouched."""
    if profile.is_zero:
        raise DegenerateInputError("cannot normalize the zero profile")
    w = weighted_lp_pow(profile, params.dim, params.gamma, params)
    lam = w ** (1.0 / (params.dim - params.gamma))
    return dilate(profile, lam)


def random_nodes(rng: np.random.Generator, count: int, n_nodes: int = 10,
                 vmax: float = 2.0):
    """(t, u) node arrays of count seeded random profiles, checked (see
    checked_nodes): strictly increasing log grids, zero tails.

    Each row's n_nodes - 1 gaps in t = log r are uniform on [0.15, 1.2],
    stretched to span [t_lo, t_hi] = _RANDOM_T_SPAN; its node values are
    uniform on [0, vmax] and the last is set to 0.  Each row draws its gaps,
    then its values, by one rng.uniform call each, so a row's bits do not
    depend on count: row 0 of count draws is random_profile's.
    """
    t_lo, t_hi = _RANDOM_T_SPAN
    gaps, values = np.empty((count, n_nodes - 1)), np.empty((count, n_nodes))
    for row_gaps, row_values in zip(gaps, values):
        row_gaps[:] = rng.uniform(0.15, 1.2, size=n_nodes - 1)
        row_values[:] = rng.uniform(0.0, vmax, size=n_nodes)
    spans = np.concatenate([np.zeros((count, 1)), np.cumsum(gaps, axis=-1)],
                           axis=-1)
    t = t_lo + (t_hi - t_lo) * spans / np.add.reduce(gaps, axis=-1)[:, None]
    values[:, -1] = 0.0
    return checked_nodes(t, values, log=True)


def random_profile(rng: np.random.Generator, n_nodes: int = 10,
                   vmax: float = 2.0) -> RadialProfile:
    """The seeded random profile of random_nodes' batch of one."""
    t, u = random_nodes(rng, 1, n_nodes, vmax)
    return RadialProfile(log_radii=t[0], values=u[0])
