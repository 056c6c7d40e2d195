"""Radial profiles and the three weighted quantities computed on them.

A profile is a nonnegative radial function stored exactly as

    u(r) = u_0             for r <= r_0          (plateau)
    u(r)   affine in log r on [r_i, r_{i+1}]     (segments)
    u(r) = 0               for r >= r_M          (compact-support tail)

This class is closed under dilation and under the weighted-to-unweighted
change of functions, and it contains the concentrating log-cone sequences
exactly, so the gradient norm has a closed form with zero quadrature error.
The weighted L^p integrals and the exponential functional are integrated
segment by segment with adaptive Gauss-Kronrod quadrature in t = log r, where
every integrand is smooth.  Each integrated quantity is written once, as a
``Quantity`` (its integrand rows and its finish step), and "live segments ->
integrand -> integrate" is written once too, for any number of profiles:
integrate_batch lays the live segments of all profiles of a batch end to
end as the intervals of one quadrature call and finishes each profile on its
own slice.  So a caller that needs a value and its gradient on one profile
integrates it once, and a caller with many profiles integrates them together,
with each profile's results the same bit for bit as from a batch of one.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import LogValue, ProblemParams, log_phi, phi_derivative, sphere_area
from .errors import (DegenerateInputError, DivergentWeightError, DomainError,
                     ValidationError)
from .quadrature import integrate_segments

# Default relative tolerance for all segment quadrature.
TOL_QUAD = 1e-10
# The span [t_lo, t_hi] in t = log r of random_profile's grid.
_RANDOM_T_SPAN = (-7.0, 4.5)


@dataclass(frozen=True)
class RadialProfile:
    """Plateau + piecewise-log-affine radial function with compact support."""

    radii: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        radii = np.atleast_1d(np.asarray(self.radii, dtype=float)).copy()
        values = np.atleast_1d(np.asarray(self.values, dtype=float)).copy()
        if radii.ndim != 1 or values.ndim != 1:
            raise ValidationError("radii and values must be one-dimensional")
        if radii.size != values.size or radii.size == 0:
            raise ValidationError("radii and values must have equal nonzero length")
        if not np.all(np.isfinite(radii)) or not np.all(np.isfinite(values)):
            raise ValidationError("radii and values must be finite")
        if radii[0] <= 0.0 or np.any(np.diff(radii) <= 0.0):
            raise ValidationError("radii must be strictly increasing and positive")
        if np.any(values < 0.0):
            raise ValidationError("node values must be nonnegative")
        if values[-1] != 0.0:
            raise ValidationError("last node value must be 0 (compact support)")
        radii.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "values", values)

    @cached_property
    def log_radii(self) -> np.ndarray:
        t = np.log(self.radii)
        t.setflags(write=False)
        return t

    @property
    def num_nodes(self) -> int:
        return self.radii.size

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.values == 0.0))

    def value_at(self, r):
        """Pointwise evaluation; accepts scalars or arrays."""
        arr = np.asarray(r, dtype=float)
        if np.any(arr < 0):
            raise DomainError("radius must be nonnegative")
        with np.errstate(divide="ignore"):
            t = np.log(np.atleast_1d(arr))
        out = np.interp(t, self.log_radii, self.values,
                        left=self.values[0], right=0.0)
        out[np.atleast_1d(arr) >= self.radii[-1]] = 0.0
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    def scaled(self, c: float) -> "RadialProfile":
        """Amplitude scaling c*u, c >= 0."""
        if c < 0:
            raise DomainError("amplitude factor must be nonnegative")
        return RadialProfile(self.radii, c * self.values)

    def with_values(self, values) -> "RadialProfile":
        return RadialProfile(self.radii, values)

    def to_dict(self) -> dict:
        return {"radii": self.radii.tolist(), "values": self.values.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "RadialProfile":
        try:
            return cls(np.asarray(data["radii"]), np.asarray(data["values"]))
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed profile object: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "RadialProfile":
        return cls.from_dict(json.loads(text))


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

    Profile b owns entries bounds[b]:bounds[b+1], in segment order.  idx is
    each entry's segment index in its own profile; (t0, u0) and (t1, u1) are
    the segment's end nodes in t = log r.
    """

    profiles: tuple
    bounds: list
    idx: np.ndarray
    t0: np.ndarray
    t1: np.ndarray
    u0: np.ndarray
    u1: np.ndarray

    @classmethod
    def of(cls, profiles) -> "LiveSegments":
        """The table of one or more profiles."""
        profiles = tuple(profiles)
        parts = []
        for p in profiles:
            i = np.nonzero((p.values[:-1] > 0.0) | (p.values[1:] > 0.0))[0]
            j = i + 1
            parts.append((i, p.log_radii[i], p.log_radii[j], p.values[i],
                          p.values[j]))
        columns = (parts[0] if len(parts) == 1
                   else [np.concatenate(c) for c in zip(*parts)])
        bounds = list(itertools.accumulate((c[0].size for c in parts), initial=0))
        return cls(profiles, bounds, *columns)


class Quantity(NamedTuple):
    """One integral over the live segments of every profile in a batch.

    bind(live) prepares the quantity for one LiveSegments table and returns
    (rows, finish): rows(t, u, seg) gives its k integrand rows, shape (k, n),
    at log-radii t, profile values u and table entries seg; finish(b, vals)
    turns the integrals over profile b's live segments, shape (k, n_b), into
    the result and adds the exact plateau piece.
    """

    k: int
    bind: Callable


def _integrate_live(live: LiveSegments, quantities, rel_tol: float):
    """(finish steps, integrals (sum of k, entries)) of quantities on a table."""
    bound = [q.bind(live) for q in quantities]
    if live.idx.size == 0:
        vals = np.zeros((sum(q.k for q in quantities), 0))
    else:
        slope = (live.u1 - live.u0) / (live.t1 - live.t0)

        def f(t, seg):
            u = np.maximum(live.u0[seg] + slope[seg] * (t - live.t0[seg]), 0.0)
            return np.concatenate([rows(t, u, seg) for rows, _ in bound])

        vals, _, _ = integrate_segments(f, live.t0, live.t1, rel_tol=rel_tol)
    return [finish for _, finish in bound], vals


def integrate_batch(profiles, quantities, rel_tol: float = TOL_QUAD) -> list:
    """results[b][i], quantity i on profile b, from one quadrature pass.

    The live segments of all profiles are laid end to end as the intervals
    of one integrate_segments call, which warns once if any reaches its panel
    cap.  integrate_segments refines each interval on its own, so a profile's
    results are the same bit for bit as from a batch of that profile alone.
    The rows of the quantities are stacked, so within one profile they do
    share refinement: a segment is refined until every row meets rel_tol,
    and where another row forces a split a quantity can differ from its value
    integrated alone by up to rel_tol.
    """
    if not profiles:
        return []
    live = LiveSegments.of(profiles)
    finishes, vals = _integrate_live(live, quantities, rel_tol)
    rows = list(itertools.accumulate((q.k for q in quantities), initial=0))
    return [[finish(b, vals[r0:r1, lo:hi])
             for finish, r0, r1 in zip(finishes, rows[:-1], rows[1:])]
            for b, (lo, hi) in enumerate(zip(live.bounds[:-1], live.bounds[1:]))]


def _hat_gradient(params: ProblemParams, base, plateau) -> Quantity:
    """Node gradient of omega * int base(t, u) dt, plus plateau(profile) at node 0.

    Each segment's integrals of base times its two interpolation hat weights
    go to the segment's left and right node.  Warns if an integrand overflowed.
    """
    omega = sphere_area(params.dim)

    def bind(live):
        dt = live.t1 - live.t0

        def rows(t, u, seg):
            b = base(t, u)
            w_right = (t - live.t0[seg]) / dt[seg]
            return np.stack([b * (1.0 - w_right), b * w_right])

        def finish(b, vals):
            profile = live.profiles[b]
            idx = live.idx[live.bounds[b]:live.bounds[b + 1]]
            out = np.zeros(profile.num_nodes)
            # left-node integrals of every segment first, then the right-node ones
            np.add.at(out, np.concatenate([idx, idx + 1]),
                      omega * vals.ravel())
            out[0] += plateau(profile)
            if not np.all(np.isfinite(out)):
                warnings.warn("node gradient saturated: integrand overflowed",
                              RuntimeWarning)
            return out

        return rows, finish

    return Quantity(2, bind)


def weight_quantity(p, delta: float, params: ProblemParams) -> Quantity:
    """omega * int_0^inf u(r)^p r^(N-1-delta) dr, as a float.

    p is one exponent, or a sequence of one exponent per profile of the
    batch.  Each profile's rows are evaluated with its own scalar exponent:
    an array exponent in u ** p can change the last bit.  The plateau piece
    is exact; segments are integrated in t = log r, where the weight becomes
    the smooth factor e^((N-delta) t).
    """
    scalar = np.isscalar(p)
    exponents = [p] if scalar else [float(x) for x in p]
    for x in exponents:
        if x < 1:
            raise DomainError(f"exponent p must be >= 1, got {x}")
    n = params.dim
    if delta >= n:
        raise DivergentWeightError(
            f"weight exponent {delta} >= dimension {n}: plateau integral diverges")
    omega = sphere_area(n)
    c = n - delta

    def bind(live):
        if scalar:
            def rows(t, u, seg):
                return (u ** p * np.exp(c * t))[None, :]
        else:
            entry_item = np.repeat(np.arange(len(live.profiles)),
                                   np.diff(live.bounds))

            def rows(t, u, seg):
                item = entry_item[seg]
                out = np.empty((1, t.size))
                for b, x in enumerate(exponents):
                    sel = item == b
                    out[0, sel] = u[sel] ** x * np.exp(c * t[sel])
                return out

        def finish(b, vals):
            profile = live.profiles[b]
            x = exponents[0] if scalar else exponents[b]
            plateau = omega * profile.values[0] ** x * profile.radii[0] ** c / c
            return plateau + omega * float(vals.sum())

        return rows, finish

    return Quantity(1, bind)


def weight_gradient_quantity(params: ProblemParams) -> Quantity:
    """Node gradient of the weight norm power (p = N, weight |x|^-gamma)."""
    n = params.dim
    c = n - params.gamma
    omega = sphere_area(n)

    def plateau(profile):
        return (omega * n * profile.values[0] ** (n - 1)
                * profile.radii[0] ** c / c)

    return _hat_gradient(params, lambda t, u: n * u ** (n - 1) * np.exp(c * t),
                         plateau)


def functional_quantity(params: ProblemParams) -> Quantity:
    """The exponential functional as a LogValue.

    Each segment is integrated after factoring out the maximum of the
    log-integrand (attained at an endpoint: the exponent is convex in t), so
    blow-up-regime values that overflow linear doubles stay exact in ``log``.
    """
    n, alpha, beta = params.dim, params.alpha, params.beta
    q = params.exponent
    omega = sphere_area(n)
    c = n - beta

    def bind(live):
        shift = np.maximum(alpha * live.u0 ** q + c * live.t0,
                           alpha * live.u1 ** q + c * live.t1)

        def rows(t, u, seg):
            with np.errstate(divide="ignore"):
                g = log_phi(n, alpha * u ** q) + c * t - shift[seg]
            return np.exp(g)[None, :]

        def finish(b, vals):
            profile = live.profiles[b]
            logs = []
            u0 = profile.values[0]
            if u0 > 0.0:
                logs.append(math.log(omega / c) + c * profile.log_radii[0]
                            + log_phi(n, alpha * u0 ** q))
            with np.errstate(divide="ignore"):
                seg_logs = (shift[live.bounds[b]:live.bounds[b + 1]]
                            + np.log(vals[0]) + math.log(omega))
            logs += list(seg_logs[np.isfinite(seg_logs)])
            if not logs:
                return LogValue(-math.inf)
            return LogValue(float(np.logaddexp.reduce(np.asarray(logs))))

        return rows, finish

    return Quantity(1, bind)


def functional_gradient_quantity(params: ProblemParams) -> Quantity:
    """Node gradient of the functional.

    Differentiates the plateau closed form and the segment integrands through
    the chain rule; the interpolation hat weights confine each segment's
    contribution to its two nodes.
    """
    n, alpha, beta = params.dim, params.alpha, params.beta
    q = params.exponent
    c = n - beta
    omega = sphere_area(n)

    def base(t, u):
        with np.errstate(over="ignore"):
            return (phi_derivative(n, alpha * u ** q)
                    * alpha * q * u ** (q - 1.0) * np.exp(c * t))

    def plateau(profile):
        u0 = profile.values[0]
        return (omega * phi_derivative(n, alpha * u0 ** q)
                * alpha * q * u0 ** (q - 1.0)
                * profile.radii[0] ** c / c)

    return _hat_gradient(params, base, plateau)


def grad_norm_pow(profile: RadialProfile, params: ProblemParams) -> float:
    """Gradient norm power: exact closed form, zero quadrature error.

    On a log-affine segment with slope s the integrand |u'|^N r^{N-1} reduces
    to |s|^N / r, so each segment contributes |s|^N * log(r_{i+1}/r_i) and the
    plateau and tail contribute nothing.
    """
    n = params.dim
    dt = np.diff(profile.log_radii)
    du = np.diff(profile.values)
    return sphere_area(n) * float(np.sum(np.abs(du) ** n / dt ** (n - 1)))


def grad_norm_pow_gradient(profile: RadialProfile,
                           params: ProblemParams) -> np.ndarray:
    """Node gradient of grad_norm_pow: exact closed form, no quadrature."""
    n = params.dim
    dt = np.diff(profile.log_radii)
    du = np.diff(profile.values)
    edge = np.abs(du) ** (n - 1) * np.sign(du) / dt ** (n - 1)
    return sphere_area(n) * n * (np.concatenate([[0.0], edge])
                                 - np.concatenate([edge, [0.0]]))


def weighted_lp_pow(profile: RadialProfile, p: float, delta: float,
                    params: ProblemParams, rel_tol: float = TOL_QUAD) -> float:
    """Weighted integral omega * int_0^inf u(r)^p r^(N-1-delta) dr."""
    return weighted_lp_pow_batch([profile], p, delta, params, rel_tol)[0]


def weighted_lp_pow_batch(profiles, p, delta: float, params: ProblemParams,
                          rel_tol: float = TOL_QUAD) -> list:
    """weighted_lp_pow of each profile from one quadrature pass, bit for bit.

    p is one exponent, or a sequence of one exponent per profile.
    """
    quantity = weight_quantity(p, delta, params)
    return [w for w, in integrate_batch(profiles, [quantity], rel_tol)]


def weighted_lp_pow_cuts(profile: RadialProfile, p: float, delta: float,
                         params: ProblemParams, rel_tol: float = TOL_QUAD):
    """weighted_lp_pow of a profile and of its cuts, from one quadrature pass.

    Returns (total, cut): cut(m), 1 <= m < num_nodes, is weighted_lp_pow of
    the profile with values[m:] set to 0, bit for bit.  That cut keeps the
    live segments before m - 1 and replaces segment m - 1 by a ramp down to
    0, so one pass over the live segments and every such ramp gives them all.
    """
    live = LiveSegments.of([profile])
    ramp = live.u0 > 0.0
    ramp_idx = live.idx[ramp]
    n_live = live.idx.size
    # the ramps follow the live segments as more entries of profile 0
    both = LiveSegments(
        live.profiles, [0, n_live + ramp_idx.size],
        *[np.concatenate([col, col[ramp]]) for col in live[2:6]],
        np.concatenate([live.u1, np.zeros(ramp_idx.size)]))
    (finish,), vals = _integrate_live(both, [weight_quantity(p, delta, params)],
                                      rel_tol)
    seg_vals, ramp_vals = vals[:, :n_live], vals[:, n_live:]

    def cut(m):
        return finish(0, np.concatenate([seg_vals[:, live.idx < m - 1],
                                         ramp_vals[:, ramp_idx == m - 1]], axis=1))

    return finish(0, seg_vals), cut


def norms(profile: RadialProfile, params: ProblemParams,
          rel_tol: float = TOL_QUAD) -> NormReport:
    """Gradient, weighted, and full norm powers in one report."""
    g = grad_norm_pow(profile, params)
    w = weighted_lp_pow(profile, params.dim, params.gamma, params, rel_tol=rel_tol)
    return NormReport(grad_pow=g, weight_pow=w, full_pow=g + w)


def functional_log(profile: RadialProfile, params: ProblemParams,
                   rel_tol: float = TOL_QUAD) -> LogValue:
    """omega * int_0^inf Phi_N(alpha u^(N/(N-1))) r^(N-1-beta) dr in log scale."""
    return functional_log_batch([profile], params, rel_tol)[0]


def functional_log_batch(profiles, params: ProblemParams,
                         rel_tol: float = TOL_QUAD) -> list:
    """functional_log of each profile from one quadrature pass, bit for bit."""
    quantity = functional_quantity(params)
    return [j for j, in integrate_batch(profiles, [quantity], rel_tol)]


def functional(profile: RadialProfile, params: ProblemParams,
               rel_tol: float = TOL_QUAD) -> float:
    """Linear-scale functional value (inf when saturated; see functional_log)."""
    return functional_log(profile, params, rel_tol=rel_tol).value


def functional_gradient(profile: RadialProfile, params: ProblemParams,
                        rel_tol: float = TOL_QUAD) -> np.ndarray:
    """Partial derivatives of the functional with respect to the node values."""
    quantity = functional_gradient_quantity(params)
    return integrate_batch([profile], [quantity], rel_tol)[0][0]


def norms_gradient(profile: RadialProfile, params: ProblemParams,
                   rel_tol: float = TOL_QUAD):
    """Gradients of grad_pow and weight_pow with respect to node values."""
    quantity = weight_gradient_quantity(params)
    d_weight = integrate_batch([profile], [quantity], rel_tol)[0][0]
    return grad_norm_pow_gradient(profile, params), d_weight


def dilate(profile: RadialProfile, lam: float) -> RadialProfile:
    """Dilation u_lam(x) = u(lam x): radii divided by lam, values unchanged.

    Leaves the gradient norm power invariant and scales the weighted norm
    power by lam^-(N - gamma).
    """
    if not (lam > 0 and math.isfinite(lam)):
        raise DomainError(f"dilation factor must be a positive real, got {lam}")
    return RadialProfile(profile.radii / lam, profile.values)


def dilated_norms(report: NormReport, lam: float,
                  params: ProblemParams) -> NormReport:
    """The norms of dilate(u, lam) from those of u, by the exact dilation laws."""
    w = lam ** (-(params.dim - params.gamma)) * report.weight_pow
    return NormReport(grad_pow=report.grad_pow, weight_pow=w,
                      full_pow=report.grad_pow + w)


def at_normalize(profile: RadialProfile, params: ProblemParams,
                 rel_tol: float = TOL_QUAD) -> RadialProfile:
    """Dilate so the weighted L^N norm is exactly 1; gradient norm untouched."""
    if profile.is_zero:
        raise DegenerateInputError("cannot normalize the zero profile")
    w = weighted_lp_pow(profile, params.dim, params.gamma, params, rel_tol=rel_tol)
    lam = w ** (1.0 / (params.dim - params.gamma))
    return dilate(profile, lam)


def random_profile(rng: np.random.Generator, n_nodes: int = 10,
                   vmax: float = 2.0) -> RadialProfile:
    """Seeded random profile: strictly increasing log grid, zero tail.

    The n_nodes - 1 gaps in t = log r are uniform on [0.15, 1.2], stretched
    to span [t_lo, t_hi] = _RANDOM_T_SPAN; the node values are uniform on
    [0, vmax] and the last is set to 0.
    """
    t_lo, t_hi = _RANDOM_T_SPAN
    gaps = rng.uniform(0.15, 1.2, size=n_nodes - 1)
    t = t_lo + (t_hi - t_lo) * np.concatenate([[0.0], np.cumsum(gaps)]) / np.sum(gaps)
    values = rng.uniform(0.0, vmax, size=n_nodes)
    values[-1] = 0.0
    return RadialProfile(np.exp(t), values)
