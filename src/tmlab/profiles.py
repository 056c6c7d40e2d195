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
``Quantity`` (its integrand rows and its finish step); integrate_quantities
evaluates any list of them in one quadrature pass, so a caller that needs a
value and its gradient on the same profile integrates the profile once.
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

from .core import LogValue, ProblemParams, log_phi, phi, phi_derivative
from .errors import (DegenerateInputError, DivergentWeightError, DomainError,
                     ValidationError)
from .quadrature import integrate_segments

# Default relative tolerance for all segment quadrature.
TOL_QUAD = 1e-10


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


class Quantity(NamedTuple):
    """One integral over a profile's live segments, ready to be fused.

    rows(t, u, seg) gives the quantity's k integrand rows, shape (k, n), at
    log-radii t, profile values u and segment indices seg.  finish(idx, vals)
    turns the integrals over the live segments idx, shape (k, idx.size), into
    the result and adds the exact plateau piece.  A quantity is built for one
    profile and integrated on that profile.
    """

    k: int
    rows: Callable
    finish: Callable


def integrate_quantities(profile: RadialProfile, quantities,
                         rel_tol: float = TOL_QUAD) -> list:
    """The results of several quantities on one profile from one quadrature pass.

    The integrand rows of all quantities are stacked into a single
    integrate_segments call over the segments where u is not zero, which warns
    once if it reaches its panel cap.  A segment is refined until every row
    meets rel_tol, so where another row forces a split a quantity can differ
    from its value integrated alone by up to rel_tol; where no segment needs
    a second round the results are the same bit for bit.
    """
    tn, un = profile.log_radii, profile.values
    idx = np.nonzero((un[:-1] > 0.0) | (un[1:] > 0.0))[0]
    bounds = list(itertools.accumulate([q.k for q in quantities], initial=0))
    if idx.size == 0:
        vals = np.zeros((bounds[-1], 0))
    else:
        slope = np.diff(un) / np.diff(tn)

        def f(t, live_seg):
            seg = idx[live_seg]
            u = np.maximum(un[seg] + slope[seg] * (t - tn[seg]), 0.0)
            return np.concatenate([q.rows(t, u, seg) for q in quantities])

        vals, _, _ = integrate_segments(f, tn[idx], tn[idx + 1], rel_tol=rel_tol)
    return [q.finish(idx, vals[a:b])
            for q, a, b in zip(quantities, bounds[:-1], bounds[1:])]


def _hat_gradient(profile: RadialProfile, params: ProblemParams, base,
                  plateau: float) -> Quantity:
    """Node gradient of omega * int base(t, u) dt, plus plateau at node 0.

    Each segment's integrals of base times its two interpolation hat weights
    go to the segment's left and right node.
    """
    tn, dt = profile.log_radii, np.diff(profile.log_radii)

    def rows(t, u, seg):
        b = base(t, u)
        w_right = (t - tn[seg]) / dt[seg]
        return np.stack([b * (1.0 - w_right), b * w_right])

    def finish(idx, vals):
        out = np.zeros(profile.num_nodes)
        # left-node integrals of every segment first, then the right-node ones
        np.add.at(out, np.concatenate([idx, idx + 1]),
                  params.sphere_area * vals.ravel())
        out[0] += plateau
        return out

    return Quantity(2, rows, finish)


def weight_quantity(profile: RadialProfile, p: float, delta: float,
                    params: ProblemParams) -> Quantity:
    """omega * int_0^inf u(r)^p r^(N-1-delta) dr, as a float.

    The plateau piece is exact; segments are integrated in t = log r, where
    the weight becomes the smooth factor e^((N-delta) t).
    """
    if p < 1:
        raise DomainError(f"exponent p must be >= 1, got {p}")
    n = params.dim
    if delta >= n:
        raise DivergentWeightError(
            f"weight exponent {delta} >= dimension {n}: plateau integral diverges")
    omega = params.sphere_area
    c = n - delta
    plateau = omega * profile.values[0] ** p * profile.radii[0] ** c / c
    return Quantity(1, lambda t, u, seg: (u ** p * np.exp(c * t))[None, :],
                    lambda idx, vals: plateau + omega * float(vals.sum()))


def weight_gradient_quantity(profile: RadialProfile,
                             params: ProblemParams) -> Quantity:
    """Node gradient of the weight norm power (p = N, weight |x|^-gamma)."""
    n = params.dim
    c = n - params.gamma
    plateau = (params.sphere_area * n * profile.values[0] ** (n - 1)
               * profile.radii[0] ** c / c)
    return _hat_gradient(profile, params,
                         lambda t, u: n * u ** (n - 1) * np.exp(c * t), plateau)


def functional_quantity(profile: RadialProfile,
                        params: ProblemParams) -> Quantity:
    """The exponential functional as a LogValue.

    Each segment is integrated after factoring out the maximum of the
    log-integrand (attained at an endpoint: the exponent is convex in t), so
    blow-up-regime values that overflow linear doubles stay exact in ``log``.
    """
    n, alpha, beta = params.dim, params.alpha, params.beta
    q = params.exponent
    omega = params.sphere_area
    c = n - beta
    plateau_logs = []
    u0 = profile.values[0]
    if u0 > 0.0:
        plateau_logs.append(math.log(omega / c) + c * profile.log_radii[0]
                            + log_phi(n, alpha * u0 ** q))
    node_logs = alpha * profile.values ** q + c * profile.log_radii
    shift = np.maximum(node_logs[:-1], node_logs[1:])

    def rows(t, u, seg):
        with np.errstate(divide="ignore"):
            g = log_phi(n, alpha * u ** q) + c * t - shift[seg]
        return np.exp(g)[None, :]

    def finish(idx, vals):
        with np.errstate(divide="ignore"):
            seg_logs = shift[idx] + np.log(vals[0]) + math.log(omega)
        logs = plateau_logs + list(seg_logs[np.isfinite(seg_logs)])
        if not logs:
            return LogValue(-math.inf)
        return LogValue(float(np.logaddexp.reduce(np.asarray(logs))))

    return Quantity(1, rows, finish)


def functional_gradient_quantity(profile: RadialProfile,
                                 params: ProblemParams) -> Quantity:
    """Node gradient of the functional; warns if an integrand overflows.

    Differentiates the plateau closed form and the segment integrands through
    the chain rule; the interpolation hat weights confine each segment's
    contribution to its two nodes.
    """
    n, alpha, beta = params.dim, params.alpha, params.beta
    q = params.exponent
    c = n - beta

    def base(t, u):
        with np.errstate(over="ignore"):
            return (phi_derivative(n, alpha * u ** q)
                    * alpha * q * u ** (q - 1.0) * np.exp(c * t))

    u0 = profile.values[0]
    plateau = (params.sphere_area * phi_derivative(n, alpha * u0 ** q)
               * alpha * q * u0 ** (q - 1.0)
               * profile.radii[0] ** c / c)
    hat = _hat_gradient(profile, params, base, plateau)

    def finish(idx, vals):
        grad = hat.finish(idx, vals)
        if not np.all(np.isfinite(grad)):
            warnings.warn("functional_gradient saturated: integrand overflowed",
                          RuntimeWarning)
        return grad

    return hat._replace(finish=finish)


def grad_norm_pow(profile: RadialProfile, params: ProblemParams) -> float:
    """Gradient norm power: exact closed form, zero quadrature error.

    On a log-affine segment with slope s the integrand |u'|^N r^{N-1} reduces
    to |s|^N / r, so each segment contributes |s|^N * log(r_{i+1}/r_i) and the
    plateau and tail contribute nothing.
    """
    n = params.dim
    dt = np.diff(profile.log_radii)
    du = np.diff(profile.values)
    return params.sphere_area * float(np.sum(np.abs(du) ** n / dt ** (n - 1)))


def grad_norm_pow_gradient(profile: RadialProfile,
                           params: ProblemParams) -> np.ndarray:
    """Node gradient of grad_norm_pow: exact closed form, no quadrature."""
    n = params.dim
    dt = np.diff(profile.log_radii)
    du = np.diff(profile.values)
    edge = np.abs(du) ** (n - 1) * np.sign(du) / dt ** (n - 1)
    return params.sphere_area * n * (np.concatenate([[0.0], edge])
                                     - np.concatenate([edge, [0.0]]))


def weighted_lp_pow(profile: RadialProfile, p: float, delta: float,
                    params: ProblemParams, rel_tol: float = TOL_QUAD) -> float:
    """Weighted integral omega * int_0^inf u(r)^p r^(N-1-delta) dr."""
    quantity = weight_quantity(profile, p, delta, params)
    return integrate_quantities(profile, [quantity], rel_tol)[0]


def norms(profile: RadialProfile, params: ProblemParams,
          rel_tol: float = TOL_QUAD) -> NormReport:
    """Gradient, weighted, and full norm powers in one report."""
    g = grad_norm_pow(profile, params)
    w = weighted_lp_pow(profile, params.dim, params.gamma, params, rel_tol=rel_tol)
    return NormReport(grad_pow=g, weight_pow=w, full_pow=g + w)


def functional_log(profile: RadialProfile, params: ProblemParams,
                   rel_tol: float = TOL_QUAD) -> LogValue:
    """omega * int_0^inf Phi_N(alpha u^(N/(N-1))) r^(N-1-beta) dr in log scale."""
    quantity = functional_quantity(profile, params)
    return integrate_quantities(profile, [quantity], rel_tol)[0]


def functional(profile: RadialProfile, params: ProblemParams,
               rel_tol: float = TOL_QUAD) -> float:
    """Linear-scale functional value (inf when saturated; see functional_log)."""
    return functional_log(profile, params, rel_tol=rel_tol).value


def functional_gradient(profile: RadialProfile, params: ProblemParams,
                        rel_tol: float = TOL_QUAD) -> np.ndarray:
    """Partial derivatives of the functional with respect to the node values."""
    quantity = functional_gradient_quantity(profile, params)
    return integrate_quantities(profile, [quantity], rel_tol)[0]


def norms_gradient(profile: RadialProfile, params: ProblemParams,
                   rel_tol: float = TOL_QUAD):
    """Gradients of grad_pow and weight_pow with respect to node values."""
    quantity = weight_gradient_quantity(profile, params)
    d_weight = integrate_quantities(profile, [quantity], rel_tol)[0]
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
                   t_lo: float = -7.0, t_hi: float = 4.5,
                   vmax: float = 2.0) -> RadialProfile:
    """Seeded random profile: strictly increasing log grid, zero tail.

    The n_nodes - 1 gaps in t = log r are uniform on [0.15, 1.2], stretched
    to span [t_lo, t_hi]; the node values are uniform on [0, vmax] and the
    last is set to 0.
    """
    gaps = rng.uniform(0.15, 1.2, size=n_nodes - 1)
    t = t_lo + (t_hi - t_lo) * np.concatenate([[0.0], np.cumsum(gaps)]) / np.sum(gaps)
    values = rng.uniform(0.0, vmax, size=n_nodes)
    values[-1] = 0.0
    return RadialProfile(np.exp(t), values)
