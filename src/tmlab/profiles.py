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
every integrand is smooth.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

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


def _integrate_live(profile: RadialProfile, integrand, rel_tol: float):
    """Integrate integrand(t, u, seg) over the segments where u is not zero.

    The integrand gets flat arrays of log-radii t, the profile's values u
    there and the segment of each point, an index into all segments; it
    returns (k, n) values.  Returns the indices of the live segments and their
    integrals, shape (k, live count).  integrate_segments warns if it reaches
    its panel cap.
    """
    tn, un = profile.log_radii, profile.values
    idx = np.nonzero((un[:-1] > 0.0) | (un[1:] > 0.0))[0]
    if idx.size == 0:
        return idx, np.zeros((1, 0))
    slope = np.diff(un) / np.diff(tn)

    def f(t, live_seg):
        seg = idx[live_seg]
        u = np.maximum(un[seg] + slope[seg] * (t - tn[seg]), 0.0)
        return integrand(t, u, seg)

    vals, _, _ = integrate_segments(f, tn[idx], tn[idx + 1], rel_tol=rel_tol)
    return idx, vals


def _hat_integrals(profile: RadialProfile, params: ProblemParams, base,
                   rel_tol: float) -> np.ndarray:
    """Node gradient of omega * int base(t, u) dt over the live segments.

    Each segment's integrals of base times its two interpolation hat weights
    go to the segment's left and right node.
    """
    tn, dt = profile.log_radii, np.diff(profile.log_radii)

    def integrand(t, u, seg):
        b = base(t, u)
        w_right = (t - tn[seg]) / dt[seg]
        return np.stack([b * (1.0 - w_right), b * w_right])

    idx, vals = _integrate_live(profile, integrand, rel_tol)
    out = np.zeros(profile.num_nodes)
    # left-node integrals of every segment first, then the right-node ones
    np.add.at(out, np.concatenate([idx, idx + 1]),
              params.sphere_area * vals.ravel())
    return out


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


def weighted_lp_pow(profile: RadialProfile, p: float, delta: float,
                    params: ProblemParams, rel_tol: float = TOL_QUAD) -> float:
    """Weighted integral omega * int_0^inf u(r)^p r^(N-1-delta) dr.

    The plateau piece is exact; segments are integrated adaptively in
    t = log r, where the weight becomes the smooth factor e^((N-delta) t).
    """
    if p < 1:
        raise DomainError(f"exponent p must be >= 1, got {p}")
    n = params.dim
    if delta >= n:
        raise DivergentWeightError(
            f"weight exponent {delta} >= dimension {n}: plateau integral diverges")
    omega = params.sphere_area
    c = n - delta
    u0 = profile.values[0]
    total = omega * u0 ** p * profile.radii[0] ** c / c
    _, vals = _integrate_live(
        profile, lambda t, u, seg: (u ** p * np.exp(c * t))[None, :], rel_tol)
    return total + omega * float(vals.sum())


def norms(profile: RadialProfile, params: ProblemParams,
          rel_tol: float = TOL_QUAD) -> NormReport:
    """Gradient, weighted, and full norm powers in one report."""
    g = grad_norm_pow(profile, params)
    w = weighted_lp_pow(profile, params.dim, params.gamma, params, rel_tol=rel_tol)
    return NormReport(grad_pow=g, weight_pow=w, full_pow=g + w)


def functional_log(profile: RadialProfile, params: ProblemParams,
                   rel_tol: float = TOL_QUAD) -> LogValue:
    """The exponential functional in log scale.

    Computes omega * int_0^inf Phi_N(alpha u^(N/(N-1))) r^(N-1-beta) dr.  Each
    segment is integrated after factoring out the maximum of the log-integrand
    (attained at an endpoint: the exponent is convex in t), so blow-up-regime
    values that overflow linear doubles are still returned exactly in ``log``.
    """
    n, alpha, beta = params.dim, params.alpha, params.beta
    q = params.exponent
    omega = params.sphere_area
    c = n - beta
    piece_logs = []
    u0 = profile.values[0]
    if u0 > 0.0:
        piece_logs.append(math.log(omega / c) + c * profile.log_radii[0]
                          + log_phi(n, alpha * u0 ** q))
    node_logs = alpha * profile.values ** q + c * profile.log_radii
    shift = np.maximum(node_logs[:-1], node_logs[1:])

    def integrand(t, u, seg):
        with np.errstate(divide="ignore"):
            g = log_phi(n, alpha * u ** q) + c * t - shift[seg]
        return np.exp(g)[None, :]

    idx, vals = _integrate_live(profile, integrand, rel_tol)
    with np.errstate(divide="ignore"):
        seg_logs = shift[idx] + np.log(vals[0]) + math.log(omega)
    piece_logs.extend(seg_logs[np.isfinite(seg_logs)])
    if not piece_logs:
        return LogValue(-math.inf)
    return LogValue(float(np.logaddexp.reduce(np.asarray(piece_logs))))


def functional(profile: RadialProfile, params: ProblemParams,
               rel_tol: float = TOL_QUAD) -> float:
    """Linear-scale functional value (inf when saturated; see functional_log)."""
    return functional_log(profile, params, rel_tol=rel_tol).value


def functional_gradient(profile: RadialProfile, params: ProblemParams,
                        rel_tol: float = TOL_QUAD) -> np.ndarray:
    """Partial derivatives of the functional with respect to the node values.

    Differentiates the plateau closed form and the segment integrands through
    the chain rule; the interpolation hat weights confine each segment's
    contribution to its two nodes.  Emits a warning if an integrand overflows.
    """
    n, alpha, beta = params.dim, params.alpha, params.beta
    q = params.exponent
    omega = params.sphere_area
    c = n - beta

    def base(t, u):
        with np.errstate(over="ignore"):
            return (phi_derivative(n, alpha * u ** q)
                    * alpha * q * u ** (q - 1.0) * np.exp(c * t))

    grad = _hat_integrals(profile, params, base, rel_tol)
    u0 = profile.values[0]
    grad[0] += (omega * phi_derivative(n, alpha * u0 ** q)
                * alpha * q * u0 ** (q - 1.0)
                * profile.radii[0] ** c / c)
    if not np.all(np.isfinite(grad)):
        warnings.warn("functional_gradient saturated: integrand overflowed",
                      RuntimeWarning)
    return grad


def norms_gradient(profile: RadialProfile, params: ProblemParams,
                   rel_tol: float = TOL_QUAD):
    """Gradients of grad_pow and weight_pow with respect to node values."""
    n = params.dim
    omega = params.sphere_area
    dt = np.diff(profile.log_radii)
    du = np.diff(profile.values)
    edge = np.abs(du) ** (n - 1) * np.sign(du) / dt ** (n - 1)
    d_grad = omega * n * (np.concatenate([[0.0], edge])
                          - np.concatenate([edge, [0.0]]))

    c = n - params.gamma
    d_weight = _hat_integrals(
        profile, params, lambda t, u: n * u ** (n - 1) * np.exp(c * t), rel_tol)
    u0 = profile.values[0]
    d_weight[0] += omega * n * u0 ** (n - 1) * profile.radii[0] ** c / c
    return d_grad, d_weight


def dilate(profile: RadialProfile, lam: float) -> RadialProfile:
    """Dilation u_lam(x) = u(lam x): radii divided by lam, values unchanged.

    Leaves the gradient norm power invariant and scales the weighted norm
    power by lam^-(N - gamma).
    """
    if not (lam > 0 and math.isfinite(lam)):
        raise DomainError(f"dilation factor must be a positive real, got {lam}")
    return RadialProfile(profile.radii / lam, profile.values)


def at_normalize(profile: RadialProfile, params: ProblemParams,
                 rel_tol: float = TOL_QUAD) -> RadialProfile:
    """Dilate so the weighted L^N norm is exactly 1; gradient norm untouched."""
    if profile.is_zero:
        raise DegenerateInputError("cannot normalize the zero profile")
    w = weighted_lp_pow(profile, params.dim, params.gamma, params, rel_tol=rel_tol)
    lam = w ** (1.0 / (params.dim - params.gamma))
    return dilate(profile, lam)
