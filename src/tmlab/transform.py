"""Change of variables relating the weighted Sobolev norm to the plain one.

The radial map r -> kappa * r^(N/(N-gamma)) with kappa = ((N-gamma)/N)^(N/(N-gamma))
and the amplitude factor ((N-gamma)/N)^((N-1)/N) turn a profile measured in the
|x|^-gamma weighted norm into one measured in the unweighted norm.  Because the
log of the radial map is affine in log r, the piecewise-log-affine profile class
is closed under the transform: nodes map to nodes, no resampling.  On radial
profiles the gradient norm is preserved exactly and the weighted L^N norm
becomes the plain L^N norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import ProblemParams
from .errors import DomainError
from .profiles import RadialProfile, functional_log_batch

@dataclass(frozen=True)
class TransformSpec:
    """Derived constants of the change of functions for one (dim, gamma)."""

    dim: int
    gamma: float

    def __post_init__(self):
        if not self.gamma < self.dim:
            raise DomainError(f"need gamma < dim, got {self.gamma} >= {self.dim}")

    @classmethod
    def from_params(cls, params: ProblemParams) -> "TransformSpec":
        return cls(dim=params.dim, gamma=params.gamma)

    @property
    def shrink(self) -> float:
        """(N - gamma)/N, the basic contraction ratio."""
        return (self.dim - self.gamma) / self.dim

    @property
    def radius_power(self) -> float:
        """Exponent of the radius map: N/(N - gamma)."""
        return 1.0 / self.shrink

    @property
    def log_radius_prefactor(self) -> float:
        """log of kappa = shrink^(N/(N-gamma)); kept in logs to dodge overflow."""
        return self.radius_power * math.log(self.shrink)

    @property
    def amplitude_factor(self) -> float:
        """shrink^((N-1)/N), the value scaling of the pushed profile."""
        return self.shrink ** ((self.dim - 1.0) / self.dim)

    def induced_weight(self, beta: float) -> float:
        """The singular weight exponent seen on the unweighted side."""
        return self.dim * (beta - self.gamma) / (self.dim - self.gamma)

    def induced_alpha(self, alpha: float) -> float:
        """The exponent coefficient seen on the unweighted side."""
        return alpha / self.shrink


def radius_map(r, spec: TransformSpec):
    """|F(x)| for |x| = r: kappa * r^(N/(N-gamma)), a bijection of (0, inf)."""
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0):
        raise DomainError("radius must be positive")
    out = np.exp(spec.log_radius_prefactor + spec.radius_power * np.log(arr))
    return float(out) if arr.ndim == 0 else out


def radius_map_inverse(r, spec: TransformSpec):
    """Preimage radius: solves radius_map(r') = r, computed in log space."""
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0):
        raise DomainError("radius must be positive")
    out = np.exp((np.log(arr) - spec.log_radius_prefactor) / spec.radius_power)
    return float(out) if arr.ndim == 0 else out


def jacobian_det(r, spec: TransformSpec):
    """det DF at radius r: shrink^(N-1) * radius_map(r)^gamma."""
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0):
        raise DomainError("radius must be positive")
    log_det = ((spec.dim - 1.0) * math.log(spec.shrink)
               + spec.gamma * (spec.log_radius_prefactor
                               + spec.radius_power * np.log(arr)))
    out = np.exp(log_det)
    return float(out) if arr.ndim == 0 else out


def push_profile(u: RadialProfile, spec: TransformSpec) -> RadialProfile:
    """The transformed profile v with v(|x|) = amplitude * u(radius_map(|x|)).

    Node radii are the preimages of u's radii, node values are scaled by the
    amplitude factor; segments stay log-affine, so the mapping is exact.
    """
    return RadialProfile(radius_map_inverse(u.radii, spec),
                         spec.amplitude_factor * u.values)


def pull_profile(v: RadialProfile, spec: TransformSpec) -> RadialProfile:
    """Exact inverse of push_profile."""
    return RadialProfile(radius_map(v.radii, spec),
                         v.values / spec.amplitude_factor)


def transformed_params(params: ProblemParams) -> ProblemParams:
    """Parameters of the equivalent unweighted-norm problem."""
    spec = TransformSpec.from_params(params)
    return replace(params, alpha=spec.induced_alpha(params.alpha),
                   beta=spec.induced_weight(params.beta), gamma=0.0)


def integral_identity_factor(params: ProblemParams) -> float:
    """log of the constant relating the two functionals under the transform."""
    spec = TransformSpec.from_params(params)
    n, b, g = params.dim, params.beta, params.gamma
    return (n - 1.0 + n * (g - b) / (n - g)) * math.log(spec.shrink)


def verify_integral_identity(u: RadialProfile, params: ProblemParams,
                             rel_tol: float = 1e-10) -> float:
    """Relative residual between the two sides of the change-of-variables identity.

    Left side: the functional of u at (alpha, beta, gamma).  Right side: the
    constant times the functional of the pushed profile at the induced
    (alpha, beta) on the unweighted side.  Both sides are integrated
    independently; the residual is |1 - rhs/lhs| computed in log scale.
    """
    return verify_integral_identity_batch([u], params, rel_tol)[0]


def verify_integral_identity_batch(us, params: ProblemParams,
                                   rel_tol: float = 1e-10) -> list:
    """verify_integral_identity of each profile, bit for bit, in two passes."""
    spec = TransformSpec.from_params(params)
    factor = integral_identity_factor(params)
    lhs = functional_log_batch(us, params, rel_tol)
    rhs = functional_log_batch([push_profile(u, spec) for u in us],
                               transformed_params(params), rel_tol)
    residuals = []
    for left, right in zip(lhs, rhs):
        rhs_log = factor + right.log
        if left.log == -math.inf and rhs_log == -math.inf:
            residuals.append(0.0)
        else:
            residuals.append(abs(math.expm1(rhs_log - left.log)))
    return residuals
