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
        """log of kappa = shrink^(N/(N-gamma)), the shift of the map in t."""
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


def push_profile(u: RadialProfile, spec: TransformSpec) -> RadialProfile:
    """The transformed profile v with v(r) = amplitude * u(kappa * r^p).

    In t = log r the radial map is t -> log(kappa) + p t, p = N/(N - gamma),
    so v's nodes sit at the preimages (t - log(kappa))/p of u's and its values
    are u's times the amplitude factor; segments stay affine in t, so the
    mapping is exact.
    """
    return RadialProfile(
        log_radii=(u.log_radii - spec.log_radius_prefactor) / spec.radius_power,
        values=spec.amplitude_factor * u.values)


def pull_profile(v: RadialProfile, spec: TransformSpec) -> RadialProfile:
    """Exact inverse of push_profile: t -> log(kappa) + p t."""
    return RadialProfile(
        log_radii=spec.log_radius_prefactor + spec.radius_power * v.log_radii,
        values=v.values / spec.amplitude_factor)


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
    v = push_profile(u, TransformSpec.from_params(params))
    return verify_integral_identity_batch([u], [v], params, rel_tol)[0]


def verify_integral_identity_batch(us, vs, params: ProblemParams,
                                   rel_tol: float = 1e-10) -> list:
    """verify_integral_identity of each u in us, vs their pushes, bit for bit."""
    factor = integral_identity_factor(params)
    lhs = functional_log_batch(us, params, rel_tol)
    rhs = functional_log_batch(vs, transformed_params(params), rel_tol)
    residuals = []
    for left, right in zip(lhs, rhs):
        rhs_log = factor + right.log
        if left.log == -math.inf and rhs_log == -math.inf:
            residuals.append(0.0)
        else:
            residuals.append(abs(math.expm1(rhs_log - left.log)))
    return residuals
