"""Dimensional constants, critical exponents, and the truncated exponential family.

Everything downstream (norms, functionals, Moser sequences, optimizers) is built
on the handful of scalar functions defined here:

    sphere_area(N)          area of the unit sphere S^{N-1} in R^N
    critical_alpha(N)       N * sphere_area(N)^(1/(N-1))
    critical_alpha_beta     (N - beta)/N * critical_alpha(N)
    phi(N, t)               e^t minus the first N-1 Taylor terms (truncated exponential)
    phi_derivative(N, t)    d/dt phi(N, t)
    log_phi(N, t)           log phi(N, t), stable for t far beyond double overflow

All functions accept scalars or numpy arrays for ``t`` and are pure, so they can
be called from any number of workers without synchronization.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidDimensionError

# Largest x with exp(x) representable as a double.
LOG_MAX = math.log(sys.float_info.max)

# Below this threshold phi is summed from its all-positive tail series; above it,
# exp(t) minus the Taylor polynomial is accurate (the subtraction loses at most a
# couple of digits once t >= 1).
_SERIES_CUTOFF = 1.0


def _validate_dim(dim) -> int:
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
        raise InvalidDimensionError(f"dimension must be an integer >= 2, got {dim!r}")
    if dim < 2:
        raise InvalidDimensionError(f"dimension must be >= 2, got {dim}")
    return int(dim)


def sphere_area(dim) -> float:
    """Area of the unit sphere S^{dim-1}: 2 pi^(dim/2) / Gamma(dim/2)."""
    d = _validate_dim(dim)
    return math.exp(math.log(2.0) + 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d))


def critical_alpha(dim) -> float:
    """Critical exponent coefficient: dim * sphere_area(dim)^(1/(dim-1))."""
    d = _validate_dim(dim)
    return d * sphere_area(d) ** (1.0 / (d - 1))


def critical_alpha_beta(params: "ProblemParams") -> float:
    """Singular-weight critical coefficient ((N - beta)/N) * critical_alpha(N)."""
    return (params.dim - params.beta) / params.dim * critical_alpha(params.dim)


@dataclass(frozen=True)
class ProblemParams:
    """The problem quadruple (N, alpha, beta, gamma).

    dim    -- integer dimension N >= 2
    alpha  -- positive coefficient inside the truncated exponential
    beta   -- singular-weight exponent of |x|^-beta in the functional, beta < N
    gamma  -- norm-weight exponent of |x|^-gamma in the weighted L^N norm,
              gamma <= beta
    """

    dim: int
    alpha: float
    beta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        _validate_dim(self.dim)
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v!r}")
        if self.alpha <= 0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if not self.gamma <= self.beta < self.dim:
            raise DomainError(
                f"need gamma <= beta < dim, got gamma={self.gamma}, "
                f"beta={self.beta}, dim={self.dim}"
            )

    @property
    def sphere_area(self) -> float:
        return sphere_area(self.dim)

    @property
    def exponent(self) -> float:
        """The power N/(N-1) applied to |u| inside the truncated exponential."""
        return self.dim / (self.dim - 1.0)


def _as_float_array(t):
    arr = np.asarray(t, dtype=float)
    if np.any(np.isnan(arr)):
        raise DomainError("t must not be NaN")
    if np.any(arr < 0):
        raise DomainError("truncated exponential is only defined for t >= 0")
    return arr


def _taylor_partial_sum(n_terms: int, t: np.ndarray) -> np.ndarray:
    """Sum_{j=0}^{n_terms} t^j / j!  (n_terms < 0 gives 0)."""
    s = np.zeros_like(t)
    if n_terms < 0:
        return s
    term = np.ones_like(t)
    s += term
    for j in range(1, n_terms + 1):
        term = term * t / j
        s += term
    return s


def _phi_tail_series(dim: int, t: np.ndarray) -> np.ndarray:
    """Sum_{j>=dim-1} t^j / j!, all terms positive: no cancellation for small t."""
    j0 = dim - 1
    term = np.ones_like(t)
    for j in range(1, j0 + 1):
        term = term * t / j
    s = term.copy()
    j = j0
    while j < j0 + 80:
        j += 1
        term = term * t / j
        s += term
        if np.all(term <= 1e-17 * s):
            break
    return s


def phi(dim, t):
    """Truncated exponential: e^t - sum_{j=0}^{dim-2} t^j/j!.

    Strictly increasing with phi(dim, 0) = 0.  Saturates to +inf once e^t
    overflows double precision; use log_phi for the log-scale value there.
    Accepts scalar or ndarray t (elementwise).
    """
    d = _validate_dim(dim)
    arr = _as_float_array(t)
    x = np.atleast_1d(arr)
    out = np.empty_like(x)
    small = x < _SERIES_CUTOFF
    if np.any(small):
        out[small] = _phi_tail_series(d, x[small])
    big = ~small
    if np.any(big):
        with np.errstate(over="ignore"):
            out[big] = np.exp(x[big]) - _taylor_partial_sum(d - 2, x[big])
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def phi_derivative(dim, t):
    """Derivative of the truncated exponential: e^t - sum_{j=0}^{dim-3} t^j/j!.

    Equals phi(dim-1, t) for dim >= 3 and e^t for dim = 2.
    """
    d = _validate_dim(dim)
    if d == 2:
        arr = _as_float_array(t)
        with np.errstate(over="ignore"):
            out = np.exp(arr)
        return float(out) if arr.ndim == 0 else out
    return phi(d - 1, t)


def log_phi(dim, t):
    """log(phi(dim, t)), finite for every t > 0 including t far beyond overflow.

    For large t this is t + log1p(-P(t) e^-t) with P the Taylor polynomial, so
    the result never overflows; t = 0 maps to -inf.
    """
    d = _validate_dim(dim)
    arr = _as_float_array(t)
    x = np.atleast_1d(arr)
    out = np.empty_like(x)
    lo = x < 690.0
    if np.any(lo):
        with np.errstate(divide="ignore"):
            out[lo] = np.log(phi(d, x[lo]))
    hi = ~lo
    if np.any(hi):
        xh = x[hi]
        out[hi] = xh + np.log1p(-_taylor_partial_sum(d - 2, xh) * np.exp(-xh))
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


@dataclass(frozen=True)
class LogValue:
    """A nonnegative quantity tracked by its natural log.

    Carries overflow-prone results (functional values in the blow-up regime)
    without losing them to float saturation.  ``value`` is the linear-scale
    number when representable; ``saturated`` says whether only the log form is
    usable.
    """

    log: float

    @classmethod
    def from_value(cls, x: float) -> "LogValue":
        if x < 0:
            raise DomainError(f"LogValue needs a nonnegative quantity, got {x}")
        return cls(log=math.log(x) if x > 0 else -math.inf)

    @property
    def saturated(self) -> bool:
        return self.log > LOG_MAX

    @property
    def value(self) -> float:
        if self.log > LOG_MAX:
            return math.inf
        if self.log == -math.inf:
            return 0.0
        return math.exp(self.log)

    def __float__(self) -> float:
        return self.value


def lower_incomplete_gamma(a: float, x: float) -> float:
    """Lower incomplete gamma integral_0^x s^(a-1) e^-s ds.

    Series representation for x < a + 1, continued fraction (modified Lentz)
    for the complementary integral otherwise; both iterated to ~1e-15 relative.
    """
    if a <= 0:
        raise DomainError(f"shape parameter must be positive, got {a}")
    if x < 0:
        raise DomainError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    log_prefactor = -x + a * math.log(x)
    if x < a + 1.0:
        ap = a
        term = 1.0 / a
        total = term
        for _ in range(500):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < 1e-16 * abs(total):
                break
        return total * math.exp(log_prefactor)
    # continued fraction for the upper integral
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    upper = math.exp(log_prefactor) * h
    return math.gamma(a) - upper
