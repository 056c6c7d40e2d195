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

phi has no data-dependent loop: for N = 2 it is expm1; for N >= 3 it computes
expm1(t) minus the Taylor terms j = 1..N-2 in Horner form and the all-positive
tail series as a Horner polynomial of fixed degree, and np.where picks the tail
below t = N - 2, where the subtraction would cancel.  Both forms keep the
relative error within a few ulps.  Scalars run the same code as arrays.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidDimensionError

# Largest x with exp(x) representable as a double.
LOG_MAX = math.log(sys.float_info.max)

# Relative size of the first term that the tail polynomial of phi leaves out.
_TAIL_TRUNCATION = 1e-17

# log_phi switches to the form t + log1p(-P(t) e^-t) here, below the overflow of
# e^t at LOG_MAX ~ 709.78.
_LOG_SWITCH = 690.0


def _validate_dim(dim) -> int:
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
        raise InvalidDimensionError(f"dimension must be an integer >= 2, got {dim!r}")
    if dim < 2:
        raise InvalidDimensionError(f"dimension must be >= 2, got {dim}")
    return int(dim)


def sphere_area(dim) -> float:
    """Area of the unit sphere S^{dim-1}: 2 pi^(dim/2) / Gamma(dim/2)."""
    return _sphere_area(_validate_dim(dim))


@functools.cache
def _sphere_area(d: int) -> float:
    # keyed by the validated int: a cache in front of the check would answer
    # sphere_area(2.0) or sphere_area(True) from the entry of 2
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
            if type(v) is int:  # a JSON number with no point: the float it names
                v = float(v)
                object.__setattr__(self, name, v)
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
    def exponent(self) -> float:
        """The power N/(N-1) applied to |u| inside the truncated exponential."""
        return self.dim / (self.dim - 1.0)


def _as_float_array(t):
    arr = np.asarray(t, dtype=float)
    # one reduction answers both checks: NaN propagates through min
    lo = np.min(arr, initial=np.inf)
    if lo != lo:
        raise DomainError("t must not be NaN")
    if lo < 0:
        raise DomainError("truncated exponential is only defined for t >= 0")
    # a 0-d input comes back as a numpy scalar, whose arithmetic is cheaper
    return arr[()]


@functools.cache
def _tail_series(dim: int) -> tuple:
    """Switch point and Horner coefficients of phi's all-positive tail series.

    Below the switch x = dim - 2, phi is x^(dim-1) Sum_k x^k/(dim-1+k)! with the
    fixed degree at which the first omitted term is below _TAIL_TRUNCATION of
    the first one.  From the switch on, phi keeps about 40% of e^x, so
    expm1(x) minus the Taylor terms loses less than two bits.  Coefficients
    1/(dim-1+k)! are correctly rounded and listed highest degree first.
    """
    switch = float(dim - 2)
    first = 1.0 / math.factorial(dim - 1)
    degree = 0
    while (switch ** (degree + 1) / math.factorial(dim + degree)
           >= _TAIL_TRUNCATION * first):
        degree += 1
    return switch, tuple(1.0 / math.factorial(dim - 1 + k)
                         for k in range(degree, -1, -1))


def _phi(d: int, x):
    """phi(d, x) for a validated float array or numpy scalar x."""
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.expm1(x)
        if d == 2:
            return e
        switch, coef = _tail_series(d)
        # Horner steps in place (a scalar x just rebinds)
        tail = coef[0] * x
        for c in coef[1:]:
            tail += c
            tail *= x
        for _ in range(d - 2):
            tail *= x
        # Taylor terms j = 1..d-2 as x(1 + x/2(1 + x/3(...)))
        head = 1.0
        for j in range(d - 2, 1, -1):
            head = 1.0 + x / j * head
        return np.where(x < switch, tail, e - x * head)


def _scalar_or_array(arr: np.ndarray, out):
    return float(out) if arr.ndim == 0 else out


def phi(dim, t):
    """Truncated exponential: e^t - sum_{j=0}^{dim-2} t^j/j!.

    Strictly increasing with phi(dim, 0) = 0.  Saturates to +inf once e^t
    overflows double precision; use log_phi for the log-scale value there.
    Accepts scalar or ndarray t (elementwise).
    """
    d = _validate_dim(dim)
    arr = _as_float_array(t)
    out = _phi(d, arr)
    if d > 2 and arr.max(initial=0.0) > LOG_MAX:
        # once e^t overflows, the subtracted Taylor terms can overflow too
        # (always at t = inf): keep the limit inf rather than inf - inf
        out = np.where(np.isnan(out), np.inf, out)
    return _scalar_or_array(arr, out)


def phi_derivative(dim, t):
    """Derivative of the truncated exponential: e^t - sum_{j=0}^{dim-3} t^j/j!.

    Equals phi(dim-1, t) for dim >= 3 and e^t for dim = 2.
    """
    d = _validate_dim(dim)
    if d == 2:
        arr = _as_float_array(t)
        with np.errstate(over="ignore"):
            return _scalar_or_array(arr, np.exp(arr))
    return phi(d - 1, t)


def log_phi(dim, t):
    """log(phi(dim, t)), finite for every t > 0 including t far beyond overflow.

    Below t = 690 this is log(phi); from there on it is t + log1p(-P(t) e^-t)
    with P the Taylor polynomial, so the result never overflows; t = 0 maps to
    -inf.
    """
    d = _validate_dim(dim)
    arr = _as_float_array(t)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.log(_phi(d, np.minimum(arr, _LOG_SWITCH)))
        if np.max(arr, initial=0.0) >= _LOG_SWITCH:
            # P(t) e^-t term by term in log scale: P(t) alone overflows
            # for large t once N >= 4; t = +inf is capped so every term is 0
            big = np.minimum(arr, sys.float_info.max)
            log_t = np.log(big)
            rest = np.exp(-big)
            for j in range(1, d - 1):
                rest += np.exp(j * log_t - math.lgamma(j + 1.0) - big)
            out = np.where(arr >= _LOG_SWITCH, arr + np.log1p(-rest), out)
    return _scalar_or_array(arr, out)


@dataclass(frozen=True)
class LogValue:
    """A nonnegative quantity tracked by its natural log.

    Carries overflow-prone results (functional values in the blow-up regime)
    without losing them to float saturation.  ``value`` is the linear-scale
    number when representable; ``saturated`` says whether only the log form is
    usable.
    """

    log: float

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
        # below x = 1, x^a e^-x does not amplify the rounding of a ln x
        if x < 1.0:
            return total * (x ** a * math.exp(-x))
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
