"""Scalar special functions.

Everything here is a pure function of double-precision arguments.  The
gamma function, its logarithm and the error function are the standard
library's math.gamma, math.lgamma and math.erf behind this module's domain,
pole and overflow checks.  Built here are only the reflection factor
pi/sin(pi*s) and the Hermite and Laguerre polynomials via their three-term
recurrences.  hermite and laguerre check their degree; the Hermite
recurrence itself is the private _hermite, which the erf pair's derivative
calls with a degree it checked once per order, not once per evaluation.

Accuracy targets: gamma is good to 8 ulp away from poles on (-30, 170] and
exact at positive integers up to 23; erf to 2 ulp on the whole real line.
"""

from __future__ import annotations

import math

from .errors import DomainError, PoleError, integer_in

__all__ = [
    "gamma",
    "log_gamma",
    "reflection_factor",
    "erf",
    "hermite",
    "laguerre",
    "POLE_EXCLUSION_RADIUS",
    "MAX_POLY_DEGREE",
    "TWO_OVER_SQRT_PI",
]

# Refuse evaluation this close to a pole instead of returning garbage.
POLE_EXCLUSION_RADIUS = 1e-12

# Beyond this degree the recurrences overflow / lose all accuracy in doubles.
MAX_POLY_DEGREE = 60

TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def _sinpi(x: float) -> float:
    """sin(pi*x) with argument reduction done on x itself.

    x - round(x) is exact in floating point, so the result keeps full
    relative accuracy even for large |x|, unlike sin(pi * x) evaluated
    directly.
    """
    n = round(x)
    r = x - n
    s = math.sin(math.pi * r)
    return -s if n % 2 else s


def _near_nonpositive_integer(x: float) -> bool:
    return x <= 0.5 and abs(x - round(x)) <= POLE_EXCLUSION_RADIUS and round(x) <= 0


def gamma(x: float) -> float:
    """Gamma(x) for real x away from the poles at 0, -1, -2, ...

    math.gamma behind this module's checks: raises PoleError within 1e-12
    of a non-positive integer, OverflowError when |Gamma(x)| exceeds the
    double range (x above 171.62437695630272) and DomainError at NaN and
    +/-inf.  Gamma at a positive integer n is exactly (n-1)! while that is
    a double.
    """
    if not math.isfinite(x):
        raise DomainError(f"gamma: undefined at {x!r}")
    if _near_nonpositive_integer(x):
        raise PoleError(f"gamma: pole at non-positive integer near x={x!r}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise OverflowError(f"gamma: Gamma({x!r}) exceeds double range") from None


def log_gamma(x: float) -> float:
    """ln Gamma(x) for finite x > 0, by math.lgamma.

    Raises DomainError unless 0 < x < inf, and OverflowError once ln Gamma(x)
    exceeds the double range (x above about 2.5e305), as gamma does.
    """
    if not 0.0 < x < math.inf:
        raise DomainError(f"log_gamma: requires 0 < x < inf, got {x!r}")
    return math.lgamma(x)


def reflection_factor(s: float) -> float:
    """pi / sin(pi*s), the reflection product Gamma(s)*Gamma(1-s).

    Raises PoleError within 1e-12 of any integer, where the sine vanishes,
    and DomainError at NaN and +/-inf.
    """
    if not math.isfinite(s):
        raise DomainError(f"reflection_factor: undefined at {s!r}")
    if abs(s - round(s)) <= POLE_EXCLUSION_RADIUS:
        raise PoleError(f"reflection_factor: sin(pi*s) vanishes near s={s!r}")
    return math.pi / _sinpi(s)


def erf(x: float) -> float:
    """Error function, odd and monotone, with erf(+/-inf) = +/-1.

    math.erf behind a NaN check; erf(-0.0) is -0.0.
    """
    if math.isnan(x):
        raise DomainError("erf: argument is NaN")
    return math.erf(x)


# The refusal of a polynomial degree, given the function's name and the degree.
_DEGREE_RULE = f"%s: degree must be an integer in [0, {MAX_POLY_DEGREE}], got %r"


def hermite(n: int, x: float) -> float:
    """Physicists' Hermite polynomial H_n(x): the degree check, then _hermite."""
    return _hermite(integer_in(n, 0, MAX_POLY_DEGREE, DomainError, _DEGREE_RULE, "hermite", n), x)


def _hermite(n: int, x: float) -> float:
    """H_n(x) by H_{k+1} = 2x H_k - 2k H_{k-1}, exact for small integer x, at an
    int degree its caller checked: hermite, or the erf pair's per-order cache."""
    if n == 0:
        return 1.0
    h_prev, h = 1.0, 2.0 * x
    for k in range(1, n):
        h_prev, h = h, 2.0 * x * h - 2.0 * k * h_prev
    return h


def laguerre(n: int, x: float) -> float:
    """Laguerre polynomial L_n(x).

    Recurrence (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1}.
    """
    n = integer_in(n, 0, MAX_POLY_DEGREE, DomainError, _DEGREE_RULE, "laguerre", n)
    if n == 0:
        return 1.0
    l_prev, l = 1.0, 1.0 - x
    for k in range(1, n):
        l_prev, l = l, ((2.0 * k + 1.0 - x) * l - k * l_prev) / (k + 1.0)
    return l
