"""Scalar special functions.

Everything here is a pure function of double-precision arguments:
the gamma function (Lanczos approximation with reflection), its logarithm,
the reflection factor pi/sin(pi*s), the error function, and the Hermite
and Laguerre polynomials via their three-term recurrences.

Accuracy targets: gamma is good to ~1e-14 relative away from poles on
[-170, 170]; erf to ~1e-14 absolute on the whole real line.
"""

from __future__ import annotations

import math

from .errors import DomainError, PoleError

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

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

# Lanczos coefficients, g = 607/128, 15 terms (Godfrey's set).  The compact
# g=7 / 9-term set drifts to ~1.5e-13 relative error by |x| ~ 170; this set
# stays at ~1e-15 for positive arguments across the supported range.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

# Gamma(x) overflows double range just above this argument.
_GAMMA_OVERFLOW_X = 171.624


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


def _lanczos_series(z: float) -> float:
    acc = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (z + i)
    return acc


def gamma(x: float) -> float:
    """Gamma(x) for real x away from the poles at 0, -1, -2, ...

    Uses the Lanczos approximation for x >= 0.5 and the reflection formula
    Gamma(x) = pi / (sin(pi x) Gamma(1-x)) below that.

    Raises PoleError within 1e-12 of a non-positive integer,
    OverflowError when |Gamma(x)| exceeds the double range and DomainError
    at NaN and +/-inf.
    """
    if not math.isfinite(x):
        raise DomainError(f"gamma: undefined at {x!r}")
    if _near_nonpositive_integer(x):
        raise PoleError(f"gamma: pole at non-positive integer near x={x!r}")
    if x > _GAMMA_OVERFLOW_X:
        raise OverflowError(f"gamma: Gamma({x!r}) exceeds double range")
    if x < 0.5:
        # Reflection; the sine factor is safe because poles were excluded.
        return math.pi / (_sinpi(x) * gamma(1.0 - x))
    z = x - 1.0
    base = z + _LANCZOS_G + 0.5
    # Split the power so intermediates stay in range up to x ~ 171.
    half_pow = base ** ((z + 0.5) / 2.0)
    result = _SQRT_TWO_PI * _lanczos_series(z) * half_pow * math.exp(-base) * half_pow
    if math.isinf(result):
        raise OverflowError(f"gamma: Gamma({x!r}) exceeds double range")
    return result


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0, via the Lanczos form in log space."""
    if not x > 0.0:
        raise DomainError(f"log_gamma: requires x > 0, got {x!r}")
    if x < 0.5:
        # log of the reflection formula; sin(pi x) > 0 on (0, 0.5).
        return math.log(math.pi / _sinpi(x)) - log_gamma(1.0 - x)
    z = x - 1.0
    base = z + _LANCZOS_G + 0.5
    return (
        math.log(_SQRT_TWO_PI * _lanczos_series(z))
        + (z + 0.5) * math.log(base)
        - base
    )


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


def _erf_series(x: float) -> float:
    # erf(x) = (2/sqrt(pi)) x e^{-x^2} sum_k (2x^2)^k / (1*3*...*(2k+1));
    # all terms positive, so there is no cancellation for |x| < 3.
    xx = 2.0 * x * x
    term = 1.0
    total = 1.0
    k = 0
    while True:
        k += 1
        term *= xx / (2 * k + 1)
        total += term
        if term <= total * 1e-18:
            break
        if k > 200:  # unreachable for |x| < 3
            break
    return TWO_OVER_SQRT_PI * x * math.exp(-x * x) * total


def _erfc_cf(x: float) -> float:
    # Complementary function for x >= 3 via the continued fraction
    # erfc(x) = e^{-x^2}/sqrt(pi) * 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    # evaluated with the modified Lentz algorithm.
    tiny = 1e-300
    f = x if x != 0.0 else tiny
    c = f
    d = 0.0
    for n in range(1, 200):
        a = n / 2.0
        d = x + a * d
        if d == 0.0:
            d = tiny
        c = x + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return math.exp(-x * x) / (math.sqrt(math.pi) * f)


def erf(x: float) -> float:
    """Error function, odd and monotone, with erf(+/-inf) = +/-1.

    Power series below |x| = 3, complementary continued fraction above.
    """
    if math.isnan(x):
        raise DomainError("erf: argument is NaN")
    ax = abs(x)
    if ax < 3.0:
        value = _erf_series(ax)
    elif ax < math.inf:
        value = 1.0 - _erfc_cf(ax)
    else:
        value = 1.0
    return -value if x < 0.0 else (value if x > 0.0 else 0.0)


def _check_degree(n: int, name: str) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise DomainError(f"{name}: degree must be an integer, got {n!r}")
    if n < 0 or n > MAX_POLY_DEGREE:
        raise DomainError(
            f"{name}: degree must be in [0, {MAX_POLY_DEGREE}], got {n}"
        )


def hermite(n: int, x: float) -> float:
    """Physicists' Hermite polynomial H_n(x).

    Three-term recurrence H_{k+1} = 2x H_k - 2k H_{k-1}; exact for small
    integer arguments.
    """
    _check_degree(n, "hermite")
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
    _check_degree(n, "laguerre")
    if n == 0:
        return 1.0
    l_prev, l = 1.0, 1.0 - x
    for k in range(1, n):
        l_prev, l = l, ((2.0 * k + 1.0 - x) * l - k * l_prev) / (k + 1.0)
    return l
