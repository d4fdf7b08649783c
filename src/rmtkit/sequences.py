"""Coefficient sequences and the functions they generate.

A SeriesPair bundles a coefficient function phi(k) with the closed form of
F(x) = sum_k phi(k) (-x)^k / k!, analytic derivatives of F, and the limits
of F at 0 and infinity.  A pair that also sets phi_plain presents F as the
plain series sum_k phi_plain(k) (-x)^k, which is what hardy needs.  The
catalog maps each built-in id to its builder; new pairs can be constructed
directly (the CLI does so from parsed expressions).

Series evaluation accumulates in extended precision (mpmath) because the
alternating sums are badly conditioned near the convergence radius: for
F = (1+x)^-m at x = 0.9 the condition number of the sum exceeds 1e6, which
no double-precision summation order can overcome.  It reads a catalog
pair's one coefficient formula at 40 digits, so the terms stay exact.
mpmath is imported on the first call that needs it, so the identity checks,
which never evaluate a series, run without it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import specfun
from .errors import (
    DerivativeUnavailable,
    DomainError,
    NonConvergenceError,
    ParamDomainError,
    PoleError,
    RadiusError,
    UnknownEntry,
    integer_in,
)
from .specfun import TWO_OVER_SQRT_PI

__all__ = [
    "SeriesPair",
    "SeriesValue",
    "eval_series",
    "shift_sequence",
    "catalog_get",
    "catalog_ids",
    "CATALOG",
]


@functools.cache
def _mp():
    """The 40-digit mpmath context of series work, isolated so that series
    evaluation never mutates mpmath's global state."""
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 40
    return mp


# A catalog coefficient formula phi(k, num) reads these names in doubles and
# those of _mp() at 40 digits.  gamma reads specfun.gamma when called, so a
# wrapper installed there (a tracer, a test's tripwire) sees the call.
_Doubles = SimpleNamespace(mpf=float, sqrt=math.sqrt, pi=math.pi, gamma=lambda x: specfun.gamma(x))


@dataclass(frozen=True)
class SeriesPair:
    """A coefficient sequence phi with the closed form it generates.

    phi must be evaluable wherever an operation needs it: non-negative
    integers for series work and -s for master-theorem right-hand sides.
    closed_form is valid on all of x >= 0, beyond the series' radius.
    derivative(order, x) is the order-th derivative of closed_form at an
    integer order from 0 to derivative_max (2.0 means 2); every pair raises
    DomainError at a negative or non-integral order and DerivativeUnavailable
    above derivative_max, the contract of the _PerOrder table (on
    errors.integer_in) that gives the pair its derivative_max.  phi_plain,
    when set, gives the plain coefficients: F(x) = sum phi_plain(k) (-x)^k,
    so phi(k) = k! phi_plain(k).  phi_highprec(k), when set, is phi's own
    formula read at 40 digits, for eval_series; so replace(pair, phi=...)
    must reset it too (to None) unless the new phi is the same.
    derivative_with_noise, when set, is (derivative(order, x), error) for
    orders 0 to derivative_max under derivative's contract, for derivatives
    whose values carry noise far above rounding, as finite differences do
    (order 0, the closed form, has error 0.0); lemma2 then integrates it with
    integrate_mellin(smooth=False), which adds the errors to its floor.
    log_closed_form, when set, is L -> ln F(e^L) for L >= 0, finite up to
    L ~ 1.28e5 where x = e^L overflows; rmt and hardy pass it to
    integrate_mellin, whose walk toward infinity it continues.  A catalog
    pair's F > 0 there; an expression pair's, None where its tree has sin,
    cos or x in an exponent, raises DomainError where F <= 0 or a sum
    cancels.  It restates closed_form, so replace(pair, closed_form=...)
    must reset it too (to None) unless the new closed form is the same F.
    """

    phi: Callable[[float], float]
    closed_form: Callable[[float], float]
    derivative: Callable[[int, float], float]
    derivative_max: int
    f_at_zero: float
    f_at_infinity: float
    convergence_radius: float
    phi_plain: Callable[[float], float] | None = None
    phi_highprec: Callable[[int], object] | None = None
    label: str = "pair"
    derivative_with_noise: Callable[[int, float], tuple[float, float]] | None = None
    log_closed_form: Callable[[float], float] | None = None

    @property
    def nonstandard(self) -> bool:
        """phi(0) = 0: the leading coefficient vanishes, so F(0) = 0."""
        return self.phi(0.0) == 0.0


class SeriesValue(NamedTuple):
    value: float
    truncation_bound: float


def eval_series(pair: SeriesPair, x: float, max_terms: int) -> SeriesValue:
    """Truncated evaluation of sum_k phi(k) (-x)^k / k! at x >= 0, at 40
    digits: the terms read phi_highprec when set, else phi's doubles.

    Stops once two terms in a row fall below 1e-16 of the running partial
    sum in magnitude (one is not enough where coefficients vanish in
    between, as erf's do); the bound returned is the magnitude of the first
    omitted term (a valid tail bound when terms are eventually alternating
    and decreasing).
    """
    max_terms = integer_in(max_terms, 1, math.inf, DomainError, "eval_series: max_terms must be >= 1")
    if not x >= 0.0:
        raise DomainError(f"eval_series: requires x >= 0, got {x!r}")
    if x >= pair.convergence_radius:
        raise RadiusError(
            f"eval_series: x={x!r} is outside the convergence radius "
            f"{pair.convergence_radius!r}"
        )
    mp = _mp()
    coefficient = pair.phi_highprec or (lambda k: mp.mpf(pair.phi(float(k))))
    if x == 0.0:
        # Only the k = 0 term survives.
        return SeriesValue(float(coefficient(0)), 0.0)
    cutoff = mp.mpf("1e-16")
    neg_x = -mp.mpf(x)
    weight = mp.mpf(1)  # (-x)^k / k!
    total = mp.mpf(0)
    term = coefficient(0) * weight
    for k in range(max_terms + 1):
        weight = weight * neg_x / (k + 1)
        peek = coefficient(k + 1) * weight
        if total != 0 and abs(term) <= cutoff * abs(total) and abs(peek) <= cutoff * abs(total):
            return SeriesValue(float(total), float(abs(term)))
        total += term
        term = peek
    raise NonConvergenceError(
        f"eval_series: stopping rule did not fire within {max_terms} terms"
    )


def shift_sequence(pair: SeriesPair, n: int) -> SeriesPair:
    """The pair whose coefficients are phi(n + k).

    Its closed form is (-1)^n times the n-th derivative of the original
    closed form, so the series identity
    f^(n)(x) = (-1)^n sum_k phi(n+k) (-x)^k / k! carries over directly.
    """
    n = integer_in(n, 1, math.inf, DomainError, "shift_sequence: n must be a positive integer")
    refuse_order_above(pair.label, n, pair.derivative_max)
    sign = (-1.0) ** n
    base_phi = pair.phi
    base_deriv = pair.derivative
    base_hp = pair.phi_highprec
    base_noisy = pair.derivative_with_noise
    label = f"{pair.label} shifted by {n}"
    # The catalog's contract, so a negative order cannot reach the base
    # pair's lower derivatives.
    base_order = _PerOrder(label, pair.derivative_max - n, lambda order: n + order)

    def derivative_with_noise(order: int, x: float) -> tuple[float, float]:
        value, error = base_noisy(base_order[order], x)
        return sign * value, error

    return SeriesPair(
        phi=lambda k: base_phi(n + k),
        closed_form=lambda x: sign * base_deriv(n, x),
        derivative=lambda order, x: sign * base_deriv(base_order[order], x),
        derivative_max=base_order.derivative_max,
        f_at_zero=sign * base_deriv(n, 0.0),
        f_at_infinity=0.0,
        convergence_radius=pair.convergence_radius,
        phi_highprec=(lambda k: base_hp(n + k)) if base_hp else None,
        label=label,
        derivative_with_noise=derivative_with_noise if base_noisy else None,
    )


# ---------------------------------------------------------------------------
# Catalog builders


def _require_params(
    id_: str,
    params: dict,
    required: tuple[str, ...],
    optional: tuple[str, ...] = (),
) -> None:
    missing = [name for name in required if name not in params]
    if missing:
        raise ParamDomainError(f"catalog {id_!r}: missing parameter(s) {missing}")
    extra = [name for name in params if name not in required + optional]
    if extra:
        raise ParamDomainError(f"catalog {id_!r}: unknown parameter(s) {extra}")


def _float_param(id_: str, name: str, value) -> float:
    """A catalog parameter as a float: ParamDomainError, not OverflowError,
    for an int beyond the double range."""
    try:
        return float(value)
    except OverflowError:
        raise ParamDomainError(f"catalog {id_!r}: {name} is beyond the double range") from None


def refuse_order_above(label: str, order: float, derivative_max: int) -> None:
    """The one DerivativeUnavailable refusal of an order above derivative_max."""
    if order > derivative_max:
        raise DerivativeUnavailable(
            f"{label}: derivative order {order} exceeds derivative_max={derivative_max}"
        )


class _PerOrder(dict):
    """order -> constants(order), what a pair's derivative needs at one
    order (a catalog pair's factors, an FD closure), made on first use.  A
    miss checks the order against SeriesPair.derivative's contract, so this
    is the one implementation of that contract; a refused order is not stored."""

    def __init__(self, label: str, derivative_max: int, constants: Callable[[int], object]):
        self.label, self.derivative_max, self.constants = label, derivative_max, constants

    def __missing__(self, order):
        checked = integer_in(order, 0, math.inf, DomainError,
                             "%s: derivative order %r is not an integer >= 0", self.label, order)
        refuse_order_above(self.label, checked, self.derivative_max)
        self[order] = value = self.constants(checked)
        return value


def _build_exp(**params) -> SeriesPair:
    """Exponential decay e^(-ax); coefficients a^k."""
    _require_params("exp", params, (), optional=("a",))
    a = _float_param("exp", "a", params.get("a", 1.0))
    if not 0.0 < a < math.inf:
        raise ParamDomainError(f"catalog 'exp': requires 0 < a < inf, got {a!r}")
    scale = _PerOrder("catalog 'exp'", 1000, lambda order: (-a) ** order)

    def phi(k, num=_Doubles):
        return num.mpf(a) ** k

    return SeriesPair(
        phi=phi,
        closed_form=lambda x: math.exp(-a * x),
        derivative=lambda order, x: scale[order] * math.exp(-a * x),
        derivative_max=scale.derivative_max,
        f_at_zero=1.0,
        f_at_infinity=0.0,
        convergence_radius=math.inf,
        phi_highprec=lambda k: phi(k, _mp()),
        label=f"exp(a={a:g})",
    )


def _build_power(**params) -> SeriesPair:
    """Algebraic decay (1+x)^(-m); rising-factorial coefficients."""
    _require_params("power", params, ("m",))
    m = _float_param("power", "m", params["m"])
    if not 0.0 < m < math.inf:
        raise ParamDomainError(f"catalog 'power': requires 0 < m < inf, got {m!r}")

    def phi(k, num=_Doubles):
        # Gamma(m+k)/Gamma(m), the natural interpolant of the rising factorial.
        return num.gamma(num.mpf(m) + k) / num.gamma(m)

    # The rising factorial m(m+1)...(m+order-1), by its own product: the
    # left route calls neither phi nor Gamma, whose ratio overflows first.
    constants = _PerOrder("catalog 'power'", 100, lambda order: (
        (-1.0) ** order * math.prod(m + i for i in range(order)), -(m + order)))

    def derivative(order: int, x: float) -> float:
        factor, exponent = constants[order]
        return factor * (1.0 + x) ** exponent

    return SeriesPair(
        phi=phi,
        closed_form=lambda x: (1.0 + x) ** (-m),
        derivative=derivative,
        derivative_max=constants.derivative_max,
        f_at_zero=1.0,
        f_at_infinity=0.0,
        convergence_radius=1.0,
        phi_highprec=lambda k: phi(k, _mp()),
        label=f"power(m={m:g})",
        # ln (1 + e^L)^-m, finite where e^L alone overflows.
        log_closed_form=lambda L: -m * (L + math.log1p(math.exp(-L))),
    )


def _coefficient_index(k: float, id_: str) -> int:
    """k rounded to an int, for a coefficient function defined at integers
    only: DomainError unless k is finite and within 1e-9 of one."""
    if not (math.isfinite(k) and abs(k - round(k)) <= 1e-9):
        raise DomainError(f"catalog {id_!r}: coefficients defined at integers only")
    return int(round(k))


def _erf_phi(k, num=_Doubles):
    k = _coefficient_index(k, "erf")
    if k < 0 or k % 2 == 0:
        return num.mpf(0)
    j = (k - 1) // 2
    # erf(x) = (2/sqrt(pi)) sum_j (-1)^j x^(2j+1) / (j! (2j+1)); rewriting in
    # the factorial-normalised convention gives the (2j)!/j! growth below.
    return 2 / num.sqrt(num.pi) * num.mpf(-1) ** (j + 1) * math.perm(2 * j, j)


def _build_erf(**params) -> SeriesPair:
    """The error function; it enters through the derivative identities
    (its leading coefficient vanishes)."""
    _require_params("erf", params, ())
    # (sign times 2/sqrt(pi), Hermite degree); degree -1 is erf itself.  The
    # degree is checked here, once per order, so derivative runs the bare recurrence.
    constants = _PerOrder("catalog 'erf'", specfun.MAX_POLY_DEGREE + 1, lambda order: (
        (-1.0 if order % 2 == 0 else 1.0) * TWO_OVER_SQRT_PI, order - 1))

    def derivative(order: int, x: float) -> float:
        scale, degree = constants[order]
        if degree < 0:
            return specfun.erf(x)
        return scale * specfun._hermite(degree, x) * math.exp(-x * x)

    return SeriesPair(
        phi=_erf_phi,
        closed_form=specfun.erf,
        derivative=derivative,
        derivative_max=constants.derivative_max,
        f_at_zero=0.0,
        f_at_infinity=1.0,
        convergence_radius=math.inf,
        phi_highprec=lambda k: _erf_phi(k, _mp()),
        label="erf",
    )


def _build_laguerre_weight(**params) -> SeriesPair:
    """x^n e^(-x); its n-th derivative is n! L_n(x) e^(-x)."""
    _require_params("laguerre_weight", params, ("n",))
    n_f = _float_param("laguerre_weight", "n", params["n"])
    n = integer_in(n_f, 1, 50, ParamDomainError,
                   "catalog 'laguerre_weight': requires integer 1 <= n <= 50, got %r", n_f)

    def phi(k, num=_Doubles):
        k = _coefficient_index(k, "laguerre_weight")
        if k < n:
            return num.mpf(0)
        return num.mpf(-1) ** n * math.perm(k, n)  # k!/(k-n)!

    # Leibniz rule on x^n e^-x: (C(order, i) n!/(n-i)! (-1)^(order-i), n - i) per term.
    terms = _PerOrder("catalog 'laguerre_weight'", specfun.MAX_POLY_DEGREE, lambda order: tuple(
        (float(math.comb(order, i) * math.perm(n, i)) * (-1.0) ** (order - i), n - i)
        for i in range(min(order, n) + 1)))

    def derivative(order: int, x: float) -> float:
        total = 0.0
        for coefficient, power in terms[order]:
            total += coefficient * x**power
        return total * math.exp(-x)

    return SeriesPair(
        phi=phi,
        closed_form=lambda x: x**n * math.exp(-x),
        derivative=derivative,
        derivative_max=terms.derivative_max,
        f_at_zero=0.0,
        f_at_infinity=0.0,
        convergence_radius=math.inf,
        phi_highprec=lambda k: phi(k, _mp()),
        label=f"laguerre_weight(n={n})",
    )


def _build_geometric(**params) -> SeriesPair:
    """1/(1+x) as the plain series sum (-x)^k: the power pair at m = 1,
    phi(k) = k!, with plain coefficients 1."""
    _require_params("geometric", params, ())
    return replace(
        _build_power(m=1.0),
        # 1/y, not y^-1: the two differ in the last bit for some x.
        closed_form=lambda x: 1.0 / (1.0 + x),
        phi_plain=lambda k: 1.0,
        label="geometric",
    )


def _harmonic_phi(k, num=_Doubles):
    if abs(k + 1.0) <= specfun.POLE_EXCLUSION_RADIUS:
        raise PoleError("catalog 'harmonic_shifted': phi has a pole at k=-1")
    return 1 / (num.mpf(k) + 1)


def _harmonic_closed(x: float) -> float:
    if x == 0.0:
        return 1.0
    return -math.expm1(-x) / x


# (order, (-1)^order) up to the pair's derivative_max.
_harmonic_constants = _PerOrder("catalog 'harmonic_shifted'", 6, lambda order: (order, (-1.0) ** order))


def _harmonic_derivative(order: int, x: float) -> float:
    # F(x) = integral_0^1 e^(-x t) dt, so the order-th derivative is
    # (-1)^order * integral_0^1 t^order e^(-x t) dt: F itself at order 0,
    # the positive series e^-x sum_k x^k / ((order+1)...(order+k+1)) on
    # 0 <= x < order + 1, and the upward recurrence above, where each step
    # shrinks the error by j/x.
    order, sign = _harmonic_constants[order]
    if order == 0:
        return _harmonic_closed(x)
    ex = math.exp(-x)
    if x < order + 1:
        term = total = 1.0 / (order + 1)
        k = order + 1
        while term > 1e-17 * total:  # the ratios x / k are below 1 and falling
            k += 1
            term *= x / k
            total += term
        return sign * ex * total
    moment = _harmonic_closed(x)  # integral of e^(-x t)
    for j in range(1, order + 1):
        moment = (j * moment - ex) / x
    return sign * moment


def _harmonic_log_closed(L: float) -> float:
    # ln((1 - e^-x)/x) at x = e^L.  From L = 6 on e^-x < 1e-175 adds
    # nothing to -L, and e^L itself would overflow above L ~ 709.8.
    if L >= 6.0:
        return -L
    return math.log1p(-math.exp(-math.exp(L))) - L


def _build_harmonic_shifted(**params) -> SeriesPair:
    """(1 - e^(-x))/x with coefficients 1/(k+1)."""
    _require_params("harmonic_shifted", params, ())
    return SeriesPair(
        phi=_harmonic_phi,
        closed_form=_harmonic_closed,
        derivative=_harmonic_derivative,
        derivative_max=_harmonic_constants.derivative_max,
        f_at_zero=1.0,
        f_at_infinity=0.0,
        convergence_radius=math.inf,
        phi_highprec=lambda k: _harmonic_phi(k, _mp()),
        label="harmonic_shifted",
        log_closed_form=_harmonic_log_closed,
    )


# Catalog id -> builder; each builder's docstring describes its pair.
CATALOG: dict[str, Callable[..., SeriesPair]] = {
    "exp": _build_exp,
    "power": _build_power,
    "erf": _build_erf,
    "laguerre_weight": _build_laguerre_weight,
    "geometric": _build_geometric,
    "harmonic_shifted": _build_harmonic_shifted,
}


def catalog_ids() -> list[str]:
    return sorted(CATALOG)


def catalog_get(id: str, **params: float) -> SeriesPair:
    """Construct a catalog pair by id with its named parameters."""
    try:
        builder = CATALOG[id]
    except KeyError:
        raise UnknownEntry(
            f"unknown catalog id {id!r}; known: {', '.join(catalog_ids())}"
        ) from None
    pair = builder(**params)
    # Construction invariants.
    assert abs(pair.closed_form(0.0) - pair.f_at_zero) <= 1e-12 * max(
        1.0, abs(pair.f_at_zero)
    )
    return pair
