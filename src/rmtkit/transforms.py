"""The integral identities, each computed as two independent sides.

Every operation returns an IdentityReport whose left side comes from
adaptive quadrature and whose right side is evaluated in closed form from
the special-function layer; the two never share a code path, which is what
makes the comparison a check rather than a tautology.

Identity summary (f has limits f(0), f(inf); F(x) = sum phi(k)(-x)^k/k!):

  frullani   integral (f(ax) - f(bx))/x dx        = (f(inf)-f(0)) ln(a/b)
  lemma2     integral x^(n-1) f^(n)(x) dx         = (-1)^(n-1) (f(inf)-f(0)) Gamma(n)
  rmt        integral x^(s-1) F(x) dx             = Gamma(s) phi(-s)
  hardy      integral x^(s-1) sum phi(k)(-x)^k dx = pi/sin(pi s) phi(-s)

plus the pole machinery: the partial-fraction sum over 1/(s+k) and the
residue limit (s+m) Gamma(s) phi(-s) -> (-1)^m phi(m)/m!.  The left sides
of lemma2 (f^(n) at s = n), rmt and hardy are each one integrate_mellin.

IDENTITIES maps each kind to the inputs it takes and a runner; the CLI and
the corpus both dispatch through it, so a new identity is one entry there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

from . import specfun
from .errors import (
    DomainError,
    NonstandardPair,
    PoleError,
    PresentationError,
    integer_in,
)
from .quadrature import (
    EvaluationResult,
    QuadratureConfig,
    integrate_mellin,
    integrate_semi_infinite,
)
from .sequences import SeriesPair, refuse_order_above

__all__ = [
    "IdentityReport",
    "FdDerivative",
    "Identity",
    "IDENTITIES",
    "DEFAULT_IDENTITY_TOL",
    "RESIDUE_EPS",
    "FD_MAX_ORDER",
    "positive_tolerance",
    "scale_report",
    "frullani",
    "lemma2",
    "rmt",
    "hardy",
    "partial_fraction_sum",
    "residue_check",
    "nth_derivative_fd",
]

# An order of magnitude looser than the quadrature tolerance, absorbing
# closed-form rounding.  Overridable per call.
DEFAULT_IDENTITY_TOL = 1e-8

# The residue check's default two-sided probe width, and the highest
# derivative order nth_derivative_fd computes.
RESIDUE_EPS = 1e-4
FD_MAX_ORDER = 6

# The warning every report on a non-converged left side carries, once.
_NOT_CONVERGED = "quadrature did not converge; best-effort value used"


def positive_tolerance(value: float, source: str) -> float:
    """``value`` if it is a finite number > 0, else DomainError naming
    ``source``: the rule for tolerances users supply (library calls may
    pass 0) and for finite-difference steps."""
    if not value > 0.0:
        raise DomainError(f"{source} must be positive")
    if value == math.inf:
        raise DomainError(f"{source} must be finite")
    return value


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of checking one identity.

    passed is true when either the absolute or the relative discrepancy is
    within tolerance_used; the relative discrepancy is taken against the
    closed-form side and is +inf when that side is zero.
    """

    identity: str
    lhs: EvaluationResult
    rhs: float
    abs_discrepancy: float
    rel_discrepancy: float
    passed: bool
    tolerance_used: float
    warnings: tuple[str, ...] = ()


class FdDerivative(NamedTuple):
    value: float
    error_estimate: float


def _report(
    identity: str,
    lhs: EvaluationResult,
    rhs: float,
    tolerance: float | None,
) -> IdentityReport:
    tol = DEFAULT_IDENTITY_TOL if tolerance is None else tolerance
    if rhs == 0.0:
        rhs = 0.0  # normalise -0.0 for stable reporting
    abs_disc = abs(lhs.value - rhs)
    rel_disc = abs_disc / abs(rhs) if rhs != 0.0 else math.inf
    return IdentityReport(
        identity=identity,
        lhs=lhs,
        rhs=rhs,
        abs_discrepancy=abs_disc,
        rel_discrepancy=rel_disc,
        passed=(abs_disc <= tol) or (rel_disc <= tol),
        tolerance_used=tol,
        warnings=() if lhs.converged else (_NOT_CONVERGED,),
    )


def scale_report(report: IdentityReport, factor: float) -> IdentityReport:
    """``report`` with both sides multiplied by ``factor`` and the verdict
    re-taken at its tolerance: recasts an identity as the integral it
    encodes (the erf corpus cases divide out a Rodrigues factor this way)."""
    lhs = replace(
        report.lhs,
        value=factor * report.lhs.value,
        error_estimate=abs(factor) * report.lhs.error_estimate,
    )
    return _report(report.identity, lhs, factor * report.rhs, report.tolerance_used)


def frullani(
    f: Callable[[float], float],
    f0: float,
    finf: float,
    alpha: float,
    beta: float,
    cfg: QuadratureConfig | None = None,
    tolerance: float | None = None,
) -> IdentityReport:
    """Check integral of (f(alpha x) - f(beta x))/x against
    (f(inf) - f(0)) * ln(alpha/beta)."""
    if not (0.0 < alpha < math.inf and 0.0 < beta < math.inf):
        raise DomainError("frullani: alpha and beta must be positive and finite")

    def integrand(x: float) -> float:
        return (f(alpha * x) - f(beta * x)) / x

    lhs = integrate_semi_infinite(integrand, cfg)
    # log(alpha) - log(beta) rather than log(alpha/beta): swapping the scale
    # arguments then negates the right side exactly.
    rhs = (finf - f0) * (math.log(alpha) - math.log(beta))
    return _report("frullani", lhs, rhs, tolerance)


def lemma2(
    pair: SeriesPair,
    n: int,
    cfg: QuadratureConfig | None = None,
    tolerance: float | None = None,
) -> IdentityReport:
    """Check the Mellin transform of the pair's analytic f^(n) at s = n, the
    integral of x^(n-1) f^(n)(x), against (-1)^(n-1) (f(inf)-f(0)) Gamma(n),
    computed first so that a Gamma(n) beyond the double range refuses n."""
    n = integer_in(n, 1, math.inf, DomainError, "lemma2: n must be a positive integer")
    refuse_order_above(pair.label, n, pair.derivative_max)

    rhs = (-1.0) ** (n - 1) * (pair.f_at_infinity - pair.f_at_zero) * specfun.gamma(float(n))
    lhs = integrate_mellin(functools.partial(pair.derivative, n), float(n), cfg,
                           smooth=pair.smooth_derivatives)
    return _report("lemma2", lhs, rhs, tolerance)


def rmt(
    pair: SeriesPair,
    s: float,
    cfg: QuadratureConfig | None = None,
    tolerance: float | None = None,
) -> IdentityReport:
    """Check the Mellin integral of the closed form against
    Gamma(s) phi(-s).  Integer and non-integer s share the same path."""
    if pair.nonstandard:
        raise NonstandardPair(
            f"{pair.label}: phi(0) = 0, not admissible here; "
            "use lemma2 instead"
        )
    if not s > 0.0:
        raise DomainError(f"rmt: requires s > 0, got {s!r}")
    rhs = specfun.gamma(s) * pair.phi(-s)  # PoleError propagates
    if not math.isfinite(rhs):
        raise PoleError(f"rmt: Gamma(s) phi(-s) is non-finite at s={s!r}")
    lhs = integrate_mellin(pair.closed_form, s, cfg, log_F=pair.log_closed_form)
    regime = "integer order" if float(s).is_integer() else "real order"
    return _report(f"rmt ({regime})", lhs, rhs, tolerance)


def hardy(
    pair: SeriesPair,
    s: float,
    cfg: QuadratureConfig | None = None,
    tolerance: float | None = None,
) -> IdentityReport:
    """Check the Mellin integral of a plain series sum phi(k)(-x)^k against
    pi/sin(pi s) * phi(-s), for 0 < s < 1."""
    if pair.phi_plain is None:
        raise PresentationError(f"{pair.label}: hardy requires the plain-series presentation")
    factor = specfun.reflection_factor(s)  # PoleError at integer s
    if not 0.0 < s < 1.0:
        raise DomainError(
            f"hardy: s must lie in (0, 1) for the integral to converge, got {s!r}"
        )
    rhs = factor * pair.phi_plain(-s)
    lhs = integrate_mellin(pair.closed_form, s, cfg, log_F=pair.log_closed_form)
    return _report("hardy", lhs, rhs, tolerance)


def partial_fraction_sum(pair: SeriesPair, s: float, terms: int) -> float:
    """sum_{k=0}^{terms} phi(k) (-1)^k / k! * 1/(s+k), compensated.

    This is the truncated pole expansion of Gamma(s) phi(-s); its exact
    limit is the head integral over [0, 1] of x^(s-1) F(x), so it differs
    from the full Mellin transform by the (entire) tail over [1, inf).
    """
    terms = integer_in(terms, 0, math.inf, DomainError, "partial_fraction_sum: terms must be >= 0")
    if math.isnan(s):
        raise DomainError("partial_fraction_sum: s must be a number, got nan")
    for k in range(terms + 1):
        if abs(s + k) <= 1e-10:
            raise PoleError(
                f"partial_fraction_sum: s={s!r} is within 1e-10 of the pole at -{k}"
            )
    total = 0.0
    comp = 0.0
    factorial = 1.0
    for k in range(terms + 1):
        if k > 0:
            factorial *= k
        term = pair.phi(float(k)) * (-1.0) ** k / (factorial * (s + k))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def residue_check(pair: SeriesPair, m: int, eps: float) -> tuple[float, float]:
    """Probe the simple pole of Gamma(s) phi(-s) at s = -m.

    left averages (s+m) Gamma(s) phi(-s) over s = -m +/- eps, which cancels
    the linear part of the regular factor and converges at O(eps^2);
    right is the residue (-1)^m phi(m)/m!.
    """
    m = integer_in(m, 0, math.inf, DomainError, "residue_check: m must be a non-negative integer")
    if not 0.0 < eps <= 1e-2:
        raise DomainError("residue_check: eps must lie in (0, 1e-2]")

    def g(s: float) -> float:
        return (s + m) * specfun.gamma(s) * pair.phi(-s)

    left = 0.5 * (g(-m + eps) + g(-m - eps))
    right = (-1.0) ** m * pair.phi(float(m)) / specfun.gamma(m + 1.0)
    if not (math.isfinite(left) and math.isfinite(right)):
        raise PoleError(
            f"residue_check: phi contributes its own singularity near m={m}"
        )
    return left, right


class Identity(NamedTuple):
    """One identity kind: the inputs it takes besides the pair, and
    ``run(pair, cfg, tolerance, **inputs)`` returning its report."""

    inputs: tuple[str, ...]
    run: Callable[..., IdentityReport]


def _residue(pair, cfg, tolerance, m, eps) -> IdentityReport:
    left, right = residue_check(pair, m, eps)
    lhs = EvaluationResult(left, abs(left - right), 2, True)
    return _report("residue", lhs, right, tolerance)


# Every identity kind, in presentation order.  Runners look the identity
# functions up in this module when they run, so replacing one here (a test
# double, a tracing wrapper) reaches every caller of the table.
IDENTITIES = {
    "frullani": Identity(("alpha", "beta"), lambda p, cfg, tol, alpha, beta: frullani(
        p.closed_form, p.f_at_zero, p.f_at_infinity, alpha, beta, cfg, tol)),
    "lemma2": Identity(("n",), lambda p, cfg, tol, n: lemma2(p, n, cfg, tol)),
    "rmt": Identity(("s",), lambda p, cfg, tol, s: rmt(p, s, cfg, tol)),
    "hardy": Identity(("s",), lambda p, cfg, tol, s: hardy(p, s, cfg, tol)),
    "residue": Identity(("m", "eps"), _residue),
}


# Central-difference coefficients: f^(n)(x) ~ h^-n sum_i (-1)^i C(n,i)
# f(x + (n/2 - i) h), with error O(h^2).
@functools.lru_cache(maxsize=32)
def _stencil(n: int, h: float) -> tuple[tuple[tuple[float, float], ...], float]:
    """The (weight, offset) pairs of the order-n stencil at step h, and h^n."""
    try:
        scale = h**n
    except OverflowError:
        raise DomainError(f"nth_derivative_fd: step h={h!r} is too large: h**{n} overflows") from None
    if scale == 0.0:
        raise DomainError(f"nth_derivative_fd: step h={h!r} is too small: h**{n} underflows to 0")
    return tuple((math.comb(n, i) * (-1.0) ** i, (n / 2.0 - i) * h) for i in range(n + 1)), scale


def _fd_derivative(f: Callable[[float], float], n: int, h: float):
    """x -> nth_derivative_fd(f, x, n, h).value (with ``estimate``, the whole
    result), the order and step checked and both stencils fetched here, once."""
    n = integer_in(n, 1, FD_MAX_ORDER, DomainError,
                   "nth_derivative_fd: n must be in 1..%s, got %s", FD_MAX_ORDER, n)
    positive_tolerance(h, "nth_derivative_fd: h")
    coarse_weights, coarse_scale = _stencil(n, h)
    fine_weights, fine_scale = _stencil(n, h / 2.0)

    def derivative(x: float, estimate: bool = False):
        coarse = fine = 0.0
        for weight, offset in coarse_weights:
            coarse += weight * f(x + offset)
        for weight, offset in fine_weights:
            fine += weight * f(x + offset)
        coarse, fine = coarse / coarse_scale, fine / fine_scale
        # Both levels carry O(h^2) leading error; eliminate it.
        value = (4.0 * fine - coarse) / 3.0
        return FdDerivative(value, abs(fine - coarse)) if estimate else value

    return derivative


def nth_derivative_fd(
    f: Callable[[float], float],
    x: float,
    n: int,
    h: float,
) -> FdDerivative:
    """Finite-difference n-th derivative with one Richardson step.

    Evaluates the order-n central stencil at steps h and h/2 and
    extrapolates; the reported error estimate is the difference between the
    two levels.  Accuracy degrades with n roughly like machine-eps^(2/(n+2)),
    documented rather than guaranteed.
    """
    return _fd_derivative(f, n, h)(x, estimate=True)
