"""Independent brute-force oracles used to freeze and check expected values.

Nothing here touches the package's adaptive Gauss-Kronrod integrator: the
routines are composite Simpson / trapezoid rules on explicit meshes plus
analytic tail handling, so agreement with the library is meaningful.  The
exceptions are ``reference_integrate_finite``, a plain restatement of the
integrator's bisection loop that pins the optimised loop bit for bit, and
``reference_evaluate``, the expression tree walk that pins the compiled
closures bit for bit.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from rmtkit.errors import (
    DivisionByZero,
    DomainError,
    EvaluationError,
    UnboundVariable,
    UnknownFunction,
)
from rmtkit.expr import _BUILTINS, BinaryOp, Call, Constant, UnaryNeg, Variable, _apply_power
from rmtkit.quadrature import (
    _WG,
    _WGK,
    _XGK,
    EvaluationResult,
    QuadratureConfig,
    _kahan_sum,
)


def simpson(f, a: float, b: float, n: int = 100_001) -> float:
    """Composite Simpson rule with n (odd) equally spaced points."""
    if n % 2 == 0:
        n += 1
    x = np.linspace(a, b, n)
    y = np.array([f(v) for v in x])
    h = (b - a) / (n - 1)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()))


def trapezoid(f, a: float, b: float, n: int = 1_000_001) -> float:
    x = np.linspace(a, b, n)
    y = np.array([f(v) for v in x])
    return float(np.trapezoid(y, x))


def _graded_trapezoid_once(f, q: float, n: int) -> float:
    i = np.arange(n + 1, dtype=float)
    x = (i / n) ** q
    y = np.empty_like(x)
    y[0] = 0.0  # integrable singularity: zero-measure endpoint
    for j in range(1, n + 1):
        y[j] = f(x[j])
    return float(np.trapezoid(y, x))


def graded_mesh_trapezoid(f, q: float, n: int = 60_000) -> float:
    """Trapezoid rule on the graded mesh x_i = (i/n)^q over [0, 1].

    The grading clusters nodes at 0 so integrable endpoint singularities
    x^(s-1) are resolved; pick q somewhat above 2/s.  One Richardson step
    over mesh sizes n and 2n removes the leading h^2 error of the smooth
    part, bringing the rule to ~1e-11.
    """
    coarse = _graded_trapezoid_once(f, q, n)
    fine = _graded_trapezoid_once(f, q, 2 * n)
    return (4.0 * fine - coarse) / 3.0


def frullani_log_simpson(f, alpha: float, beta: float, span: float = 30.0) -> float:
    """Frullani left side via the substitution x = e^t on [-span, span]."""
    return simpson(lambda t: f(alpha * math.exp(t)) - f(beta * math.exp(t)),
                   -span, span, 200_001)


def erf_maclaurin(x: float, terms: int = 30) -> float:
    """Truncated Maclaurin series of erf, an independent small-x oracle."""
    total = 0.0
    for k in range(terms):
        total += (-1.0) ** k * x ** (2 * k + 1) / (math.factorial(k) * (2 * k + 1))
    return 2.0 / math.sqrt(math.pi) * total


def hermite_by_expansion(n: int, x: float) -> float:
    """H_n from its explicit polynomial expansion (hand-derived, n <= 4)."""
    table = {
        0: lambda t: 1.0,
        1: lambda t: 2.0 * t,
        2: lambda t: 4.0 * t * t - 2.0,
        3: lambda t: 8.0 * t**3 - 12.0 * t,
        4: lambda t: 16.0 * t**4 - 48.0 * t * t + 12.0,
    }
    return table[n](x)


def laguerre_by_expansion(n: int, x: float) -> float:
    """L_n from its explicit polynomial expansion (hand-derived, n <= 4)."""
    table = {
        0: lambda t: 1.0,
        1: lambda t: 1.0 - t,
        2: lambda t: (t * t - 4.0 * t + 2.0) / 2.0,
        3: lambda t: (-t**3 + 9.0 * t * t - 18.0 * t + 6.0) / 6.0,
        4: lambda t: (t**4 - 16.0 * t**3 + 72.0 * t * t - 96.0 * t + 24.0) / 24.0,
    }
    return table[n](x)


def hardy_quarter_integral() -> float:
    """integral of x^(-3/4)/(1+x) over [0, inf).

    The substitution x = u^4 gives the smooth integrand 4/(1+u^4); Simpson
    on [0, 10] plus the alternating tail series 4 sum (-1)^j X^(-(4j+3))/(4j+3).
    """
    head = simpson(lambda u: 4.0 / (1.0 + u**4), 0.0, 10.0, 400_001)
    tail = 0.0
    X = 10.0
    for j in range(12):
        tail += 4.0 * (-1.0) ** j * X ** (-(4 * j + 3)) / (4 * j + 3)
    return head + tail


def harmonic_half_integral() -> float:
    """integral of x^(-3/2)(1 - e^(-x)) over [0, inf).

    With x = u^2 the integrand becomes 2 (1 - e^(-u^2))/u^2, smooth at 0;
    beyond u = 12 it is 2/u^2 up to e^(-144), integrated analytically.
    """

    def g(u: float) -> float:
        if u == 0.0:
            return 2.0
        return -2.0 * math.expm1(-u * u) / (u * u)

    head = simpson(g, 0.0, 12.0, 400_001)
    return head + 2.0 / 12.0


class _CallCounter:
    def __init__(self, f):
        self.f = f
        self.count = 0

    def __call__(self, x: float) -> float:
        self.count += 1
        return self.f(x)


def _reference_gk15(f, a: float, b: float):
    center = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(center)
    if not math.isfinite(fc):
        return 0.0, 0.0, False
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    resabs = abs(resk)
    for j in range(7):
        dx = hlgth * _XGK[j]
        f1 = f(center - dx)
        f2 = f(center + dx)
        if not (math.isfinite(f1) and math.isfinite(f2)):
            return 0.0, 0.0, False
        pair = f1 + f2
        resk += _WGK[j] * pair
        resabs += _WGK[j] * (abs(f1) + abs(f2))
        if j % 2 == 1:
            resg += _WG[j // 2] * pair
    err = max(abs(resk - resg), 50.0 * 2.220446049250313e-16 * resabs) * abs(hlgth)
    return resk * hlgth, err, True


def _reference_panels(f, a: float, b: float, retries: int):
    value, err, ok = _reference_gk15(f, a, b)
    if ok:
        return [(a, b, value, err)]
    mid = 0.5 * (a + b)
    if retries <= 0 or not (a < mid < b):
        raise EvaluationError(f"non-finite integrand inside [{a!r}, {b!r}]")
    return _reference_panels(f, a, mid, retries - 1) + _reference_panels(
        f, mid, b, retries - 1
    )


def reference_integrate_finite(f, a: float, b: float, cfg=None) -> EvaluationResult:
    """The adaptive loop as first written: every call of f counted by a
    wrapper, and the stopping test re-summing the whole panel heap (Kahan,
    heap order) before each bisection - O(n) per split."""
    cfg = cfg or QuadratureConfig()
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise DomainError(f"bad interval [{a!r}, {b!r}]")
    if a == b:
        return EvaluationResult(0.0, 0.0, 0, True)
    counter = _CallCounter(f)
    heap = []
    tick = 0
    for pa, pb, val, err in _reference_panels(counter, a, b, 2):
        heapq.heappush(heap, (-err, tick, pa, pb, val, err))
        tick += 1
    splits = 0
    min_width = abs(b - a) * 1e-15
    while True:
        total = _kahan_sum(item[4] for item in heap)
        total_err = _kahan_sum(item[5] for item in heap)
        if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
            converged = True
            break
        if splits >= cfg.max_subdivisions:
            converged = False
            break
        neg_err, _, pa, pb, val, err = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if not (pa < mid < pb) or (pb - pa) < min_width:
            heapq.heappush(heap, (neg_err, tick, pa, pb, val, err))
            converged = False
            break
        for sa, sb in ((pa, mid), (mid, pb)):
            for qa, qb, qval, qerr in _reference_panels(counter, sa, sb, 2):
                heapq.heappush(heap, (-qerr, tick, qa, qb, qval, qerr))
                tick += 1
        splits += 1
    panels = sorted((item[2], item[3], item[4], item[5]) for item in heap)
    value = _kahan_sum(p[2] for p in panels)
    error = _kahan_sum(p[3] for p in panels)
    converged = converged and error <= max(cfg.abs_tol, cfg.rel_tol * abs(value))
    return EvaluationResult(value, error, counter.count, converged)


def reference_evaluate(node, env) -> float:
    """The expression evaluator as first written: a walk over the tree on
    every call, reading each name from ``env`` when it is reached."""
    if isinstance(node, Constant):
        return node.value
    if isinstance(node, Variable):
        try:
            return float(env[node.name])
        except KeyError:
            raise UnboundVariable(f"variable {node.name!r} is not bound") from None
    if isinstance(node, UnaryNeg):
        return -reference_evaluate(node.child, env)
    if isinstance(node, BinaryOp):
        left = reference_evaluate(node.left, env)
        right = reference_evaluate(node.right, env)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            if right == 0.0:
                raise DivisionByZero(f"division by zero: {left!r} / 0")
            return left / right
        if node.op == "^":
            return _apply_power(left, right)
        raise DomainError(f"unknown operator {node.op!r}")
    if isinstance(node, Call):
        builtin = _BUILTINS.get(node.fn)
        if builtin is None:
            raise UnknownFunction(f"unknown function {node.fn!r}", 0, ())
        args = [reference_evaluate(a, env) for a in node.args]
        try:
            return builtin[1](*args)
        except ValueError:  # math.sin and math.cos at +/-inf
            raise DomainError(f"{node.fn} undefined at {', '.join(map(repr, args))}") from None
    raise DomainError(f"unknown node type {type(node).__name__}")
