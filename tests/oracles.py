"""Independent brute-force oracles used to freeze and check expected values.

Nothing here touches the package's adaptive Gauss-Kronrod integrator: the
routines are composite Simpson / trapezoid rules on explicit meshes plus
analytic tail handling, so agreement with the library is meaningful.  The
exceptions are restatements of earlier code:
``reference_integrate_finite``, the integrator's plain bisection loop
(re-summing every panel left to right before each split, with
round-off-limited panels set aside unbisected), which pins the optimised
loop bit for bit;
``reference_geometric_panels`` with ``reference_integrate_semi_infinite``
and ``reference_mellin_integrand``, the semi-infinite integrator re-summing
its partial sums after every panel over that plain loop, which pin
``integrate_semi_infinite`` and ``integrate_mellin`` bit for bit, tail
panels in their log-spaced coordinate included;
``reference_double_exponential`` with
``reference_integrate_semi_infinite_de`` and ``reference_integrate_mellin``,
the double-exponential rule restated from its map formulas and levels,
with ``reference_mellin_term``, the Mellin walk's one term in ln x over
the whole grid, falling back to the geometric oracle, which pins the DE
path of both integrators bit for bit;
``reference_epsilon_picks``, Wynn's table rebuilt diagonal by diagonal
with its column picked by min() over (movement, column), which pins
the one-pass ``_epsilon_table`` bit for bit;
``reference_evaluate``, the expression tree walk, which pins the compiled
closures bit for bit; ``reference_parse``, the parser with its depth
kept in a mutable counter, which pins the parser's trees and errors;
``reference_laguerre_weight_derivative``, the Leibniz rule re-deriving its
coefficients on every call, which pins the catalog closure bit for bit;
``reference_nth_derivative_fd``, the central-difference stencil rebuilt on
every call, which pins ``nth_derivative_fd`` bit for bit; and
``reference_cli_main``, the CLI entry route through the top-level
argument parser, which pins ``cli.main``'s exit codes and output.
"""

from __future__ import annotations

import heapq
import math
import re
import sys
from typing import Callable

import numpy as np

from rmtkit.cli import _build_argparser, _InputError
from rmtkit.errors import (
    DivisionByZero,
    DomainError,
    EvaluationError,
    ExprSyntaxError,
    RmtError,
    SingularityError,
    UnboundVariable,
    UnknownFunction,
)
from rmtkit.expr import (
    _BUILTINS,
    BUILTIN_FUNCTIONS,
    MAX_SOURCE_BYTES,
    BinaryOp,
    Call,
    Constant,
    ExprNode,
    UnaryNeg,
    Variable,
    _apply_power,
)
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
        return 0.0, 0.0, False, False
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    resabs = abs(resk)
    for j in range(7):
        dx = hlgth * _XGK[j]
        f1 = f(center - dx)
        f2 = f(center + dx)
        if not (math.isfinite(f1) and math.isfinite(f2)):
            return 0.0, 0.0, False, False
        pair = f1 + f2
        resk += _WGK[j] * pair
        resabs += _WGK[j] * (abs(f1) + abs(f2))
        if j % 2 == 1:
            resg += _WG[j // 2] * pair
    floor = 50.0 * 2.220446049250313e-16 * resabs
    err = max(abs(resk - resg), floor) * abs(hlgth)
    return resk * hlgth, err, abs(resk - resg) <= floor, True


def _reference_panels(f, a: float, b: float, retries: int):
    value, err, floored, ok = _reference_gk15(f, a, b)
    if ok:
        return [(a, b, value, err, floored)]
    mid = 0.5 * (a + b)
    if retries <= 0 or not (a < mid < b):
        raise EvaluationError(f"non-finite integrand inside [{a!r}, {b!r}]")
    return _reference_panels(f, a, mid, retries - 1) + _reference_panels(
        f, mid, b, retries - 1
    )


def reference_integrate_finite(f, a: float, b: float, cfg=None) -> EvaluationResult:
    """The adaptive loop in its plain form: every call of f counted by a
    wrapper, and every panel re-summed (Kahan, left to right) before each
    bisection - O(n log n) per split.  The loop stops on a finite value
    whose error is within the tolerance and returns those sums.  A panel
    whose error is its round-off floor is set aside, never bisected; when
    no other panel is left the loop stops unconverged."""
    cfg = cfg or QuadratureConfig()
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise DomainError(f"bad interval [{a!r}, {b!r}]")
    if a == b:
        return EvaluationResult(0.0, 0.0, 0, True)
    counter = _CallCounter(f)
    heap = []
    aside = []
    tick = 0

    def keep(sa, sb):
        nonlocal tick
        for qa, qb, qval, qerr, floored in _reference_panels(counter, sa, sb, 2):
            item = (-qerr, tick, qa, qb, qval, qerr)
            if floored:
                aside.append(item)
            else:
                heapq.heappush(heap, item)
            tick += 1

    keep(a, b)
    splits = 0
    min_width = abs(b - a) * 1e-15
    while True:
        panels = sorted((item[2], item[4], item[5]) for item in heap + aside)
        value = _kahan_sum(p[1] for p in panels)
        error = _kahan_sum(p[2] for p in panels)
        if math.isfinite(value) and error <= max(cfg.abs_tol, cfg.rel_tol * abs(value)):
            return EvaluationResult(value, error, counter.count, True)
        if splits >= cfg.max_subdivisions or not heap:
            break
        pa, pb = heap[0][2:4]
        mid = 0.5 * (pa + pb)
        if not (pa < mid < pb) or (pb - pa) < min_width:
            break
        heapq.heappop(heap)
        keep(pa, mid)
        keep(mid, pb)
        splits += 1
    return EvaluationResult(value, error, counter.count, False)


def reference_geometric_panels(f, ratio: float, cfg: QuadratureConfig) -> EvaluationResult:
    """One end of [0, inf) as geometric panels from 1 toward infinity (ratio
    2) or toward 0 (ratio 1/2), each panel run by the plain loop above, the
    partial sum re-summed over every panel after each one and extrapolated
    with Wynn's epsilon algorithm.  A tail panel [lo, 2 lo] runs on the
    integrand substituted with x = lo 2^u, u = y / lo - 1, over y in the same
    interval."""
    panel_cfg = cfg.scaled(0.25)
    values, errs, diagonals = [], [], []  # diagonals: the last three
    evaluations = 0
    edge = 1.0
    for _ in range(cfg.max_tail_panels):
        lo, hi = min(edge, edge * ratio), max(edge, edge * ratio)
        g = f
        if ratio == 2.0:

            def g(y, lo=lo):
                w = 2.0 ** (y / lo - 1.0)
                return f(lo * w) * (w * math.log(2.0))

        res = reference_integrate_finite(g, lo, hi, panel_cfg)
        edge *= ratio
        evaluations += res.evaluations
        values.append(res.value)
        errs.append(res.error_estimate)
        total = _kahan_sum(values)
        # eps_(k+1)^(n-k-1) = eps_(k-1)^(n-k) + 1 / (eps_k^(n-k) - eps_k^(n-k-1)),
        # with eps_(-1) = 0.
        previous = diagonals[-1] if diagonals else []
        diagonal = [total]
        for k, old in enumerate(previous):
            difference = diagonal[k] - old
            if difference == 0.0:
                break
            entry = (previous[k - 1] if k else 0.0) + 1.0 / difference
            if not math.isfinite(entry):
                break
            diagonal.append(entry)
        diagonals = diagonals[-2:] + [diagonal]
        if len(diagonals) < 3 or not abs(values[-3]) >= abs(values[-2]) >= abs(values[-1]):
            continue
        first, second, last = diagonals
        columns = range(0, min(map(len, diagonals)), 2)
        change, k = min(
            (abs(last[k] - second[k]) + abs(second[k] - first[k]), k) for k in columns
        )
        change += 10.0 * 2.220446049250313e-16 * abs(total)
        if change <= max(cfg.abs_tol, cfg.rel_tol * abs(last[k])) / 4.0:
            return EvaluationResult(last[k], change + _kahan_sum(errs), evaluations, True)
    errs.append(abs(values[-1]))
    return EvaluationResult(total, _kahan_sum(errs), evaluations, False)


def reference_epsilon_picks(sums) -> list:
    """Wynn's epsilon table over ``sums``, each diagonal rebuilt from the
    one before.  Once three diagonals exist, the pick is min() over
    (movement, column) for the even columns present in all three, movement
    being |c - b| + |b - a| down the column.  Returns one (value, movement,
    column, movements) per sum, movements listing every even column's, or
    None while fewer than three diagonals exist."""
    diagonals, picks = [], []
    for total in sums:
        previous = diagonals[-1] if diagonals else []
        diagonal = [total]
        for k, old in enumerate(previous):
            difference = diagonal[k] - old
            if difference == 0.0:
                break
            entry = (previous[k - 1] if k else 0.0) + 1.0 / difference
            if not math.isfinite(entry):
                break
            diagonal.append(entry)
        diagonals = diagonals[-2:] + [diagonal]
        if len(diagonals) < 3:
            picks.append(None)
            continue
        first, second, last = diagonals
        columns = range(0, min(map(len, diagonals)), 2)
        movements = [abs(last[k] - second[k]) + abs(second[k] - first[k]) for k in columns]
        change, k = min(zip(movements, columns))
        picks.append((last[k], change, k, movements))
    return picks


def reference_integrate_semi_infinite(f, cfg=None) -> EvaluationResult:
    """The head toward 0 plus the tail toward infinity, both by
    ``reference_geometric_panels``."""
    cfg = cfg or QuadratureConfig()
    head = reference_geometric_panels(f, 0.5, cfg)
    tail = reference_geometric_panels(f, 2.0, cfg)
    value = head.value + tail.value
    error = head.error_estimate + tail.error_estimate
    converged = head.converged and tail.converged and math.isfinite(value)
    converged = converged and error <= max(cfg.abs_tol, cfg.rel_tol * abs(value))
    return EvaluationResult(value, error, head.evaluations + tail.evaluations, converged)


def _reference_de_node(exponential: bool, t: float) -> tuple[float, float]:
    """ln x and d ln x/dt of the double-exponential maps: x = exp(t - e^-t)
    for exponential decay, x = exp(pi/2 sinh t) for algebraic decay."""
    if exponential:
        decay = math.exp(-t)
        return t - decay, 1.0 + decay
    return math.pi / 2.0 * math.sinh(t), math.pi / 2.0 * math.cosh(t)


def _reference_de_attempt(f, cfg: QuadratureConfig, g, above):
    eps = 2.220446049250313e-16
    near, far = 16.0 * f(16.0), 64.0 * f(64.0)
    if not (math.isfinite(near) and math.isfinite(far)):
        return None
    exponential = abs(far) <= 1e-4 * abs(near)
    t_table, t_top = (-6.0, 40.0) if exponential else (-6.5, 6.5)
    t_min = t_table if g is None else (-11.5 if exponential else -12.0)
    t_max = t_top if not above or exponential else 12.0
    terms = {}  # t -> term, in the order made

    def size_at(t):
        log_x, dlog_x = _reference_de_node(exponential, t)
        if g is None:
            x = math.exp(log_x)
            terms[t] = f(x) * (x * dlog_x)
        else:
            terms[t] = g(log_x) * dlog_x
        return abs(terms[t])

    largest = size_at(0.0)
    reach = []
    for direction in (1.0, -1.0):
        sizes = [abs(terms[0.0])]
        k = 0
        while True:
            k += 1
            t = direction * 0.5 * k
            if not t_min <= t <= t_max:
                return None
            sizes.append(size_at(t))
            largest = max(largest, sizes[-1])
            if all(size <= 1e-3 * eps * largest for size in sizes[-2:]):
                break
        reach.append(t)
    if largest == 0.0:
        return None
    t_hi, t_lo = reach
    h = 0.5
    changes = []
    previous = 0.0
    for level in range(5):
        if level:
            h /= 2.0
            for m in range(int(t_lo / h) + 1, int(t_hi / h), 2):
                size_at(m * h)
        made = list(terms.values())
        floor = 50.0 * eps * h * sum(abs(v) for v in made)
        if not math.isfinite(floor):
            return None
        total = h * math.fsum(made)
        if not math.isfinite(total):
            return None
        tolerance = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        changes.append(abs(total - previous))
        previous = total
        estimate = 10.0 * changes[-1] + floor
        if level >= 2 and changes[-1] <= 0.1 * changes[-2] + floor:
            if estimate <= tolerance:
                return EvaluationResult(total, estimate, 0, True)
            if floor > tolerance and changes[-1] <= floor:
                return EvaluationResult(total, estimate, 0, False)
    return None


def reference_double_exponential(f, cfg=None, g=None, above=False):
    """(result or None, calls of f and g) of the double-exponential
    attempt, restated from its definition: the map picked by the fall of
    |x f(x)| from x = 16 to 64, the level-0 walk over t = k/2 (toward +inf,
    then -inf) to two consecutive terms within 1e-3 eps of the largest,
    levels h = 1/4 .. 1/32 over the walked range, and the value T_L and
    estimate 10 |T_L - T_(L-1)| + 50 eps h sum|terms| of the first level
    from 2 on that passes; no finer level is made.  Without ``g`` the term
    at t is f(x) dx/dt, with dx/dt = x d ln x/dt, and the t-range is the
    node table, [-6.5, 6.5] for the algebraic map and [-6, 40] for the
    exponential one.  Given ``g``, x f(x) as a function of ln x, the term
    is g(ln x) d ln x/dt, and the t-range reaches down to -12 and -11.5;
    given ``above`` too, the algebraic map's reaches up to 12.  A level
    whose floor alone exceeds the tolerance, with a change that passes the
    ratio test and is at most the floor, is returned too, with
    converged=False.  None is a fallback; an exception from f or g is one
    too."""
    cfg = cfg or QuadratureConfig()
    counter, g_counter = _CallCounter(f), _CallCounter(g)
    try:
        result = _reference_de_attempt(counter, cfg, g and g_counter, above)
    except Exception:
        result = None
    calls = counter.count + g_counter.count
    if result is None:
        return None, calls
    return EvaluationResult(result.value, result.error_estimate, calls, result.converged), calls


def reference_integrate_semi_infinite_de(f, cfg=None, g=None, above=False) -> EvaluationResult:
    """The double-exponential attempt, or on its fallback
    ``reference_integrate_semi_infinite`` with the attempt's calls added."""
    cfg = cfg or QuadratureConfig()
    result, calls = reference_double_exponential(f, cfg, g, above)
    if result is not None:
        return result
    ends = reference_integrate_semi_infinite(f, cfg)
    return EvaluationResult(ends.value, ends.error_estimate, calls + ends.evaluations,
                            ends.converged)


def reference_mellin_term(F, s: float, log_F=None):
    """x^s F(x) as a function of L = ln x, as the Mellin DE walk forms it:
    given ``log_F``, e^(sL + log_F(L)) where x = e^L overflows or F(x) is
    subnormal or 0 above x = 1; otherwise 0 where F is 0, and e^(sL) F(e^L)
    with e^(sL) split in two halves where it alone overflows."""

    def term(log_x: float) -> float:
        if log_F is not None and log_x > math.log(sys.float_info.max):
            return math.exp(s * log_x + log_F(log_x))
        x = math.exp(log_x)
        v = F(x)
        if log_F is not None and x > 1.0 and v < sys.float_info.min:
            return math.exp(s * log_x + log_F(log_x))
        if v == 0.0:
            return 0.0
        if s * log_x > math.log(sys.float_info.max):
            half = math.exp(s * log_x / 2.0)
            return half * v * half
        return math.exp(s * log_x) * v

    return term


def reference_integrate_mellin(F, s: float, cfg=None, log_F=None) -> EvaluationResult:
    """``integrate_mellin`` with smooth=True: the double-exponential
    attempt on ``reference_mellin_term``, walked above the node table given
    ``log_F``, its probes and fallback on ``reference_mellin_integrand``,
    then the geometric ends."""
    return reference_integrate_semi_infinite_de(
        reference_mellin_integrand(F, s, log_F), cfg, reference_mellin_term(F, s, log_F),
        log_F is not None)


def reference_mellin_integrand(F, s: float, log_F=None):
    """x^(s-1) F(x) as the Mellin integrator forms it: given ``log_F``,
    e^((s-1) ln x + log_F(ln x)) where F is subnormal or 0 above x = 1;
    otherwise 0 where F is 0, an error where F is non-finite on (0, 1], and
    the power split in two halves where it alone overflows."""

    def integrand(x: float) -> float:
        v = F(x)
        if log_F is not None and x > 1.0 and v < sys.float_info.min:
            return math.exp((s - 1.0) * math.log(x) + log_F(math.log(x)))
        if v == 0.0:
            return 0.0
        if x <= 1.0 and not math.isfinite(v):
            raise SingularityError(f"non-finite F at x={x!r}")
        try:
            return x ** (s - 1.0) * v
        except OverflowError:
            half = x ** ((s - 1.0) / 2.0)
            return half * v * half

    return integrand


def reference_laguerre_weight_derivative(n: int, order: int, x: float) -> float:
    """The order-th derivative of x^n e^-x by the Leibniz rule, each
    coefficient computed afresh."""
    total = 0.0
    for i in range(min(order, n) + 1):
        falling = math.perm(n, i)  # n!/(n-i)!
        total += math.comb(order, i) * falling * x ** (n - i) * (-1.0) ** (order - i)
    return total * math.exp(-x)


def reference_nth_derivative_fd(f, x: float, n: int, h: float) -> tuple[float, float]:
    """(value, error estimate) of the order-n central difference at steps h
    and h/2 with one Richardson step, the stencil built on every call."""

    def central(step: float) -> float:
        total = 0.0
        for i in range(n + 1):
            weight = math.comb(n, i) * (-1.0) ** i
            total += weight * f(x + (n / 2.0 - i) * step)
        return total / step**n

    coarse, fine = central(h), central(h / 2.0)
    return (4.0 * fine - coarse) / 3.0, abs(fine - coarse)


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
        if len(node.args) != builtin[0]:
            raise DomainError(f"{node.fn} takes {builtin[0]} argument(s), got {len(node.args)}")
        args = [reference_evaluate(a, env) for a in node.args]
        try:
            return builtin[1](*args)
        except ValueError:  # math.sin and math.cos at +/-inf
            raise DomainError(f"{node.fn} undefined at {', '.join(map(repr, args))}") from None
    raise DomainError(f"unknown node type {type(node).__name__}")


# The depth limit, stated here rather than imported so that a changed
# limit shows as a disagreement.
_REFERENCE_MAX_DEPTH = 120

_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)


def _reference_tokenize(source: str):
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _REFERENCE_TOKEN_RE.match(source, pos)
        if m is None:
            raise ExprSyntaxError(
                f"unexpected character {source[pos]!r}",
                pos,
                ("number", "identifier", "operator"),
            )
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("end", "", n))
    return tokens


class _ReferenceParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", offset, (op,))
        return self.advance()

    def _enter(self, offset: int):
        self.depth += 1
        if self.depth > _REFERENCE_MAX_DEPTH:
            raise ExprSyntaxError("expression too deeply nested", offset, ())

    def _leave(self):
        self.depth -= 1

    def _chain(self, ops: str, operand: Callable[[], ExprNode]) -> ExprNode:
        """A left-associative chain of ``operand`` joined by ``ops``.

        Each operator deepens the tree one level, so each counts toward the
        depth limit until the chain ends.
        """
        depth = self.depth
        try:
            node = operand()
            while True:
                kind, text, offset = self.peek()
                if kind != "op" or text not in ops:
                    return node
                self._enter(offset)
                self.advance()
                node = BinaryOp(text, node, operand())
        finally:
            self.depth = depth

    def parse_expr(self) -> ExprNode:
        kind, text, offset = self.peek()
        self._enter(offset)
        try:
            return self._chain("+-", self.parse_term)
        finally:
            self._leave()

    def parse_term(self) -> ExprNode:
        return self._chain("*/", self.parse_factor)

    def parse_factor(self) -> ExprNode:
        kind, text, offset = self.peek()
        if kind == "op" and text == "-":
            self._enter(offset)
            try:
                self.advance()
                return UnaryNeg(self.parse_factor())
            finally:
                self._leave()
        return self.parse_power()

    def parse_power(self) -> ExprNode:
        base = self.parse_primary()
        kind, text, offset = self.peek()
        if kind == "op" and text == "^":
            self._enter(offset)
            try:
                self.advance()
                # Right-associative; the exponent may not start with a bare
                # unary minus (parenthesise it instead).
                return BinaryOp("^", base, self.parse_power())
            finally:
                self._leave()
        return base

    def parse_primary(self) -> ExprNode:
        kind, text, offset = self.advance()
        if kind == "number":
            value = float(text)
            if math.isinf(value):
                raise ExprSyntaxError(f"number {text!r} exceeds double range", offset, ())
            return Constant(value)
        if kind == "ident":
            pk, pt, _ = self.peek()
            if pk == "op" and pt == "(":
                return self.parse_call(text, offset)
            return Variable(text)
        if kind == "op" and text == "(":
            self._enter(offset)
            try:
                node = self.parse_expr()
            finally:
                self._leave()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            f"expected a value, got {text!r}" if text else "unexpected end of input",
            offset,
            ("number", "identifier", "'('"),
        )

    def parse_call(self, name: str, offset: int) -> ExprNode:
        if name not in BUILTIN_FUNCTIONS:
            raise UnknownFunction(
                f"unknown function {name!r}",
                offset,
                tuple(sorted(BUILTIN_FUNCTIONS)),
            )
        self.expect_op("(")
        self._enter(offset)
        try:
            args = [self.parse_expr()]
            while True:
                kind, text, _ = self.peek()
                if kind == "op" and text == ",":
                    self.advance()
                    args.append(self.parse_expr())
                else:
                    break
        finally:
            self._leave()
        self.expect_op(")")
        arity = BUILTIN_FUNCTIONS[name]
        if len(args) != arity:
            raise ExprSyntaxError(
                f"{name} takes {arity} argument(s), got {len(args)}",
                offset,
                (),
            )
        return Call(name, tuple(args))


def reference_parse(source: str) -> ExprNode:
    """The parser as it stood with a mutable depth counter: ``_enter`` and
    ``_leave`` around every construct that deepens the tree, restored by
    hand in ``try``/``finally``."""
    if len(source.encode("utf-8", errors="replace")) > MAX_SOURCE_BYTES:
        raise ExprSyntaxError("input exceeds 64 KiB", MAX_SOURCE_BYTES, ())
    parser = _ReferenceParser(_reference_tokenize(source))
    node = parser.parse_expr()
    kind, text, offset = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {text!r}", offset, ("end of input",))
    return node


def reference_cli_main(argv: list[str]) -> int:
    """The CLI entry through the top-level parser alone: it reads the whole
    argv (``parse_args`` exits on a usage error), then the command runs,
    its typed errors mapped to exit code 2.  A ``SystemExit`` is returned
    as its code."""
    try:
        args = _build_argparser().parse_args(argv)
        try:
            return args.func(args)
        except (_InputError, RmtError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except OverflowError as exc:
            print(f"error: overflow: {exc}", file=sys.stderr)
            return 2
    except SystemExit as exc:
        return exc.code
