"""Adaptive numerical integration on finite and semi-infinite domains.

The base rule is the 15-point Gauss-Kronrod pair; the embedded 7-point Gauss
result provides a per-panel error estimate, and panels are bisected worst
first.  Semi-infinite integrals take the head [0, 1] with the adaptive rule
and then geometric tail panels [g^j, g^(j+1)] until two consecutive panels
are negligible.  Mellin integrals x^(s-1) F(x) remove the endpoint
singularity for 0 < s < 1 with the substitution u = x^s.

Integrators hold no global state; results are deterministic for a fixed
configuration because panels are accumulated in a canonical order.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, EvaluationError, SingularityError

__all__ = [
    "QuadratureConfig",
    "EvaluationResult",
    "integrate_finite",
    "integrate_semi_infinite",
    "integrate_mellin",
]

# 15-point Kronrod nodes on [-1, 1] (positive half; symmetric).
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
# Kronrod weights for the nodes above.
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
# 7-point Gauss weights, matching _XGK[1], _XGK[3], _XGK[5], _XGK[7].
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
# Machine epsilon, the spacing of doubles at 1.0 (twice the unit round-off).
_EPS = 2.220446049250313e-16
# Relative slack that the running totals of integrate_finite's stopping test
# allow for their own rounding; see the comment there.
_MARGIN = 1e-6


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budgets shared by all integrators.

    At least one of abs_tol / rel_tol must be positive; tail_cut_growth is
    the panel-doubling factor for semi-infinite tails.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000
    tail_cut_growth: float = 2.0
    max_tail_panels: int = 60

    def __post_init__(self) -> None:
        if not (math.isfinite(self.abs_tol) and math.isfinite(self.rel_tol)):
            raise ValueError("tolerances must be finite")
        if self.abs_tol < 0.0 or self.rel_tol < 0.0:
            raise ValueError("tolerances must be non-negative")
        if self.abs_tol == 0.0 and self.rel_tol == 0.0:
            raise ValueError("at least one of abs_tol, rel_tol must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.max_tail_panels < 1:
            raise ValueError("max_tail_panels must be >= 1")
        if not 1.0 < self.tail_cut_growth < math.inf:
            raise ValueError("tail_cut_growth must be finite and > 1")

    def scaled(self, factor: float) -> "QuadratureConfig":
        """Copy with both tolerances multiplied by ``factor``."""
        return QuadratureConfig(
            abs_tol=self.abs_tol * factor,
            rel_tol=self.rel_tol * factor,
            max_subdivisions=self.max_subdivisions,
            tail_cut_growth=self.tail_cut_growth,
            max_tail_panels=self.max_tail_panels,
        )


@dataclass(frozen=True)
class EvaluationResult:
    """A numeric value with its absolute error estimate.

    ``converged`` implies error_estimate <= max(abs_tol, rel_tol * |value|)
    for the config the integral was run with.
    """

    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def _kahan_sum(values) -> float:
    total = 0.0
    comp = 0.0
    for v in values:
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _gk15(f: Callable[[float], float], a: float, b: float):
    """One Gauss-Kronrod panel.  Returns (kronrod, error, evaluations).

    When the integrand produces a non-finite value the panel stops at once -
    after 1 call at the centre, or 3 + 2j at node pair j - and returns
    (None, None, evaluations); the caller retries on bisected subpanels.
    """
    center = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(center)
    if not math.isfinite(fc):
        return None, None, 1
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    resabs = abs(resk)
    for j in range(7):
        dx = hlgth * _XGK[j]
        f1 = f(center - dx)
        f2 = f(center + dx)
        if not (math.isfinite(f1) and math.isfinite(f2)):
            return None, None, 3 + 2 * j
        pair = f1 + f2
        resk += _WGK[j] * pair
        resabs += _WGK[j] * (abs(f1) + abs(f2))
        if j % 2 == 1:
            resg += _WG[j // 2] * pair
    value = resk * hlgth
    # Plain Kronrod-Gauss discrepancy, floored at the round-off level of the
    # panel so trivially-exact integrands keep an honest estimate.
    err = max(abs(resk - resg), 50.0 * _EPS * resabs) * abs(hlgth)
    return value, err, 15


def _panel_with_retries(f: Callable[[float], float], a: float, b: float, retries: int):
    """Evaluate a panel, bisecting up to ``retries`` times around non-finite
    integrand values.  Returns ([(a, b, value, err), ...], evaluations),
    counting the calls of aborted panels too."""
    value, err, evals = _gk15(f, a, b)
    if value is not None:
        return [(a, b, value, err)], evals
    if retries <= 0:
        raise EvaluationError(
            f"integrand returned a non-finite value inside [{a!r}, {b!r}] "
            "after two bisection retries"
        )
    mid = 0.5 * (a + b)
    if not (a < mid < b):
        raise EvaluationError(
            f"integrand is non-finite on an interval too narrow to bisect "
            f"at [{a!r}, {b!r}]"
        )
    left, left_evals = _panel_with_retries(f, a, mid, retries - 1)
    right, right_evals = _panel_with_retries(f, mid, b, retries - 1)
    return left + right, evals + left_evals + right_evals


def integrate_finite(
    f: Callable[[float], float],
    a: float,
    b: float,
    cfg: QuadratureConfig | None = None,
) -> EvaluationResult:
    """Adaptive Gauss-Kronrod integration of f over [a, b].

    Panels with the largest error estimate are bisected first; the returned
    error estimate is the summed Kronrod-Gauss discrepancy over accepted
    panels.  On exhaustion of the subdivision budget the best value so far
    is returned with converged=False.  ``evaluations`` counts every call of
    f, including those of panels abandoned on a non-finite value.

    The loop stops once the Kahan sum of the panel errors, in heap order, is
    at most max(abs_tol, rel_tol * |Kahan sum of the panel values|).  Running
    totals of both, with a bound on their rounding, rule that out in O(1)
    while the loop is clearly short of it; only when they cannot decide is
    the exact O(n) test run over the n panels.  So a bisection costs
    O(log n), for the heap, and the loop stops at the same split as if it
    re-summed the heap before every bisection.
    """
    cfg = cfg or QuadratureConfig()
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(
            f"integrate_finite: endpoints must be finite, got [{a!r}, {b!r}]"
        )
    if not a <= b:
        raise DomainError(f"integrate_finite: need a <= b, got [{a!r}, {b!r}]")
    if a == b:
        return EvaluationResult(0.0, 0.0, 0, True)

    heap = []
    tick = 0
    splits = 0
    evaluations = 0
    min_width = abs(b - a) * 1e-15
    # Running totals of the heap's values and errors.  Between two exact
    # tests fewer than _MARGIN / eps (~4.5e9) updates are made - the heap
    # would not fit in memory otherwise - so each total drifts from the
    # exact heap sum by less than _MARGIN / 2 times the matching *_abs, which
    # bounds the magnitudes summed.  The exact test's Kahan sums land within
    # about eps * *_abs of the exact sum too.  val_abs sums |value| over every
    # panel ever pushed.  err_abs restarts at each exact test: panel errors
    # shrink by orders of magnitude, and a bound carried over from the
    # first, large errors would send every later split to the exact test.
    val_sum = val_abs = 0.0
    err_sum = err_abs = 0.0
    new_intervals = ((a, b),)
    while True:
        for sa, sb in new_intervals:
            panels, evals = _panel_with_retries(f, sa, sb, 2)
            evaluations += evals
            for qa, qb, qval, qerr in panels:
                heapq.heappush(heap, (-qerr, tick, qa, qb, qval, qerr))
                tick += 1
                val_sum += qval
                val_abs += abs(qval)
                err_sum += qerr
                err_abs += qerr
        # If even the smallest error total and the largest value total the
        # exact test could see fail it, it would fail: bisect.  NaN or
        # infinite totals make the comparison false.
        err_lo = err_sum - _MARGIN * err_abs
        val_hi = abs(val_sum) + _MARGIN * val_abs
        if not err_lo > max(cfg.abs_tol, cfg.rel_tol * val_hi):
            total = _kahan_sum(item[4] for item in heap)
            total_err = _kahan_sum(item[5] for item in heap)
            if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
                converged = True
                break
            val_sum, err_sum, err_abs = total, total_err, total_err
        if splits >= cfg.max_subdivisions:
            converged = False
            break
        _, _, pa, pb, val, err = heap[0]
        mid = 0.5 * (pa + pb)
        if not (pa < mid < pb) or (pb - pa) < min_width:
            # Cannot refine further in double precision.
            converged = False
            break
        heapq.heappop(heap)
        val_sum -= val
        err_sum -= err
        new_intervals = ((pa, mid), (mid, pb))
        splits += 1

    # Canonical accumulation order: left to right.
    panels = sorted((item[2], item[3], item[4], item[5]) for item in heap)
    value = _kahan_sum(p[2] for p in panels)
    error = _kahan_sum(p[3] for p in panels)
    converged = converged and error <= max(cfg.abs_tol, cfg.rel_tol * abs(value))
    return EvaluationResult(value, error, evaluations, converged)


def _tail_panels(
    f: Callable[[float], float],
    start: float,
    cfg: QuadratureConfig,
):
    """Geometric panels [start*g^j, start*g^(j+1)] until two consecutive
    panel magnitudes fall below abs_tol/10.  Returns (values, errs, evals,
    tail_converged)."""
    panel_cfg = cfg.scaled(0.25)
    threshold = cfg.abs_tol / 10.0
    values = []
    errs = []
    evals = 0
    small_streak = 0
    lo = start
    tail_ok = False
    for _ in range(cfg.max_tail_panels):
        hi = lo * cfg.tail_cut_growth
        res = integrate_finite(f, lo, hi, panel_cfg)
        values.append(res.value)
        errs.append(res.error_estimate)
        evals += res.evaluations
        small_streak = small_streak + 1 if abs(res.value) < threshold else 0
        lo = hi
        if small_streak >= 2:
            tail_ok = True
            break
    if values:
        # Allowance for the truncated remainder beyond the last panel.
        errs.append(abs(values[-1]))
    return values, errs, evals, tail_ok


def _assemble(head: EvaluationResult, tail, cfg: QuadratureConfig) -> EvaluationResult:
    values, errs, evals, tail_ok = tail
    value = _kahan_sum([head.value] + values)
    error = _kahan_sum([head.error_estimate] + errs)
    converged = (
        head.converged
        and tail_ok
        and error <= max(cfg.abs_tol, cfg.rel_tol * abs(value))
    )
    return EvaluationResult(value, error, head.evaluations + evals, converged)


def integrate_semi_infinite(
    f: Callable[[float], float],
    cfg: QuadratureConfig | None = None,
) -> EvaluationResult:
    """Integrate f over [0, infinity).

    The caller is responsible for decay: when the tail panel budget runs
    out with a non-negligible last panel the result carries converged=False
    (the best-effort value is still returned).
    """
    cfg = cfg or QuadratureConfig()
    head = integrate_finite(f, 0.0, 1.0, cfg.scaled(0.5))
    tail = _tail_panels(f, 1.0, cfg)
    return _assemble(head, tail, cfg)


def integrate_mellin(
    F: Callable[[float], float],
    s: float,
    cfg: QuadratureConfig | None = None,
) -> EvaluationResult:
    """Integrate x^(s-1) * F(x) over [0, infinity) for s > 0.

    For 0 < s < 1 the head [0, 1] is computed after the substitution
    u = x^s, i.e. (1/s) * integral of F(u^(1/s)) du, which removes the
    integrable endpoint singularity; for s >= 1 the head is integrated
    directly.  The tail uses the geometric panel scheme on x^(s-1) F(x).
    """
    cfg = cfg or QuadratureConfig()
    if not s > 0.0:
        raise DomainError(f"integrate_mellin: requires s > 0, got {s!r}")

    def checked_F(x: float) -> float:
        v = F(x)
        if not math.isfinite(v):
            raise SingularityError(
                f"integrand function is non-finite at x={x!r} in the head interval"
            )
        return v

    if s < 1.0:
        inv_s = 1.0 / s

        def head_f(u: float) -> float:
            return inv_s * checked_F(u**inv_s)

    else:

        def head_f(x: float) -> float:
            return x ** (s - 1.0) * checked_F(x)

    def tail_f(x: float) -> float:
        v = F(x)
        if v == 0.0:
            return 0.0
        return x ** (s - 1.0) * v

    head = integrate_finite(head_f, 0.0, 1.0, cfg.scaled(0.5))
    tail = _tail_panels(tail_f, 1.0, cfg)
    return _assemble(head, tail, cfg)
