"""Adaptive numerical integration on finite and semi-infinite domains.

The base rule is the 15-point Gauss-Kronrod pair; the embedded 7-point Gauss
result provides a per-panel error estimate, and panels are bisected worst
first.

A semi-infinite integral first tries the trapezoid rule after a
double-exponential map of (0, inf) (Takahasi & Mori 1974; Mori & Sugihara
2001): x = exp(t - e^-t) when |x f(x)| falls fast from x = 16 to 64,
x = exp(pi/2 sinh t) otherwise, with h halved from 1/2 (down to at most
1/32) on one t-grid per map, built on first use over the range that
``_DE_MAPS`` gives.  Each attempt walks one kind of term over one range of
its grid.  A Mellin integral's terms, x^s F(x) d ln x/dt, are formed from
ln x, as x^(s-1) and x itself may leave the double range: its walk covers
the whole grid, above x ~ e^522 only when ln F is given as a function of
ln x.  A plain integrand's terms, f(x) dx/dt, keep to the middle of the
grid where x is a normal double, as nothing is known of f beyond.  The
rule returns the sum of the first level that certifies an estimate within
the tolerance, or, unconverged, of the first whose round-off floor alone
exceeds the tolerance once the levels have settled below that floor: no
route certifies a floor above the tolerance.  Otherwise - a walk that runs
off its range (s within about 5e-4 of a strip's edge, or near the upper
one with no ln F given), all-zero terms, levels that never settle, or an
exception or non-finite value from f - it falls back to the geometric
ends, which then raise or refuse exactly as they would alone.  The ends
split at x = 1 and sum geometric panels, [2^j, 2^(j+1)] toward infinity
and [2^-(j+1), 2^-j] toward 0, extrapolating the partial sums with Wynn's
epsilon algorithm (the scheme of QUADPACK's QAGI and QAGS), so algebraic
tails and x^(s-1) endpoint singularities converge in a few dozen panels;
max_tail_panels and max_subdivisions bound them, and the DE rule has its
own fixed level cap.  ``evaluations`` counts every call of the integrand,
an abandoned DE attempt's included.  An F with noise far above rounding
(finite-difference derivatives) returns an error with each value, which
joins the DE rule's floor weighted as the value is.  Panels [lo, 2 lo]
toward infinity are integrated in the log-spaced coordinate u,
x = lo 2^u, where an algebraic tail x^p is the smooth exponential
2^((p+1)u) that one 15-point panel resolves; in x, each such panel is
bisected once at every scale.

Integrators hold no global state; results are deterministic for a fixed
configuration because panels are accumulated in a canonical order.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
import sys
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
# (node, Kronrod weight, Gauss weight or 0.0, calls made through the pair) of
# each node pair but the centre.
_NODE_PAIRS = tuple(zip(
    _XGK[:7], _WGK[:7], (0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0), range(3, 17, 2)
))
# Machine epsilon, the spacing of doubles at 1.0 (twice the unit round-off),
# and the least normal double.
_EPS, _LEAST_NORMAL = sys.float_info.epsilon, sys.float_info.min
# The round-off floor of a quadrature sum, per unit of its integral of |f|:
# a GK15 panel's and a double-exponential level's.
_ROUNDOFF = 50.0 * _EPS
# ln 2, the Jacobian factor of x = lo * 2^u per unit of u.
_LN2 = math.log(2.0)
# Relative slack that the running totals of integrate_finite's stopping test
# allow for their own rounding; see the comment there.
_MARGIN = 1e-6


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budgets shared by all integrators.

    At least one of abs_tol / rel_tol must stay positive when quartered.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000
    max_tail_panels: int = 60

    def __post_init__(self) -> None:
        if not (math.isfinite(self.abs_tol) and math.isfinite(self.rel_tol)):
            raise ValueError("tolerances must be finite")
        if self.abs_tol < 0.0 or self.rel_tol < 0.0:
            raise ValueError("tolerances must be non-negative")
        if self.abs_tol * 0.25 == 0.0 and self.rel_tol * 0.25 == 0.0:
            raise ValueError(
                f"abs_tol={self.abs_tol!r} and rel_tol={self.rel_tol!r} are too small: "
                "at least one must stay positive when quartered"
            )
        for name in ("max_subdivisions", "max_tail_panels"):
            budget = getattr(self, name)
            if isinstance(budget, bool) or not isinstance(budget, int):
                raise ValueError(f"{name} must be an integer")
            if budget < 1:
                raise ValueError(f"{name} must be >= 1")

    def scaled(self, factor: float) -> "QuadratureConfig":
        """Copy with both tolerances multiplied by ``factor``, not checked
        again: the quarter of a valid config's quarter may be 0."""
        copy = object.__new__(QuadratureConfig)
        vars(copy).update(vars(self), abs_tol=self.abs_tol * factor, rel_tol=self.rel_tol * factor)
        return copy


@dataclass(frozen=True)
class EvaluationResult:
    """A numeric value with its absolute error estimate.

    ``converged`` implies a finite value and error_estimate <=
    max(abs_tol, rel_tol * |value|) for the config the integral was run
    with.
    """

    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def _within_tolerance(value: float, error: float, cfg: QuadratureConfig) -> bool:
    """The convergence rule of every integrator: a finite value whose error
    is at most max(abs_tol, rel_tol * |value|)."""
    return math.isfinite(value) and error <= max(cfg.abs_tol, cfg.rel_tol * abs(value))


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
    """One Gauss-Kronrod panel.  Returns (kronrod, error, floored,
    evaluations); floored is True when the round-off floor, not the
    Kronrod-Gauss gap, set the error.

    When the integrand produces a non-finite value the panel stops at once -
    after 1 call at the centre, or 3 + 2j at node pair j - and returns
    (None, None, False, evaluations); the caller retries on bisected
    subpanels.
    """
    center = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(center)
    if not math.isfinite(fc):
        return None, None, False, 1
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    resabs = abs(resk)
    for node, wk, wg, evaluations in _NODE_PAIRS:
        dx = hlgth * node
        f1 = f(center - dx)
        f2 = f(center + dx)
        pair = f1 + f2
        # f1 + f2 is finite only if both are; an overflowed sum tests each.
        if not math.isfinite(pair) and not (math.isfinite(f1) and math.isfinite(f2)):
            return None, None, False, evaluations
        resk += wk * pair
        resabs += wk * (abs(f1) + abs(f2))
        if wg:
            resg += wg * pair
    # Plain Kronrod-Gauss discrepancy, floored at the round-off level of the
    # panel so trivially-exact integrands keep an honest estimate.
    gap = abs(resk - resg)
    floor = _ROUNDOFF * resabs
    if gap <= floor:
        return resk * hlgth, floor * abs(hlgth), True, 15
    return resk * hlgth, gap * abs(hlgth), False, 15


def _panel_with_retries(f: Callable[[float], float], a: float, b: float, retries: int):
    """Evaluate a panel, bisecting up to ``retries`` times around non-finite
    integrand values.  Returns ([(a, b, value, err, floored), ...],
    evaluations), counting the calls of aborted panels too."""
    value, err, floored, evals = _gk15(f, a, b)
    if value is not None:
        return [(a, b, value, err, floored)], evals
    if retries <= 0:
        raise EvaluationError(f"integrand returned a non-finite value inside [{a!r}, {b!r}] "
                              "after two bisection retries")
    mid = 0.5 * (a + b)
    if not (a < mid < b):
        raise EvaluationError("integrand is non-finite on an interval too narrow to bisect "
                              f"at [{a!r}, {b!r}]")
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
    error estimate is the summed Kronrod-Gauss discrepancy over the panels.
    A panel whose error is its round-off floor, 50 eps times the panel's
    integral of |f|, sorts after every other in the one panel heap:
    bisecting it cannot lower that floor, so it is never bisected, but its
    value and error still count.  ``evaluations`` counts every call of f,
    including those of panels abandoned on a non-finite value.

    Value and error are Kahan sums over the panels kept, taken left to
    right: the loop stops once these sums pass ``_within_tolerance`` and
    returns them as they are.  When the subdivision budget is spent, when
    the worst panel is too narrow to bisect, or when the heap's top panel
    is round-off-limited, the same sums are returned with converged=False.
    Running totals of both, with a bound on their rounding, rule the test
    out in O(1) while the loop is clearly short of it; only when they
    cannot decide are the n panels sorted and summed.  So a bisection costs
    O(log n), for the heap, and the loop stops at the same split as if it
    re-summed every panel before every bisection.  The first panel is made
    by ``_panel_with_retries``, as every later one is; if it is one panel
    that passes ``_within_tolerance``, it returns at once the loop's
    one-panel sums: 0.0 + value, and its error.
    """
    cfg = cfg or QuadratureConfig()
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"integrate_finite: endpoints must be finite, got [{a!r}, {b!r}]")
    if not a <= b:
        raise DomainError(f"integrate_finite: need a <= b, got [{a!r}, {b!r}]")
    if a == b:
        return EvaluationResult(0.0, 0.0, 0, True)
    panels, evaluations = _panel_with_retries(f, a, b, 2)
    if len(panels) == 1:
        _, _, value, error, _ = panels[0]
        if _within_tolerance(value, error, cfg):
            return EvaluationResult(0.0 + value, error, evaluations, True)

    heap = []
    tick = 0

    def sums():
        kept = sorted(heap, key=lambda item: item[3])
        return _kahan_sum(item[5] for item in kept), _kahan_sum(item[6] for item in kept)

    splits = 0
    min_width = abs(b - a) * 1e-15
    # Running totals of the values and errors of the panels in the heap.
    # Between two exact tests fewer than _MARGIN / eps (~4.5e9) updates are
    # made - the panels would not fit in memory otherwise - so each total
    # drifts from the exact sum by less than _MARGIN / 2 times the matching
    # *_abs, which bounds the magnitudes summed.  The exact test's Kahan
    # sums land within about eps * *_abs of the exact sum too.  val_abs sums
    # |value| over every panel ever kept.  err_abs restarts at each exact
    # test: errors shrink by orders of magnitude, and a bound carried over
    # from the first, large ones would send every later split to the test.
    val_sum = val_abs = 0.0
    err_sum = err_abs = 0.0
    while True:
        for qa, qb, qval, qerr, floored in panels:
            heapq.heappush(heap, (floored, -qerr, tick, qa, qb, qval, qerr))
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
            value, error = sums()
            if _within_tolerance(value, error, cfg):
                return EvaluationResult(value, error, evaluations, True)
            val_sum, err_sum, err_abs = value, error, error
        floored, _, _, pa, pb, val, err = heap[0]
        if splits >= cfg.max_subdivisions or floored:
            break
        mid = 0.5 * (pa + pb)
        if not (pa < mid < pb) or (pb - pa) < min_width:
            break  # cannot refine further in double precision
        heapq.heappop(heap)
        val_sum -= val
        err_sum -= err
        left, left_evals = _panel_with_retries(f, pa, mid, 2)
        right, right_evals = _panel_with_retries(f, mid, pb, 2)
        panels = left + right
        evaluations += left_evals + right_evals
        splits += 1
    value, error = sums()
    return EvaluationResult(value, error, evaluations, False)


def _log_spaced(f: Callable[[float], float], lo: float) -> Callable[[float], float]:
    """f on [lo, 2 lo] as an integrand over the same interval in the
    log-spaced coordinate: x = lo * 2^u with u = y / lo - 1 in [0, 1], so
    that f(x) dx = f(lo * 2^u) * 2^u ln 2 dy.  lo is a power of two, so
    y * (1 / lo) is exact and the ends map to lo and 2 lo exactly."""
    scale = 1.0 / lo

    def g(y: float) -> float:
        w = 2.0 ** (y * scale - 1.0)
        return f(lo * w) * (w * _LN2)

    return g


def _epsilon_table() -> Callable[[float], tuple]:
    """Wynn's epsilon table, fed one partial sum per call.  Each call adds
    an ascending diagonal and returns (value, movement, column): of the even
    columns the last three diagonals share, the newest entry c that moved
    least, the first on a tie, or (sum, inf, None) before a third diagonal.
    Only the last diagonal is kept, with the step |c - b| that made each
    even column: a movement |c - b| + |b - a| is a new step plus a stored one.
    """
    last, steps = [], []

    def extrapolate(total: float) -> tuple:
        nonlocal last, steps
        # eps_(k+1)^(n-k-1) = eps_(k-1)^(n-k) + 1 / (eps_k^(n-k) - eps_k^(n-k-1)),
        # with eps_(-1) = 0: entry is the new diagonal's k-th element and
        # below the last diagonal's (k-1)-th.
        diagonal, moved = [total], []
        value, change, column = total, math.inf, None
        entry, below, shared = total, 0.0, 2 * len(steps)
        for k, old in enumerate(last):
            difference = entry - old
            if not k & 1:
                moved.append(abs(difference))
                if k < shared:
                    movement = moved[-1] + steps[k >> 1]
                    if movement < change or column is None:
                        value, change, column = entry, movement, k
            if difference == 0.0:
                break
            entry = below + 1.0 / difference
            if not math.isfinite(entry):
                break
            diagonal.append(entry)
            below = old
        last, steps = diagonal, moved
        return value, change, column

    return extrapolate


def _geometric_panels(
    f: Callable[[float], float],
    ratio: float,
    cfg: QuadratureConfig,
) -> EvaluationResult:
    """Integral of f from 1 toward infinity (ratio 2) or toward 0 (ratio
    1/2), summed over the panels between successive powers of ratio.

    Panels are integrated at a quarter of the tolerances, each by one call
    to the module-level integrate_finite over its ends in x.  A tail panel
    [lo, 2 lo] runs in the log-spaced coordinate of ``_log_spaced``; a head
    panel runs in x, where the same substitution saved under 1% of the
    evaluations and let more error estimates fall short of the true error.
    Each Kahan-summed partial sum steps an ``_epsilon_table``.  The end
    stops at the entry it picks, that movement plus 10 eps |sum| being its
    remainder estimate, once the movement is within a quarter of the
    tolerance and the last three panel magnitudes do not increase: growing
    or level panels diverge, whatever finite antilimit the table offers.
    Otherwise, after max_tail_panels panels or at the last edge before one
    that overflows to inf or underflows to 0, the plain sum is returned
    with |last panel| as its remainder and converged=False.
    """
    panel_cfg = cfg.scaled(0.25)
    extrapolate = _epsilon_table()
    errs = []
    old = last = 0.0  # the magnitudes of the last panels, oldest first
    evaluations = 0
    edge = 1.0
    total = comp = 0.0  # the Kahan sum of the panel values, carried from panel to panel
    for _ in range(cfg.max_tail_panels):
        far = edge * ratio
        if not 0.0 < far < math.inf:
            break
        if ratio > 1.0:
            res = integrate_finite(_log_spaced(f, edge), edge, far, panel_cfg)
        else:
            res = integrate_finite(f, far, edge, panel_cfg)
        edge = far
        evaluations += res.evaluations
        errs.append(res.error_estimate)
        y = res.value - comp
        t = total + y
        comp = (t - total) - y
        total = t
        older, old, last = old, last, abs(res.value)
        value, change, column = extrapolate(total)
        if column is None or not older >= old >= last:
            continue
        change += 10.0 * _EPS * abs(total)
        if _within_tolerance(value, change, panel_cfg):
            return EvaluationResult(value, change + _kahan_sum(errs), evaluations, True)
    errs.append(last)
    return EvaluationResult(total, _kahan_sum(errs), evaluations, False)


# The double-exponential maps of (0, inf), t -> (ln x, d ln x/dt)
# (Mori & Sugihara 2001): x = exp(pi/2 sinh t) for algebraic decay,
# x = exp(t - e^-t) for exponential decay.  Each entry is (map, lo, hi,
# reach, top): the map's t-grid runs from reach to top, ln x ~ -1.28e5 to
# 1.28e5 and -9.9e4 to 40, and its node table of x and dx/dt from lo, at
# level-0 node 11, to hi.  The algebraic table is symmetric, x -> 1/x maps
# it onto itself: t = -6.5 gives x ~ e^-522, a normal double, and t = -7
# would underflow to 0.  A Mellin walk, in ln x, may cover the whole grid
# (above the table, where x overflows from t ~ 6.8 on, only given ln F); a
# plain integrand's keeps to the table.
def _algebraic_map(t: float) -> tuple[float, float]:
    return 0.5 * math.pi * math.sinh(t), 0.5 * math.pi * math.cosh(t)


def _exponential_map(t: float) -> tuple[float, float]:
    decay = math.exp(-t)
    return t - decay, 1.0 + decay


_DE_MAPS = ((_algebraic_map, -6.5, 6.5, -12.0, 12.0),
            (_exponential_map, -6.0, 40.0, -11.5, 40.0))
# At most the levels h = 1/2, 1/4, ..., 1/32.  A level-0 term is negligible
# at 10^-3 eps of the largest; |x f(x)| falling by _DE_FALL from x = 16 to 64
# picks the exponential map.
_DE_LEVELS = 5
_DE_NEGLIGIBLE = 1e-3 * _EPS
_DE_FALL = 1e-4


@functools.cache
def _de_nodes(exponential: bool, level: int) -> tuple[list, list, list, list, list]:
    """The ln x and d ln x/dt of one map's nodes new at ``level``, over its
    whole t-grid, the x and dx/dt of those up to the table's end, and their
    (x, ln x) over the whole grid, built on first use.  Level-0 node i sits
    at reach + i/2, level-L node i at reach + (2i + 1) h with h = 2^-(L+1),
    so the level-L nodes between level-0 nodes a and b are those in
    [a 2^(L-1), b 2^(L-1)).  Below the table x may be subnormal or 0, and
    above it x is inf where it overflows."""
    mapping, _, hi, reach, top = _DE_MAPS[exponential]
    if level:
        h = 0.5 ** (level + 1)
        ts = [reach + (2 * i + 1) * h for i in range(int((top - reach) / (2.0 * h)))]
    else:
        ts = [reach + 0.5 * i for i in range(int(2.0 * (top - reach)) + 1)]
    logs, dlogs = map(list, zip(*map(mapping, ts)))
    log_max = math.log(sys.float_info.max)  # e^log_max is the largest double
    pairs = [(math.exp(log_x) if log_x <= log_max else math.inf, log_x) for log_x in logs]
    xs = [x for t, (x, _) in zip(ts, pairs) if t <= hi]
    return logs, dlogs, xs, list(map(operator.mul, xs, dlogs)), pairs


def _double_exponential(
    f: Callable[[float], float],
    cfg: QuadratureConfig,
    values: list,
    g: Callable[[tuple], float] | None = None,
    above: bool = False,
    errors: list | None = None,
):
    """The trapezoid rule in t after a double-exponential map, or None when
    it cannot certify its result.  Appends x f(x) at the two probes, then
    each node's term to ``values``: their count is the attempt's
    evaluations, also when f or g raises.

    The map is exponential when |x f(x)| falls by ``_DE_FALL`` or more from
    x = 16 to x = 64, algebraic otherwise.  The terms are f(x) dx/dt over
    the map's node table in ``_DE_MAPS``, or, given ``g``, x f(x) as a
    function of the pair (x, ln x), g((x, ln x)) d ln x/dt from the grid's
    first node to the table's last, the grid's last given ``above``.
    Level 0, h = 1/2, walks that range from t = 0 toward +inf, then toward
    -inf, until two consecutive terms are at most ``_DE_NEGLIGIBLE`` times
    the largest so far; each later level halves h over the walked range and
    reuses every node.
    With T = h sum(terms), floor = 50 eps h sum|terms| and change the
    movement of T from the last level, a level from 2 on whose change is at
    most a tenth of the last one plus the floor returns that level's T with
    the estimate 10 change + floor at once: converged when the estimate is
    within the tolerance, unconverged when the floor alone exceeds it and
    the change is at most the floor - round-off, not the step, limits T
    then, and no route certifies a floor above the tolerance.  None when a
    value is not finite, a walk runs off its range or meets only zeros, or
    no level up to h = 1/32 returns.  T is a math.fsum; sum|terms| adds in
    the order the terms were made.  Given ``errors``, to which g appends
    the error of each term it makes, h sum error d ln x/dt joins the floor.
    """
    near = 16.0 * f(16.0)
    values.append(near)
    far = 64.0 * f(64.0)
    values.append(far)
    if not (math.isfinite(near) and math.isfinite(far)):
        return None
    exponential = abs(far) <= _DE_FALL * abs(near)
    _, lo, hi, reach, top = _DE_MAPS[exponential]
    # The one source of terms - f at x weighted by dx/dt, or g at (x, ln x)
    # by d ln x/dt - as columns of _de_nodes, and the level-0 nodes it walks.
    term, columns = (g, operator.itemgetter(4, 1)) if g else (f, operator.itemgetter(2, 3))
    start = 0 if g else int(2.0 * (lo - reach))
    end = int(2.0 * ((top if above else hi) - reach))
    points, weights = columns(_de_nodes(exponential, 0))
    centre = int(-2.0 * reach)  # t = 0
    middle = term(points[centre]) * weights[centre]
    values.append(middle)
    largest = abs(middle)
    ends = []
    for step, stop in ((1, end + 1), (-1, start - 1)):
        i, previous = centre, abs(middle)
        while True:
            i += step
            if i == stop:
                return None
            value = term(points[i]) * weights[i]
            values.append(value)
            size = abs(value)
            if size > largest:
                largest = size
            if size <= _DE_NEGLIGIBLE * largest and previous <= _DE_NEGLIGIBLE * largest:
                break
            previous = size
        ends.append(i)
    if not largest:
        return None  # every term 0: no sign of where the mass of f lies
    right, left = ends
    h = 0.5
    total = last_change = noise = 0.0
    for level in range(_DE_LEVELS):
        if level:
            span = slice(left << (level - 1), right << (level - 1))
            points, weights = columns(_de_nodes(exponential, level))
            values.extend(map(operator.mul, map(term, points[span]), weights[span]))
            h *= 0.5
        if errors is not None:  # this level's errors times d ln x/dt, as its terms were made
            ws = weights[span] if level else weights[centre:right + 1] + weights[left:centre][::-1]
            noise += sum(map(operator.mul, errors[-len(ws):], ws))
        terms = values[2:]
        # A plain sum never raises: inf or NaN when a term or an error is not
        # finite, as after a walk that met one.
        floor = _ROUNDOFF * h * sum(map(abs, terms)) + h * noise
        if not floor < math.inf:
            return None
        # Finite terms with a finite sum of magnitudes: the fsum is finite.
        previous, total = total, h * math.fsum(terms)
        change = abs(total - previous)
        estimate = 10.0 * change + floor
        if level >= 2 and change <= 0.1 * last_change + floor:
            if _within_tolerance(total, estimate, cfg):
                return EvaluationResult(total, estimate, len(values), True)
            if change <= floor and not _within_tolerance(total, floor, cfg):
                return EvaluationResult(total, estimate, len(values), False)
        last_change = change
    return None


def _geometric_ends(
    f: Callable[[float], float],
    cfg: QuadratureConfig,
    spent: int = 0,
) -> EvaluationResult:
    """Geometric panels from 1 toward 0 and toward infinity, each end
    extrapolated, with ``spent`` earlier evaluations added to the count."""
    head = _geometric_panels(f, 0.5, cfg)
    tail = _geometric_panels(f, 2.0, cfg)
    value = head.value + tail.value
    error = head.error_estimate + tail.error_estimate
    converged = head.converged and tail.converged and _within_tolerance(value, error, cfg)
    return EvaluationResult(value, error, spent + head.evaluations + tail.evaluations, converged)


def _semi_infinite(
    f: Callable[[float], float],
    cfg: QuadratureConfig,
    g: Callable[[tuple], float] | None = None,
    above: bool = False,
    errors: list | None = None,
) -> EvaluationResult:
    """The double-exponential attempt, ``g``, ``above`` and ``errors``
    passed on to it, then the geometric ends on f when it returns None."""
    values, raised = [], 0
    try:
        result = _double_exponential(f, cfg, values, g, above, errors)
    except Exception:  # the geometric ends raise it again, or do without the attempt
        result, raised = None, 1  # count the call that raised
    if result is not None:
        return result
    return _geometric_ends(f, cfg, len(values) + raised)


def integrate_semi_infinite(
    f: Callable[[float], float],
    cfg: QuadratureConfig | None = None,
) -> EvaluationResult:
    """Integrate f over [0, infinity): the double-exponential rule first,
    and geometric panels from 1 toward 0 and toward infinity, each end
    extrapolated, when that rule neither certifies its result nor finds it
    limited by a round-off floor above the tolerance; such a result is
    returned converged=False, as the ends could not certify it either.

    f is never called at 0, so an integrable endpoint singularity is
    allowed.  A DE attempt that f aborts, by an exception or a non-finite
    value, falls back too, and the geometric ends raise or refuse as they
    would alone; ``evaluations`` counts the abandoned attempt's calls as
    well.  A divergent end, or one that exhausts its max_tail_panels budget,
    makes the result converged=False (the best-effort value is still
    returned).
    """
    return _semi_infinite(f, cfg or QuadratureConfig())


def integrate_mellin(
    F: Callable[[float], float],
    s: float,
    cfg: QuadratureConfig | None = None,
    smooth: bool = True,
    log_F: Callable[[float], float] | None = None,
) -> EvaluationResult:
    """Integrate x^(s-1) * F(x) over [0, infinity) for s > 0, as
    ``integrate_semi_infinite`` does.

    A non-finite F on (0, 1] raises SingularityError.  The DE rule forms
    each term from L = ln x, as e^(sL) F(e^L) d ln x/dt, and its walk toward
    0 covers its map's whole t-grid, where x^(s-1) may leave the double
    range and F is called at subnormal x and at 0; an exception or a
    non-finite term abandons the attempt.  So s near 0, with the mass of the
    integrand below the node table, stays on the DE rule.  log_F,
    L -> ln F(e^L) for L >= 0 and F > 0 there, lets the walk toward
    infinity go on above the table to the grid's last node, each term being
    e^(sL + log_F(L)) d ln x/dt wherever x overflows or F(x) is subnormal or
    0 above x = 1: so s near the strip's upper edge, with its mass beyond
    the largest double, stays on the DE rule too, where without log_F it
    falls back to the geometric ends.  smooth=False says that F returns
    (value, error), the error bounding noise far above rounding, as in
    finite-difference derivatives, which no DE level difference can see;
    each error, weighted as its value, joins the DE rule's floor, log_F is
    not used, and the geometric ends integrate the values alone.
    """
    if not 0.0 < s < math.inf:
        raise DomainError(f"integrate_mellin: requires finite s > 0, got {s!r}")
    cfg = cfg or QuadratureConfig()
    if smooth:
        integrand, g = _mellin_terms(F, s, log_F)
        return _semi_infinite(integrand, cfg, g, log_F is not None)
    error, errors = [0.0], []  # F's last error; each DE term's, weighted as its value

    def value(x: float) -> float:
        v, error[0] = F(x)
        return v

    integrand, value_g = _mellin_terms(value, s, None)
    _, error_g = _mellin_terms(lambda x: error[0], s, None)

    def g(node: tuple) -> float:
        v = value_g(node)
        errors.append(abs(error_g(node)))
        return v

    return _semi_infinite(integrand, cfg, g, False, errors)


def _mellin_terms(F: Callable[[float], float], s: float, log_F: Callable[[float], float] | None):
    """x^(s-1) F(x) of x, for the probes and the geometric ends, and x^s F(x) of (x, ln x)."""
    power = s - 1.0
    exp, inf = math.exp, math.inf  # bound once: g runs at every DE node

    def integrand(x: float) -> float:
        v = F(x)
        if v < _LEAST_NORMAL:  # subnormal, 0 or < 0
            if log_F and x > 1.0:  # F > 0 has lost its digits far out
                log_x = math.log(x)
                return exp(power * log_x + log_F(log_x))
            if v == 0.0:  # F underflows far out, where x^(s-1) may overflow
                return 0.0
        if x <= 1.0 and not math.isfinite(v):
            raise SingularityError(
                f"integrand function is non-finite at x={x!r} in the head interval"
            )
        try:
            return x ** power * v
        except OverflowError:  # x^(s-1) alone leaves the double range
            half = x ** (power / 2.0)
            return half * v * half

    def g(node: tuple) -> float:
        x, log_x = node
        v = F(x) if x < inf else 0.0  # x overflows only where log_F is given
        if v < _LEAST_NORMAL:
            if log_F and x > 1.0:
                return exp(s * log_x + log_F(log_x))
            if v == 0.0:  # e^(sL) may overflow where F underflows
                return 0.0
        try:
            return exp(s * log_x) * v
        except OverflowError:  # e^(sL) alone leaves the double range
            half = exp(0.5 * s * log_x)
            return half * v * half

    return integrand, g
