"""Integrator behaviour: values, error estimates, tails, and invariances."""

import dataclasses
import itertools
import math
import random
import subprocess
import sys
from collections import Counter

import mpmath
import pytest

from rmtkit import quadrature
from rmtkit.errors import DomainError, EvaluationError, SingularityError
from rmtkit.quadrature import (
    _XGK,
    _DE_MAPS,
    _de_nodes,
    _double_exponential,
    _epsilon_table,
    _geometric_ends,
    _geometric_panels,
    _gk15,
    EvaluationResult,
    QuadratureConfig,
    integrate_finite,
    integrate_mellin,
    integrate_semi_infinite,
)
from rmtkit.sequences import catalog_get
from rmtkit.transforms import frullani

from oracles import (
    _reference_de_node,
    graded_mesh_trapezoid,
    reference_epsilon_picks,
    reference_double_exponential,
    reference_integrate_finite,
    reference_integrate_semi_infinite,
    reference_integrate_mellin,
    reference_integrate_semi_infinite_de,
    reference_mellin_integrand,
    reference_mellin_term,
    trapezoid,
)

SQRT_PI = 1.7724538509055159


class TestConfig:
    def test_defaults_valid(self):
        cfg = QuadratureConfig()
        assert cfg.abs_tol == 1e-12 and cfg.rel_tol == 1e-10
        assert cfg.max_subdivisions == 2000 and cfg.max_tail_panels == 60

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": -1.0},
            {"abs_tol": 0.0, "rel_tol": 0.0},
            {"max_subdivisions": 0},
            {"max_tail_panels": 0},
            {"abs_tol": math.nan},
            {"abs_tol": math.inf},
            {"rel_tol": math.nan},
            {"rel_tol": math.inf},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureConfig(**kwargs)

    @pytest.mark.parametrize(
        "name,value",
        [("max_subdivisions", 1.5), ("max_tail_panels", 2.5), ("max_tail_panels", 2.0)],
    )
    def test_non_integer_budgets_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            QuadratureConfig(**{name: value})

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("name", ["max_subdivisions", "max_tail_panels"])
    def test_bool_budgets_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            QuadratureConfig(**{name: value})

    @pytest.mark.parametrize(
        "abs_tol, rel_tol", [(5e-324, 0.0), (1e-323, 0.0), (0.0, 5e-324), (1e-323, 1e-323)]
    )
    def test_tolerances_that_quarter_to_zero_rejected(self, abs_tol, rel_tol):
        # Semi-infinite panels run at a quarter of the tolerances.
        with pytest.raises(ValueError, match=f"^abs_tol={abs_tol!r} and rel_tol={rel_tol!r} "
                                             "are too small"):
            QuadratureConfig(abs_tol=abs_tol, rel_tol=rel_tol)

    def test_semi_infinite_not_reached_with_a_tolerance_that_quarters_to_zero(self):
        calls = []
        with pytest.raises(ValueError, match="too small"):
            integrate_semi_infinite(calls.append, QuadratureConfig(abs_tol=5e-324, rel_tol=0.0))
        assert calls == []

    def test_quarter_of_a_valid_config_is_not_checked_again(self):
        # 2e-323 quarters to 5e-324, whose own quarter is 0; the panels still
        # run at 5e-324 rather than raising.
        cfg = QuadratureConfig(abs_tol=2e-323, rel_tol=0.0)
        assert cfg.scaled(0.25).abs_tol == 5e-324
        assert QuadratureConfig().scaled(0.25) == QuadratureConfig(abs_tol=2.5e-13, rel_tol=2.5e-11)
        res = integrate_semi_infinite(lambda x: math.exp(-x), cfg)
        assert abs(res.value - 1.0) <= res.error_estimate


class TestFinite:
    def test_unit_integrand(self):
        res = integrate_finite(lambda x: 1.0, 0.0, 1.0)
        assert res.value == pytest.approx(1.0, abs=1e-14)
        assert res.converged

    def test_exponential(self):
        res = integrate_finite(lambda x: math.exp(-x), 0.0, 50.0)
        assert res.value == pytest.approx(1.0 - math.exp(-50.0), abs=1e-12)
        assert res.converged

    def test_gaussian_moment_against_trapezoid_oracle(self):
        # integral of 2 x^2 e^(-x^2) over [0, 40] equals sqrt(pi)/2; the
        # oracle is a million-point trapezoid rule on the same interval.
        res = integrate_finite(lambda x: 2.0 * x * x * math.exp(-x * x), 0.0, 40.0)
        oracle = trapezoid(lambda x: 2.0 * x * x * math.exp(-x * x), 0.0, 40.0)
        assert res.value == pytest.approx(oracle, abs=5e-12)
        assert res.value == pytest.approx(0.8862269254527580, abs=1e-13)

    def test_empty_interval(self):
        res = integrate_finite(math.sin, 2.0, 2.0)
        assert res.value == 0.0 and res.converged and res.evaluations == 0

    def test_reversed_interval_rejected(self):
        with pytest.raises(DomainError):
            integrate_finite(math.sin, 1.0, 0.0)

    @pytest.mark.parametrize("a, b", [(-math.inf, 0.0), (0.0, math.inf), (math.nan, 1.0)])
    def test_non_finite_endpoint_rejected(self, a, b):
        with pytest.raises(DomainError):
            integrate_finite(lambda x: 1.0, a, b)

    def test_non_finite_integrand_raises_after_retries(self):
        with pytest.raises(EvaluationError):
            integrate_finite(lambda x: math.inf if 0.4 < x < 0.6 else 1.0, 0.0, 1.0)

    def test_non_finite_integrand_on_adjacent_doubles_is_not_bisected(self):
        # No double lies strictly between 1 and the next one up.
        with pytest.raises(EvaluationError, match=r"^integrand is non-finite on an interval "
                           r"too narrow to bisect at \[1\.0, 1\.0000000000000002\]$"):
            integrate_finite(lambda x: math.nan, 1.0, math.nextafter(1.0, 2.0))

    def test_budget_exhaustion_returns_best_effort(self):
        res = integrate_finite(
            lambda x: math.sin(1000.0 * x * x),
            0.0,
            3.0,
            QuadratureConfig(max_subdivisions=5),
        )
        assert not res.converged
        assert math.isfinite(res.value)

    def test_interval_additivity(self):
        rng = random.Random(77)
        for f, a, b in [
            (lambda x: math.exp(-x) * math.sin(x), 0.0, 6.0),
            (lambda x: 1.0 / (1.0 + x * x), -2.0, 5.0),
            (lambda x: x**3 - 2.0 * x, -1.0, 2.0),
        ]:
            whole = integrate_finite(f, a, b)
            for _ in range(5):
                c = rng.uniform(a, b)
                left = integrate_finite(f, a, c)
                right = integrate_finite(f, c, b)
                budget = (
                    whole.error_estimate
                    + left.error_estimate
                    + right.error_estimate
                )
                assert abs(left.value + right.value - whole.value) <= budget + 1e-15

    def test_width_floor_stops_bisection(self):
        # Each split halves the panel at 0, so after 50 splits it is
        # narrower than 1e-15 of the interval and bisection stops there,
        # far inside the default budget of 2000 splits.
        res = integrate_finite(lambda x: x ** -0.5, 0.0, 1.0)
        assert res.evaluations == 15 + 50 * 30
        assert not res.converged
        assert abs(res.value - 2.0) <= res.error_estimate
        assert res.value == pytest.approx(2.0, abs=1.5e-9)
        assert res.error_estimate == pytest.approx(2.1e-9, rel=0.01)

    def test_determinism(self):
        f = lambda x: math.exp(-x) * math.cos(3.0 * x)
        r1 = integrate_finite(f, 0.0, 10.0)
        r2 = integrate_finite(f, 0.0, 10.0)
        assert r1 == r2


def _inf_at(node: float, f):
    return lambda x: math.inf if x == node else f(x)


def _reference_grid():
    """Seeded integrands: (label, f, a, b, f at 30 digits or None)."""
    rng = random.Random(20190201)
    cases = []
    for i in range(3):
        c, w, length = rng.uniform(0.1, 2.0), rng.uniform(0.0, 5.0), rng.uniform(1.0, 20.0)
        cases.append((
            f"smooth{i}",
            lambda x, c=c, w=w: math.exp(-c * x) * math.cos(w * x),
            0.0,
            length,
            lambda x, c=c, w=w: mpmath.exp(-c * x) * mpmath.cos(w * x),
        ))
    for i in range(3):
        w, length = rng.uniform(20.0, 80.0), rng.uniform(1.0, 3.0)
        cases.append((
            f"oscillatory{i}",
            lambda x, w=w: math.sin(w * x * x),
            0.0,
            length,
            lambda x, w=w: mpmath.sin(w * x * x),
        ))
    cases.append(("sqrt_abs_sin", lambda x: math.sqrt(abs(math.sin(50.0 * x))), 0.0, 10.0, None))
    cases.append(("inf_at_centre", _inf_at(0.5, lambda x: x * x), 0.0, 1.0, None))
    # Non-finite at the left node of pair 2 of the first panel: 7 calls.
    cases.append(("inf_at_pair2", _inf_at(0.5 - 0.5 * _XGK[2], math.cos), 0.0, 1.0, None))
    # ... and of the last pair: 15 calls, as many as a whole panel makes.
    cases.append(("inf_at_pair6", _inf_at(0.5 - 0.5 * _XGK[6], math.cos), 0.0, 1.0, None))
    # Integrated exactly by the rule, so its one panel sits at the round-off floor.
    cases.append(("linear_floor", lambda x: 1.0 + x, 0.0, 1.0, lambda x: 1 + x))
    return cases


_REFERENCE_CONFIGS = {
    "default": QuadratureConfig(),
    "tight": QuadratureConfig(abs_tol=1e-14, rel_tol=1e-13),
    "five_splits": QuadratureConfig(max_subdivisions=5),
    "floor": QuadratureConfig(abs_tol=1e-18, rel_tol=1e-18),
}


class TestMatchesReferenceLoop:
    """The running-total stopping test stops at the same split as the
    re-sum-every-split loop in ``oracles``, with the same evaluation count."""

    @pytest.mark.parametrize("cfg_name", sorted(_REFERENCE_CONFIGS))
    @pytest.mark.parametrize("case", _reference_grid(), ids=lambda c: c[0])
    def test_bit_identical(self, case, cfg_name):
        _, f, a, b, _ = case
        cfg = _REFERENCE_CONFIGS[cfg_name]
        assert integrate_finite(f, a, b, cfg) == reference_integrate_finite(f, a, b, cfg)

    # abs_tol equals, to the last bit, the left-to-right error total at one
    # split, where a plain running total of the errors differs from it in
    # the last bits: there a test on running totals alone stops a split
    # early (sqrt) or late (kink).  In aside_in_place a set-aside panel lies
    # between heap panels, and summing the set-aside panels after the heap
    # ones rather than in place gives a total above abs_tol, so the loop
    # would stop a split late.
    @pytest.mark.parametrize(
        "f, abs_tol",
        [
            (lambda x: x * math.sqrt(x), 4.44089209850063e-15),
            (lambda x: abs(x - 1.0 / 3.0), 6.192635769377541e-05),
            (lambda x: math.sqrt(abs(x - 0.05)), 6.003969740594776e-11),
        ],
        ids=["sqrt", "kink", "aside_in_place"],
    )
    def test_tolerance_on_a_rounding_boundary(self, f, abs_tol):
        cfg = QuadratureConfig(abs_tol=abs_tol, rel_tol=0.0)
        assert integrate_finite(f, 0.0, 1.0, cfg) == reference_integrate_finite(f, 0.0, 1.0, cfg)

    def test_pinned_counts(self):
        hard = integrate_finite(lambda x: math.sqrt(abs(math.sin(50.0 * x))), 0.0, 10.0)
        assert hard.evaluations == 60_015 and hard.value == 7.624673010216476
        assert not hard.converged
        assert integrate_finite(_inf_at(0.5, lambda x: x * x), 0.0, 1.0).evaluations == 31
        assert integrate_finite(_inf_at(0.5 - 0.5 * _XGK[2], math.cos), 0.0, 1.0).evaluations == 7 + 30
        pair6 = integrate_finite(_inf_at(0.5 - 0.5 * _XGK[6], math.cos), 0.0, 1.0)
        assert pair6.evaluations == 15 + 30
        assert pair6.converged and abs(pair6.value - math.sin(1.0)) < 1e-12

    @pytest.mark.parametrize(
        "cfg", [None, QuadratureConfig(abs_tol=1e-14, rel_tol=1e-13)], ids=["default", "tight"]
    )
    def test_running_totals_skip_the_exact_test(self, monkeypatch, cfg):
        # 2,000 splits spend the budget; a loop that ran the O(n) exact test
        # on every split would sum the panels thousands of times.
        calls = []

        def counting_kahan_sum(values):
            calls.append(None)
            return kahan_sum(values)

        kahan_sum = quadrature._kahan_sum
        monkeypatch.setattr(quadrature, "_kahan_sum", counting_kahan_sum)
        res = integrate_finite(lambda x: math.sqrt(abs(math.sin(50.0 * x))), 0.0, 10.0, cfg)
        assert res.evaluations == 60_015 and not res.converged
        assert len(calls) <= 10

    def test_round_off_floor_stops_at_once(self):
        # The one panel is set aside, so the loop stops before any split
        # with the estimate that bisecting to the budget (60,015 calls)
        # would also reach.
        res = integrate_finite(lambda x: 1.0 + x, 0.0, 1.0, _REFERENCE_CONFIGS["floor"])
        assert res.evaluations == 15
        assert res.converged is False
        assert res.error_estimate == 1.6653345369377348e-14
        assert res.value == 1.5

    @pytest.mark.parametrize(
        "case", [c for c in _reference_grid() if c[4] is not None], ids=lambda c: c[0]
    )
    def test_error_estimate_covers_true_error(self, case):
        # Set-aside panels keep their errors: at the tight tolerance, where
        # the oscillatory cases stop unconverged, the estimate still covers
        # the distance to a 30-digit mpmath integral.
        _, f, a, b, exact_f = case
        res = integrate_finite(f, a, b, _REFERENCE_CONFIGS["tight"])
        with mpmath.workdps(30):
            exact, exact_err = mpmath.quad(exact_f, mpmath.linspace(a, b, 20), error=True)
        assert exact_err < 1e-25
        assert abs(res.value - float(exact)) <= res.error_estimate


def _bits(res):
    """A result with its floats as hex, so -0.0 and 0.0 differ."""
    return (res.value.hex(), res.error_estimate.hex(), res.evaluations, res.converged)


def _poly(*coefficients):
    return lambda x: sum(c * x**k for k, c in enumerate(coefficients))


class TestOnePanelReturn:
    """A first panel that meets the tolerance alone is returned at once, with
    the bits of the plain loop's one-panel sums."""

    @pytest.mark.parametrize(
        "f, a, b, evaluations",
        [
            # Gauss-exact: the gap is round-off, the panel converges alone.
            (_poly(0.5, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 1.0, *[0.0] * 5, 3.0), -1.0, 2.0, 15),
            # Kronrod-exact only: the Gauss gap sends it to the loop.
            (_poly(1.0, *[0.0] * 21, 2.0), 0.0, 1.5, None),
            (lambda x: 2.5, 0.0, 4.0, 15),
            (lambda x: -0.0, 0.0, 1.0, 15),
            # Finite first panel short of the tolerance.
            (lambda x: math.sin(50.0 * x), 0.0, 3.0, None),
            # First panel aborted at its centre, then retried on its halves.
            (_inf_at(0.5, lambda x: x * x), 0.0, 1.0, 31),
        ],
        ids=["degree13", "degree22", "constant", "negative_zero", "unconverged", "aborted"],
    )
    def test_matches_reference_loop(self, f, a, b, evaluations):
        res = integrate_finite(f, a, b)
        assert _bits(res) == _bits(reference_integrate_finite(f, a, b))
        if evaluations is None:
            assert res.evaluations > 15
        else:
            assert res.evaluations == evaluations and res.converged

    def test_negative_zero_integrand_gives_positive_zero(self):
        res = integrate_finite(lambda x: -0.0, 0.0, 1.0)
        assert math.copysign(1.0, res.value) == 1.0 and res.error_estimate == 0.0

    @pytest.mark.parametrize(
        "f, evaluations",
        [(lambda x: 1e308, 15 + 5 * 30), (lambda x: 1e308 if abs(x - 0.5) > 0.49 else 1.0, 15)],
        ids=["every_pair", "outer_pair"],
    )
    def test_overflowing_pair_sum_is_not_an_abort(self, f, evaluations):
        # 1e308 + 1e308 overflows though both values are finite: the panel
        # is kept, not retried as non-finite.  Overflowing every pair sum
        # leaves a NaN gap, bisected to the budget; overflowing only the
        # outer one, which has no Gauss weight, floors the error at inf.
        cfg = QuadratureConfig(max_subdivisions=5)
        res = integrate_finite(f, 0.0, 1.0, cfg)
        assert _bits(res) == _bits(reference_integrate_finite(f, 0.0, 1.0, cfg))
        assert res.evaluations == evaluations

    def test_tolerance_at_the_first_panel_error(self):
        # At abs_tol equal to the first panel's error the panel returns at
        # once; one ulp below it the loop bisects.
        f = lambda x: 1.0 / (1.0 + x)
        _, err, floored, _ = _gk15(f, 0.0, 4.0)
        assert not floored
        for abs_tol, one_panel in [(err, True), (math.nextafter(err, 0.0), False)]:
            cfg = QuadratureConfig(abs_tol=abs_tol, rel_tol=0.0)
            res = integrate_finite(f, 0.0, 4.0, cfg)
            assert _bits(res) == _bits(reference_integrate_finite(f, 0.0, 4.0, cfg))
            assert (res.evaluations == 15) is one_panel and res.converged


_SEMI_INFINITE_CONFIGS = {
    "default": QuadratureConfig(),
    "tight": QuadratureConfig(abs_tol=1e-14, rel_tol=1e-13),
}


def _lemma2_integrand(pair, n):
    return lambda x: x ** (n - 1) * pair.derivative(n, x)


def _frullani_integrand(f, alpha, beta):
    return lambda x: (f(alpha * x) - f(beta * x)) / x


_MELLIN_CASES = [
    pytest.param(catalog_get("exp").closed_form, 0.5, id="exp"),
    pytest.param(catalog_get("exp", a=2.0).closed_form, 3.0, id="exp_a2_s3"),
    pytest.param(catalog_get("power", m=2.5).closed_form, 1.3, id="power"),
    pytest.param(catalog_get("geometric").closed_form, 0.3, id="geometric"),
    pytest.param(catalog_get("harmonic_shifted").closed_form, 0.6, id="harmonic_shifted"),
    # Level tail panels: the end runs out its panels unconverged.
    pytest.param(catalog_get("geometric").closed_form, 1.0, id="divergent"),
]

_SEMI_INFINITE_INTEGRANDS = [
    pytest.param(_lemma2_integrand(catalog_get("erf"), 1), id="erf_n1"),
    pytest.param(_lemma2_integrand(catalog_get("erf"), 3), id="erf_n3"),
    pytest.param(_lemma2_integrand(catalog_get("laguerre_weight", n=3), 2), id="laguerre_n3_d2"),
    pytest.param(_lemma2_integrand(catalog_get("laguerre_weight", n=4), 4), id="laguerre_n4_d4"),
    pytest.param(_frullani_integrand(catalog_get("exp").closed_form, 2.0, 1.0), id="frullani_exp"),
    pytest.param(
        _frullani_integrand(catalog_get("power", m=1.5).closed_form, 0.5, 3.0),
        id="frullani_power",
    ),
]


class TestMatchesReferenceGeometricPanels:
    """Each end's running Kahan total gives the bits of re-summing every
    panel, so the geometric ends - the fallback of integrate_semi_infinite
    and integrate_mellin, here on the Mellin integrand integrate_mellin
    forms - match ``oracles.reference_geometric_panels`` over the plain
    loop bit for bit."""

    @pytest.mark.parametrize("cfg_name", sorted(_SEMI_INFINITE_CONFIGS))
    @pytest.mark.parametrize("F, s", _MELLIN_CASES)
    def test_mellin(self, F, s, cfg_name):
        cfg = _SEMI_INFINITE_CONFIGS[cfg_name]
        expected = reference_integrate_semi_infinite(reference_mellin_integrand(F, s), cfg)
        integrand, _ = quadrature._mellin_terms(F, s, None)
        assert _bits(_geometric_ends(integrand, cfg)) == _bits(expected)

    @pytest.mark.parametrize("cfg_name", sorted(_SEMI_INFINITE_CONFIGS))
    @pytest.mark.parametrize("f", _SEMI_INFINITE_INTEGRANDS)
    def test_semi_infinite(self, f, cfg_name):
        cfg = _SEMI_INFINITE_CONFIGS[cfg_name]
        expected = reference_integrate_semi_infinite(f, cfg)
        assert _bits(_geometric_ends(f, cfg)) == _bits(expected)


class TestEpsilonTableInPlace:
    """The carried diagonals and the one-pass column pick give the bits of
    the oracle's rebuilt table and its min() over (movement, column)."""

    def test_tied_columns_pick_the_first(self):
        # Two even columns of the head's table move by exactly the same
        # amount here; picking the later one gives 3 * 2^-54 instead of 2^-53.
        f = _lemma2_integrand(catalog_get("laguerre_weight", n=2), 1)
        cfg = _SEMI_INFINITE_CONFIGS["tight"]
        res = _geometric_ends(f, cfg)
        assert _bits(res) == _bits(reference_integrate_semi_infinite(f, cfg))
        assert res.value == 2.0**-53


def _partial_sums(rng):
    """A random partial-sum sequence: a convergent series, dyadic steps that
    give exact ties and zero differences, an exactly summed halving series,
    or plain noise, with the odd inf or NaN mixed in."""
    n = rng.randint(1, 20)
    kind = rng.randrange(4)
    if kind == 0:
        ratio, term = rng.uniform(-0.9, 0.9), rng.uniform(-2.0, 2.0)
        terms = [term * ratio**j for j in range(n)]
    elif kind == 1:
        terms = [rng.choice((-1.0, -0.5, 0.0, 0.25, 1.0, 2.0)) for _ in range(n)]
    elif kind == 2:
        terms = [rng.choice((-1.0, 1.0)) * 2.0**-j for j in range(n)]
    else:
        terms = [rng.uniform(-10.0, 10.0) for _ in range(n)]
    sums = list(itertools.accumulate(terms))
    for j in range(n):
        if rng.random() < 0.05:
            sums[j] = rng.choice((math.inf, -math.inf, math.nan))
    return sums


class TestEpsilonTableHelper:
    """``_epsilon_table`` picks its column while building each diagonal, from
    stored steps; ``oracles.reference_epsilon_picks`` rebuilds the diagonals
    and takes min() over (movement, column).  Same bits, same column."""

    def test_matches_the_rebuilt_table(self):
        rng = random.Random(20191)
        seen = Counter()
        for _ in range(3000):
            sums = _partial_sums(rng)
            extrapolate = _epsilon_table()
            for total, expected in zip(sums, reference_epsilon_picks(sums)):
                value, movement, column = extrapolate(total)
                if expected is None:
                    assert (value.hex(), movement, column) == (total.hex(), math.inf, None)
                    continue
                want, change, k, movements = expected
                assert (value.hex(), movement.hex(), column) == (want.hex(), change.hex(), k)
                seen["tie"] += movements.count(change) > 1
                seen["non_finite"] += not math.isfinite(change)
                seen["later_column"] += k > 0
            seen["zero_difference"] += any(a == b for a, b in zip(sums, sums[1:]))
        # The draws reach every case the one-pass pick must get right.
        assert min(seen[key] for key in ("tie", "non_finite", "later_column", "zero_difference")) > 10

    def test_first_two_sums_pick_nothing(self):
        extrapolate = _epsilon_table()
        assert extrapolate(1.0) == (1.0, math.inf, None)
        assert extrapolate(1.5) == (1.5, math.inf, None)
        assert extrapolate(1.75)[2] == 0


def _assert_contract(res, cfg):
    if res.converged:
        assert math.isfinite(res.value)
        assert res.error_estimate <= max(cfg.abs_tol, cfg.rel_tol * abs(res.value))


class TestConvergedContract:
    """``converged`` implies a finite value whose error estimate is within
    max(abs_tol, rel_tol * |value|)."""

    @pytest.mark.parametrize("cfg_name", sorted(_REFERENCE_CONFIGS))
    @pytest.mark.parametrize("case", _reference_grid(), ids=lambda c: c[0])
    def test_finite(self, case, cfg_name):
        _, f, a, b, _ = case
        cfg = _REFERENCE_CONFIGS[cfg_name]
        _assert_contract(integrate_finite(f, a, b, cfg), cfg)

    @pytest.mark.parametrize("cfg_name", sorted(_SEMI_INFINITE_CONFIGS))
    @pytest.mark.parametrize("F, s", _MELLIN_CASES)
    def test_mellin(self, F, s, cfg_name):
        cfg = _SEMI_INFINITE_CONFIGS[cfg_name]
        _assert_contract(integrate_mellin(F, s, cfg), cfg)

    @pytest.mark.parametrize("cfg_name", sorted(_SEMI_INFINITE_CONFIGS))
    @pytest.mark.parametrize("f", _SEMI_INFINITE_INTEGRANDS)
    def test_semi_infinite(self, f, cfg_name):
        cfg = _SEMI_INFINITE_CONFIGS[cfg_name]
        _assert_contract(integrate_semi_infinite(f, cfg), cfg)

    def test_overflowed_panel_sum_is_not_converged(self):
        # The outer pair sum of the one panel overflows, so its value is inf
        # and its round-off floor, the error, is inf too: the loop stops on
        # the set-aside panel without a split, unconverged.
        res = integrate_finite(lambda x: 1e308 if abs(x - 0.5) > 0.49 else 1.0, 0.0, 1.0)
        assert res.value == math.inf and res.evaluations == 15
        assert res.converged is False


class TestTracerContract:
    """Profilers wrap the module global ``integrate_finite``; every geometric
    panel must go through it, once."""

    @pytest.mark.parametrize("ratio", [2.0, 0.5])
    def test_one_module_level_call_per_panel(self, monkeypatch, ratio):
        calls = []
        original = quadrature.integrate_finite

        def counting(f, a, b, cfg=None):
            res = original(f, a, b, cfg)
            calls.append((a, b, res.evaluations))
            return res

        monkeypatch.setattr(quadrature, "integrate_finite", counting)
        res = _geometric_panels(lambda x: x ** -0.5 / (1.0 + x), ratio, QuadratureConfig())
        edges = [ratio**j for j in range(len(calls) + 1)]
        assert len(calls) > 3
        assert [(a, b) for a, b, _ in calls] == [(min(p), max(p)) for p in zip(edges, edges[1:])]
        assert sum(evaluations for _, _, evaluations in calls) == res.evaluations


_RESULT_MAKERS = {
    "one_panel": lambda: integrate_finite(math.exp, 0.0, 1.0),
    "loop": lambda: integrate_finite(lambda x: math.sin(50.0 * x), 0.0, 3.0),
    "semi_infinite": lambda: integrate_semi_infinite(lambda x: math.exp(-x * x)),
    "mellin": lambda: integrate_mellin(lambda x: math.exp(-x), 0.5),
}


class TestResultContract:
    """Results built without ``EvaluationResult.__init__`` behave as built
    with it: equal, hashed and printed alike, frozen, and replaceable."""

    @pytest.mark.parametrize("name", sorted(_RESULT_MAKERS))
    def test_as_if_constructed(self, name):
        res = _RESULT_MAKERS[name]()
        built = EvaluationResult(res.value, res.error_estimate, res.evaluations, res.converged)
        assert res == built and hash(res) == hash(built) and repr(res) == repr(built)
        assert repr(res).startswith("EvaluationResult(value=")
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.value = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.extra = 0.0
        moved = dataclasses.replace(res, value=2.0 * res.value)
        assert moved == EvaluationResult(2.0 * res.value, res.error_estimate, res.evaluations,
                                         res.converged)

    def test_one_panel_result_is_the_fast_path(self):
        res = _RESULT_MAKERS["one_panel"]()
        assert res.evaluations == 15 and res.converged is True


class TestOnePanelFrames:
    """One converging panel makes exactly these Python-level calls: the
    integrator, the panel helper and its one GK15 panel, the convergence
    rule, the result's constructor and the integrand's 15 evaluations.  A
    per-evaluation wrapper or an extra per-panel frame shows here."""

    def test_python_calls_of_one_converging_panel(self):
        cfg = QuadratureConfig()
        f = lambda x: 2.5 * x
        calls = Counter()

        def profile(frame, event, arg):
            if event == "call":
                calls[frame.f_code.co_name] += 1

        sys.setprofile(profile)
        try:
            res = integrate_finite(f, 1.0, 2.0, cfg)
        finally:
            sys.setprofile(None)
        assert res.converged and res.evaluations == 15
        assert calls == {"integrate_finite": 1, "_panel_with_retries": 1, "_gk15": 1,
                         "_within_tolerance": 1, "__init__": 1, "<lambda>": 15}


class TestPanelEdgesInDoubleRange:
    """An end whose panel budget outlasts the double range stops, unconverged,
    at its last finite, nonzero edge: 2^1023 toward infinity, 2^-1074 toward
    0.  Budgets that stay in range are unchanged."""

    @staticmethod
    def _edges(monkeypatch, f, ratio, cfg):
        calls = []
        original = quadrature.integrate_finite

        def recording(g, a, b, panel_cfg=None):
            calls.append((a, b))
            return original(g, a, b, panel_cfg)

        monkeypatch.setattr(quadrature, "integrate_finite", recording)
        return _geometric_panels(f, ratio, cfg), calls

    def test_semi_infinite_budget_beyond_the_range(self):
        res = integrate_semi_infinite(lambda x: 1.0, QuadratureConfig(max_tail_panels=1100))
        assert res.converged is False and math.isfinite(res.value)

    def test_tail_stops_at_the_largest_power_of_two(self, monkeypatch):
        res, calls = self._edges(monkeypatch, lambda x: 1.0, 2.0,
                                 QuadratureConfig(max_tail_panels=1100))
        assert len(calls) == 1023 and calls[-1] == (2.0**1022, 2.0**1023)
        assert res.converged is False and res.evaluations == 15 * 1023

    def test_head_stops_at_the_smallest_subnormal(self, monkeypatch):
        # The panels' quarter of abs_tol, 2^-1074, is below the 10 eps |sum|
        # floor of the head's remainder estimate, so the head runs out its
        # edges.  f is never called at 0, where the next panel would start.
        def f(x):
            assert x > 0.0
            return 1.0

        cfg = QuadratureConfig(abs_tol=2.0**-1072, rel_tol=0.0, max_tail_panels=1100)
        res, calls = self._edges(monkeypatch, f, 0.5, cfg)
        assert len(calls) == 1074 and calls[-1] == (2.0**-1074, 2.0**-1073)
        assert res.converged is False and res.value == 1.0

    def test_budget_in_range_matches_reference(self):
        cfg = QuadratureConfig(max_tail_panels=1023)
        f = lambda x: 1.0
        assert _bits(_geometric_ends(f, cfg)) == _bits(
            reference_integrate_semi_infinite(f, cfg)
        )


class TestLogSpacedTail:
    """A tail panel [lo, 2 lo] is integrated in u, with x = lo 2^u, where a
    power of x is a smooth exponential in u: one GK15 panel resolves it."""

    @pytest.mark.parametrize("p", [-1.95, -1.5, -1.05])
    def test_power_tail_takes_one_panel_per_octave(self, monkeypatch, p):
        calls = []
        original = quadrature.integrate_finite

        def counting(f, a, b, cfg=None):
            res = original(f, a, b, cfg)
            calls.append(res.evaluations)
            return res

        monkeypatch.setattr(quadrature, "integrate_finite", counting)
        res = _geometric_panels(lambda x: x**p, 2.0, QuadratureConfig())
        assert res.converged
        assert calls == [15] * len(calls) and res.evaluations == sum(calls)
        assert abs(res.value + 1.0 / (p + 1.0)) <= res.error_estimate


def _raising_beyond(limit, f):
    """f, raising ZeroDivisionError at x > limit, where no geometric panel
    within the default budget reaches."""

    def g(x):
        if x > limit:
            raise ZeroDivisionError("beyond the limit")
        return f(x)

    return g


def _de_grid():
    """A seeded grid of semi-infinite integrands: exponential and algebraic
    decay, endpoint singularities, sign changes and cancelling ends, slow
    tails that run off the node table, zeros, and integrands that raise or
    turn non-finite where only the DE nodes reach."""
    rng = random.Random(20240521)
    cases = []
    for _ in range(12):
        a, p = rng.uniform(0.3, 4.0), rng.uniform(0.02, 6.0)
        cases.append((f"exp a={a:.3g} p={p:.3g}",
                      lambda x, a=a, p=p: x ** (p - 1.0) * math.exp(-a * x)))
    for _ in range(12):
        s, m = rng.uniform(0.005, 0.995), rng.uniform(0.5, 4.0)
        cases.append((f"algebraic s={s:.3g} m={m:.3g}",
                      lambda x, s=s, m=m: x ** (m * s - 1.0) * (1.0 + x) ** -m))
    for k in (2, 3, 4):
        for n in (1, 2, 3):
            pair = catalog_get("laguerre_weight", n=float(k))
            cases.append((f"laguerre k={k} n={n}", _lemma2_integrand(pair, n)))
    for n in (1, 3, 5):
        cases.append((f"erf n={n}", _lemma2_integrand(catalog_get("erf"), n)))
    for _ in range(4):
        alpha, beta = rng.uniform(0.25, 4.0), rng.uniform(0.25, 4.0)
        cases.append((f"frullani power {alpha:.3g}/{beta:.3g}", _frullani_integrand(
            catalog_get("power", m=rng.uniform(0.5, 3.0)).closed_form, alpha, beta)))
    cases += [
        ("zero", lambda x: 0.0),
        ("slow tail", lambda x: (1.0 + x) ** -1.01),
        ("divergent", lambda x: 1.0 / (1.0 + x)),
        ("raises far out", _raising_beyond(1e30, lambda x: (1.0 + x) ** -2.0)),
        ("raises at the probe", lambda x: 1.0 / (x - 16.0) ** 2 if x == 16.0 else math.exp(-x)),
        ("inf near 0", lambda x: math.inf if x < 1e-100 else math.exp(-x)),
        ("nan far out", lambda x: math.nan if x > 1e100 else (1.0 + x) ** -2.0),
        ("nan at one node", lambda x: math.nan if x == math.exp(-1.0) else math.exp(-x)),
    ]
    return cases


class TestDoubleExponential:
    """integrate_semi_infinite tries the double-exponential rule first and
    falls back to the geometric ends when it cannot certify its result.
    ``oracles.reference_integrate_semi_infinite_de`` restates both, so the
    two match bit for bit on every path, fallbacks included."""

    @pytest.mark.parametrize("cfg_name", sorted(_SEMI_INFINITE_CONFIGS))
    def test_matches_the_oracle(self, cfg_name):
        cfg = _SEMI_INFINITE_CONFIGS[cfg_name]
        paths = Counter()
        for name, f in _de_grid():
            expected = reference_integrate_semi_infinite_de(f, cfg)
            assert _bits(integrate_semi_infinite(f, cfg)) == _bits(expected), name
            attempt = reference_double_exponential(f, cfg)[0]
            paths["fallback" if attempt is None else attempt.converged] += 1
        # Both paths are exercised at both tolerances, and at the tight one
        # the round-off-limited return as well.
        assert paths[True] >= 10 and paths["fallback"] >= 5, paths
        assert cfg_name == "default" or paths[False] >= 5, paths

    @pytest.mark.parametrize("cfg_name", sorted(_SEMI_INFINITE_CONFIGS))
    def test_mellin_matches_the_oracle(self, cfg_name):
        cfg = _SEMI_INFINITE_CONFIGS[cfg_name]
        rng = random.Random(7)
        forms = [catalog_get("exp", a=rng.uniform(0.5, 3.0)).closed_form,
                 catalog_get("geometric").closed_form,
                 catalog_get("harmonic_shifted").closed_form,
                 catalog_get("power", m=2.5).closed_form]
        below = 0
        for F in forms:
            for s in [0.003, 0.02, 0.5, 0.97, 0.993] + [rng.uniform(0.01, 0.99) for _ in range(4)]:
                expected = reference_integrate_mellin(F, s, cfg)
                assert _bits(integrate_mellin(F, s, cfg)) == _bits(expected), (F, s)
                # Returned by a DE walk in ln x, where the plain walk over
                # the node table runs off.
                integrand, term = reference_mellin_integrand(F, s), reference_mellin_term(F, s)
                below += (reference_double_exponential(integrand, cfg)[0] is None
                          and reference_double_exponential(integrand, cfg, term)[0] is not None)
        assert below >= 8, below
        # Near the upper edge, with the pair's log form: the walk toward
        # infinity goes on above the table, and F subnormal in the table
        # (power at m = 4.881 from ln x ~ 145 on) is formed from logs.
        above = 0
        for cid, params, width in [("geometric", {}, 1.0), ("harmonic_shifted", {}, 1.0),
                                   ("power", {"m": 2.5}, 2.5), ("power", {"m": 4.881}, 4.881)]:
            pair = catalog_get(cid, **params)
            F, log_F = pair.closed_form, pair.log_closed_form
            for s in [width * u for u in (0.5, 0.86, 0.95, 0.99, 0.999, 0.9995)] + [
                    width * rng.uniform(0.84, 0.999) for _ in range(2)]:
                expected = reference_integrate_mellin(F, s, cfg, log_F)
                assert _bits(integrate_mellin(F, s, cfg, log_F=log_F)) == _bits(expected), (cid, s)
                integrand = reference_mellin_integrand(F, s, log_F)
                term = reference_mellin_term(F, s, log_F)
                above += (reference_double_exponential(integrand, cfg, term)[0] is None
                          and reference_double_exponential(integrand, cfg, term, True)[0]
                          is not None)
        assert above >= 16, above

    @pytest.mark.parametrize("cid, params, s",
                             [("geometric", {}, 0.02), ("exp", {"a": 2.0}, 0.01)])
    def test_head_below_the_table_certifies_near_the_lower_edge(self, cid, params, s):
        # rmt's left side.  The mass of x^(s-1) F(x) lies below the table's
        # first node: the walk toward 0 goes on in ln x and the rule
        # certifies, where the table alone runs off and the geometric ends
        # took 941 and 833 calls.
        F = catalog_get(cid, **params).closed_form
        cfg = QuadratureConfig()
        integrand = reference_mellin_integrand(F, s)
        attempt, calls = reference_double_exponential(integrand, cfg, reference_mellin_term(F, s))
        assert attempt is not None and attempt.converged and calls < 150
        assert _bits(integrate_mellin(F, s, cfg)) == _bits(attempt)
        assert reference_double_exponential(integrand, cfg)[0] is None

    @pytest.mark.parametrize("F, s, exponential",
                             [(lambda x: math.exp(-x), 0.05, True),
                              (lambda x: 1.0 / (1.0 + x), 0.0005, False)],
                             ids=["exponential", "algebraic"])
    def test_plain_walk_ends_at_the_table(self, F, s, exponential):
        # x^(s-1) F(x) has mass below the table.  As a plain integrand it
        # carries no known power of x there: its walk runs off at the table's
        # first node, x = e^-409.4 or e^-522.4, without calling f below it,
        # and the integral falls back to the geometric ends.  As a Mellin
        # integrand the same walk goes on below the table.
        f = lambda x: x ** (s - 1.0) * F(x)
        cfg = QuadratureConfig()
        first = _de_nodes(exponential, 0)[2][11]
        seen = []
        assert _double_exponential(lambda x: seen.append(x) or f(x), cfg, []) is None
        assert min(seen) == first
        attempt, calls = reference_double_exponential(f, cfg)
        assert attempt is None and calls == len(seen)
        assert _bits(integrate_semi_infinite(f, cfg)) == _bits(_geometric_ends(f, cfg, calls))
        seen.clear()
        integrate_mellin(lambda x: seen.append(x) or F(x), s, cfg)
        assert min(seen) < first

    @pytest.mark.parametrize("f", [lambda x: math.exp(-x), lambda x: (1.0 + x) ** -3.0],
                             ids=["exponential", "algebraic"])
    def test_accepted_result_stops_at_the_certifying_level(self, f):
        # Level 2 certifies both: the two probes, n = 19 level-0 nodes over
        # the walked range, then n - 1 new nodes at level 1 and 2 (n - 1) at
        # level 2, 2 + n + 3 (n - 1) in all.  No finer node table is built.
        _de_nodes.cache_clear()
        res = integrate_semi_infinite(f)
        assert res.converged and res.evaluations == 75
        for level in (3, 4):
            for exponential in (False, True):
                misses = _de_nodes.cache_info().misses
                _de_nodes(exponential, level)
                assert _de_nodes.cache_info().misses == misses + 1  # built only now

    def test_fallback_counts_the_abandoned_attempt(self):
        cfg = QuadratureConfig()
        f = lambda x: (1.0 + x) ** -1.01  # too slow a tail for the node table
        attempt, calls = reference_double_exponential(f, cfg)
        assert attempt is None and calls > 2
        res = integrate_semi_infinite(f, cfg)
        assert _bits(res) == _bits(_geometric_ends(f, cfg, calls))

    def test_call_that_raises_is_counted(self):
        # The first probe raises; the geometric ends never call f at 16.
        def f(x):
            if x == 16.0:
                raise ZeroDivisionError("probe")
            return math.exp(-x)

        cfg = QuadratureConfig()
        assert _bits(integrate_semi_infinite(f, cfg)) == _bits(_geometric_ends(f, cfg, 1))

    def test_exception_only_the_de_nodes_meet_falls_back(self):
        f = _raising_beyond(1e30, lambda x: (1.0 + x) ** -2.0)
        res = integrate_semi_infinite(f)
        assert res.converged and abs(res.value - 1.0) <= res.error_estimate
        with pytest.raises(ZeroDivisionError):
            f(1e31)

    def test_exception_the_geometric_ends_meet_is_raised(self):
        with pytest.raises(ZeroDivisionError):
            integrate_semi_infinite(_raising_beyond(100.0, lambda x: (1.0 + x) ** -2.0))

    def test_all_zero_terms_fall_back(self):
        # The DE attempt must not accept 0 from terms that all underflow.
        cfg = QuadratureConfig()
        f = lambda x: math.exp(-1e4 * x)
        attempt, calls = reference_double_exponential(f, cfg)
        assert attempt is None
        assert _bits(integrate_semi_infinite(f, cfg)) == _bits(_geometric_ends(f, cfg, calls))

    def test_round_off_limited_result_is_returned_unconverged(self, monkeypatch):
        # The floor exceeds the tolerance, and the levels settle below it:
        # the DE result is returned as it is, and no geometric panel is made.
        cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300)
        f = lambda x: math.exp(-x)
        attempt, calls = reference_double_exponential(f, cfg)
        assert attempt is not None and not attempt.converged
        monkeypatch.setattr(quadrature, "integrate_finite", None)
        res = integrate_semi_infinite(f, cfg)
        assert _bits(res) == _bits(attempt) and res.evaluations == calls
        assert abs(res.value - 1.0) <= res.error_estimate

    def test_floor_above_the_tolerance_with_unsettled_levels_falls_back(self):
        # A jump at x = 3 only about halves each level's change: no level passes
        # the ratio test, however far its floor exceeds the tolerance.
        cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300, max_subdivisions=20,
                               max_tail_panels=8)
        f = lambda x: math.exp(-x) if x < 3.0 else 0.0
        attempt, calls = reference_double_exponential(f, cfg)
        assert attempt is None and calls > 2
        res = integrate_semi_infinite(f, cfg)
        assert _bits(res) == _bits(_geometric_ends(f, cfg, calls)) and not res.converged

    def test_left_end_node_certifies_the_mirror_image(self):
        # x^(s-1)/(1+x) at s = 0.2 is its s = 0.8 form under x -> 1/x.  The
        # walk toward 0 reaches t = -6.5, the algebraic table's node 0, and
        # the rule certifies in as many calls as at s = 0.8.
        F = catalog_get("geometric").closed_form
        cfg = QuadratureConfig()
        seen = []
        res = integrate_mellin(lambda x: seen.append(x) or F(x), 0.2, cfg)
        expected, calls = reference_double_exponential(reference_mellin_integrand(F, 0.2), cfg,
                                                       reference_mellin_term(F, 0.2))
        assert _bits(res) == _bits(expected) and res.converged
        assert calls == integrate_mellin(F, 0.8, cfg).evaluations == 95
        assert _de_nodes(False, 0)[2][11] in seen  # the table's first node

    def test_panel_budgets_bound_only_the_geometric_ends(self):
        cfg = QuadratureConfig(max_tail_panels=1, max_subdivisions=1)
        res = integrate_semi_infinite(lambda x: math.exp(-x), cfg)
        assert res.converged and abs(res.value - 1.0) <= res.error_estimate
        assert not _geometric_ends(lambda x: math.exp(-x), cfg).converged

    @pytest.mark.parametrize("F, s", _MELLIN_CASES)
    def test_smooth_false_with_zero_errors_is_the_smooth_route(self, F, s):
        # F = (value, error): errors of 0 add nothing to the double-exponential
        # floor, and a fallback integrates the values alone, so every bit and
        # every evaluation is the smooth route's, and the oracle's.
        for cfg in _SEMI_INFINITE_CONFIGS.values():
            noisy = integrate_mellin(lambda x: (F(x), 0.0), s, cfg, smooth=False)
            assert _bits(noisy) == _bits(integrate_mellin(F, s, cfg))
            assert _bits(noisy) == _bits(reference_integrate_mellin(F, s, cfg))

    def test_smooth_false_adds_the_weighted_errors_to_the_floor(self):
        # An error of d |F| in each value, its sign dropped: the double-exponential
        # rule returns the level it returns without errors, its estimate
        # raised by h sum d |x^(s-1) F| dx/dt ~ d Gamma(s), here 2 d.
        cfg = QuadratureConfig()
        F = lambda x: math.exp(-x)
        plain = integrate_mellin(F, 3.0, cfg)
        noisy = integrate_mellin(lambda x: (F(x), -1e-11 * F(x)), 3.0, cfg, smooth=False)
        assert noisy.value == plain.value and noisy.evaluations == plain.evaluations
        assert noisy.converged
        assert noisy.error_estimate - plain.error_estimate == pytest.approx(2e-11, rel=1e-6)

    def test_smooth_false_errors_above_the_tolerance_end_unconverged(self):
        # No route certifies a floor above the tolerance: the double-exponential
        # rule returns unconverged rather than falling back to the geometric ends.
        cfg = QuadratureConfig()
        res = integrate_mellin(lambda x: (math.exp(-x), 1e-6 * math.exp(-x)), 2.0, cfg,
                               smooth=False)
        assert not res.converged and res.evaluations < 150
        assert abs(res.value - 1.0) <= res.error_estimate

    def test_smooth_false_walks_below_the_table_in_ln_x(self):
        # s near 0: the mass lies below the node table, where each error is
        # weighted as its value, by e^(s ln x) d ln x/dt.
        cfg = QuadratureConfig()
        F = lambda x: 1.0 / (1.0 + x)
        s = 0.02
        plain = integrate_mellin(F, s, cfg)
        noisy = integrate_mellin(lambda x: (F(x), 1e-9 * F(x)), s, cfg, smooth=False)
        assert noisy.value == plain.value and noisy.evaluations == plain.evaluations < 150
        exact = math.pi / math.sin(math.pi * s)
        assert noisy.error_estimate - plain.error_estimate == pytest.approx(1e-9 * exact, rel=1e-3)

    @pytest.mark.parametrize("level", range(5))
    @pytest.mark.parametrize("exponential, count, end", [(False, 49, 37), (True, 104, 103)],
                             ids=["algebraic", "exponential"])
    def test_node_grid(self, exponential, count, end, level):
        # One t-grid per map, from its reach to its top: level-0 node i at
        # reach + i/2, level-L node i at reach + (2i + 1) h, h = 2^-(L+1),
        # between level-0 nodes i >> (L-1) and the next.  The table runs
        # from level-0 node 11, t = lo, to level-0 node end, t = hi; on it
        # x and dx/dt are e^ln x and x d ln x/dt, bit for bit.  The pairs
        # (x, ln x) cover the whole grid, x = inf where e^ln x overflows:
        # above the algebraic table, from t ~ 6.8 on.
        mapping, lo, hi, reach, top = _DE_MAPS[exponential]
        logs, dlogs, xs, ws, pairs = _de_nodes(exponential, level)
        coarse = _de_nodes(exponential, 0)[0]
        h = 0.5 ** (level + 1)
        size = (count - 1) << (level - 1) if level else count
        start = 11 << (level - 1) if level else 11
        table = end << (level - 1) if level else end + 1  # the nodes up to t = hi
        assert len(logs) == len(dlogs) == len(pairs) == size and len(xs) == len(ws) == table
        for i in range(size):
            t = reach + (2 * i + 1) * h if level else reach + 0.5 * i
            assert (logs[i], dlogs[i]) == mapping(t) == _reference_de_node(exponential, t)
            assert math.isfinite(logs[i]) and dlogs[i] > 0.0
            if level:
                assert coarse[i >> (level - 1)] < logs[i] < coarse[(i >> (level - 1)) + 1]
            try:
                x = math.exp(logs[i])
            except OverflowError:
                x = math.inf
            assert pairs[i] == (x, logs[i])
            if start <= i < table:
                assert (xs[i], ws[i]) == (x, x * dlogs[i])
            assert (t >= lo) == (i >= start)
            assert (t <= hi) == (i < table)
        assert reach + 0.5 * 11 == lo and hi == reach + 0.5 * end
        assert top == reach + 0.5 * (count - 1)
        assert sys.float_info.min < xs[start] and xs[-1] < math.inf
        assert (pairs[-1][0] == math.inf) != exponential
        if not level:
            assert xs[int(-2.0 * reach)] == (math.exp(-1.0) if exponential else 1.0)  # t = 0
            assert coarse[-1] == (40.0 - math.exp(-40.0) if exponential
                                  else 0.5 * math.pi * math.sinh(12.0))  # ln x ~ 1.28e5

    def test_import_builds_no_node_table(self):
        code = "import rmtkit; print(rmtkit.quadrature._de_nodes.cache_info().currsize)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout == "0\n"


class TestPlainPathPinned:
    """A plain integrand - integrate_semi_infinite's, Frullani's - is
    walked as f(x) dx/dt over the node table, with x and dx/dt from the
    table.  Its bits and calls are pinned here.  Forming its terms in ln x
    instead, as e^L f(e^L) d ln x/dt over the whole grid, costs 10-25% per
    call; it calls f at the same floats, but moves the bits of the beta
    integral, and test_plain_walk_ends_at_the_table sees its longer walk."""

    def test_frullani_exp_is_pinned(self):
        report = frullani(lambda x: math.exp(-x), 1.0, 0.0, 2.0, 1.0)
        assert _bits(report.lhs) == ("-0x1.62e42fefa39efp-1", "0x1.3d42457337d42p-47", 75, True)

    @pytest.mark.parametrize("f, expected", [
        (lambda x: math.exp(-x * x),
         ("0x1.c5bf891b4ef6bp-1", "0x1.3a4fb463aab61p-44", 123, True)),
        (lambda x: x * (1.0 + x) ** -5,
         ("0x1.5555555555555p-4", "0x1.fe6aaaaaaaaabp-44", 67, True)),
        # Too slow a tail for the node table: the geometric ends take over.
        (lambda x: (1.0 + x) ** -1.1,
         ("0x1.3fffffffff856p+3", "0x1.f33c3b8fae8a3p-33", 436, True)),
    ], ids=["gaussian", "beta", "fallback"])
    def test_semi_infinite_is_pinned(self, f, expected):
        assert _bits(integrate_semi_infinite(f)) == expected

    @pytest.mark.parametrize("f, exponential",
                             [(lambda x: math.exp(-x), True), (lambda x: (1.0 + x) ** -3.0, False)],
                             ids=["exponential", "algebraic"])
    def test_plain_integrand_is_called_at_the_table_floats(self, f, exponential):
        # After the two probes, f is called at level-0 node table floats
        # (from node 11, the table's first, on), then at finer levels' ones.
        seen = []
        res = integrate_semi_infinite(lambda x: seen.append(x) or f(x))
        assert res.converged and len(seen) == res.evaluations
        assert seen[:2] == [16.0, 64.0]
        table = set(_de_nodes(exponential, 0)[2][11:])
        level0 = sum(x in table for x in seen[2:])
        assert level0 >= 10 and set(seen[2:2 + level0]) <= table
        finer = set().union(*(_de_nodes(exponential, level)[2] for level in range(1, 5)))
        assert set(seen[2 + level0:]) <= finer


class TestMellinTerm:
    """The Mellin walk's one term, g(x, L) = x^s F(x) at x = e^L, against
    x^s F(x) from mpmath at 40 digits, at an L that reaches each branch.
    e^y amplifies the rounding of its exponent y = sL (+ ln F) by |y|, so
    g is held within a few ulps times 1 + |sL| + |ln F|: a few ulps where
    the exponent is small.  Where the true value lies below the double
    range, g is exactly 0."""

    @pytest.mark.parametrize("cid, params, s, log_x, uses_log_form", [
        # e^(sL) alone: x^s F(x) directly, x normal, subnormal and 0.
        ("exp", {}, 3.0, math.log(2.0), False),
        ("exp", {}, 0.5, -700.0, False),
        ("exp", {}, 0.5, -745.0, False),
        ("exp", {}, 0.5, -2000.0, False),
        # e^(sL) overflows with F = 0 at x ~ 13,408: 0, not inf * 0 = NaN.
        ("exp", {}, 150.0, math.log(13408.0), False),
        # e^(sL) alone overflows, F normal: the power is split in two halves.
        ("exp", {}, 150.0, math.log(300.0), False),
        # F subnormal above x = 1, from ln x ~ 145 on, with the log form.
        ("power", {"m": 4.881}, 4.88, 150.0, True),
        ("power", {"m": 4.881}, 1.0, 146.0, True),
        # x overflows above the table: only the log form is left.
        ("geometric", {}, 0.99, 800.0, True),
        ("geometric", {}, 0.99, 5000.0, True),
    ])
    def test_matches_mpmath(self, cid, params, s, log_x, uses_log_form):
        pair = catalog_get(cid, **params)
        called = []
        log_form = pair.log_closed_form  # exp has none
        log_F = log_form and (lambda log_x: called.append(log_x) or log_form(log_x))
        _, g = quadrature._mellin_terms(pair.closed_form, s, log_F)
        try:
            x = math.exp(log_x)
        except OverflowError:
            x = math.inf
        value = g((x, log_x))
        assert bool(called) == uses_log_form
        mp = mpmath.mp.clone()
        mp.dps = 40
        x = mp.exp(mp.mpf(log_x))
        F = {"exp": lambda: mp.exp(-x), "power": lambda: (1 + x) ** -mp.mpf(params.get("m", 0.0)),
             "geometric": lambda: 1 / (1 + x)}[cid]()
        exact = x ** mp.mpf(s) * F
        if float(exact) == 0.0:
            assert value == 0.0
            return
        ulps = 4.0 + abs(s * log_x) + abs(float(mp.log(F)))
        assert abs(mp.mpf(value) - exact) <= ulps * sys.float_info.epsilon * exact

    def test_x_integrand_takes_the_log_form_where_F_underflows(self):
        # F(1e12) = 1e-360 underflows to 0 though x^(s-1) F(x) ~ 1e-18 does
        # not: the probes and the geometric ends take it from ln F.
        pair = catalog_get("power", m=30.0)
        x, s = 1e12, 29.5
        assert pair.closed_form(x) == 0.0
        integrand, _ = quadrature._mellin_terms(pair.closed_form, s, pair.log_closed_form)
        plain, _ = quadrature._mellin_terms(pair.closed_form, s, None)
        value = integrand(x)
        assert plain(x) == 0.0
        mp = mpmath.mp.clone()
        mp.dps = 40
        exact = mp.mpf(x) ** (s - 1.0) * (1 + mp.mpf(x)) ** -30
        log_x = math.log(x)
        ulps = 4.0 + abs((s - 1.0) * log_x) + abs(pair.log_closed_form(log_x))
        assert abs(mp.mpf(value) - exact) <= ulps * sys.float_info.epsilon * exact


class TestSemiInfinite:
    def test_exponential(self):
        res = integrate_semi_infinite(lambda x: math.exp(-x))
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.converged

    def test_gaussian(self):
        res = integrate_semi_infinite(lambda x: math.exp(-x * x))
        assert res.value == pytest.approx(0.8862269254527580, abs=1e-12)

    def test_beta_integrand(self):
        res = integrate_semi_infinite(lambda x: x * (1.0 + x) ** -5)
        assert res.value == pytest.approx(1.0 / 12.0, abs=1e-11)

    def test_slow_algebraic_tail_is_extrapolated(self):
        # Tail panels of x^-1.1 shrink by 2^-0.1 each: plain summation
        # would need hundreds of them.
        res = integrate_semi_infinite(lambda x: (1.0 + x) ** -1.1)
        assert res.converged
        assert abs(res.value - 10.0) <= res.error_estimate

    @pytest.mark.parametrize(
        "f",
        [lambda x: x**-0.5, lambda x: 1.0 / (1.0 + x)],
        ids=["growing_tail_panels", "level_tail_panels"],
    )
    def test_divergent_tail_is_not_converged(self, f):
        assert not integrate_semi_infinite(f).converged

    def test_non_finite_probe_falls_back_to_the_ends(self):
        # inf at x = 16 only: the double-exponential rule's first probe, which
        # no node of the geometric ends meets.
        res = integrate_semi_infinite(lambda x: math.inf if x == 16.0 else math.exp(-x))
        ends = _geometric_ends(lambda x: math.exp(-x), QuadratureConfig())
        assert res == dataclasses.replace(ends, evaluations=ends.evaluations + 2)  # the probes
        assert res.converged and abs(res.value - 1.0) <= res.error_estimate

    def test_panel_budget_below_three_is_not_converged(self):
        res = _geometric_ends(lambda x: math.exp(-x), QuadratureConfig(max_tail_panels=2))
        assert not res.converged

    def test_converged_implies_estimate_within_tolerance(self):
        cfg = QuadratureConfig()
        for f in (
            lambda x: math.exp(-x),
            lambda x: math.exp(-x * x),
            lambda x: x * x * math.exp(-2.0 * x),
        ):
            res = integrate_semi_infinite(f, cfg)
            assert res.converged
            assert res.error_estimate <= max(
                cfg.abs_tol, cfg.rel_tol * abs(res.value)
            )

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.7])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_scaling_covariance(self, alpha, n):
        # integral x^(n-1) g(alpha x) = alpha^-n integral t^(n-1) g(t),
        # for smooth decaying g.
        for g in (lambda t: math.exp(-t), lambda t: math.exp(-t * t)):
            scaled = integrate_semi_infinite(
                lambda x: x ** (n - 1) * g(alpha * x)
            )
            plain = integrate_semi_infinite(lambda t: t ** (n - 1) * g(t))
            expected = alpha ** (-n) * plain.value
            assert abs(scaled.value - expected) <= 1e-8 * abs(expected)


class TestMellin:
    def test_euler_gamma_three(self):
        res = integrate_mellin(lambda x: math.exp(-x), 3.0)
        assert res.value == pytest.approx(2.0, abs=1e-10)
        assert res.converged

    def test_hardy_pi(self):
        # The x^(-3/2) tail and the x^(-1/2) head both converge
        # algebraically; extrapolation reaches the tolerance at each end.
        res = integrate_mellin(lambda x: 1.0 / (1.0 + x), 0.5)
        assert res.value == pytest.approx(math.pi, rel=1e-9)
        assert res.converged

    def test_gamma_half(self):
        res = integrate_mellin(lambda x: math.exp(-x), 0.5)
        assert res.value == pytest.approx(SQRT_PI, abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            integrate_mellin(lambda x: math.exp(-x), 0.0)
        with pytest.raises(DomainError):
            integrate_mellin(lambda x: math.exp(-x), -1.0)

    @pytest.mark.parametrize("s", [math.inf, math.nan, -math.inf, 0.0, -1.0])
    def test_domain_checked_before_any_evaluation(self, s):
        calls = []

        def F(x):
            calls.append(x)
            return math.exp(-x)

        with pytest.raises(DomainError, match="^integrate_mellin: requires finite s > 0"):
            integrate_mellin(F, s)
        assert calls == []

    def test_singular_function_detected(self):
        with pytest.raises(SingularityError):
            integrate_mellin(
                lambda x: math.nan if x < 0.3 else math.exp(-x), 0.5
            )

    @pytest.mark.parametrize("s", [0.3, 0.7])
    def test_head_panels_against_graded_mesh(self, s):
        """The head integral of x^(s-1) e^-x over [0, 1], summed over the
        panels [2^-(j+1), 2^-j] and extrapolated, matches a brute-force
        graded-mesh trapezoid evaluation."""
        f = lambda x: x ** (s - 1.0) * math.exp(-x)
        head = _geometric_panels(f, 0.5, QuadratureConfig())
        oracle = graded_mesh_trapezoid(f, q=2.0 / s + 6.0)
        assert head.converged
        assert abs(head.value - oracle) <= 1e-9


# Closed forms for the error-estimate honesty suite: (f, a, b, exact).
_HONESTY_SUITE = [
    (lambda x: 1.0, 0.0, 3.0, 3.0),
    (lambda x: x, 0.0, 2.0, 2.0),
    (lambda x: x * x, -1.0, 1.0, 2.0 / 3.0),
    (lambda x: x**5, 0.0, 1.0, 1.0 / 6.0),
    (lambda x: math.exp(x), 0.0, 1.0, math.e - 1.0),
    (lambda x: math.exp(-x), 0.0, 30.0, 1.0 - math.exp(-30.0)),
    (lambda x: math.sin(x), 0.0, math.pi, 2.0),
    (lambda x: math.cos(x), 0.0, 1.0, math.sin(1.0)),
    (lambda x: 1.0 / (1.0 + x), 0.0, 1.0, math.log(2.0)),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
    (lambda x: math.sqrt(x), 0.0, 1.0, 2.0 / 3.0),
    (lambda x: math.log(1.0 + x), 0.0, 1.0, 2.0 * math.log(2.0) - 1.0),
    (lambda x: x * math.exp(-x * x), 0.0, 10.0, 0.5 * (1.0 - math.exp(-100.0))),
    (lambda x: math.sin(10.0 * x), 0.0, 1.0, (1.0 - math.cos(10.0)) / 10.0),
    (lambda x: math.cosh(x), -1.0, 1.0, 2.0 * math.sinh(1.0)),
    (lambda x: 1.0 / math.sqrt(1.0 + x), 0.0, 3.0, 2.0),
    (lambda x: x * math.log(x) if x > 0 else 0.0, 0.0, 1.0, -0.25),
    (lambda x: math.exp(-x) * math.sin(x), 0.0, 40.0, 0.5 - math.exp(-40.0) * (math.sin(40.0) + math.cos(40.0)) / 2.0),
    (lambda x: abs(x - 0.5), 0.0, 1.0, 0.25),
    (lambda x: math.atan(x), 0.0, 1.0, math.pi / 4.0 - math.log(2.0) / 2.0),
]


class TestErrorEstimateHonesty:
    def test_true_error_within_ten_times_estimate(self):
        assert len(_HONESTY_SUITE) == 20
        for f, a, b, exact in _HONESTY_SUITE:
            res = integrate_finite(f, a, b)
            if res.converged:
                assert abs(res.value - exact) <= 10.0 * res.error_estimate
