"""Integrator behaviour: values, error estimates, tails, and invariances."""

import math
import random

import pytest

from rmtkit.errors import DomainError, EvaluationError, SingularityError
from rmtkit.quadrature import (
    _XGK,
    QuadratureConfig,
    integrate_finite,
    integrate_mellin,
    integrate_semi_infinite,
)

from oracles import graded_mesh_trapezoid, reference_integrate_finite, trapezoid

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
            {"tail_cut_growth": 1.0},
            {"abs_tol": math.nan},
            {"abs_tol": math.inf},
            {"rel_tol": math.nan},
            {"rel_tol": math.inf},
            {"tail_cut_growth": math.inf},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureConfig(**kwargs)


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

    def test_determinism(self):
        f = lambda x: math.exp(-x) * math.cos(3.0 * x)
        r1 = integrate_finite(f, 0.0, 10.0)
        r2 = integrate_finite(f, 0.0, 10.0)
        assert r1 == r2


def _inf_at(node: float, f):
    return lambda x: math.inf if x == node else f(x)


def _reference_grid():
    """Seeded integrands: (label, f, a, b)."""
    rng = random.Random(20190201)
    cases = []
    for i in range(3):
        c, w, length = rng.uniform(0.1, 2.0), rng.uniform(0.0, 5.0), rng.uniform(1.0, 20.0)
        cases.append((f"smooth{i}", lambda x, c=c, w=w: math.exp(-c * x) * math.cos(w * x), 0.0, length))
    for i in range(3):
        w, length = rng.uniform(20.0, 80.0), rng.uniform(1.0, 3.0)
        cases.append((f"oscillatory{i}", lambda x, w=w: math.sin(w * x * x), 0.0, length))
    cases.append(("sqrt_abs_sin", lambda x: math.sqrt(abs(math.sin(50.0 * x))), 0.0, 10.0))
    cases.append(("inf_at_centre", _inf_at(0.5, lambda x: x * x), 0.0, 1.0))
    # Non-finite at the left node of pair 2 of the first panel: 7 calls.
    cases.append(("inf_at_pair2", _inf_at(0.5 - 0.5 * _XGK[2], math.cos), 0.0, 1.0))
    # ... and of the last pair: 15 calls, as many as a whole panel makes.
    cases.append(("inf_at_pair6", _inf_at(0.5 - 0.5 * _XGK[6], math.cos), 0.0, 1.0))
    return cases


_REFERENCE_CONFIGS = {
    "default": QuadratureConfig(),
    "tight": QuadratureConfig(abs_tol=1e-14, rel_tol=1e-13),
    "five_splits": QuadratureConfig(max_subdivisions=5),
}


class TestMatchesReferenceLoop:
    """The running-total stopping test stops at the same split as the
    re-sum-every-split loop in ``oracles``, with the same evaluation count."""

    @pytest.mark.parametrize("cfg_name", sorted(_REFERENCE_CONFIGS))
    @pytest.mark.parametrize("case", _reference_grid(), ids=lambda c: c[0])
    def test_bit_identical(self, case, cfg_name):
        _, f, a, b = case
        cfg = _REFERENCE_CONFIGS[cfg_name]
        assert integrate_finite(f, a, b, cfg) == reference_integrate_finite(f, a, b, cfg)

    # abs_tol equals, to the last bit, the heap's error total at one split,
    # where a plain running total of the errors differs from it in the last
    # bits: there a test on running totals alone stops a split early (sqrt)
    # or late (kink).
    @pytest.mark.parametrize(
        "f, abs_tol",
        [
            (math.sqrt, 5.049495430109488e-14),
            (lambda x: abs(x - 1.0 / 3.0), 6.19263576937754e-05),
        ],
        ids=["sqrt", "kink"],
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

    def test_slow_tail_flags_non_convergence(self):
        res = integrate_semi_infinite(lambda x: (1.0 + x) ** -1.1)
        assert not res.converged
        assert res.value > 0.0

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
        # The x^(-3/2) tail is truncated at the panel budget, which costs
        # ~1.9e-9 absolute; relative accuracy is still below 1e-9.
        res = integrate_mellin(lambda x: 1.0 / (1.0 + x), 0.5)
        assert res.value == pytest.approx(math.pi, rel=1e-9)

    def test_gamma_half(self):
        res = integrate_mellin(lambda x: math.exp(-x), 0.5)
        assert res.value == pytest.approx(SQRT_PI, abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            integrate_mellin(lambda x: math.exp(-x), 0.0)
        with pytest.raises(DomainError):
            integrate_mellin(lambda x: math.exp(-x), -1.0)

    def test_singular_function_detected(self):
        with pytest.raises(SingularityError):
            integrate_mellin(
                lambda x: math.nan if x < 0.3 else math.exp(-x), 0.5
            )

    @pytest.mark.parametrize("s", [0.3, 0.7])
    def test_head_substitution_against_graded_mesh(self, s):
        """The substituted head integral of x^(s-1) e^-x over [0,1] matches
        a brute-force graded-mesh trapezoid evaluation."""
        # Full Mellin value minus the adaptive tail over [1, inf) isolates
        # the head; compare directly on the head integrand instead.
        inv_s = 1.0 / s
        head = integrate_finite(
            lambda u: inv_s * math.exp(-(u**inv_s)), 0.0, 1.0
        )
        oracle = graded_mesh_trapezoid(
            lambda x: x ** (s - 1.0) * math.exp(-x), q=2.0 / s + 6.0
        )
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
