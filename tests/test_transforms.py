"""Identity operations: both sides, pole machinery, derivative stencils."""

import math
import random
from argparse import Namespace
from dataclasses import replace

import pytest

from rmtkit import cli, specfun, transforms
from rmtkit.errors import (
    DerivativeUnavailable,
    DomainError,
    NonstandardPair,
    PoleError,
    PresentationError,
    RmtError,
    SingularityError,
)
from rmtkit.quadrature import QuadratureConfig, integrate_mellin
from rmtkit.sequences import catalog_get, catalog_ids, shift_sequence
from rmtkit.transforms import (
    DEFAULT_IDENTITY_TOL,
    FD_MAX_ORDER,
    IDENTITIES,
    frullani,
    hardy,
    lemma2,
    nth_derivative_fd,
    partial_fraction_sum,
    positive_tolerance,
    residue_check,
    rmt,
    scale_report,
)

import exact
from oracles import (
    frullani_log_simpson,
    hardy_quarter_integral,
    harmonic_half_integral,
    reference_integrate_mellin,
    reference_nth_derivative_fd,
)

SQRT_PI = 1.7724538509055159

# integral_0^1 x^(s-1) e^-x dx, the exact limit of the truncated pole
# expansion for the unit-coefficient pair; frozen from 40-digit quadrature.
PF_LIMIT_EXP = {0.5: 1.493648265624854, 1.5: 0.3789446916409847, 2.5: 0.2005375962900347}
# Same with coefficients 1/(k+1), i.e. integral_0^1 x^(s-1)(1-e^-x)/x dx.
PF_LIMIT_HARMONIC = {0.5: 1.7230554135925927, 1.5: 0.5063517343751459}


class TestFrullani:
    def test_exponential(self):
        rep = frullani(lambda x: math.exp(-x), 1.0, 0.0, 2.0, 1.0)
        assert rep.rhs == pytest.approx(-math.log(2.0), rel=1e-15)
        assert rep.passed
        assert rep.abs_discrepancy <= 1e-10

    def test_equal_scales_vanish_exactly(self):
        rep = frullani(lambda x: math.exp(-x), 1.0, 0.0, 3.0, 3.0)
        assert rep.lhs.value == 0.0
        assert rep.rhs == 0.0
        assert rep.passed

    def test_rational_against_log_simpson_oracle(self):
        f = lambda x: 1.0 / (1.0 + x)
        rep = frullani(f, 1.0, 0.0, 5.0, 2.0)
        oracle = frullani_log_simpson(f, 5.0, 2.0)
        assert rep.lhs.value == pytest.approx(oracle, abs=1e-9)
        assert rep.rhs == pytest.approx(-0.9162907318741551, rel=1e-14)
        assert rep.passed

    def test_scale_swap_negates_rhs_exactly(self):
        f = lambda x: 1.0 / (1.0 + x)
        fwd = frullani(f, 1.0, 0.0, 5.0, 2.0)
        rev = frullani(f, 1.0, 0.0, 2.0, 5.0)
        assert fwd.rhs == -rev.rhs
        budget = fwd.lhs.error_estimate + rev.lhs.error_estimate
        assert abs(fwd.lhs.value + rev.lhs.value) <= budget + 1e-14

    def test_scale_domain(self):
        with pytest.raises(DomainError):
            frullani(math.exp, 1.0, 0.0, -1.0, 2.0)

    @pytest.mark.parametrize("alpha, beta", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)])
    def test_scales_must_be_finite(self, alpha, beta):
        with pytest.raises(DomainError, match="positive and finite"):
            frullani(lambda x: math.exp(-x), 1.0, 0.0, alpha, beta)


class TestLemma2:
    def test_exponential_order_three(self):
        # x^2 f'''(x) with f = e^-x integrates to -Gamma(3) = -2.
        rep = lemma2(catalog_get("exp", a=1.0), 3)
        assert rep.rhs == pytest.approx(-2.0, rel=1e-14)
        assert rep.lhs.value == pytest.approx(-2.0, rel=1e-11)
        assert rep.passed

    def test_erf_first_order_is_gaussian(self):
        rep = lemma2(catalog_get("erf"), 1)
        assert rep.rhs == pytest.approx(1.0, rel=1e-15)
        assert rep.lhs.value == pytest.approx(1.0, rel=1e-11)
        assert rep.passed

    def test_laguerre_weight_vanishes(self):
        rep = lemma2(catalog_get("laguerre_weight", n=4.0), 4)
        assert rep.rhs == 0.0
        assert abs(rep.lhs.value) <= 1e-9
        assert rep.passed

    def test_unavailable_derivative(self):
        with pytest.raises(DerivativeUnavailable):
            lemma2(catalog_get("harmonic_shifted"), 7)

    @pytest.mark.parametrize("n", [1.5, math.nan, math.inf])
    def test_non_integral_order_is_a_domain_error(self, n):
        with pytest.raises(DomainError, match=r"^lemma2: n must be a positive integer$"):
            lemma2(catalog_get("exp"), n)

    @pytest.mark.parametrize("a,n,exact", [
        (1.0, 150, math.gamma(150.0)),
        (0.01, 100, math.gamma(100.0)),
    ])
    def test_high_order_where_the_power_alone_overflows(self, a, n, exact):
        # x^(n-1) leaves the double range near x = 117 (n = 150) and
        # x = 1230 (n = 100), where its product with f^(n) is finite.
        rep = lemma2(catalog_get("exp", a=a), n)
        assert rep.rhs == exact
        assert rep.lhs.converged
        assert rep.rel_discrepancy <= 1e-8
        assert rep.passed

    def test_closed_form_comes_before_quadrature(self):
        # Gamma(200) is beyond the double range: refused at once, before
        # any quadrature of f^(200) runs into non-finite values.
        with pytest.raises(OverflowError, match=r"^gamma: Gamma\(200\.0\) exceeds double range$"):
            lemma2(catalog_get("exp"), 200)

    def test_underflowing_derivative_reports_not_converged(self):
        # Near the integrand's peak (x ~ 14,900) f^(150) underflows to 0
        # while x^149 overflows; the Mellin integrand counts such points as
        # 0, so the check ends unconverged instead of raising.  The identity
        # holds here, so this pins a known limitation, not a correct answer.
        rep = lemma2(catalog_get("exp", a=0.01), 150)
        assert rep.rhs == math.gamma(150.0)
        assert rep.lhs.converged is False
        assert rep.warnings == ("quadrature did not converge; best-effort value used",)
        assert not rep.passed

    def test_non_finite_head_derivative_is_a_singularity(self):
        # Routed through integrate_mellin, a non-finite f^(n) on (0, 1] is
        # refused at once rather than retried by bisection.
        pair = replace(
            catalog_get("exp"),
            derivative=lambda order, x: math.inf if x < 0.25 else -math.exp(-x),
        )
        with pytest.raises(SingularityError, match="head interval"):
            lemma2(pair, 1)

    def test_derivative_noise_routes_the_left_side(self):
        # A pair whose derivatives carry noise (finite differences) gives
        # lemma2 derivative_with_noise, which it integrates with
        # smooth=False: the errors join the double-exponential floor.
        pair = catalog_get("exp", a=0.7)

        def noisy(order, x):
            return pair.derivative(order, x), 1e-9 * pair.derivative(order, x)

        routes = {
            None: integrate_mellin(lambda x: pair.derivative(2, x), 2.0),
            noisy: integrate_mellin(lambda x: noisy(2, x), 2.0, smooth=False),
        }
        assert routes[None].value == routes[noisy].value
        assert routes[None].error_estimate < routes[noisy].error_estimate
        for derivative_with_noise, expected in routes.items():
            noisy_pair = replace(pair, derivative_with_noise=derivative_with_noise)
            assert lemma2(noisy_pair, 2).lhs == expected

    @pytest.mark.parametrize("id_,params", [("exp", {"a": 1.0}), ("power", {"m": 8.0})])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_analytic_sweep(self, id_, params, n):
        rep = lemma2(catalog_get(id_, **params), n)
        assert rep.rel_discrepancy <= 1e-8
        assert rep.passed


class TestRmt:
    def test_euler_scaled(self):
        rep = rmt(catalog_get("exp", a=2.0), 3.0)
        assert rep.rhs == pytest.approx(0.25, rel=1e-14)
        assert rep.passed
        assert rep.identity == "rmt (integer order)"

    def test_beta_case(self):
        rep = rmt(catalog_get("power", m=5.0), 2.0)
        assert rep.rhs == pytest.approx(1.0 / 12.0, rel=1e-13)
        assert rep.passed

    def test_non_finite_right_side_is_refused_before_quadrature(self, monkeypatch):
        # Gamma(170.5) ~ 1e306 times phi(-170.5) = 0.1^-170.5 overflows.
        monkeypatch.setattr(transforms, "integrate_mellin", None)
        with pytest.raises(PoleError, match=r"^rmt: Gamma\(s\) phi\(-s\) is non-finite at s=170.5$"):
            rmt(catalog_get("exp", a=0.1), 170.5)

    def test_harmonic_against_brute_force(self):
        rep = rmt(catalog_get("harmonic_shifted"), 0.5)
        oracle = harmonic_half_integral()
        assert oracle == pytest.approx(2.0 * SQRT_PI, rel=1e-13)
        assert rep.rhs == pytest.approx(oracle, rel=1e-13)
        assert rep.lhs.value == pytest.approx(oracle, rel=1e-7)
        assert rep.identity == "rmt (real order)"

    @pytest.mark.parametrize("s", [0.5, 1.5, 2.5, 3.7])
    def test_gamma_values(self, s):
        rep = rmt(catalog_get("exp", a=1.0), s)
        assert rep.rhs == pytest.approx(specfun.gamma(s), rel=1e-14)
        assert rep.rel_discrepancy <= 1e-8

    def test_rejects_nonstandard_pairs(self):
        with pytest.raises(NonstandardPair):
            rmt(catalog_get("erf"), 1.0)
        with pytest.raises(NonstandardPair):
            rmt(catalog_get("laguerre_weight", n=2.0), 1.0)

    def test_coefficient_pole_detected(self):
        # phi(-3) = Gamma(m-3)/Gamma(m) hits the Gamma pole for m = 2.
        with pytest.raises(PoleError):
            rmt(catalog_get("power", m=2.0), 3.0)
        # phi(-s) = 1/(1-s) is refused within specfun's pole radius, 1e-12,
        # of s = 1, as the Gamma poles are, not only at s = 1 exactly.
        for s in (1.0000000000001, 0.9999999999999):
            with pytest.raises(PoleError, match="phi has a pole at k=-1"):
                rmt(catalog_get("harmonic_shifted"), s)

    def test_domain(self):
        with pytest.raises(DomainError):
            rmt(catalog_get("exp", a=1.0), -0.5)

    @pytest.mark.parametrize("s", [150.0, 171.5])
    def test_exponent_whose_power_alone_overflows(self, s):
        # x^(s-1) overflows near x = 512 although x^(s-1) e^-x stays finite.
        rep = rmt(catalog_get("exp", a=1.0), s)
        assert rep.lhs.converged
        assert rep.passed
        assert rep.rhs == pytest.approx(specfun.gamma(s), rel=1e-14)

    @pytest.mark.parametrize("id_,params,orders", [
        ("exp", {"a": 1.0}, (1, 2, 3, 4)),
        ("power", {"m": 8.0}, (1, 2, 3, 4)),
        ("harmonic_shifted", {}, (1, 2, 3, 4, 5, 6)),
    ])
    def test_agreement_with_lemma2_route(self, id_, params, orders):
        """Shifting by n and applying the master theorem at s = n must give
        (-1)^n times the weighted-derivative integral of the original pair.
        Both left sides are the Mellin integral of (+/-) f^(n) at s = n, so
        they agree exactly: value up to sign, error, evaluations, verdict."""
        pair = catalog_get(id_, **params)
        for n in orders:
            via_rmt = rmt(shift_sequence(pair, n), float(n))
            via_derivative = lemma2(pair, n).lhs
            sign = 1.0 if n % 2 == 0 else -1.0
            assert abs(via_rmt.rhs - sign * via_derivative.value) <= 1e-8 * max(
                1.0, abs(via_rmt.rhs)
            )
            assert via_rmt.lhs.value == sign * via_derivative.value
            assert via_rmt.lhs.error_estimate == via_derivative.error_estimate
            assert via_rmt.lhs.evaluations == via_derivative.evaluations
            assert via_rmt.lhs.converged is via_derivative.converged


class TestHardy:
    def test_half(self):
        rep = hardy(catalog_get("geometric"), 0.5)
        assert rep.rhs == pytest.approx(math.pi, rel=1e-15)
        assert rep.rel_discrepancy <= 1e-8
        assert rep.passed

    def test_quarter_against_brute_force(self):
        rep = hardy(catalog_get("geometric"), 0.25)
        oracle = hardy_quarter_integral()
        assert oracle == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-12)
        assert rep.rhs == pytest.approx(4.442882938158366, rel=1e-14)
        assert rep.lhs.value == pytest.approx(oracle, rel=1e-9)

    def test_integer_exponent_is_a_pole(self):
        with pytest.raises(PoleError):
            hardy(catalog_get("geometric"), 1.0)

    def test_exponent_outside_strip(self):
        with pytest.raises(DomainError):
            hardy(catalog_get("geometric"), 1.5)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_exponent_is_domain_error(self, s):
        with pytest.raises(DomainError, match="reflection_factor"):
            hardy(catalog_get("geometric"), s)

    def test_requires_plain_presentation(self):
        with pytest.raises(PresentationError):
            hardy(catalog_get("exp", a=1.0), 0.5)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_reflection_consistency_with_gamma_product(self, s):
        rep = hardy(catalog_get("geometric"), s)
        product = specfun.gamma(s) * specfun.gamma(1.0 - s)
        assert abs(rep.rhs - product) <= 1e-11 * abs(product)


class TestPartialFractionSum:
    def test_unit_exponent_equals_unit_interval_integral(self):
        # sum (-1)^k / (k!(1+k)) telescopes to 1 - 1/e.
        pair = catalog_get("exp", a=1.0)
        value = partial_fraction_sum(pair, 1.0, 40)
        assert value == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)

    def test_single_term_far_from_poles(self):
        pair = catalog_get("exp", a=1.0)
        value = partial_fraction_sum(pair, 1e6, 0)
        assert value == pytest.approx(pair.phi(0.0) / 1e6, rel=1e-12)

    def test_half_exponent_converges_to_head_integral(self):
        pair = catalog_get("exp", a=1.0)
        value = partial_fraction_sum(pair, 0.5, 60)
        assert value == pytest.approx(PF_LIMIT_EXP[0.5], abs=1e-14)

    def test_pole_proximity(self):
        pair = catalog_get("exp", a=1.0)
        with pytest.raises(PoleError):
            partial_fraction_sum(pair, -2.0 + 1e-11, 5)

    def test_nan_exponent_rejected(self):
        # A NaN s is near no pole, and its sum would be a silent NaN.
        with pytest.raises(DomainError, match=r"^partial_fraction_sum: s must be a number"):
            partial_fraction_sum(catalog_get("exp", a=1.0), math.nan, 5)

    @pytest.mark.parametrize("terms", [1.5, 2.0, math.nan])
    def test_non_integral_term_count(self, terms):
        pair = catalog_get("exp")
        if float(terms).is_integer():
            expected = partial_fraction_sum(pair, 0.5, 2)
            assert partial_fraction_sum(pair, 0.5, terms) == expected
            return
        with pytest.raises(DomainError, match=r"^partial_fraction_sum: terms must be >= 0$"):
            partial_fraction_sum(pair, 0.5, terms)

    @pytest.mark.parametrize("s", [0.5, 1.5, 2.5])
    def test_truncation_error_decreases_exp(self, s):
        """The truncated sum converges monotonically to the unit-interval
        Mellin integral (its true limit; the full transform differs by the
        entire tail over [1, inf))."""
        pair = catalog_get("exp", a=1.0)
        limit = PF_LIMIT_EXP[s]
        errors = [abs(partial_fraction_sum(pair, s, K) - limit) for K in (10, 20, 40)]
        assert errors[0] > errors[1] > errors[2] or errors[2] < 1e-15
        assert errors[2] <= 1e-12

    @pytest.mark.parametrize("s", [0.5, 1.5])
    def test_truncation_error_decreases_harmonic(self, s):
        pair = catalog_get("harmonic_shifted")
        limit = PF_LIMIT_HARMONIC[s]
        errors = [abs(partial_fraction_sum(pair, s, K) - limit) for K in (10, 20, 40)]
        assert errors[0] > errors[2] or errors[2] < 1e-15
        assert errors[2] <= 1e-12


class TestResidueCheck:
    @pytest.mark.parametrize("m,expected", [(0, 1.0), (1, -1.0), (2, 0.5)])
    def test_unit_coefficients(self, m, expected):
        pair = catalog_get("exp", a=1.0)
        left, right = residue_check(pair, m, 1e-4)
        assert right == pytest.approx(expected, rel=1e-13)
        assert abs(left - right) <= 1e-3

    def test_power_pair_residue(self):
        # phi(2) = Gamma(5)/Gamma(3) = 12, so the residue at -2 is 12/2! = 6.
        pair = catalog_get("power", m=3.0)
        left, right = residue_check(pair, 2, 1e-4)
        assert right == pytest.approx(6.0, rel=1e-12)
        assert abs(left - right) <= 1e-3

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_two_sided_average_converges_quadratically(self, m):
        pair = catalog_get("exp", a=1.0)
        coarse = abs(residue_check(pair, m, 1e-3)[0] - residue_check(pair, m, 1e-3)[1])
        fine = abs(residue_check(pair, m, 1e-4)[0] - residue_check(pair, m, 1e-4)[1])
        assert fine <= coarse / 5.0

    def test_eps_domain(self):
        pair = catalog_get("exp", a=1.0)
        with pytest.raises(DomainError):
            residue_check(pair, 0, 0.5)

    def test_a_singular_phi_is_a_pole_error(self):
        # phi has a pole of its own at k = 2, +inf there: the residue is not finite.
        pair = replace(catalog_get("exp"), phi=lambda k: math.inf if k == 2.0 else 1.0 / (k - 2.0))
        with pytest.raises(PoleError, match=r"^residue_check: phi contributes its own "
                           r"singularity near m=2$"):
            residue_check(pair, 2, 1e-4)

    @pytest.mark.parametrize("m", [1.5, math.nan, math.inf])
    def test_non_integral_index_is_a_domain_error(self, m):
        with pytest.raises(
            DomainError, match=r"^residue_check: m must be a non-negative integer$"
        ):
            residue_check(catalog_get("exp"), m, 1e-4)


class TestNthDerivativeFd:
    def test_cubic(self):
        value, estimate = nth_derivative_fd(lambda x: x**3, 2.0, 3, 0.05)
        assert value == pytest.approx(6.0, abs=1e-6)
        assert estimate >= 0.0

    def test_exponential_second_derivative(self):
        value = nth_derivative_fd(lambda x: math.exp(-x), 1.0, 2, 0.01).value
        assert value == pytest.approx(math.exp(-1.0), abs=1e-7)

    def test_erf_second_derivative_matches_rodrigues(self):
        closed = (
            -(2.0 / math.sqrt(math.pi))
            * specfun.hermite(1, 0.5)
            * math.exp(-0.25)
        )
        value = nth_derivative_fd(specfun.erf, 0.5, 2, 0.01).value
        assert value == pytest.approx(closed, abs=1e-7)

    def test_order_domain(self):
        with pytest.raises(DomainError):
            nth_derivative_fd(math.sin, 0.0, 7, 0.1)
        with pytest.raises(DomainError):
            nth_derivative_fd(math.sin, 0.0, 2, 0.0)
        with pytest.raises(DomainError, match="nth_derivative_fd: h must be finite"):
            nth_derivative_fd(math.sin, 0.0, 2, math.inf)

    @pytest.mark.parametrize("n", [1.5, 2.0, math.nan])
    def test_non_integral_order(self, n):
        if float(n).is_integer():
            expected = nth_derivative_fd(math.exp, 0.5, 2, 1e-3)
            assert nth_derivative_fd(math.exp, 0.5, n, 1e-3) == expected
            return
        message = rf"^nth_derivative_fd: n must be in 1\.\.6, got {n}$"
        with pytest.raises(DomainError, match=message):
            nth_derivative_fd(math.exp, 0.5, n, 1e-3)


    @pytest.mark.parametrize("n,h", [(6, 1e-80), (4, 1e-100), (2, 2e-162), (1, 5e-324)])
    def test_underflowing_step_is_domain_error(self, n, h):
        # (2e-162)^2 is a subnormal but its half's square is 0; so is
        # (5e-324 / 2)^1.
        message = rf"^nth_derivative_fd: step h=\S+ is too small: h\*\*{n} underflows to 0$"
        with pytest.raises(DomainError, match=message):
            nth_derivative_fd(math.exp, 0.5, n, h)

    @pytest.mark.parametrize("n,h", [(6, 1e300), (2, 1e200), (3, 1e103)])
    def test_overflowing_step_is_domain_error(self, n, h):
        message = rf"^nth_derivative_fd: step h=\S+ is too large: h\*\*{n} overflows$"
        with pytest.raises(DomainError, match=message):
            nth_derivative_fd(math.sin, 0.5, n, h)

    def test_matches_reference_stencil_bit_for_bit(self):
        rng = random.Random(15)
        functions = (math.exp, math.sin, specfun.erf, lambda t: 1.0 / (1.0 + t * t))
        for n in range(1, FD_MAX_ORDER + 1):
            for h in (0.3, 0.05, 0.01, 1e-3, rng.uniform(1e-4, 0.5)):
                for f in functions:
                    for x in (0.0, 0.5, rng.uniform(-3.0, 3.0), rng.uniform(0.0, 60.0)):
                        got = nth_derivative_fd(f, x, n, h)
                        want = reference_nth_derivative_fd(f, x, n, h)
                        assert (got.value.hex(), got.error_estimate.hex()) == (
                            want[0].hex(), want[1].hex()), (n, h, x)


def _assert_honest(report, want):
    assert report.lhs.converged
    assert abs(exact.MP.mpf(report.lhs.value) - want) <= report.lhs.error_estimate


class TestAlgebraicEnds:
    """Identities whose integrands decay algebraically at infinity or are
    singular at 0, at default tolerance: the left side converges and its
    error estimate covers the true error.  Exact values come from
    ``tests/exact.py`` at 40 digits, never from specfun."""

    @pytest.mark.parametrize("s", [0.5, 0.7, 0.9, 0.95])
    def test_hardy_geometric(self, s):
        _assert_honest(hardy(catalog_get("geometric"), s), exact.mellin_geometric(s))

    def test_rmt_harmonic_shifted(self):
        _assert_honest(rmt(catalog_get("harmonic_shifted"), 0.9),
                       exact.mellin_harmonic_shifted(0.9))

    def test_rmt_power(self):
        _assert_honest(rmt(catalog_get("power", m=3.0), 2.7), exact.mellin_power(2.7, 3.0))

    def test_frullani_square_root_cusp(self):
        # (f(2x) - f(x))/x ~ x^(-1/2) at 0 for f = exp(-sqrt(x)).
        rep = frullani(lambda x: math.exp(-math.sqrt(x)), 1.0, 0.0, 2.0, 1.0)
        _assert_honest(rep, exact.frullani(1, 0, 2.0, 1.0))

    @pytest.mark.parametrize(
        "id_, params",
        [("geometric", {}), ("power", {"m": 1.0}), ("harmonic_shifted", {})],
    )
    def test_rmt_outside_the_strip_is_refused(self, id_, params):
        # x^(1/2) F(x) ~ x^(-1/2) at infinity: the integral diverges, and
        # the finite antilimit of the extrapolation must not be reported.
        rep = rmt(catalog_get(id_, **params), 1.5)
        assert not rep.passed
        assert not rep.lhs.converged


# The honesty sweep: catalog identities inside each strip at the default
# tolerance.  Exact values come from tests/exact.py, never through specfun or
# quadrature.
_SWEEP_PARAMS = {"exp": {"a": 2.0}, "power": {"m": 2.5}, "erf": {}, "geometric": {},
                 "harmonic_shifted": {}}
# Seven interior points of a strip (0, 1), evenly spread.
_UNIT_STRIP = [(2 * j + 1) / 14 for j in range(7)]


def _sweep_cases():
    cases = []

    def add(name, run, want):
        cases.append(pytest.param(run, want, id=name))

    for a in (0.5, 1.0, 3.0):
        for s in (0.1, 0.4, 1.0, 2.5, 5.0, 8.0):
            add(f"rmt-exp-a{a}-s{s}", lambda a=a, s=s: rmt(catalog_get("exp", a=a), s),
                exact.mellin_exp(s, a))
    for m in (0.5, 1.0, 2.5, 5.0):
        for u in _UNIT_STRIP:
            s = m * u
            add(f"rmt-power-m{m}-s{s:.4g}", lambda m=m, s=s: rmt(catalog_get("power", m=m), s),
                exact.mellin_power(s, m))
    for s in _UNIT_STRIP:
        add(f"hardy-geometric-s{s:.4g}", lambda s=s: hardy(catalog_get("geometric"), s),
            exact.mellin_geometric(s))
        add(f"rmt-geometric-s{s:.4g}", lambda s=s: rmt(catalog_get("geometric"), s),
            exact.mellin_geometric(s))
        add(f"rmt-harmonic_shifted-s{s:.4g}",
            lambda s=s: rmt(catalog_get("harmonic_shifted"), s), exact.mellin_harmonic_shifted(s))
    for id_, params in _SWEEP_PARAMS.items():
        pair = catalog_get(id_, **params)
        for alpha, beta in ((2.0, 1.0), (0.5, 3.0), (0.25, 4.0), (3.0, 0.75)):
            add(f"frullani-{id_}-{alpha}-{beta}",
                lambda pair=pair, alpha=alpha, beta=beta: frullani(
                    pair.closed_form, pair.f_at_zero, pair.f_at_infinity, alpha, beta),
                exact.frullani(*exact.LIMITS[id_], alpha, beta))
        for n in range(1, 6):
            add(f"lemma2-{id_}-n{n}", lambda pair=pair, n=n: lemma2(pair, n),
                exact.lemma2(*exact.LIMITS[id_], n))
    return cases


class TestHonestySweep:
    """Every check passes, and a converged left side is within its error
    estimate of the exact value.  Zero-valued identities are left out:
    their two ends cancel, and each end meets a tolerance relative to its
    own value, not to their sum."""

    @pytest.mark.parametrize("run, want", _sweep_cases())
    def test_passes_with_an_honest_estimate(self, run, want):
        report = run()
        assert report.passed
        if report.lhs.converged:
            assert abs(exact.MP.mpf(report.lhs.value) - want) <= report.lhs.error_estimate


# rmt and hardy on geometric converge at the default tolerance with a true
# error above their estimate at these s, both drawn by the benchmark's
# catalog_grid workload (seed 11): 3.53e-11 against 3.01e-11 at the first,
# 1.54e-11 against 8.68e-12 at the second.  The exact value pi/sin(pi*s)
# comes from tests/exact.py, never through specfun or quadrature.
class TestGeometricUnderReport:
    # Near either edge the DE rule's walk goes on beyond its node table in
    # ln x, below it from x^s F(x) and above it from the pair's log form,
    # and certifies; the geometric ends, whose estimate fell short at both
    # points, are not reached.
    @pytest.mark.parametrize("identity", [rmt, hardy], ids=["rmt", "hardy"])
    @pytest.mark.parametrize("s", [0.02053471370448894, 0.9661323334894547])
    def test_converged_estimate_covers_the_true_error(self, identity, s):
        report = identity(catalog_get("geometric"), s)
        if report.lhs.converged:
            assert abs(exact.MP.mpf(report.lhs.value) - exact.mellin_geometric(s)) \
                <= report.lhs.error_estimate


class TestUpperEdgeTail:
    """rmt and hardy pass the pair's log form to integrate_mellin, whose
    walk toward infinity then goes on above the DE node table."""

    TIGHT = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-13)

    @pytest.mark.parametrize("tight", [False, True], ids=["default", "tight"])
    @pytest.mark.parametrize("identity, s, value, error", [
        (rmt, 0.5, "0x1.921fb54442d19p+1", "0x1.3a28c59d54339p-45"),
        (hardy, 0.3, "0x1.f10d6bc8e0e35p+1", "0x1.84527c34efb1ap-45"),
    ], ids=["rmt", "hardy"])
    def test_walk_inside_the_table_keeps_its_bits(self, identity, s, value, error, tight):
        # A walk that ends inside the table makes the same terms with the
        # pair's log form as without it.
        cfg = self.TIGHT if tight else None
        pair = catalog_get("geometric")
        lhs = identity(pair, s, cfg).lhs
        assert (lhs.value.hex(), lhs.error_estimate.hex(), lhs.evaluations) == (value, error, 91)
        assert lhs == integrate_mellin(pair.closed_form, s, cfg)

    @pytest.mark.parametrize("tight, value, error, evaluations", [
        (False, "0x1.9010d897b55f1p+6", "0x1.70868569a60b4p-30", 451),
        (True, "0x1.9010d897afde2p+6", "0x1.75014ff84ecb3p-39", 691),
    ], ids=["default", "tight"])
    def test_pair_without_a_log_form_falls_back_as_before(self, tight, value, error,
                                                          evaluations):
        # An expression pair carries no log form: at s = 0.99 its walk runs
        # off the table and the geometric ends give what they gave before.
        cfg = self.TIGHT if tight else None
        pair = replace(catalog_get("geometric"), log_closed_form=None)
        lhs = rmt(pair, 0.99, cfg).lhs
        assert (lhs.value.hex(), lhs.error_estimate.hex(), lhs.evaluations) == (
            value, error, evaluations)
        assert lhs == integrate_mellin(pair.closed_form, 0.99, cfg)

    @pytest.mark.parametrize("tight", [False, True], ids=["default", "tight"])
    @pytest.mark.parametrize("identity", [rmt, hardy], ids=["rmt", "hardy"])
    def test_log_form_keeps_the_upper_edge_on_the_de_rule(self, identity, tight):
        # 119 evaluations where the geometric ends took 451 and 691, the
        # tight one under-reporting.
        cfg = self.TIGHT if tight else None
        pair = catalog_get("geometric")
        lhs = identity(pair, 0.99, cfg).lhs
        expected = reference_integrate_mellin(pair.closed_form, 0.99, cfg, pair.log_closed_form)
        assert lhs == expected and lhs.converged and lhs.evaluations == 119
        assert abs(exact.MP.mpf(lhs.value) - exact.mellin_geometric(0.99)) <= lhs.error_estimate


class TestIdentityReport:
    def test_discrepancy_definition(self):
        rep = rmt(catalog_get("exp", a=2.0), 3.0)
        assert rep.abs_discrepancy == abs(rep.lhs.value - rep.rhs)
        assert rep.rel_discrepancy == rep.abs_discrepancy / abs(rep.rhs)

    def test_passed_matches_tolerance_rule(self):
        rep = rmt(catalog_get("exp", a=2.0), 3.0, tolerance=1e-15)
        assert rep.passed == (
            rep.abs_discrepancy <= rep.tolerance_used
            or rep.rel_discrepancy <= rep.tolerance_used
        )

    def test_zero_rhs_gives_infinite_relative(self):
        rep = lemma2(catalog_get("laguerre_weight", n=2.0), 2)
        assert rep.rhs == 0.0
        assert math.isinf(rep.rel_discrepancy)

    def test_tolerance_none_uses_default_identity_tol(self):
        assert rmt(catalog_get("exp", a=2.0), 3.0).tolerance_used == DEFAULT_IDENTITY_TOL
        assert rmt(catalog_get("exp", a=2.0), 3.0, tolerance=1e-30).tolerance_used == 1e-30

    @pytest.mark.parametrize("value", [math.nan, 0.0, -1.0, -math.inf])
    def test_positive_tolerance_rejects(self, value):
        with pytest.raises(DomainError, match="--tol must be positive"):
            positive_tolerance(value, "--tol")

    def test_positive_tolerance_rejects_infinity(self):
        with pytest.raises(DomainError, match="--tol must be finite"):
            positive_tolerance(math.inf, "--tol")

    def test_positive_tolerance_returns_value(self):
        assert positive_tolerance(1e-30, "--tol") == 1e-30


class TestScaleReport:
    def test_scales_both_sides_and_retakes_verdict(self):
        raw = lemma2(catalog_get("erf"), 2)
        scaled = scale_report(raw, -0.5)
        assert scaled.lhs.value == -0.5 * raw.lhs.value
        assert scaled.lhs.error_estimate == 0.5 * raw.lhs.error_estimate
        assert scaled.lhs.evaluations == raw.lhs.evaluations
        assert scaled.rhs == -0.5 * raw.rhs
        assert scaled.abs_discrepancy == abs(scaled.lhs.value - scaled.rhs)
        assert scaled.tolerance_used == raw.tolerance_used
        assert scaled.identity == raw.identity

    def test_unit_factor_is_identity(self):
        raw = rmt(catalog_get("exp", a=2.0), 3.0, tolerance=1e-9)
        assert scale_report(raw, 1.0) == raw

    def test_non_convergence_warning_not_repeated(self):
        cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300, max_tail_panels=1)
        raw = lemma2(catalog_get("erf"), 2, cfg)
        assert not raw.lhs.converged
        assert scale_report(raw, 2.0).warnings == raw.warnings
        assert len(raw.warnings) == 1


class TestIdentityTable:
    def test_kinds(self):
        assert list(IDENTITIES) == ["frullani", "lemma2", "rmt", "hardy", "residue"]
        assert {k: v.inputs for k, v in IDENTITIES.items()} == {
            "frullani": ("alpha", "beta"),
            "lemma2": ("n",),
            "rmt": ("s",),
            "hardy": ("s",),
            "residue": ("m", "eps"),
        }

    def test_runners_match_direct_calls(self):
        exp = catalog_get("exp")
        geometric = catalog_get("geometric")
        erf = catalog_get("erf")
        run = {k: v.run for k, v in IDENTITIES.items()}
        assert run["frullani"](exp, None, 1e-9, alpha=2.0, beta=1.0) == frullani(
            exp.closed_form, 1.0, 0.0, 2.0, 1.0, tolerance=1e-9
        )
        assert run["lemma2"](erf, None, 1e-9, n=2.0) == lemma2(erf, 2, tolerance=1e-9)
        assert run["rmt"](exp, None, 1e-9, s=0.5) == rmt(exp, 0.5, tolerance=1e-9)
        assert run["hardy"](geometric, None, 1e-9, s=0.5) == hardy(
            geometric, 0.5, tolerance=1e-9
        )

    @pytest.mark.parametrize(
        "kind,inputs", [("lemma2", {"n": 1.5}), ("residue", {"m": 1.5, "eps": 1e-4})]
    )
    def test_runners_do_not_truncate_a_non_integral_order(self, kind, inputs):
        with pytest.raises(DomainError, match="must be a"):
            IDENTITIES[kind].run(catalog_get("exp"), None, 1e-3, **inputs)

    def test_residue_runner_reports_the_probe(self):
        exp = catalog_get("exp")
        report = IDENTITIES["residue"].run(exp, None, 1e-3, m=1.0, eps=1e-4)
        left, right = residue_check(exp, 1, 1e-4)
        half, _ = residue_check(exp, 1, 1e-4 / 2)
        assert report.identity == "residue"
        assert (report.lhs.value, report.rhs) == (left, right)
        # Twice the change from the eps probe to the eps/2 probe, plus a
        # rounding floor of 4 eps |left|.
        assert report.lhs.error_estimate == 2.0 * abs(left - half) + 4.0 * 2.0**-52 * abs(left)
        assert report.lhs.evaluations == 4
        assert abs(left - exact.residue(exact.phi_exp, 1)) <= report.lhs.error_estimate
        assert report.passed

    @pytest.mark.parametrize("id_,params", [("exp", {"a": 1.0}), ("exp", {"a": 2.0}),
                                            ("power", {"m": 2.5}), ("geometric", {}),
                                            ("harmonic_shifted", {})])
    def test_residue_estimate_covers_the_exact_residue(self, id_, params):
        """The probe's error is c eps^2 + O(eps^4): its estimate, twice the
        change at eps/2, is 3/2 of it, neither short nor loose."""
        pair = catalog_get(id_, **params)
        textbook = getattr(exact, f"phi_{id_}")
        for m in range(4):
            residue = exact.residue(lambda k: textbook(k, **params), m)
            for eps in (1e-2, 1e-3, 1e-4, 1e-5):
                lhs = IDENTITIES["residue"].run(pair, None, None, m=m, eps=eps).lhs
                error = abs(exact.MP.mpf(lhs.value) - residue)
                assert error <= lhs.error_estimate <= 2.0 * error, (m, eps)


# One pair of each construction: every catalog pair, a shifted pair, and an
# expression pair whose closed form calls no gamma (a closed form's own
# specfun calls belong to the left side).
_ROUTE_PARAMS = {"exp": {"a": 1.5}, "power": {"m": 2.5}, "laguerre_weight": {"n": 2}}
_ROUTE_PAIRS = {
    **{id_: lambda id_=id_: catalog_get(id_, **_ROUTE_PARAMS.get(id_, {}))
       for id_ in catalog_ids()},
    "exp shifted by 2": lambda: shift_sequence(catalog_get("exp", a=1.5), 2),
    "expression exp(-a*x)": lambda: cli._expression_pair(Namespace(
        phi="a^k", closed_form="exp(-a*x)", params={"a": 1.5}, f0=None, finf=None,
        fd_derivatives=True, fd_step=None)),
}
_ROUTE_INPUTS = {"frullani": {"alpha": 2.0, "beta": 0.5}, "lemma2": {"n": 2},
                 "rmt": {"s": 0.5}, "hardy": {"s": 0.5}}
# The pairs each identity refuses before either side runs.
_ROUTE_REFUSALS = {
    **{("hardy", label): PresentationError for label in _ROUTE_PAIRS
       if label not in ("geometric", "expression exp(-a*x)")},
    ("rmt", "erf"): NonstandardPair,
    ("rmt", "laguerre_weight"): NonstandardPair,
}


class TestRouteDisjointness:
    """The left side (quadrature of the closed form or its derivative) and
    the right side (the special-function layer on phi) of every identity
    share no code.  While transforms' integrator runs, gamma, the
    reflection factor and the pair's phi are tripwires; outside it, the
    pair's closed form, its derivatives and a second integrator call are.
    residue has no left side and is exempt."""

    def test_every_kind_and_pair_is_covered(self):
        assert set(_ROUTE_INPUTS) == set(IDENTITIES) - {"residue"}
        assert set(catalog_ids()) <= set(_ROUTE_PAIRS)

    @pytest.mark.parametrize("kind,label", [(kind, label) for kind in _ROUTE_INPUTS
                                            for label in _ROUTE_PAIRS])
    def test_sides_share_no_code(self, monkeypatch, kind, label):
        pair = _ROUTE_PAIRS[label]()
        crossings, integrations, running = [], [], []  # running: non-empty inside an integrator

        def wire(name, f, on_left):
            """f, recording and refusing a call on the other side's route."""
            if f is None:
                return None

            def guarded(*args, **kwargs):
                if bool(running) == on_left:
                    crossings.append(name)
                    raise AssertionError(f"{name} called on the {'left' if on_left else 'right'}")
                return f(*args, **kwargs)

            return guarded

        def left_side(name, integrate):
            def run(*args, **kwargs):
                if running:
                    crossings.append(f"nested {name}")
                    raise AssertionError(f"{name} called inside an integrator")
                integrations.append(name)
                running.append(name)
                try:
                    return integrate(*args, **kwargs)
                finally:
                    running.pop()

            return run

        for name in ("integrate_mellin", "integrate_semi_infinite"):
            monkeypatch.setattr(transforms, name, left_side(name, getattr(transforms, name)))
        for name in ("gamma", "reflection_factor"):
            monkeypatch.setattr(specfun, name, wire(f"specfun.{name}", getattr(specfun, name), True))
        pair = replace(pair, **{name: wire(f"pair.{name}", getattr(pair, name), True)
                                for name in ("phi", "phi_plain")},
                       **{name: wire(f"pair.{name}", getattr(pair, name), False)
                          for name in ("closed_form", "derivative", "derivative_with_noise",
                                       "log_closed_form")})
        refusal = _ROUTE_REFUSALS.get((kind, label))
        try:
            report = IDENTITIES[kind].run(pair, None, None, **_ROUTE_INPUTS[kind])
        except RmtError as exc:
            assert type(exc) is refusal, exc
            assert integrations == []
        else:
            assert refusal is None
            assert math.isfinite(report.lhs.value) and math.isfinite(report.rhs)
            integrator = "integrate_semi_infinite" if kind == "frullani" else "integrate_mellin"
            assert integrations == [integrator]
        assert crossings == []
