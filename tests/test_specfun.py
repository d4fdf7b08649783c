"""Special-function layer: values, poles, and recurrence/reflection laws."""

import math
import random

import mpmath
import pytest

from rmtkit import specfun
from rmtkit.errors import DomainError, PoleError
from rmtkit.transforms import nth_derivative_fd

from oracles import erf_maclaurin, hermite_by_expansion, laguerre_by_expansion

SQRT_PI = 1.7724538509055159


def ulps_off(value: float, exact) -> float:
    """|value - exact| in units of the last place of exact rounded to double;
    exact is an mpmath number."""
    return float(abs(mpmath.mpf(value) - exact)) / math.ulp(float(exact))


class TestGamma:
    def test_factorial_point(self):
        assert specfun.gamma(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_one(self):
        assert specfun.gamma(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_half_is_sqrt_pi(self):
        assert specfun.gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-14)

    def test_reflection_value_negative_half(self):
        # Gamma(-1/2) = -2 sqrt(pi); frozen from a 40-digit evaluation.
        assert specfun.gamma(-0.5) == pytest.approx(-3.544907701811032, rel=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0, -3.0 + 4e-13])
    def test_pole_exclusion(self, x):
        with pytest.raises(PoleError):
            specfun.gamma(x)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            specfun.gamma(172.0)

    def test_minus_infinity_is_domain_error(self):
        with pytest.raises(DomainError, match="gamma"):
            specfun.gamma(-math.inf)

    def test_plus_infinity_is_domain_error(self):
        with pytest.raises(DomainError, match="gamma"):
            specfun.gamma(math.inf)

    def test_recurrence_consistency(self):
        """Gamma(x+1) = x Gamma(x) to 1e-12 relative on 1000 seeded draws."""
        rng = random.Random(20240817)
        for _ in range(1000):
            x = rng.uniform(0.1, 50.0)
            lhs = specfun.gamma(x + 1.0)
            rhs = x * specfun.gamma(x)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_reflection_consistency(self):
        """Gamma(s) Gamma(1-s) sin(pi s)/pi = 1 to 1e-11 on 500 seeded draws."""
        rng = random.Random(987)
        count = 0
        while count < 500:
            s = rng.uniform(-5.0, 5.0)
            if abs(s - round(s)) < 1e-6:
                continue
            count += 1
            product = (
                specfun.gamma(s)
                * specfun.gamma(1.0 - s)
                * specfun._sinpi(s)
                / math.pi
            )
            assert abs(product - 1.0) <= 1e-11

    def test_log_gamma_matches_log_of_gamma(self):
        for x in (0.2, 0.75, 1.0, 3.5, 20.0, 140.0):
            assert specfun.log_gamma(x) == pytest.approx(
                math.log(abs(specfun.gamma(x))), rel=1e-12, abs=1e-12
            )

    def test_log_gamma_domain(self):
        with pytest.raises(DomainError):
            specfun.log_gamma(-1.0)

    @pytest.mark.parametrize("n", range(1, 24))
    def test_positive_integer_is_exact_factorial(self, n):
        assert specfun.gamma(float(n)) == math.factorial(n - 1)

    @pytest.mark.parametrize("lo,hi", [(0.0, 170.0), (-30.0, 0.0)])
    def test_within_8_ulp_of_40_digit_reference(self, lo, hi):
        rng = random.Random(20261018)
        worst = 0.0
        with mpmath.workdps(40):
            for _ in range(1000):
                x = rng.uniform(lo, hi)
                if x == 0.0 or (x < 0.0 and abs(x - round(x)) < 1e-6):
                    continue
                worst = max(worst, ulps_off(specfun.gamma(x), mpmath.gamma(x)))
        assert worst <= 8.0

    def test_tiny_value_far_left_is_finite(self):
        # |Gamma(-171.5)| ~ 1.9e-310, a subnormal: the result underflows
        # gracefully instead of overflowing an intermediate.
        value = specfun.gamma(-171.5)
        with mpmath.workdps(40):
            exact = mpmath.gamma(mpmath.mpf(-171.5))
        assert math.isfinite(value)
        assert abs(value - float(exact)) <= 1e-12 * abs(float(exact))

    def test_overflow_message(self):
        with pytest.raises(OverflowError, match=r"gamma: Gamma\(171\.7\) exceeds double range"):
            specfun.gamma(171.7)

    def test_log_gamma_overflow(self):
        # ln Gamma(1e306) ~ 7e308 exceeds the double range: an error, not inf.
        with pytest.raises(OverflowError):
            specfun.log_gamma(1e306)


class TestReflectionFactor:
    def test_half(self):
        assert specfun.reflection_factor(0.5) == pytest.approx(math.pi, rel=1e-15)

    def test_quarter_against_gamma_product(self):
        # pi/sin(pi/4) = pi sqrt(2), cross-checked against Gamma(s)Gamma(1-s).
        value = specfun.reflection_factor(0.25)
        assert value == pytest.approx(4.442882938158366, rel=1e-14)
        product = specfun.gamma(0.25) * specfun.gamma(0.75)
        assert abs(value - product) <= 1e-12 * abs(value)

    @pytest.mark.parametrize("s", [1.0, 0.0, -3.0, 2.0 + 1e-13])
    def test_integer_pole(self, s):
        with pytest.raises(PoleError):
            specfun.reflection_factor(s)

    @pytest.mark.parametrize("s", [math.inf, -math.inf])
    def test_infinite_argument_is_domain_error(self, s):
        with pytest.raises(DomainError, match="reflection_factor"):
            specfun.reflection_factor(s)


class TestErf:
    def test_zero(self):
        assert specfun.erf(0.0) == 0.0

    def test_saturation(self):
        # erf(x) = 1 to within 1e-16 once x >= 40 (erfc underflows).
        assert abs(specfun.erf(40.0) - 1.0) <= 1e-16
        assert abs(specfun.erf(1e6) - 1.0) <= 1e-16

    def test_infinity(self):
        assert specfun.erf(math.inf) == 1.0
        assert specfun.erf(-math.inf) == -1.0

    def test_value_at_one_against_series_oracle(self):
        assert specfun.erf(1.0) == pytest.approx(erf_maclaurin(1.0, 30), abs=1e-14)

    # Frozen from 40-digit evaluations, spanning both algorithm branches.
    @pytest.mark.parametrize(
        "x,expected",
        [
            (0.1, 0.1124629160182849),
            (0.5, 0.5204998778130465),
            (1.0, 0.8427007929497149),
            (1.5, 0.9661051464753108),
            (2.0, 0.9953222650189527),
            (2.5, 0.999593047982555),
            (2.9, 0.9999589021219005),
            (3.0, 0.9999779095030014),
            (3.1, 0.9999883513426328),
            (3.5, 0.9999992569016276),
            (4.0, 0.9999999845827421),
            (5.0, 0.9999999999984626),
            (6.0, 1.0),
        ],
    )
    def test_reference_grid(self, x, expected):
        assert specfun.erf(x) == pytest.approx(expected, abs=1e-14)

    def test_odd_bit_for_bit(self):
        for x in [0.0, 1e-12, 0.3, 1.0, 2.999, 3.0, 3.001, 7.5, 40.0]:
            assert specfun.erf(-x) == -specfun.erf(x)

    def test_negative_zero_keeps_its_sign(self):
        assert math.copysign(1.0, specfun.erf(-0.0)) == -1.0

    def test_within_2_ulp_of_40_digit_reference(self):
        rng = random.Random(20261018)
        worst = 0.0
        with mpmath.workdps(40):
            for _ in range(2000):
                x = rng.uniform(-6.0, 6.0)
                worst = max(worst, ulps_off(specfun.erf(x), mpmath.erf(x)))
        assert worst <= 2.0

    def test_monotone_and_bounded(self):
        prev = -1.0
        for i in range(201):
            x = -5.0 + 0.05 * i
            v = specfun.erf(x)
            assert -1.0 < v < 1.0 or abs(v) == 1.0 and abs(x) > 5
            assert v >= prev
            prev = v


class TestHermite:
    def test_degree_zero_is_one(self):
        assert specfun.hermite(0, 3.7) == 1.0

    def test_degree_one(self):
        assert specfun.hermite(1, 2.0) == 4.0

    def test_h3_at_one(self):
        # 8x^3 - 12x at x=1, expanded by hand.
        assert specfun.hermite(3, 1.0) == -4.0

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_matches_expansion(self, n):
        for x in (-2.0, -0.5, 0.0, 0.7, 1.9):
            assert specfun.hermite(n, x) == pytest.approx(
                hermite_by_expansion(n, x), rel=1e-13, abs=1e-13
            )

    @pytest.mark.parametrize("n", [-1, 61])
    def test_degree_domain(self, n):
        with pytest.raises(DomainError):
            specfun.hermite(n, 0.0)


class TestLaguerre:
    def test_degree_zero_is_one(self):
        assert specfun.laguerre(0, 5.0) == 1.0

    def test_degree_one(self):
        assert specfun.laguerre(1, 2.0) == -1.0

    def test_l2_at_one(self):
        # (x^2 - 4x + 2)/2 at x=1, expanded by hand.
        assert specfun.laguerre(2, 1.0) == -0.5

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_matches_expansion(self, n):
        for x in (0.0, 0.5, 1.3, 4.2):
            assert specfun.laguerre(n, x) == pytest.approx(
                laguerre_by_expansion(n, x), rel=1e-12, abs=1e-13
            )

    @pytest.mark.parametrize("n", [-2, 61])
    def test_degree_domain(self, n):
        with pytest.raises(DomainError):
            specfun.laguerre(n, 0.0)


class TestRodriguesCrossChecks:
    """Finite differences of the weight functions recover the polynomials."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_hermite_from_erf_derivatives(self, n):
        # d^n/dx^n erf = (-1)^(n-1) (2/sqrt(pi)) H_{n-1}(x) e^(-x^2)
        sign = 1.0 if (n - 1) % 2 == 0 else -1.0
        for i in range(100):
            x = -2.5 + 5.0 * i / 99
            fd = nth_derivative_fd(specfun.erf, x, n, 0.02).value
            closed = (
                sign
                * (2.0 / math.sqrt(math.pi))
                * specfun.hermite(n - 1, x)
                * math.exp(-x * x)
            )
            assert abs(fd - closed) <= 1e-5

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_laguerre_from_weight_derivatives(self, n):
        # d^n/dx^n [x^n e^-x] = n! L_n(x) e^-x
        for i in range(50):
            x = 0.5 + 4.5 * i / 49
            fd = nth_derivative_fd(lambda t: t**n * math.exp(-t), x, n, 0.01).value
            closed = math.factorial(n) * specfun.laguerre(n, x) * math.exp(-x)
            assert abs(fd - closed) <= 1e-5 * abs(closed)
