"""Series pairs: catalog construction, series evaluation, index shifts."""

import dataclasses
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

from rmtkit.errors import (
    DerivativeUnavailable,
    DomainError,
    NonConvergenceError,
    ParamDomainError,
    RadiusError,
    UnknownEntry,
)
from rmtkit import errors, sequences
from rmtkit.sequences import catalog_get, catalog_ids, eval_series, shift_sequence
from rmtkit.transforms import lemma2, nth_derivative_fd

from oracles import reference_laguerre_weight_derivative

# One entry per catalog id.
CATALOG_ENTRIES = [
    ("exp", {}),
    ("power", {"m": 2.5}),
    ("erf", {}),
    ("laguerre_weight", {"n": 3.0}),
    ("geometric", {}),
    ("harmonic_shifted", {}),
]

ALL_ENTRIES = [
    ("exp", {"a": 1.0}),
    ("exp", {"a": 2.0}),
    ("power", {"m": 2.0}),
    ("power", {"m": 5.0}),
    ("erf", {}),
    ("laguerre_weight", {"n": 2.0}),
    ("laguerre_weight", {"n": 4.0}),
    ("geometric", {}),
    ("harmonic_shifted", {}),
]


class TestCatalog:
    def test_ids(self):
        assert catalog_ids() == [
            "erf",
            "exp",
            "geometric",
            "harmonic_shifted",
            "laguerre_weight",
            "power",
        ]

    def test_exp_coefficients(self):
        pair = catalog_get("exp", a=2.0)
        assert pair.phi(3.0) == pytest.approx(8.0, rel=1e-14)
        assert pair.closed_form(0.0) == 1.0

    def test_power_coefficients(self):
        pair = catalog_get("power", m=5.0)
        assert pair.phi(1.0) == pytest.approx(5.0, rel=1e-12)
        assert pair.phi(2.0) == pytest.approx(30.0, rel=1e-12)

    def test_erf_limits_and_flag(self):
        pair = catalog_get("erf")
        assert pair.f_at_infinity == 1.0
        assert pair.f_at_zero == 0.0
        assert pair.nonstandard

    @pytest.mark.parametrize("id_,params", [("erf", {}), ("laguerre_weight", {"n": 2.0})])
    @pytest.mark.parametrize("k", [2.5, -0.5, math.nan, math.inf, -math.inf])
    def test_coefficients_off_the_integers_are_a_domain_error(self, id_, params, k):
        pair = catalog_get(id_, **params)
        with pytest.raises(DomainError) as info:
            pair.phi(k)
        assert type(info.value) is DomainError
        assert str(info.value) == f"catalog '{id_}': coefficients defined at integers only"

    @pytest.mark.parametrize("id_,params", [("erf", {}), ("laguerre_weight", {"n": 2.0})])
    def test_coefficients_near_an_integer_are_that_integer(self, id_, params):
        pair = catalog_get(id_, **params)
        for k in range(6):
            assert pair.phi(k + 1e-10) == pair.phi(k - 1e-10) == pair.phi(float(k))

    def test_geometric_is_plain_presentation(self):
        pair = catalog_get("geometric")
        assert pair.phi_plain is not None
        assert pair.phi_plain(17.0) == 1.0
        assert pair.phi(4.0) == pytest.approx(24.0, rel=1e-13)

    def test_geometric_is_power_at_one_bit_for_bit(self):
        from mpmath import nstr

        geometric = catalog_get("geometric")
        power = catalog_get("power", m=1.0)
        rng = random.Random(11)
        for _ in range(200):
            k = rng.uniform(-0.99, 30.0)
            assert geometric.phi(k) == power.phi(k)
        for k in range(40):
            assert geometric.phi(float(k)) == power.phi(float(k))
            hp = (geometric.phi_highprec(k), power.phi_highprec(k))
            assert nstr(hp[0], 45) == nstr(hp[1], 45)
        for _ in range(200):
            order, x = rng.randint(0, 100), rng.uniform(0.0, 50.0)
            assert geometric.derivative(order, x) == power.derivative(order, x)
        assert power.phi_plain is None and geometric.phi_plain(2.5) == 1.0

    def test_highprec_geometric_is_factorial(self):
        # The 40-digit rising factorial at m = 1 is k! at the same precision,
        # to all 45 digits shown.
        from mpmath import nstr

        mp = sequences._mp()
        pair = catalog_get("geometric")
        for k in range(101):
            assert nstr(pair.phi_highprec(k), 45) == nstr(mp.factorial(k), 45)

    def test_power_pair_with_overflowing_gamma_builds(self):
        # Gamma(200) overflows a double; the coefficients are only needed
        # once an operation asks for them.
        pair = catalog_get("power", m=200.0)
        assert pair.closed_form(1.0) == 2.0 ** -200.0

    def test_nonstandard_is_read_off_phi_at_zero(self):
        pair = catalog_get("exp")
        assert not pair.nonstandard
        zeroed = dataclasses.replace(pair, phi=lambda k: 0.0 if k == 0.0 else 1.0)
        assert zeroed.nonstandard
        assert "nonstandard" not in {f.name for f in dataclasses.fields(pair)}

    def test_unknown_entry(self):
        with pytest.raises(UnknownEntry):
            catalog_get("zeta")

    @pytest.mark.parametrize(
        "id_,params",
        [
            ("exp", {"a": -1.0}),
            ("power", {"m": 0.0}),
            ("laguerre_weight", {"n": 0.0}),
            ("laguerre_weight", {"n": 2.5}),
            ("power", {}),
            ("erf", {"a": 1.0}),
            ("exp", {"a": math.inf}),
            ("power", {"m": math.inf}),
            ("laguerre_weight", {"n": math.nan}),
            ("laguerre_weight", {"n": math.inf}),
            # Ints beyond the double range: the catalog's error, not float()'s.
            ("exp", {"a": 10**400}),
            ("power", {"m": 10**400}),
            ("laguerre_weight", {"n": 10**400}),
        ],
    )
    def test_param_domain(self, id_, params):
        with pytest.raises(ParamDomainError):
            catalog_get(id_, **params)

    @pytest.mark.parametrize("id_,params", ALL_ENTRIES)
    def test_construction_invariants(self, id_, params):
        pair = catalog_get(id_, **params)
        # phi(0) = F(0) unless the pair is flagged nonstandard.
        if not pair.nonstandard:
            assert pair.phi(0.0) == pytest.approx(pair.f_at_zero, abs=1e-12)
        else:
            assert pair.phi(0.0) == 0.0
        assert pair.closed_form(0.0) == pytest.approx(pair.f_at_zero, abs=1e-12)

    @pytest.mark.parametrize("id_,params", ALL_ENTRIES)
    def test_highprec_coefficients_match_doubles(self, id_, params):
        pair = catalog_get(id_, **params)
        for k in range(0, 16):
            hp = float(pair.phi_highprec(k))
            assert hp == pytest.approx(pair.phi(float(k)), rel=1e-13, abs=1e-300)


def _fresh_output(code: str) -> list[str]:
    """The words ``code`` prints, run in a fresh interpreter on this tree's src."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout.split()


class TestEvalSeries:
    def test_mpmath_loaded_only_by_eval_series(self):
        """Importing the package and its CLI leaves mpmath unloaded; the
        first series evaluation loads it."""
        code = (
            "import sys\n"
            "import rmtkit, rmtkit.cli\n"
            "print('mpmath' in sys.modules)\n"
            "rmtkit.eval_series(rmtkit.catalog_get('power', m=2.0), 0.5, 200)\n"
            "print('mpmath' in sys.modules)\n"
        )
        assert _fresh_output(code) == ["False", "True"]

    def test_expr_loaded_only_by_expression_use(self):
        """Importing the package leaves rmtkit.expr unloaded, a catalog
        identity too; the first access to parse loads it."""
        code = (
            "import sys\n"
            "import rmtkit\n"
            "rmtkit.rmt(rmtkit.catalog_get('exp', a=2.0), 3.0)\n"
            "print('rmtkit.expr' in sys.modules)\n"
            "print(rmtkit.parse('x') == rmtkit.expr.Variable('x'))\n"
            "print('rmtkit.expr' in sys.modules)\n"
        )
        assert _fresh_output(code) == ["False", "True", "True"]

    def test_single_term_at_zero(self):
        pair = catalog_get("exp", a=1.0)
        assert eval_series(pair, 0.0, 10) == (1.0, 0.0)

    def test_exponential_at_one(self):
        pair = catalog_get("exp", a=1.0)
        value, bound = eval_series(pair, 1.0, 50)
        assert value == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert 0.0 < bound < 1e-16

    def test_geometric_at_half(self):
        pair = catalog_get("geometric")
        value, _ = eval_series(pair, 0.5, 80)
        assert value == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_radius_violation(self):
        pair = catalog_get("geometric")
        with pytest.raises(RadiusError):
            eval_series(pair, 1.0, 100)
        with pytest.raises(RadiusError):
            eval_series(pair, 1.2, 100)

    def test_term_budget_exhaustion(self):
        pair = catalog_get("exp", a=1.0)
        with pytest.raises(NonConvergenceError):
            eval_series(pair, 1.0, 3)

    @pytest.mark.parametrize("max_terms", [1.5, math.nan, math.inf])
    def test_non_integral_term_budget_rejected(self, max_terms):
        with pytest.raises(DomainError, match=r"^eval_series: max_terms must be >= 1$"):
            eval_series(catalog_get("exp"), 0.5, max_terms)

    def test_nan_argument_rejected_before_any_term(self):
        # Not x >= 0: refused up front, not after max_terms iterations as a
        # stopping rule that never fired.
        with pytest.raises(DomainError, match=r"^eval_series: requires x >= 0, got nan$"):
            eval_series(catalog_get("exp"), math.nan, 50)

    def test_integral_float_term_budget_is_an_int(self):
        # 2.0 runs as 2: the same budget spent, the same message.
        pair = catalog_get("exp")
        with pytest.raises(NonConvergenceError, match=r"within 2 terms$"):
            eval_series(pair, 0.5, 2.0)
        assert eval_series(pair, 0.5, 40.0) == eval_series(pair, 0.5, 40)

    @pytest.mark.parametrize("id_,params", ALL_ENTRIES)
    def test_series_matches_closed_form(self, id_, params):
        """50 seeded points in [0, 0.9 min(radius, 5)]; the discrepancy is
        bounded by ten truncation bounds plus 1e-12."""
        pair = catalog_get(id_, **params)
        rng = random.Random(42)
        hi = 0.9 * min(pair.convergence_radius, 5.0)
        for _ in range(50):
            x = rng.uniform(0.0, hi)
            value, bound = eval_series(pair, x, 3000)
            assert abs(value - pair.closed_form(x)) <= 10.0 * bound + 1e-12


class TestShift:
    def test_shift_carries_the_noisy_derivative_over_shifted(self):
        base = catalog_get("exp")
        pair = dataclasses.replace(
            base, derivative_with_noise=lambda order, x: (base.derivative(order, x), order * x))
        shifted = shift_sequence(pair, 1)
        # f^(order)(x) of the shifted pair is -f^(order + 1)(x) of the base.
        assert shifted.derivative_with_noise(2, 0.25) == (-base.derivative(3, 0.25), 0.75)
        assert shifted.derivative_with_noise(2, 0.25)[0] == shifted.derivative(2, 0.25)
        with pytest.raises(DerivativeUnavailable, match="exceeds derivative_max=999$"):
            shifted.derivative_with_noise(1000, 0.25)
        assert shift_sequence(base, 1).derivative_with_noise is None

    def test_exp_shift_is_fixed_point(self):
        pair = catalog_get("exp", a=1.0)
        shifted = shift_sequence(pair, 2)
        for k in (0.0, 1.0, 5.0):
            assert shifted.phi(k) == 1.0
        for x in (0.0, 0.5, 3.0):
            assert shifted.closed_form(x) == pytest.approx(math.exp(-x), rel=1e-14)

    def test_exp_scale_chain_rule(self):
        pair = catalog_get("exp", a=2.0)
        shifted = shift_sequence(pair, 1)
        assert shifted.phi(0.0) == pytest.approx(2.0, rel=1e-14)
        assert shifted.phi(3.0) == pytest.approx(16.0, rel=1e-14)
        for x in (0.0, 1.0):
            assert shifted.closed_form(x) == pytest.approx(
                2.0 * math.exp(-2.0 * x), rel=1e-14
            )

    def test_power_shift(self):
        pair = catalog_get("power", m=3.0)
        shifted = shift_sequence(pair, 1)
        # phi becomes Gamma(4+k)/Gamma(3), closed form 3 (1+x)^-4.
        from rmtkit.specfun import gamma

        for k in (0.0, 1.0, 2.0, 5.0):
            assert shifted.phi(k) == pytest.approx(
                gamma(4.0 + k) / gamma(3.0), rel=1e-12
            )
        for x in (0.0, 1.0, 4.0):
            assert shifted.closed_form(x) == pytest.approx(
                3.0 * (1.0 + x) ** -4, rel=1e-13
            )

    @staticmethod
    def _fd_derivative(f, x, k, h=0.02):
        # One extra Richardson level over the library stencil: two O(h^4)
        # evaluations combine to O(h^6), enough for the 1e-7 bound below.
        coarse = nth_derivative_fd(f, x, k, h).value
        fine = nth_derivative_fd(f, x, k, h / 2.0).value
        return (16.0 * fine - coarse) / 15.0

    def test_power_shift_maclaurin_coefficients(self):
        # The shifted closed form's k-th series coefficient must equal
        # phi(n+k) (-1)^k / k!, recovered here by finite differences at 0.
        pair = catalog_get("power", m=3.0)
        shifted = shift_sequence(pair, 1)
        for k in range(0, 6):
            if k == 0:
                coeff = shifted.closed_form(0.0)
            else:
                coeff = self._fd_derivative(shifted.closed_form, 0.0, min(k, 6)) / math.factorial(k)
            expected = pair.phi(1.0 + k) * (-1.0) ** k / math.factorial(k)
            assert coeff == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("id_,params,n", [("exp", {"a": 1.0}, 3), ("power", {"m": 2.0}, 2), ("power", {"m": 4.0}, 3)])
    def test_shift_consistency_series_coefficients(self, id_, params, n):
        """Series coefficients of the shifted pair match phi(n+k)(-1)^k/k!
        within 1e-7 for k <= 4."""
        pair = catalog_get(id_, **params)
        shifted = shift_sequence(pair, n)
        for k in range(0, 5):
            if k == 0:
                coeff = shifted.closed_form(0.0)
            else:
                coeff = self._fd_derivative(shifted.closed_form, 0.0, k) / math.factorial(k)
            expected = pair.phi(float(n + k)) * (-1.0) ** k / math.factorial(k)
            assert abs(coeff - expected) <= 1e-7 * max(1.0, abs(expected))

    @pytest.mark.parametrize("id_,params", [("exp", {"a": 1.0}), ("power", {"m": 9.0}), ("erf", {}), ("geometric", {})])
    def test_double_shift_composes_exactly(self, id_, params):
        pair = catalog_get(id_, **params)
        once = shift_sequence(shift_sequence(pair, 2), 3)
        for k in (0.0, 1.0, 4.0):
            assert once.phi(k) == pair.phi(5.0 + k)

    def test_shift_beyond_derivative_max(self):
        pair = catalog_get("harmonic_shifted")
        with pytest.raises(DerivativeUnavailable):
            shift_sequence(pair, 7)

    @pytest.mark.parametrize("n", [1.5, math.nan, math.inf])
    def test_non_integral_shift_is_a_domain_error(self, n):
        with pytest.raises(DomainError, match=r"^shift_sequence: n must be a positive integer$"):
            shift_sequence(catalog_get("exp"), n)

    @pytest.mark.parametrize("order", [-1, -3, 0.5, math.nan])
    def test_negative_or_non_integral_order_is_a_domain_error(self, order):
        # Order -1 would be the base pair's first derivative, not a value of
        # the shifted pair.
        shifted = shift_sequence(catalog_get("exp"), 2)
        message = rf"^exp\(a=1\) shifted by 2: derivative order {order} is not an integer >= 0$"
        with pytest.raises(DomainError, match=message):
            shifted.derivative(order, 1.0)

    def test_order_above_the_shifted_maximum_names_the_shifted_pair(self):
        shifted = shift_sequence(catalog_get("exp"), 2)
        assert shifted.derivative_max == 998
        message = r"^exp\(a=1\) shifted by 2: derivative order 999 exceeds derivative_max=998$"
        with pytest.raises(DerivativeUnavailable, match=message):
            shifted.derivative(999, 1.0)

    def test_integral_float_shift_is_that_integer(self):
        pair = catalog_get("power", m=3.0)
        by_float, by_int = shift_sequence(pair, 2.0), shift_sequence(pair, 2)
        assert by_float.label == by_int.label
        for k in (0.0, 1.0, 2.5):
            assert by_float.phi(k) == by_int.phi(k)
            assert by_float.closed_form(k) == by_int.closed_form(k)

    def test_shift_updates_nonstandard_flag(self):
        # Shifting erf once lands on its Gaussian derivative, whose leading
        # coefficient no longer vanishes.
        pair = catalog_get("erf")
        shifted = shift_sequence(pair, 1)
        assert not shifted.nonstandard
        assert shifted.f_at_zero == pytest.approx(-2.0 / math.sqrt(math.pi), rel=1e-14)


class TestLogClosedForm:
    """L -> ln F(e^L), which continues the Mellin walk above the node table."""

    PAIRS = [("geometric", {}), ("harmonic_shifted", {})] + [
        ("power", {"m": m}) for m in (0.5, 1.0, 2.5, 4.881, 17.3)]

    @pytest.mark.parametrize("id_, params", PAIRS)
    def test_within_a_few_ulps_of_log_closed_form(self, id_, params):
        # Wherever F(e^L) is a normal double: up to L ~ 709 for the slowly
        # decaying forms, up to ln x ~ 708 / m for power.
        pair = catalog_get(id_, **params)
        rng = random.Random(11)
        reach = 709.0 / max(1.0, params.get("m", 1.0))
        points = [0.0, 1e-300, 1e-8, 0.5, 1.0, 5.999, 6.0, 36.0, 37.0] + [
            rng.uniform(0.0, reach) for _ in range(400)]
        checked = 0
        for L in points:
            F = pair.closed_form(math.exp(L))
            if not F >= sys.float_info.min:
                continue
            want = math.log(F)
            assert abs(pair.log_closed_form(L) - want) <= 4 * math.ulp(want), (L, want)
            checked += 1
        assert checked >= 300

    def test_harmonic_form_stays_finite_up_to_the_grid_top(self):
        # exp(e^L) would overflow from L ~ 6.6 on, and e^L itself from
        # L ~ 709.8; the top of the algebraic DE grid is ln x ~ 1.28e5.
        log_F = catalog_get("harmonic_shifted").log_closed_form
        for L in (5.9, 6.0, 6.6, 709.0, 710.0, 1e4, 0.5 * math.pi * math.sinh(12.0), 1.3e5):
            assert math.isfinite(log_F(L))
        assert log_F(710.0) == -710.0

    def test_geometric_shares_the_power_form_at_m_1(self):
        geometric = catalog_get("geometric").log_closed_form
        power = catalog_get("power", m=1.0).log_closed_form
        assert all(geometric(L) == power(L) for L in (0.0, 0.7, 30.0, 800.0, 1.28e5))

    @pytest.mark.parametrize("id_, params", [("exp", {"a": 2.0}), ("erf", {}),
                                             ("laguerre_weight", {"n": 2.0})])
    def test_other_catalog_pairs_carry_none(self, id_, params):
        assert catalog_get(id_, **params).log_closed_form is None

    def test_shifted_pairs_carry_none_and_expression_pairs_one_unless_refused(self):
        from rmtkit import cli

        assert shift_sequence(catalog_get("power", m=2.5), 1).log_closed_form is None
        assert shift_sequence(catalog_get("harmonic_shifted"), 2).log_closed_form is None
        for closed_form, has_form in (("1/(1+x)", True), ("exp(-x)*cos(x)", False),
                                      ("2^(-x)", False)):
            args = cli._build_argparser().parse_args(
                ["verify", "rmt", "--phi", "1", "--closed-form", closed_form, "--s", "0.5"])
            args.params = {}
            log_F = cli._expression_pair(args).log_closed_form
            assert (log_F is not None) == has_form, closed_form
            if has_form:
                assert log_F(800.0) == -800.0


class TestHarmonicDerivatives:
    def test_derivative_against_finite_differences(self):
        pair = catalog_get("harmonic_shifted")
        for order in (1, 2, 3):
            for x in (0.3, 0.9, 1.5, 4.0):
                fd = nth_derivative_fd(pair.closed_form, x, order, 0.02).value
                assert pair.derivative(order, x) == pytest.approx(
                    fd, rel=1e-6, abs=1e-9
                )

    def test_derivative_against_mpmath(self):
        # (-1)^n integral_0^1 t^n e^(-x t) dt = (-1)^n gamma(n+1, x) / x^(n+1),
        # the lower incomplete gamma function at 40 digits.  Both ranges are
        # met: the positive series from x = 0 and 5e-324 up, the recurrence
        # from x = order + 1 up, with both sides of that one boundary.
        import mpmath

        mp = mpmath.mp.clone()
        mp.dps = 40
        derivative = catalog_get("harmonic_shifted").derivative
        rng = random.Random(23)
        xs = [math.exp(rng.uniform(math.log(1e-6), math.log(50.0))) for _ in range(60)]
        for order in range(1, 7):
            for x in xs + [0.0, 5e-324, 1e-6, 0.5, 0.999, 1.0, order + 0.999, order + 1.0, 50.0]:
                # At x = 0 the integral is 1/(n+1), which gammainc's quotient cannot give.
                want = ((-1) ** order * mp.gammainc(order + 1, 0, x) / mp.mpf(x) ** (order + 1)
                        if x else mp.mpf(-1) ** order / (order + 1))
                got = derivative(order, x)
                assert abs(got - want) <= 2e-15 * abs(want), (order, x)

    def test_closed_form_continuity_at_zero(self):
        pair = catalog_get("harmonic_shifted")
        assert pair.closed_form(0.0) == 1.0
        assert pair.closed_form(1e-12) == pytest.approx(1.0, abs=1e-11)


class TestDerivativeChecksOnce:
    """A catalog derivative checks its order once, in its per-order cache,
    and never per evaluation: a lemma2 check on erf runs errors.integer_in
    for lemma2's own n and for the cache's one miss, however many times
    the quadrature evaluates the Hermite derivative."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_integer_checks_of_one_lemma2_check(self, n):
        pair = catalog_get("erf")
        checks = 0

        def profile(frame, event, arg):
            nonlocal checks
            if event == "call" and frame.f_code is errors.integer_in.__code__:
                checks += 1

        sys.setprofile(profile)
        try:
            rep = lemma2(pair, n)
        finally:
            sys.setprofile(None)
        assert rep.lhs.evaluations > 100
        assert checks <= 2, (n, checks, rep.lhs.evaluations)


class TestDerivativeOrderContract:
    def test_entries_cover_the_catalog(self):
        assert sorted(id_ for id_, _ in CATALOG_ENTRIES) == catalog_ids()

    @pytest.mark.parametrize("id_,params", CATALOG_ENTRIES)
    @pytest.mark.parametrize("order", [2.5, -1, -1.0, math.nan, math.inf, -math.inf])
    def test_non_integral_or_negative_order_is_domain_error(self, id_, params, order):
        pair = catalog_get(id_, **params)
        message = rf"^catalog '{id_}': derivative order \S+ is not an integer >= 0$"
        if id_ == "geometric":  # the power pair at m = 1
            message = message.replace(id_, "power")
        with pytest.raises(DomainError, match=message):
            pair.derivative(order, 2.0)

    @pytest.mark.parametrize("id_,params", CATALOG_ENTRIES)
    def test_order_past_derivative_max_is_unavailable(self, id_, params):
        pair = catalog_get(id_, **params)
        pair.derivative(pair.derivative_max, 2.0)
        for order in (pair.derivative_max + 1, float(pair.derivative_max + 1), 1000 * pair.derivative_max):
            with pytest.raises(
                DerivativeUnavailable, match=f"exceeds derivative_max={pair.derivative_max}$"
            ):
                pair.derivative(order, 2.0)

    @pytest.mark.parametrize("id_,params", CATALOG_ENTRIES)
    def test_integral_float_order_is_that_integer(self, id_, params):
        pair = catalog_get(id_, **params)
        for order in range(min(pair.derivative_max, 6) + 1):
            for x in (0.0, 0.3, 2.0, 7.5):
                assert pair.derivative(float(order), x) == pair.derivative(order, x)

    def test_orders_that_returned_silent_values(self):
        # Each of these returned a complex number or a large finite value.
        with pytest.raises(DomainError):
            catalog_get("exp").derivative(2.5, 2.0)
        with pytest.raises(DerivativeUnavailable):
            catalog_get("harmonic_shifted").derivative(100, 2.0)
        with pytest.raises(DerivativeUnavailable):
            catalog_get("power", m=2.0).derivative(101, 2.0)

    def test_rejected_order_is_not_cached(self):
        pair = catalog_get("exp")
        for _ in range(2):
            with pytest.raises(DomainError):
                pair.derivative(-1, 1.0)
        assert pair.derivative(1, 1.0) == -math.exp(-1.0)

    def test_per_order_constants_are_made_once_and_refusals_not_kept(self):
        made = []
        known = sequences._PerOrder("pair", 3, lambda order: made.append(order) or 2 * order)
        assert (known[2], known[2.0], known[True], known[1]) == (4, 4, 2, 2)
        assert made == [2, 1]
        for order, error in ((4, DerivativeUnavailable), (-1, DomainError), (1.5, DomainError)):
            for _ in range(2):
                with pytest.raises(error):
                    known[order]
        assert dict(known) == {1: 2, 2: 4} and made == [2, 1]


class TestLaguerreWeightDerivativeOracle:
    def test_matches_leibniz_reference_bit_for_bit(self):
        rng = random.Random(15)
        for n in range(1, 51):
            pair = catalog_get("laguerre_weight", n=float(n))
            for order in range(pair.derivative_max + 1):
                for x in (0.0, 1.0, rng.uniform(0.0, 1.0), rng.uniform(0.0, 60.0)):
                    got = pair.derivative(order, x)
                    want = reference_laguerre_weight_derivative(n, order, x)
                    assert got.hex() == want.hex(), (n, order, x)
