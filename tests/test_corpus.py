"""Built-in case corpus: construction, execution, and bookkeeping."""

import dataclasses
import math

import pytest

from rmtkit import specfun
from rmtkit.corpus import IdentityCase, builtin_cases, run_corpus, scale_tolerances
from rmtkit.errors import DomainError
from rmtkit.quadrature import QuadratureConfig, integrate_semi_infinite
from rmtkit.sequences import catalog_get
from rmtkit.transforms import IDENTITIES, lemma2

SQRT_PI = 1.7724538509055159


class TestBuiltinCases:
    def test_names_unique(self):
        names = [c.name for c in builtin_cases()]
        assert len(names) == len(set(names))

    def test_minimum_roster(self):
        names = {c.name for c in builtin_cases()}
        required = {
            "euler_n3_a2",
            "euler_half",
            "beta_2_3",
            "gaussian",
            "hermite_2",
            "hermite_3",
            "hermite_4",
            "laguerre_zero_2",
            "laguerre_zero_3",
            "laguerre_zero_4",
            "hardy_half",
            "frullani_exp",
            "residue_m0",
            "residue_m1",
            "residue_m2",
            "harmonic_half",
        }
        assert required <= names

    def test_gaussian_exact_value(self):
        case = {c.name: c for c in builtin_cases()}["gaussian"]
        assert case.exact_value == pytest.approx(SQRT_PI / 2.0, rel=1e-15)

    def test_laguerre_exact_zero(self):
        for c in builtin_cases():
            if c.name.startswith("laguerre_zero"):
                assert c.exact_value == 0.0

    def test_euler_case_value(self):
        case = {c.name: c for c in builtin_cases()}["euler_n3_a2"]
        assert case.exact_value == pytest.approx(0.25, rel=1e-14)

    def test_catalog_ids_resolvable(self):
        for c in builtin_cases():
            catalog_get(c.catalog_id, **c.params)


class TestRunCorpus:
    def test_all_cases_pass(self):
        results = run_corpus(builtin_cases())
        failures = [(c.name, r) for c, r in results if not r.passed]
        assert failures == []

    def test_empty_input(self):
        assert run_corpus([]) == []

    def test_order_preserved(self):
        cases = builtin_cases()
        results = run_corpus(cases)
        assert [c.name for c, _ in results] == [c.name for c in cases]

    def test_zero_tolerance_fails_with_nonzero_discrepancy(self):
        # The residue probe's discrepancy is O(eps^2), never 0.
        (case,) = [c for c in builtin_cases() if c.name == "residue_m0"]
        case = dataclasses.replace(case, tolerance=0.0)
        ((_, report),) = run_corpus([case])
        assert not report.passed
        assert report.abs_discrepancy > 0.0

    def test_errors_captured_not_raised(self):
        broken = dataclasses.replace(
            builtin_cases()[0], name="broken", catalog_id="missing"
        )
        ((_, report),) = run_corpus([broken])
        assert not report.passed
        assert any("missing" in w for w in report.warnings)

    def test_exact_value_drift_detected(self):
        wrong = dataclasses.replace(builtin_cases()[0], exact_value=0.3)
        ((_, report),) = run_corpus([wrong])
        assert not report.passed
        assert any("disagrees" in w for w in report.warnings)

    def test_determinism(self):
        cases = builtin_cases()
        first = run_corpus(cases)
        second = run_corpus(cases)
        assert all(r1 == r2 for (_, r1), (_, r2) in zip(first, second))

    @pytest.mark.parametrize("factor", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_scale_must_be_finite_and_positive(self, factor):
        with pytest.raises(DomainError):
            scale_tolerances(builtin_cases(), factor)

    def test_tolerance_monotonicity(self):
        cases = builtin_cases()
        base = run_corpus(cases)
        looser = run_corpus(scale_tolerances(cases, 10.0))
        for (_, tight), (_, loose) in zip(base, looser):
            if tight.passed:
                assert loose.passed


class TestHermiteBookkeeping:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rodrigues_factor_consistency(self, n):
        """The raw erf report equals (-1)^(n-1) (2/sqrt(pi)) times the
        Hermite integral, so the recorded value (sqrt(pi)/2) Gamma(n) is
        recovered after dividing out that factor."""
        raw = lemma2(catalog_get("erf"), n)
        hermite_integral = integrate_semi_infinite(
            lambda x: x ** (n - 1) * specfun.hermite(n - 1, x) * math.exp(-x * x)
        )
        sign = 1.0 if (n - 1) % 2 == 0 else -1.0
        factor = sign * 2.0 / math.sqrt(math.pi)
        assert raw.lhs.value == pytest.approx(
            factor * hermite_integral.value, abs=1e-9
        )
        recovered = raw.lhs.value / factor
        assert recovered == pytest.approx(
            (SQRT_PI / 2.0) * specfun.gamma(float(n)), abs=1e-9
        )

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_corpus_case_carries_positive_value(self, n):
        results = dict(
            (c.name, r) for c, r in run_corpus(builtin_cases())
        )
        report = results[f"hermite_{n}"]
        assert report.rhs == pytest.approx(
            (SQRT_PI / 2.0) * specfun.gamma(float(n)), rel=1e-13
        )
        assert report.lhs.value > 0.0


class TestIdentityTableDispatch:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown case kind"):
            IdentityCase(name="x", kind="bogus", catalog_id="exp")

    def test_case_inputs_named_as_the_table(self):
        inputs = {c.kind: tuple(c.inputs) for c in builtin_cases()}
        assert inputs == {kind: IDENTITIES[kind].inputs for kind in IDENTITIES}

    def test_catalog_param_sharing_an_input_name_stays_a_catalog_param(self):
        # laguerre_weight's catalog parameter n shares lemma2's input name.
        (case,) = [c for c in builtin_cases() if c.name == "laguerre_zero_3"]
        assert case.params == {"n": 3.0}
        ((_, report),) = run_corpus([dataclasses.replace(case, inputs={"n": 2})])
        pair = catalog_get("laguerre_weight", n=3.0)
        assert report == lemma2(pair, 2, tolerance=case.tolerance)
        assert report.lhs != lemma2(pair, 3).lhs

    @pytest.mark.parametrize("inputs", [
        {"m": 1},
        {"m": 1, "eps": 1e-4, "s": 0.5},
        {"m": 1, "width": 1e-4},
    ], ids=["missing", "extra", "misnamed"])
    def test_case_inputs_must_match_table(self, inputs):
        (case,) = [c for c in builtin_cases() if c.name == "residue_m1"]
        with pytest.raises(ValueError, match="residue takes inputs"):
            dataclasses.replace(case, inputs=inputs)

    def test_rescaled_non_converged_report_warns_once(self):
        cases = [c for c in builtin_cases() if c.catalog_id == "erf"]
        cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300, max_tail_panels=1)
        for case, report in run_corpus(cases, cfg):
            assert not report.lhs.converged, case.name
            assert report.warnings == (
                "quadrature did not converge; best-effort value used",
            ), case.name
