"""CLI contract: exit codes, golden output, JSON round-trips."""

import collections
import json
import math
import pathlib
import random
import re
import subprocess
import sys

import mpmath
import pytest
from oracles import reference_cli_main, reference_nth_derivative_fd

from rmtkit.errors import DerivativeUnavailable, DomainError
from rmtkit.transforms import FD_MAX_ORDER

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

# invocation name -> argv; every golden file was produced by the same call
# and the output is pinned byte for byte.
GOLDEN_INVOCATIONS = {
    "verify_rmt_exp.txt": ["verify", "rmt", "--catalog", "exp", "--param", "a=2", "--s", "3"],
    "verify_rmt_exp_json.txt": ["verify", "rmt", "--catalog", "exp", "--param", "a=2", "--s", "3", "--json"],
    "verify_expr_json.txt": ["verify", "rmt", "--phi", "1/(k+1)", "--closed-form", "(1-exp(-x))/x", "--s", "0.5", "--json"],
    "verify_frullani.txt": ["verify", "frullani", "--catalog", "exp", "--alpha", "2", "--beta", "1"],
    "verify_lemma2_erf.txt": ["verify", "lemma2", "--catalog", "erf", "--n", "1"],
    "corpus_laguerre.txt": ["corpus", "--filter", "laguerre"],
    "corpus_euler_json.txt": ["corpus", "--filter", "euler", "--json"],
    "residue_exp_m0.txt": ["residue", "--catalog", "exp", "--m", "0"],
    # Finite-difference derivatives, their rounding noise in the double-exponential floor.
    "verify_lemma2_fd_json.txt": ["verify", "lemma2", "--phi", "a^k", "--closed-form", "exp(-a*x)",
                                  "--param", "a=0.7", "--fd-derivatives", "--n", "2", "--json"],
}

RECORD_KEYS = [
    "command",
    "inputs",
    "lhs_value",
    "lhs_error",
    "rhs_value",
    "discrepancy",
    "passed",
    "evaluations",
    "warnings",
]


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "rmtkit", *argv], capture_output=True, text=True
    )


class TestGoldenOutput:
    @pytest.mark.parametrize("name", sorted(GOLDEN_INVOCATIONS))
    def test_output_matches_golden_file(self, name):
        proc = run_cli(*GOLDEN_INVOCATIONS[name])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN_DIR / name).read_text()

    def test_repeated_runs_identical(self):
        first = run_cli(*GOLDEN_INVOCATIONS["corpus_laguerre.txt"])
        second = run_cli(*GOLDEN_INVOCATIONS["corpus_laguerre.txt"])
        assert first.stdout == second.stdout


# help golden file -> argv.  Each was printed with COLUMNS=80; the comparison
# drops all whitespace, so a Python that wraps a line elsewhere (or breaks it
# at another hyphen) still matches, while a dropped help string, metavar,
# choice or flag does not.
HELP_INVOCATIONS = {
    "help_rmtkit.txt": ["-h"],
    "help_verify.txt": ["verify", "-h"],
    "help_corpus.txt": ["corpus", "-h"],
    "help_residue.txt": ["residue", "-h"],
}


class TestHelpGolden:
    @pytest.mark.parametrize("name", sorted(HELP_INVOCATIONS))
    def test_help_matches_golden_file(self, capsys, monkeypatch, name):
        from rmtkit import cli

        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run_route(capsys, cli.main, HELP_INVOCATIONS[name])
        assert (code, err) == (0, "")
        assert "".join(out.split()) == "".join((GOLDEN_DIR / name).read_text().split())


class TestExitCodes:
    def test_pass_is_zero(self):
        assert run_cli("verify", "rmt", "--catalog", "exp", "--param", "a=2", "--s", "3").returncode == 0

    def test_verification_failure_is_one(self):
        # A nonzero discrepancy (2.8e-17) against an identity tolerance of 1e-30.
        proc = run_cli(
            "verify", "rmt", "--catalog", "exp", "--param", "a=2", "--s", "2.5",
            "--tol", "1e-30",
        )
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout

    def test_panel_budget_beyond_the_double_range_is_a_failure(self):
        # The tail's 1,024th edge would be 2^1024 = inf; the end stops
        # unconverged at 2^1023 and the divergent integral is a FAIL.
        proc = run_cli(
            "verify", "rmt", "--catalog", "geometric", "--s", "1.5", "--max-tail-panels", "1100"
        )
        assert proc.returncode == 1, proc.stderr
        assert "FAIL" in proc.stdout and proc.stderr == ""

    def test_lemma2_on_power_past_gammas_range_passes(self, capsys):
        # Gamma(m + 1) leaves the double range at m = 200; the left side's
        # derivative factor, the product m(m+1)...(m+n-1), does not.
        code, out, _ = run_in_process(
            capsys, "verify", "lemma2", "--catalog", "power", "--param", "m=200", "--n", "1",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["lhs_value"] == pytest.approx(-1.0, rel=1e-13)

    def test_hardy_integer_exponent_is_input_error(self):
        proc = run_cli("verify", "hardy", "--catalog", "geometric", "--s", "1")
        assert proc.returncode == 2
        assert proc.stderr == "error: reflection_factor: sin(pi*s) vanishes near s=1.0\n"
        assert proc.stdout == ""

    def test_missing_exponent_is_input_error(self):
        proc = run_cli("verify", "rmt", "--catalog", "exp")
        assert proc.returncode == 2
        assert "--s" in proc.stderr

    def test_non_finite_tolerance_is_input_error(self):
        proc = run_cli(
            "verify", "rmt", "--catalog", "exp", "--s", "3", "--abs-tol", "nan", "--json"
        )
        assert proc.returncode == 2
        assert "finite" in proc.stderr
        assert proc.stdout == ""

    def test_unknown_catalog_is_input_error(self):
        proc = run_cli("verify", "rmt", "--catalog", "nope", "--s", "1")
        assert proc.returncode == 2

    def test_bad_param_syntax_is_input_error(self):
        proc = run_cli("verify", "rmt", "--catalog", "exp", "--param", "a", "--s", "1")
        assert proc.returncode == 2
        assert "--param" in proc.stderr

    def test_residue_nonstandard_pair_is_input_error(self):
        proc = run_cli("residue", "--catalog", "erf", "--m", "0")
        assert proc.returncode == 2
        assert proc.stderr == "error: catalog 'erf': coefficients defined at integers only\n"

    def test_corpus_all_pass(self):
        assert run_cli("corpus").returncode == 0

    def test_corpus_with_impossible_tolerance_fails(self):
        proc = run_cli("corpus", "--filter", "euler", "--tol-scale", "1e-12")
        assert proc.returncode == 1

    def test_expression_syntax_error_is_input_error(self):
        proc = run_cli(
            "verify", "rmt", "--phi", "1/((k", "--closed-form", "exp(-x)", "--s", "1"
        )
        assert proc.returncode == 2


class TestJsonContract:
    def _records(self, proc):
        return [json.loads(line) for line in proc.stdout.splitlines()]

    def test_round_trip_byte_identical(self):
        proc = run_cli("corpus", "--filter", "euler", "--json")
        for line in proc.stdout.splitlines():
            record = json.loads(line)
            assert json.dumps(record, separators=(",", ":")) == line

    def test_key_order_stable(self):
        proc = run_cli(
            "verify", "rmt", "--catalog", "exp", "--param", "a=2", "--s", "3", "--json"
        )
        (record,) = self._records(proc)
        assert list(record) == RECORD_KEYS

    def test_inputs_are_strings(self):
        proc = run_cli(
            "verify", "rmt", "--catalog", "exp", "--param", "a=2", "--s", "3", "--json"
        )
        (record,) = self._records(proc)
        assert all(isinstance(v, str) for v in record["inputs"].values())

    def test_residue_emits_two_records(self):
        proc = run_cli("residue", "--catalog", "exp", "--m", "1", "--json")
        records = self._records(proc)
        assert len(records) == 2
        assert {r["command"] for r in records} == {"residue"}

    def test_corpus_json_one_record_per_case(self):
        proc = run_cli("corpus", "--json")
        records = self._records(proc)
        assert len(records) == 16
        assert all(r["passed"] is True for r in records)

    def test_non_finite_value_is_null(self, capsys):
        # Declared limits 2e308 apart: the right side, (finf - f0) ln 2, is -inf.
        code, out, err = run_in_process(
            capsys, "verify", "frullani", "--phi", "1", "--closed-form", "exp(-x)",
            "--f0", "1e308", "--finf=-1e308", "--alpha", "2", "--beta", "1", "--json",
        )
        assert (code, err) == (1, "")
        assert '"rhs_value":null,"discrepancy":null,"passed":false' in out
        record = json.loads(out)
        assert (record["rhs_value"], record["discrepancy"]) == (None, None)
        assert record["lhs_value"] == -0.693147180559945


def run_in_process(capsys, *argv: str):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    from rmtkit import cli

    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestInputErrors:
    def test_hardy_nan_exponent_is_input_error(self, capsys):
        code, out, err = run_in_process(
            capsys, "verify", "hardy", "--catalog", "geometric", "--s", "nan"
        )
        assert code == 2
        assert err == "error: reflection_factor: undefined at nan\n"
        assert out == ""

    @pytest.mark.parametrize("s,message", [
        ("inf", "reflection_factor: undefined at inf"),
        ("1.5", "hardy: s must lie in (0, 1) for the integral to converge, got 1.5"),
    ])
    def test_hardy_exponent_error_is_the_library_message(self, capsys, s, message):
        code, out, err = run_in_process(
            capsys, "verify", "hardy", "--catalog", "geometric", "--s", s
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("tol", ["nan", "0", "-1"])
    def test_non_positive_identity_tolerance_is_input_error(self, capsys, tol):
        code, out, err = run_in_process(
            capsys, "verify", "rmt", "--catalog", "exp", "--s", "3", "--tol", tol
        )
        assert code == 2
        assert err == "error: --tol must be positive\n"
        assert out == ""

    @pytest.mark.parametrize("scale", ["nan", "0", "-1"])
    def test_non_positive_tol_scale_is_input_error(self, capsys, scale):
        code, out, err = run_in_process(
            capsys, "corpus", "--filter", "euler", "--tol-scale", scale
        )
        assert code == 2
        assert "--tol-scale" in err and "positive" in err
        assert out == ""

    @pytest.mark.parametrize("abs_tol", ["5e-324", "1e-323"])
    def test_tolerance_that_quarters_to_zero_is_input_error(self, capsys, abs_tol):
        # Semi-infinite panels run at a quarter of the tolerances; that
        # quarter flushes to 0 here.
        code, out, err = run_in_process(
            capsys, "verify", "rmt", "--catalog", "exp", "--s", "2",
            "--abs-tol", abs_tol, "--rel-tol", "0",
        )
        assert (code, out) == (2, "")
        assert err == (f"error: abs_tol={float(abs_tol)!r} and rel_tol=0.0 are too small: "
                       "at least one must stay positive when quartered\n")

    def test_infinite_identity_tolerance_is_input_error(self, capsys):
        code, out, err = run_in_process(
            capsys, "verify", "rmt", "--catalog", "exp", "--s", "3", "--tol", "inf"
        )
        assert code == 2
        assert err == "error: --tol must be finite\n"
        assert out == ""

    def test_infinite_tol_scale_is_input_error(self, capsys):
        code, out, err = run_in_process(
            capsys, "corpus", "--filter", "euler", "--tol-scale", "inf"
        )
        assert code == 2
        assert err == "error: --tol-scale must be finite\n"
        assert out == ""

    def test_filter_matching_nothing_is_input_error(self, capsys):
        code, out, err = run_in_process(capsys, "corpus", "--filter", "no_such_case")
        assert code == 2
        assert "no_such_case" in err
        assert out == ""

    def test_non_positive_frullani_scale_is_input_error(self, capsys):
        code, out, err = run_in_process(
            capsys, "verify", "frullani", "--catalog", "exp", "--alpha", "-1", "--beta", "1"
        )
        assert code == 2
        assert "alpha and beta must be positive" in err
        assert out == ""

    @pytest.mark.parametrize("alpha, beta", [("inf", "1"), ("1", "inf")])
    def test_infinite_frullani_scale_is_input_error(self, capsys, alpha, beta):
        code, out, err = run_in_process(
            capsys, "verify", "frullani", "--catalog", "exp", "--alpha", alpha, "--beta", beta
        )
        assert code == 2
        assert err == "error: frullani: alpha and beta must be positive and finite\n"
        assert out == ""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--m", "-1"), "residue_check: m must be a non-negative integer"),
            (("--m", "0", "--eps", "0"), "residue_check: eps must lie in (0, 1e-2]"),
            (("--m", "0", "--eps", "0.5"), "residue_check: eps must lie in (0, 1e-2]"),
            (("--m", "0", "--eps", "nan"), "residue_check: eps must lie in (0, 1e-2]"),
        ],
    )
    def test_residue_out_of_range_is_the_library_error(self, capsys, flags, message):
        code, out, err = run_in_process(capsys, "residue", "--catalog", "exp", *flags)
        assert code == 2
        assert err == f"error: {message}\n"
        assert out == ""

    @pytest.mark.parametrize(
        "identity, flags",
        [("frullani", "--alpha and --beta"), ("lemma2", "--n"), ("rmt", "--s"), ("hardy", "--s")],
    )
    def test_missing_identity_input_names_its_flags(self, capsys, identity, flags):
        code, _, err = run_in_process(capsys, "verify", identity, "--catalog", "geometric")
        assert code == 2
        assert err == f"error: {identity} requires {flags}\n"

    @pytest.mark.parametrize(
        "catalog, param", [("exp", "a=inf"), ("power", "m=inf")]
    )
    def test_infinite_catalog_parameter_is_input_error(self, capsys, catalog, param):
        code, out, err = run_in_process(
            capsys, "verify", "rmt", "--catalog", catalog, "--param", param, "--s", "1"
        )
        assert code == 2
        assert err.startswith(f"error: catalog '{catalog}': requires 0 <")
        assert out == ""

    @pytest.mark.parametrize("flag", ["--f0", "--finf"])
    def test_non_finite_limit_is_input_error(self, capsys, flag):
        code, out, err = run_in_process(
            capsys, "verify", "frullani", "--phi", "1", "--closed-form", "exp(-x)",
            "--alpha", "2", "--beta", "1", flag, "inf",
        )
        assert code == 2
        assert err == f"error: {flag} must be finite\n"
        assert out == ""

    def test_infinite_fd_step_is_input_error(self, capsys):
        code, out, err = run_in_process(
            capsys, "verify", "lemma2", "--phi", "1", "--closed-form", "exp(-x)",
            "--n", "1", "--fd-derivatives", "--fd-step", "inf",
        )
        assert code == 2
        assert err == "error: --fd-step must be finite\n"
        assert out == ""

    def test_underflowing_fd_step_is_input_error(self, capsys):
        code, out, err = run_in_process(
            capsys, "verify", "lemma2", "--phi", "1", "--closed-form", "exp(-x)",
            "--n", "4", "--fd-derivatives", "--fd-step", "1e-100",
        )
        assert code == 2
        assert err == (
            "error: nth_derivative_fd: step h=1e-100 is too small: h**4 underflows to 0\n"
        )
        assert out == ""

    def test_overflowing_fd_step_is_input_error(self, capsys):
        code, out, err = run_in_process(
            capsys, "verify", "lemma2", "--phi", "1", "--closed-form", "exp(-x)",
            "--n", "2", "--fd-derivatives", "--fd-step", "1e300",
        )
        assert code == 2
        assert err == "error: nth_derivative_fd: step h=1e+300 is too large: h**2 overflows\n"
        assert out == ""

    def test_lemma2_order_past_gamma_range_is_refused_before_quadrature(self, capsys):
        code, out, err = run_in_process(capsys, "verify", "lemma2", "--catalog", "exp", "--n", "200")
        assert code == 2
        assert err == "error: overflow: gamma: Gamma(200.0) exceeds double range\n"
        assert out == ""

    def test_lemma2_order_beyond_double_range_is_input_error(self, capsys):
        code, out, err = run_in_process(
            capsys, "verify", "lemma2", "--catalog", "exp", "--n", "1" + "0" * 400
        )
        assert code == 2
        assert err == "error: lemma2: n must be a positive integer\n"
        assert out == ""

    def test_infinite_argument_of_cos_is_input_error(self, capsys):
        code, out, err = run_in_process(
            capsys, "verify", "rmt", "--phi", "1", "--closed-form",
            "cos(x*1e308*10)*exp(-x)", "--s", "1",
        )
        assert (code, out, err) == (2, "", "error: cos undefined at inf\n")

    def test_pole_of_fact_names_fact_and_its_argument(self, capsys):
        code, out, err = run_in_process(
            capsys, "verify", "rmt", "--phi", "fact(k)", "--closed-form", "1/(1+x)",
            "--s", "1",
        )
        assert (code, out, err) == (
            2, "", "error: fact(-1.0): gamma: pole at non-positive integer near x=0.0\n"
        )

    @pytest.mark.parametrize("chain", ["1^" * 2000 + "1", "x+" * 30000 + "x"])
    def test_long_operator_chain_is_input_error(self, capsys, chain):
        code, out, err = run_in_process(
            capsys, "verify", "rmt", "--phi", "1", "--closed-form",
            f"exp(-x)*({chain})", "--s", "1",
        )
        assert code == 2
        assert "too deeply nested" in err
        assert out == ""

    def test_gamma_far_left_of_the_poles_is_finite(self, capsys):
        # Gamma(-171.5) ~ 1.9e-310 is a value, not an overflow.
        code, out, err = run_in_process(
            capsys, "verify", "rmt", "--phi", "1", "--closed-form",
            "exp(-x)*(1+gamma(-171.5))", "--s", "1",
        )
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("name", ["k", "x"])
    def test_param_naming_a_free_variable_is_input_error(self, capsys, name):
        code, out, err = run_in_process(
            capsys, "verify", "rmt", "--phi", "k^0", "--closed-form", "exp(-k*x)",
            "--param", f"{name}=2", "--s", "1",
        )
        assert code == 2
        assert err.startswith("error: --param: ")
        assert out == ""

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_expression_param_is_input_error(self, capsys, value):
        code, out, err = run_in_process(
            capsys, "verify", "rmt", "--phi", "a^k", "--closed-form", "exp(-a*x)",
            "--param", f"a={value}", "--s", "2",
        )
        assert (code, out, err) == (2, "", "error: --param a must be finite\n")

    @pytest.mark.parametrize("n", ["nan", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [("verify", "lemma2", "--n", "1"), ("residue", "--m", "0")],
        ids=["verify", "residue"],
    )
    def test_non_finite_laguerre_order_is_input_error(self, capsys, argv, n):
        code, out, err = run_in_process(
            capsys, *argv, "--catalog", "laguerre_weight", "--param", f"n={n}"
        )
        message = f"catalog 'laguerre_weight': requires integer 1 <= n <= 50, got {n}"
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_overflowing_number_literal_is_input_error(self, capsys):
        code, out, err = run_in_process(
            capsys, "verify", "rmt", "--phi", "1", "--closed-form", "exp(-x)+exp(-1e999)",
            "--s", "1",
        )
        assert code == 2
        assert err.startswith("error: --phi/--closed-form: number '1e999' exceeds double range")
        assert out == ""

    @pytest.mark.parametrize("flags", [
        ["--f0", "2"], ["--finf", "0"], ["--fd-derivatives"], ["--fd-step", "0.01"],
    ], ids=lambda flags: flags[0])
    def test_expression_pair_flag_with_catalog_is_input_error(self, capsys, flags):
        code, out, err = run_in_process(
            capsys, "verify", "lemma2", "--catalog", "exp", "--n", "1", *flags
        )
        assert (code, out) == (2, "")
        assert err == f"error: --catalog pairs take no {flags[0]} (expression pairs only)\n"

    def test_default_fd_step_with_catalog_is_input_error(self, capsys):
        # The expression pairs' default step is refused too: a given flag is never absent.
        code, out, err = run_in_process(
            capsys, "verify", "rmt", "--catalog", "exp", "--s", "1", "--fd-step", "0.05"
        )
        assert (code, out, err) == (
            2, "", "error: --catalog pairs take no --fd-step (expression pairs only)\n")

    @pytest.mark.parametrize("step", ["-3", "nan", "0.05"])
    def test_fd_step_without_fd_derivatives_is_input_error(self, capsys, step):
        code, out, err = run_in_process(
            capsys, "verify", "rmt", "--phi", "1", "--closed-form", "exp(-x)", "--s", "1",
            "--fd-step", step,
        )
        assert (code, out, err) == (2, "", "error: --fd-step needs --fd-derivatives\n")

    @pytest.mark.parametrize("identity, flags, given", [
        ("rmt", ["--s", "1", "--alpha", "2", "--n", "3"], "--alpha, --n"),
        ("hardy", ["--s", "0.5", "--beta", "1"], "--beta"),
        ("lemma2", ["--n", "1", "--s", "2"], "--s"),
        ("frullani", ["--alpha", "2", "--beta", "1", "--s", "1", "--n", "2"], "--n, --s"),
    ])
    def test_identity_input_the_identity_does_not_take_is_input_error(
        self, capsys, identity, flags, given
    ):
        code, out, err = run_in_process(
            capsys, "verify", identity, "--catalog", "exp", *flags
        )
        assert (code, out, err) == (2, "", f"error: {identity} takes no {given}\n")

    def test_every_expression_pair_flag_with_catalog_is_named(self, capsys):
        code, out, err = run_in_process(
            capsys, "verify", "frullani", "--catalog", "exp", "--alpha", "2", "--beta", "1",
            "--fd-step", "nan", "--finf", "1", "--fd-derivatives", "--f0", "0",
        )
        assert (code, out) == (2, "")
        assert err == ("error: --catalog pairs take no --f0, --finf, --fd-derivatives, "
                       "--fd-step (expression pairs only)\n")

    @pytest.mark.parametrize("command", [["verify", "rmt", "--s", "1"], ["residue", "--m", "0"]])
    def test_param_value_that_is_not_a_number_is_input_error(self, capsys, command):
        code, out, err = run_in_process(
            capsys, *command, "--catalog", "exp", "--param", "a=abc"
        )
        assert (code, out, err) == (2, "", "error: --param a: 'abc' is not a number\n")

    @pytest.mark.parametrize("command", [["verify", "rmt", "--s", "1", "--json"],
                                         ["residue", "--m", "0", "--json"]])
    def test_repeated_param_name_is_input_error(self, capsys, command):
        code, out, err = run_in_process(
            capsys, *command, "--catalog", "exp", "--param", "a=2", "--param", "a=3"
        )
        assert (code, out, err) == (2, "", "error: --param a given twice\n")

    def test_expression_pair_without_derivatives_suggests_fd(self, capsys):
        code, out, err = run_in_process(
            capsys, "verify", "lemma2", "--phi", "1", "--closed-form", "exp(-x)", "--n", "1"
        )
        assert code == 2
        assert "derivative order 1" in err and "(use --fd-derivatives)" in err
        assert out == ""


class TestRecordInputs:
    def _inputs(self, capsys, *argv):
        code, out, _ = run_in_process(capsys, *argv, "--json")
        assert code == 0
        return [json.loads(line)["inputs"] for line in out.splitlines()]

    def test_catalog_parameter_and_identity_input_of_one_name(self, capsys):
        (inputs,) = self._inputs(
            capsys, "verify", "lemma2", "--catalog", "laguerre_weight", "--param", "n=3",
            "--n", "2",
        )
        assert inputs == {
            "identity": "lemma2", "catalog": "laguerre_weight", "param.n": "3", "n": "2",
        }

    def test_expression_bindings_are_params(self, capsys):
        (inputs,) = self._inputs(
            capsys, "verify", "rmt", "--phi", "a^k", "--closed-form", "exp(-a*x)",
            "--param", "a=2", "--s", "3",
        )
        assert list(inputs) == ["identity", "phi", "closed_form", "param.a", "s"]

    def test_expression_limits_follow_the_closed_form(self, capsys):
        frullani = ("verify", "frullani", "--phi", "1", "--closed-form", "exp(-x)",
                    "--alpha", "2", "--beta", "1", "--json")
        records = []
        for limits, exit_code in ((("--f0", "1", "--finf", "0"), 0), (("--finf", "0.5"), 1), ((), 0)):
            code, out, _ = run_in_process(capsys, *frullani, *limits)
            assert code == exit_code
            records.append(json.loads(out)["inputs"])
        keys = ["identity", "phi", "closed_form", "f0", "finf", "alpha", "beta"]
        assert [list(r) for r in records] == [keys, keys[:3] + keys[4:], keys[:3] + keys[5:]]
        assert [r.get("finf") for r in records] == ["0", "0.5", None]
        assert records[0]["f0"] == "1"

    def test_corpus_and_residue_records(self, capsys):
        records = self._inputs(capsys, "corpus", "--filter", "laguerre_zero")
        assert records and all(
            list(r)[:3] == ["case", "kind", "catalog"] and "param.n" in r and "n" in r
            for r in records
        )
        wide, _ = self._inputs(capsys, "residue", "--catalog", "exp", "--param", "a=2", "--m", "1")
        assert wide == {"catalog": "exp", "param.a": "2", "m": "1", "eps": "0.0001"}


class TestExpressionPairs:
    def test_phi_undefined_at_zero_with_f0_runs_frullani_and_hardy(self, capsys):
        code, _, _ = run_in_process(
            capsys, "verify", "frullani", "--phi", "1/k", "--closed-form", "exp(-x)",
            "--f0", "1", "--alpha", "2", "--beta", "1",
        )
        assert code == 0
        code, _, _ = run_in_process(
            capsys, "verify", "hardy", "--phi", "k/k", "--closed-form",
            "1/(1+x)", "--f0", "1", "--s", "0.5",
        )
        assert code == 0

    def test_phi_undefined_at_zero_is_an_error_for_rmt(self, capsys):
        code, out, err = run_in_process(
            capsys, "verify", "rmt", "--phi", "1/k", "--closed-form", "exp(-x)",
            "--f0", "1", "--s", "1",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: division by zero")

    def test_closed_form_lost_to_rounding_near_zero_keeps_its_result(self, capsys):
        # (1 - exp(-x))/x rounds to 0 below x ~ 1e-16 and divides by zero at
        # x = 0.  The DE walk toward 0 stops on those zeros inside its node
        # table, never calling F at 0 below it; its levels never settle, and
        # the geometric ends return the value, in 2,107 calls in all.
        from rmtkit.errors import DivisionByZero
        from rmtkit.expr import compile_expr, parse
        from rmtkit.quadrature import integrate_mellin

        code, out, _ = run_in_process(
            capsys, "verify", "rmt", "--phi", "1/(k+1)", "--closed-form", "(1-exp(-x))/x",
            "--s", "0.05", "--json",
        )
        assert code == 0 and json.loads(out)["evaluations"] == 2107
        closed = compile_expr(parse("(1-exp(-x))/x"), {}, "x")
        with pytest.raises(DivisionByZero):
            closed(0.0)
        assert integrate_mellin(closed, 0.05).value.hex() == "0x1.47eacf57a5eaap+4"

    def test_upper_edge_falls_back_without_a_log_form(self, capsys):
        # An expression pair has no log form, so at s = 0.99 its walk ends at
        # the node table and the geometric ends give the record they gave
        # before catalog pairs could walk on; geometric walks on in 119.
        code, out, _ = run_in_process(
            capsys, "verify", "rmt", "--phi", "fact(k)", "--closed-form", "1/(1+x)",
            "--s", "0.99", "--json",
        )
        record = json.loads(out)
        assert code == 0 and (record["lhs_value"], record["lhs_error"], record["evaluations"]) == (
            100.016451235242, 1.34068786143359e-09, 451)
        code, out, _ = run_in_process(
            capsys, "verify", "rmt", "--catalog", "geometric", "--s", "0.99", "--json")
        assert code == 0 and json.loads(out)["evaluations"] == 119


def expression_pair(*argv: str):
    """The pair ``rmtkit verify lemma2`` builds from ``argv``."""
    from rmtkit import cli

    args = cli._build_argparser().parse_args(["verify", "lemma2", *argv])
    args.params = cli._parse_params(args.param)
    return cli._build_pair(args)


FD_PAIR = ("--phi", "a^k", "--closed-form", "exp(-a*x)", "--param", "a=0.7", "--fd-derivatives")


class TestFdDerivatives:
    """The expression pair's finite-difference derivative, built once per
    order: the same bits as nth_derivative_fd, its errors, and no checks
    left on an evaluation."""

    @pytest.mark.parametrize("h", [0.05, 0.02, 1e-3])
    @pytest.mark.parametrize("closed_form", ["exp(-a*x)", "1/(1+x^2)"])
    def test_values_match_the_reference_bit_for_bit(self, closed_form, h):
        pair = expression_pair("--phi", "1", "--closed-form", closed_form, "--param", "a=0.7",
                               "--fd-derivatives", "--fd-step", repr(h))
        for order in range(1, FD_MAX_ORDER + 1):
            # From x = 0, where the stencil reaches below 0, to x >> n h / 2.
            for x in (0.0, order * h / 8.0, order * h / 3.0, 0.3, 1.0, 7.5):
                expected = reference_nth_derivative_fd(pair.closed_form, x, order, h)[0]
                assert pair.derivative(order, x).hex() == expected.hex(), (order, x)
        assert pair.derivative(2.0, 0.3) == pair.derivative(2, 0.3)
        assert pair.derivative(True, 0.3) == pair.derivative(1, 0.3)
        assert pair.derivative(0, 0.3) == pair.closed_form(0.3)

    @pytest.mark.parametrize("order, error, message", [
        (2.5, DomainError, "expression pair: derivative order 2.5 is not an integer >= 0"),
        (math.nan, DomainError, "expression pair: derivative order nan is not an integer >= 0"),
        (-1, DomainError, "expression pair: derivative order -1 is not an integer >= 0"),
        (FD_MAX_ORDER + 1, DerivativeUnavailable,
         f"expression pair: derivative order {FD_MAX_ORDER + 1} exceeds derivative_max=6"),
    ], ids=["2.5", "nan", "-1", "7"])
    def test_orders_outside_1_to_6_are_refused(self, order, error, message):
        pair = expression_pair(*FD_PAIR)
        for _ in range(2):  # a refused order is refused on every call
            with pytest.raises(error, match=rf"^{re.escape(message)}$"):
                pair.derivative(order, 0.5)
            with pytest.raises(error, match=rf"^{re.escape(message)}$"):
                pair.derivative_with_noise(order, 0.5)

    @pytest.mark.parametrize("h, order, message", [
        ("1e-100", 4, "nth_derivative_fd: step h=1e-100 is too small: h**4 underflows to 0"),
        ("1e300", 2, "nth_derivative_fd: step h=1e+300 is too large: h**2 overflows"),
    ])
    def test_step_errors_keep_their_text(self, h, order, message):
        pair = expression_pair(*FD_PAIR, "--fd-step", h)
        for _ in range(2):
            with pytest.raises(DomainError, match=rf"^{re.escape(message)}$"):
                pair.derivative(order, 0.5)

    def test_an_evaluation_makes_no_check(self):
        pair = expression_pair(*FD_PAIR)
        pair.derivative(2, 0.5)  # the first use of order 2 builds its closure
        calls = collections.Counter()

        def profile(frame, event, arg):
            if event == "call":
                calls[pathlib.Path(frame.f_code.co_filename).stem, frame.f_code.co_name] += 1

        sys.setprofile(profile)
        try:
            pair.derivative(2, 0.5)
        finally:
            sys.setprofile(None)
        # The pair's derivative, the order-2 closure, and three stencil points
        # at each of two steps, each one call of the generated function: no
        # nth_derivative_fd, integer_in, positive_tolerance or _stencil frame.
        assert calls == {
            ("cli", "derivative"): 1,
            ("transforms", "derivative"): 1,
            ("<expression>", "expression"): 6,
        }


class TestFdHonesty:
    """lemma2 on finite-difference derivatives runs the double-exponential
    rule with each stencil's rounding noise in its floor, and its estimate
    covers the error against the exact integral of the finite-difference
    integrand: for exp(-a x) the stencil at step h is exp(-a x) times
    S(h) = (-2 sinh(a h / 2) / h)^n, so that integral is
    (4 S(h/2) - S(h)) / 3 * Gamma(n) / a^n."""

    @staticmethod
    def exact(a, n, h):
        mp = mpmath.mp.clone()
        mp.dps = 40
        a, h = mp.mpf(a), mp.mpf(h)

        def stencil(step):
            return (-2 * mp.sinh(a * step / 2) / step) ** n

        return (4 * stencil(h / 2) - stencil(h)) / 3 * mp.gamma(n) / a**n

    @pytest.mark.parametrize("h", [0.05, 0.02])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("a", [0.5, 0.7, 1.0, 2.0])
    def test_estimate_covers_the_error(self, a, n, h):
        from rmtkit.transforms import lemma2

        pair = expression_pair("--phi", "a^k", "--closed-form", "exp(-a*x)",
                               "--param", f"a={a!r}", "--fd-derivatives", "--fd-step", repr(h))
        lhs = lemma2(pair, n).lhs
        assert abs(lhs.value - self.exact(a, n, h)) <= lhs.error_estimate
        if n <= 2:  # returned by the double-exponential rule; the geometric ends take ~300
            assert lhs.evaluations < 150

    def test_derivative_with_noise_is_the_derivative_and_its_noise(self):
        pair = expression_pair(*FD_PAIR)
        finer = expression_pair(*FD_PAIR, "--fd-step", "0.01")
        for order in range(1, FD_MAX_ORDER + 1):
            value, noise = pair.derivative_with_noise(order, 0.5)
            assert value == pair.derivative(order, 0.5)
            # Rounding noise grows as h^-order.
            assert 0.0 < noise < finer.derivative_with_noise(order, 0.5)[1]
        assert expression_pair("--phi", "1", "--closed-form", "exp(-x)").derivative_with_noise is None


class TestExpressionPairOrders:
    def test_orders_above_derivative_max_are_refused(self):
        # Without --fd-derivatives only order 0, the closed form, is known.
        pair = expression_pair("--phi", "1", "--closed-form", "exp(-x)")
        assert pair.derivative_max == 0 and pair.derivative(0, 0.5) == math.exp(-0.5)
        for order in (1, 2, FD_MAX_ORDER + 1):
            message = f"expression pair: derivative order {order} exceeds derivative_max=0"
            for _ in range(2):  # a refused order is refused on every call
                with pytest.raises(DerivativeUnavailable, match=rf"^{re.escape(message)}$"):
                    pair.derivative(order, 0.5)


class TestWarnings:
    def test_rescaled_report_carries_non_convergence_warning_once(self, capsys, monkeypatch):
        # A tolerance no rule can meet, and one panel per geometric end.  The
        # double-exponential rule returns hermite_2 unconverged but exact at
        # this tolerance, a pass; refusing it leaves the geometric ends' FAIL.
        from rmtkit import quadrature

        monkeypatch.setattr(quadrature, "_double_exponential", lambda *args: None)
        code, out, _ = run_in_process(
            capsys, "corpus", "--filter", "hermite_2", "--max-tail-panels", "1",
            "--abs-tol", "1e-300", "--rel-tol", "1e-300", "--json"
        )
        assert code == 1
        (record,) = [json.loads(line) for line in out.splitlines()]
        assert record["warnings"] == ["quadrature did not converge; best-effort value used"]


class TestIdentityTable:
    def test_verify_choices_are_the_table_kinds_without_residue(self):
        from rmtkit import cli, transforms

        parser = cli._build_argparser()
        (subparsers,) = [a for a in parser._actions if a.dest == "command"]
        (identity,) = [
            a for a in subparsers.choices["verify"]._actions if a.dest == "identity"
        ]
        assert list(identity.choices) == [k for k in transforms.IDENTITIES if k != "residue"]

    def test_replaced_identity_function_reaches_cli_and_corpus(self, monkeypatch, capsys):
        """Runners look the identity functions up when they run, so a
        function replaced on the transforms module is the one every caller
        of the table reaches."""
        from rmtkit import cli, corpus, transforms

        calls = []
        original = transforms.rmt

        def spy(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(transforms, "rmt", spy)
        code, _, _ = run_in_process(
            capsys, "verify", "rmt", "--catalog", "exp", "--param", "a=2", "--s", "3"
        )
        assert code == 0
        assert calls == [3.0]
        cases = [c for c in corpus.builtin_cases() if c.name == "euler_half"]
        ((_, report),) = corpus.run_corpus(cases)
        assert report.passed
        assert calls == [3.0, 0.5]


class TestParserReuse:
    CALLS = [
        ("verify", "rmt", "--phi", "a^k", "--closed-form", "exp(-a*x)", "--param", "a=2",
         "--s", "2", "--json"),
        ("verify", "rmt", "--phi", "a^k", "--closed-form", "exp(-a*x)", "--s", "2", "--json"),
        ("corpus", "--filter", "euler"),
        ("residue", "--catalog", "exp", "--m", "0"),
        # One pair of sources under two bindings, a syntax error between them:
        # a parsed tree carries no binding, and an error is not kept.
        ("verify", "rmt", "--phi", "b*a^k", "--closed-form", "b*exp(-a*x)", "--param", "a=0.5",
         "--param", "b=3", "--s", "1.5", "--json"),
        ("verify", "rmt", "--phi", "b*a^k", "--closed-form", "b*exp(-a*x", "--param", "a=2",
         "--s", "2", "--json"),
        ("verify", "rmt", "--phi", "b*a^k", "--closed-form", "b*exp(-a*x)", "--param", "a=4",
         "--param", "b=0.25", "--s", "2", "--json"),
    ]

    def test_calls_in_sequence_match_calls_alone(self, capsys):
        """The parser is built once per process and each expression source
        parsed once; no flag, binding or error of one call may carry over
        into the next."""
        from rmtkit import cli, expr

        alone = []
        for argv in self.CALLS:
            cli._build_argparser.cache_clear()
            expr.parse.cache_clear()
            alone.append(run_in_process(capsys, *argv))
        cli._build_argparser.cache_clear()
        expr.parse.cache_clear()
        in_sequence = [run_in_process(capsys, *argv) for argv in self.CALLS]
        assert in_sequence == alone
        assert cli._build_argparser.cache_info().misses == 1
        assert expr.parse.cache_info().hits > 0
        assert [code for code, _, _ in alone] == [0, 2, 0, 0, 0, 2, 0]
        assert alone[1][2] == "error: variable 'a' is not bound\n"
        assert not any(out.startswith("{") for _, out, _ in alone[2:4])
        assert alone[5][2].startswith("error: --phi/--closed-form: ")
        # rhs = Gamma(s) b a^-s, with each call's own bindings.
        rhs = [json.loads(alone[i][1])["rhs_value"] for i in (4, 6)]
        assert rhs == pytest.approx([math.gamma(1.5) * 3 * 0.5**-1.5, 0.25 * 4.0**-2], rel=1e-14)


def run_route(capsys, route, argv):
    """(exit code, stdout, stderr) of one entry route; a SystemExit is its code."""
    try:
        code = route(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestEntryParity:
    """``main`` reads an exact-form argv from its subcommand's table and any
    other with the top-level parser; every exit code, stdout and stderr is
    the top-level parser's."""

    ARGVS = [
        *GOLDEN_INVOCATIONS.values(),
        [],
        ["bogus"],
        ["-h"],
        ["--help"],
        ["verify", "-h"],
        ["corpus", "-h"],
        ["residue", "-h"],
        ["verify"],
        ["verify", "rmt", "--catalog", "exp", "--s", "1", "--bogus"],
        ["verify", "rmt", "--catalog", "exp", "--s", "1", "extra", "--bogus=1"],
        ["corpus", "--filter", "euler", "--json", "--m", "0"],
        ["verify", "rmt", "--catalog", "exp", "--s", "abc"],
        ["verify", "lemma2", "--catalog", "exp", "--n", "1.5"],
        ["verify", "residue", "--catalog", "exp", "--s", "1"],
        ["residue", "--catalog", "exp"],
        ["verify", "rmt", "--catalog=exp", "--s=-1"],
        ["verify", "rmt", "--cat", "exp", "--s", "1"],
        ["verify", "rmt", "--f", "1", "--catalog", "exp", "--s", "1"],
        ["verify", "rmt", "--phi", "b*a^k", "--closed-form", "b*exp(-a*x)", "--param", "a=2",
         "--param", "b=3", "--s", "2", "--json"],
        ["verify", "--catalog", "exp", "rmt", "--s", "1"],
        ["verify", "rmt", "--catalog", "exp", "--s", "1", "--", "--json"],
        ["--s", "1", "verify", "rmt"],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=[" ".join(a) or "<empty>" for a in ARGVS])
    def test_main_matches_the_top_level_route(self, capsys, argv):
        from rmtkit import cli

        assert run_route(capsys, cli.main, argv) == run_route(capsys, reference_cli_main, argv)

    def test_no_argv_reads_sys_argv(self, capsys, monkeypatch):
        from rmtkit import cli

        argv = ["verify", "rmt", "--catalog", "exp", "--s", "1", "--bogus"]
        monkeypatch.setattr(sys, "argv", ["rmtkit", *argv])
        code, out, err = run_route(capsys, lambda _: cli.main(), [])
        assert (code, out, err) == run_route(capsys, reference_cli_main, argv)
        assert code == 2
        assert err.splitlines()[-1] == "rmtkit: error: unrecognized arguments: --bogus"


class TestExactForm:
    """An argv of exact flags and positional values is parsed from a table
    read off the subcommand's own parser; any other goes to argparse."""

    # One argv of each shape the cli_expr benchmark workload runs.
    SHAPES = [
        ["verify", "rmt", "--phi", "a^k", "--closed-form", "exp(-a*x)", "--param", "a=1.5",
         "--s", "2.5", "--json"],
        ["verify", "hardy", "--phi", "c^k", "--closed-form", "1/(1+c*x)", "--param", "c=2",
         "--s", "0.3", "--json"],
        ["verify", "rmt", "--phi", "b^k", "--closed-form", "exp(-a*x)", "--param", "a=1",
         "--param", "b=1.5", "--s", "2", "--json"],
        ["verify", "lemma2", "--phi", "a^k", "--closed-form", "exp(-a*x)", "--param", "a=0.7",
         "--fd-derivatives", "--n", "2", "--json", "--tol", "1e-06"],
        ["verify", "frullani", "--phi", "0", "--closed-form", "erf(x)", "--f0", "0",
         "--finf", "1", "--alpha", "0.5", "--beta", "3", "--json"],
        ["verify", "rmt", "--catalog", "exp", "--param", "a=2", "--s", "3", "--json"],
        ["verify", "lemma2", "--catalog", "erf", "--n", "5", "--json"],
        ["verify", "hardy", "--catalog", "geometric", "--s", "0.4", "--json"],
        ["verify", "frullani", "--catalog", "power", "--param", "m=2", "--alpha", "2",
         "--beta", "0.5", "--json"],
    ]

    def test_the_workload_shapes_skip_argparse(self, capsys, monkeypatch):
        import argparse

        from rmtkit import cli

        expected = [run_route(capsys, reference_cli_main, argv) for argv in self.SHAPES]

        def refuse(*args, **kwargs):
            raise AssertionError("argparse parsed an exact-form argv")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
        assert [run_route(capsys, cli.main, argv) for argv in self.SHAPES] == expected
        # The third is a false identity: a FAIL, exit code 1.
        assert [code for code, _, _ in expected] == [0, 0, 1, 0, 0, 0, 0, 0, 0]

    def test_a_value_led_by_a_dash_is_read_by_argparse(self, capsys):
        from rmtkit import cli

        limits = ["--f0", "-1", "--finf", "-2"]
        argv = ["verify", "frullani", "--phi", "1", "--closed-form", "exp(-x)-2", *limits,
                "--alpha", "2", "--beta", "1", "--json"]
        assert cli._exact_args(cli._build_argparser().subcommands["verify"], argv[1:]) is None
        code, out, err = run_route(capsys, cli.main, argv)
        assert (code, err, json.loads(out)["passed"]) == (0, "", True)
        joined = [*argv[:6], "--f0=-1", "--finf=-2", *argv[10:]]
        assert run_route(capsys, cli.main, joined) == (code, out, err)
        assert run_route(capsys, reference_cli_main, argv) == (code, out, err)

    # Flag -> values, some malformed for the flag or for every flag.
    VALUES = {
        "--catalog": ["exp", "geometric", "bogus"],
        "--param": ["a=2", "a=0.5", "a"],
        "--phi": ["a^k", "1", "-k"],
        "--closed-form": ["exp(-a*x)", "1/(1+x)", "-x + 1"],
        "--s": ["1.5", "0.5", "-1", "-.5", "-1e5", "abc", ""],
        "--n": ["1", "2", "1.5", "-2"],
        "--alpha": ["2", "-3"],
        "--beta": ["1"],
        "--f0": ["1"],
        "--finf": ["0"],
        "--fd-step": ["0.05"],
        "--tol": ["1e-6", "-0"],
        "--abs-tol": ["1e-10"],
        "--max-subdivisions": ["50", "x"],
        "--filter": ["euler", "laguerre"],
        "--tol-scale": ["2"],
        "--m": ["0", "1"],
        "--eps": ["0.01"],
    }
    SWITCHES = ["--json", "--fd-derivatives"]
    NOISE = ["-h", "--help", "--", "--bogus", "--cat", "--clo", "--s=1", "--param=a=2", "-1",
             "rmt", "hardy", "bogus", "", "--catalog=exp", "--fd", "-x"]

    # Each subcommand's own flags; a fuzzed argv mostly draws from its own.
    FLAGS = {
        "verify": sorted(set(VALUES) - {"--filter", "--tol-scale", "--m", "--eps"}),
        "corpus": ["--filter", "--tol-scale", "--abs-tol", "--max-subdivisions"],
        "residue": ["--catalog", "--param", "--m", "--eps"],
    }

    @classmethod
    def _fuzz_argvs(cls, count=300, seed=0x36):
        rng = random.Random(seed)
        for _ in range(count):
            command = rng.choice(["verify"] * 6 + ["corpus", "residue"])
            tokens = []
            for _ in range(rng.randrange(7)):
                pick = rng.random()
                if pick < 0.1:
                    tokens.append(rng.choice(cls.NOISE))
                elif pick < 0.25:
                    tokens.append(rng.choice(cls.SWITCHES))
                else:
                    flag = rng.choice(cls.FLAGS[command] if pick < 0.95 else sorted(cls.VALUES))
                    tokens += [flag, rng.choice(cls.VALUES[flag])][:2 if rng.random() < 0.97 else 1]
            if command == "verify" and rng.random() < 0.9:
                identity = rng.choice(["rmt", "hardy", "lemma2", "frullani", "residue"])
                tokens.insert(rng.randrange(len(tokens) + 1), identity)
            yield [command, *tokens]

    def test_fuzzed_argvs_parse_as_argparse_does(self, capsys):
        from rmtkit import cli

        parser = cli._build_argparser()
        taken = 0
        for argv in self._fuzz_argvs():
            command = parser.subcommands[argv[0]]
            exact = cli._exact_args(command, argv[1:])
            if exact is not None:
                taken += 1
                args, extra = command.parse_known_args(argv[1:])
                assert (vars(exact), extra) == (vars(args), []), argv
            main = run_route(capsys, cli.main, argv)
            assert main == run_route(capsys, reference_cli_main, argv), argv
        assert 50 < taken < 250
