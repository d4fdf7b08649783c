"""CLI contract: exit codes, golden output, JSON round-trips."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

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


def run_cli(*argv: str, env: dict | None = None) -> subprocess.CompletedProcess:
    full_env = dict(os.environ)
    full_env.pop("RMT_DEFAULT_TOL", None)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "rmtkit", *argv],
        capture_output=True,
        text=True,
        env=full_env,
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


class TestExitCodes:
    def test_pass_is_zero(self):
        assert run_cli("verify", "rmt", "--catalog", "exp", "--param", "a=2", "--s", "3").returncode == 0

    def test_verification_failure_is_one(self):
        proc = run_cli(
            "verify", "rmt", "--catalog", "exp", "--param", "a=2", "--s", "3",
            "--tol", "1e-30",
        )
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout

    def test_hardy_integer_exponent_is_input_error(self):
        proc = run_cli("verify", "hardy", "--catalog", "geometric", "--s", "1")
        assert proc.returncode == 2
        assert "non-integer in (0,1)" in proc.stderr
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
        assert "phi(0)" in proc.stderr

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


class TestEnvironmentOverride:
    def test_default_tolerance_env(self):
        argv = ("verify", "frullani", "--catalog", "exp", "--alpha", "2", "--beta", "1")
        assert run_cli(*argv).returncode == 0
        strict = run_cli(*argv, env={"RMT_DEFAULT_TOL": "1e-30"})
        assert strict.returncode == 1
