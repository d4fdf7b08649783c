"""The log domain of expression trees, L -> ln F(e^L), and the Mellin walk it
continues above the node table for expression pairs."""

import io
import json
import contextlib
import math
import os
import random
import sys

import pytest

from rmtkit import cli
from rmtkit.errors import DomainError
from rmtkit.expr import compile_expr, parse, to_source

from test_expr import TestCompiled

EPS = sys.float_info.epsilon
TIGHT = ("--abs-tol", "1e-14", "--rel-tol", "1e-13")


def _random_tree(rng, depth):
    """A source string whose F is positive on x > 0 and whose float form loses
    only a few ulps: sums of positive terms, products, quotients, powers by
    a constant, exp of a negative, sqrt and erf."""
    if depth == 0:
        return rng.choice(["x", "x", "a", "2.5", "0.3"])
    left, right = _random_tree(rng, depth - 1), _random_tree(rng, depth - 1)
    return rng.choice([
        f"({left}) + ({right})", f"({left}) * ({right})", f"({left}) / ({right})",
        f"({left})^(m)", f"exp(-({left}))", f"sqrt({left})", f"erf({left})",
        f"1/(1 + ({left}))",
    ])


def _run(*argv):
    """(exit code, record) of one in-process CLI call with --json."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify", *argv, "--json"])
    return code, json.loads(out.getvalue()) if out.getvalue() else None


def _key(record):
    return tuple(record[key] for key in ("lhs_value", "lhs_error", "evaluations"))


class TestLogDomain:
    def test_seeded_fuzz_trees_are_within_a_few_ulps_of_ln_F(self):
        rng = random.Random(42)
        bindings = {"a": 1.7, "m": -0.75}
        checked = 0
        for _ in range(300):
            source = _random_tree(rng, rng.randrange(1, 4))
            tree = parse(source)
            F, log_F = compile_expr(tree, bindings, "x"), compile_expr(tree, bindings, "x", "log")
            assert log_F is not None, source
            for L in (-3.0, -0.5, 0.0, 0.7, 4.0, 30.0, 300.0):
                try:
                    value = F(math.exp(L))
                except Exception:  # F raises here: no ln F to compare with
                    continue
                if not sys.float_info.min <= value < math.inf:
                    continue
                want = math.log(value)
                got = log_F(L)
                assert abs(got - want) <= 16 * EPS * max(1.0, abs(want)), (source, L, got, want)
                checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("source", ["sin(x)", "exp(-x)*cos(x)", "2^x", "x^x",
                                        "(1+x)^(-a*x)", "pow(2, -x)", "cos(a*x)/(1+x)"])
    def test_sin_cos_and_x_in_an_exponent_have_no_form(self, source):
        assert compile_expr(parse(source), {"a": 1.0}, "x", "log") is None

    @pytest.mark.parametrize("source, L", [
        ("exp(-x)*(2-x)", 5.0), ("-1/(1+x)", 2.0), ("x - x", 1.0), ("1/(1+x)-1/(2+x)", 3.0),
        ("exp(-x)*(1-x)", 800.0), ("sqrt(-x)", 1.0), ("ln(1-x)", 2.0)])
    def test_F_at_most_0_and_cancelling_sums_raise(self, source, L):
        log_F = compile_expr(parse(source), {}, "x", "log")
        with pytest.raises(DomainError):
            log_F(L)

    def test_a_variable_free_exponent_and_base_fold(self):
        log_F = compile_expr(parse("(1+x)^(-m) * 2^m"), {"m": 2.5}, "x", "log")
        assert log_F(1000.0) == pytest.approx(-2500.0 + 2.5 * math.log(2.0), rel=1e-15)

    def test_erf_of_a_tiny_argument_keeps_its_log(self):
        log_F = compile_expr(parse("erf(1/(1+x))"), {}, "x", "log")
        assert log_F(800.0) == -800.0 + math.log(2.0 / math.sqrt(math.pi))

    @pytest.mark.parametrize("tree", TestCompiled.MALFORMED, ids=repr)
    def test_malformed_trees_put_no_text_in_the_log_code(self, monkeypatch, tree):
        def refuse():
            raise AssertionError("text from the tree ran")

        monkeypatch.setattr(os, "getpid", refuse)
        log_F = compile_expr(tree, TestCompiled.BINDINGS, "x", "log")
        if log_F is None:
            return
        for L in (0.0, 1.5, 800.0):
            try:
                log_F(L)
            except AssertionError:
                raise
            except Exception as exc:  # every refusal is one of the float domain's kinds
                assert isinstance(exc, (DomainError, TypeError, ArithmeticError)) or \
                    type(exc).__module__ == "rmtkit.errors", exc


class TestCatalogTwins:
    """An expression pair walks above the node table as its catalog twin does."""

    @pytest.mark.parametrize("config", [(), TIGHT], ids=["default", "tight"])
    @pytest.mark.parametrize("distance", [1e-1, 1e-2, 1e-3, 3e-4])
    @pytest.mark.parametrize("twin", [
        (("hardy", "--phi", "1", "--closed-form", "1/(1+c*x)", "--param", "c=1"),
         ("hardy", "--catalog", "geometric"), 1.0),
        *[(("rmt", "--phi", "gamma(m+k)/gamma(m)", "--closed-form", "(1+x)^(-m)",
            "--param", f"m={m}"), ("rmt", "--catalog", "power", "--param", f"m={m}"), m)
          for m in (0.7, 2.5, 4.0)]], ids=["hardy-geometric", "power-0.7", "power-2.5",
                                           "power-4"])
    def test_expression_and_catalog_records_match(self, twin, distance, config):
        expression, catalog, edge = twin
        s = repr(edge * (1.0 - distance))
        code, record = _run(*expression, "--s", s, *config)
        twin_code, twin_record = _run(*catalog, "--s", s, *config)
        assert (code, _key(record)) == (twin_code, _key(twin_record))


class TestGuards:
    """log_F is used only where F(x) is a double in [0, least normal), where
    x overflows, and where F overflows above x = 1; a refusal where F(x) is
    a double leaves the term to that value."""

    def test_a_negative_F_keeps_its_record(self):
        code, record = _run("rmt", "--phi", "1", "--closed-form", "exp(-x)*(2-x)", "--s", "0.5")
        assert (code, _key(record)) == (1, (2.65868077635827, 4.44107774585538e-14, 83))

    @pytest.mark.parametrize("s, expected", [
        ("0.5", (0, (0.92015118451061, 2.79999925295711e-13, 83))),
        ("1.5", (0, (1.30129028456817, 1.77609028947599e-11, 696))),
        ("1.99", (1, (30.7142385355503, 0.16936576446706, 1981355))),
    ])
    def test_a_cancelling_form_keeps_its_records(self, s, expected):
        code, record = _run("rmt", "--phi", "fact(k)*(1-2^(-k-1))",
                            "--closed-form", "1/(1+x)-1/(2+x)", "--s", s)
        assert (code, _key(record)) == expected

    def test_an_overflowing_F_stays_on_the_double_exponential_rule(self):
        # x^2 raises OverflowError past x ~ 1e154; the geometric ends took 346.
        code, record = _run("rmt", "--phi", "fact(k)*cos(p*k/2)", "--param",
                            "p=3.141592653589793", "--closed-form", "1/(1+x^2)", "--s", "1.9")
        assert code == 0 and record["evaluations"] == 91 and record["discrepancy"] == 0.0


# Seeded argvs of sums of the forms below, near the upper edge and at both
# configs, with (exit code, passed, unconverged) as the parent commit of the
# log domain answered each.
_FORMS = ["exp(-a*x)", "(1+a*x)^(-m)", "1/(1+a*x^2)", "exp(-sqrt(a*x))", "erf(1/(1+a*x))",
          "ln(1+1/(a*x+1))", "1/(1+x)-1/(2+x)", "exp(-x)*(2-x)"]
_ANSWERS = [(1, False, True), (1, False, False), (1, False, False), (1, False, False),
            (1, False, False), (1, False, False), (1, False, False), (1, False, True),
            (1, False, False), (1, False, False), (1, False, False), (1, False, False),
            (1, False, False), (1, False, False), (1, False, False), (1, False, False),
            (1, False, False), (1, False, False), (1, False, True), (1, False, False),
            (1, False, True), (1, False, False), (1, False, True), (1, False, False)]


def _fuzz_argvs(n=24, seed=5):
    rng = random.Random(seed)
    for _ in range(n):
        form = "+".join(rng.sample(_FORMS, rng.choice((1, 1, 2))))
        m = round(rng.uniform(0.6, 3.0), 3)
        edge = min(1.0 if "(1+a*x)^(-m)" not in form else m, 1.0)
        s = round(rng.choice((0.5, 0.9, 0.99, 0.999, 0.9999)) * edge, 6)
        identity = rng.choice(("rmt", "hardy"))
        config = TIGHT if rng.random() < 0.5 else ()
        yield [identity, "--phi", "1", "--closed-form", form, "--param",
               f"a={round(rng.uniform(0.5, 2.0), 3)}", "--param", f"m={m}", "--s", str(s),
               *config]


def test_no_fuzzed_argv_changes_exit_code_verdict_or_convergence():
    answers = []
    for argv in _fuzz_argvs():
        code, record = _run(*argv)
        answers.append((code, record["passed"],
                        "quadrature did not converge; best-effort value used" in record["warnings"]))
    assert answers == _ANSWERS


def test_fuzz_sources_print_back():
    rng = random.Random(3)
    for _ in range(20):
        source = _random_tree(rng, 3)
        assert parse(to_source(parse(source))) == parse(source)
