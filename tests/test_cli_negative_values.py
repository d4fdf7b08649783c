"""A subcommand reads a token led by '-' that float reads (-1e-3, -inf,
-Inf, -nan) after a flag that takes a value, in full or by a unique prefix,
as that flag's value, spaced as it reads the same value joined by '='."""

import json
import re

import pytest
from oracles import reference_cli_main

from rmtkit import cli

ARGV = ["verify", "frullani", "--phi", "1", "--closed-form", "exp(-x)", "--f0", "1",
        "--alpha", "2", "--beta", "1", "--json"]


def run(capsys, route, *limit):
    try:
        code = route([*ARGV, *limit])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("value", ["-1e-3", "-1E+2", "-.5e1", "-1e308", "-2", "-.5"])
def test_a_negative_number_is_a_value(capsys, value):
    spaced = run(capsys, cli.main, "--finf", value)
    assert spaced == run(capsys, cli.main, f"--finf={value}")
    assert spaced == run(capsys, reference_cli_main, "--finf", value)
    code, out, err = spaced
    assert (code, err, float(json.loads(out)["inputs"]["finf"])) == (1, "", float(value))


def test_minus_infinity_is_a_value_that_is_refused(capsys):
    for limit in (["--finf", "-inf"], ["--finf=-inf"]):
        assert run(capsys, cli.main, *limit) == (2, "", "error: --finf must be finite\n")


@pytest.mark.parametrize("token", ["-1e", "-e5", "-1e-3x", "-x"])
def test_other_tokens_led_by_a_dash_are_flags(capsys, token):
    code, out, err = run(capsys, cli.main, "--finf", token)
    assert (code, out) == (2, "")
    assert "argument --finf: expected one argument" in err


@pytest.mark.parametrize("value", ["-Inf", "-INF", "-infinity", "-nan"])
def test_every_non_finite_spelling_of_float_is_a_value(capsys, value):
    spaced = run(capsys, cli.main, "--finf", value)
    assert spaced == run(capsys, cli.main, f"--finf={value}")
    assert spaced == run(capsys, reference_cli_main, "--finf", value)
    assert spaced == (2, "", "error: --finf must be finite\n")


def test_a_nan_exponent_is_a_value(capsys):
    argv = ["verify", "rmt", "--catalog", "exp", "--json"]
    for route, s in [(cli.main, ["--s", "-nan"]), (cli.main, ["--s=-nan"]),
                     (reference_cli_main, ["--s", "-nan"])]:
        assert route([*argv, *s]) == 2
        assert capsys.readouterr() == ("", "error: rmt: requires s > 0, got nan\n")


def test_an_abbreviated_flag_takes_a_negative_value(capsys):
    spaced = run(capsys, cli.main, "--fin", "-1e-3")
    assert spaced == run(capsys, cli.main, "--fin=-1e-3")
    assert spaced == run(capsys, reference_cli_main, "--fin", "-1e-3")
    assert spaced == run(capsys, cli.main, "--finf", "-1e-3")
    code, out, err = spaced
    assert (code, err, json.loads(out)["inputs"]["finf"]) == (1, "", "-0.001")


def test_an_ambiguous_prefix_is_left_to_argparse(capsys):
    code, out, err = run(capsys, cli.main, "--f", "-1e-3")
    assert (code, out) == (2, "")
    assert "ambiguous option: --f could match" in err


def test_tokens_after_a_double_dash_are_left_as_they_are(capsys):
    code, out, err = run(capsys, cli.main, "--", "--finf", "-1e-3")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "rmtkit: error: unrecognized arguments: -- --finf -1e-3"



@pytest.mark.parametrize("token", ["-1e", "-1e-3x", "-.5x", "-1x"])
def test_a_token_float_rejects_is_a_flag_under_a_wider_argparse_rule(
        capsys, monkeypatch, token):
    # Later argparse releases read any token matching -\.?\d as a negative
    # number; the flag's value is still missing, as on every Python.
    for parser in cli._build_argparser().subcommands.values():
        monkeypatch.setattr(parser, "_negative_number_matcher", re.compile(r"-\.?\d"))
    for route in (cli.main, reference_cli_main):
        code, out, err = run(capsys, route, "--finf", token)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "rmtkit verify: error: argument --finf: expected one argument"


def test_a_spaced_or_lone_dash_token_is_a_value(capsys):
    argv = ["verify", "frullani", "--phi", "-1 + 0*k", "--f0", "-1", "--finf", "0",
            "--alpha", "2", "--beta", "1", "--json"]
    for closed_form in (["--closed-form", "-exp(-x) + 0"], ["--closed-form=-exp(-x) + 0"]):
        assert cli.main([*argv, *closed_form]) == 0
        assert json.loads(capsys.readouterr().out)["inputs"]["closed_form"] == "-exp(-x) + 0"
    code, out, err = run(capsys, cli.main, "--finf", "0", "--tol", "-")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "rmtkit verify: error: argument --tol: invalid float value: '-'"
