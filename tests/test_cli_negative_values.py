"""A subcommand reads a negative number in exponent form, or -inf, as a
flag's value, spaced as it reads the same value joined by '='."""

import json

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
