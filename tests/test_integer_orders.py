"""Every integer order or count the package takes, through one table.

Each entry point states which integral values it accepts and how it
refuses the rest; the table drives each through the same bad values and
checks the exact error type and message, so the shared rule is pinned at
every caller.
"""

import math
from typing import Callable, NamedTuple

import pytest
from test_cli import FD_PAIR, expression_pair

from rmtkit.errors import DerivativeUnavailable, DomainError, ParamDomainError, RmtError
from rmtkit.sequences import catalog_get, catalog_ids, eval_series, shift_sequence
from rmtkit.specfun import MAX_POLY_DEGREE, hermite, laguerre
from rmtkit.transforms import (
    FD_MAX_ORDER,
    lemma2,
    nth_derivative_fd,
    partial_fraction_sum,
    residue_check,
)


class Entry(NamedTuple):
    """call(v) passes v as the entry point's order or count and returns a
    comparable value.  refusal(v) is the (type, message) of a value below
    ``low``, non-integral or non-finite; above(v), of an integral value
    above ``high``."""

    call: Callable
    low: int
    high: float
    refusal: Callable
    above: Callable | None = None


def _pair_values(pair):
    return pair.label, pair.derivative_max, pair.closed_form(0.7), pair.phi(1.0)


def _derivative_entry(pair, label):
    return Entry(
        lambda v: pair.derivative(v, 1.0),
        0,
        pair.derivative_max,
        lambda v: (DomainError, f"{label}: derivative order {v!r} is not an integer >= 0"),
        lambda v: (
            DerivativeUnavailable,
            f"{label}: derivative order {v} exceeds derivative_max={pair.derivative_max}",
        ),
    )


def _degree_entry(polynomial, name):
    return Entry(
        lambda v: polynomial(v, 0.7),
        0, MAX_POLY_DEGREE,
        lambda v: (DomainError, f"{name}: degree must be an integer in [0, 60], got {v!r}"),
    )


# Catalog parameters where an id requires one.
CATALOG_PARAMS = {"power": {"m": 1.5}, "laguerre_weight": {"n": 3}}


def _catalog_derivative_entries():
    """One derivative row per catalog id; geometric is the power pair
    under another closed form, so its orders are refused as power's."""
    entries = {}
    for id_ in catalog_ids():
        table = "power" if id_ == "geometric" else id_
        pair = catalog_get(id_, **CATALOG_PARAMS.get(id_, {}))
        entries[f"catalog derivative ({id_})"] = _derivative_entry(pair, f"catalog {table!r}")
    return entries


def _entries():
    exp = catalog_get("exp")
    harmonic = catalog_get("harmonic_shifted")  # derivative_max 6
    return {
        **_catalog_derivative_entries(),
        "eval_series max_terms": Entry(
            lambda v: eval_series(exp, 1e-20, v),
            1, math.inf,
            lambda v: (DomainError, "eval_series: max_terms must be >= 1"),
        ),
        "shift_sequence n": Entry(
            lambda v: _pair_values(shift_sequence(harmonic, v)),
            1, 6,
            lambda v: (DomainError, "shift_sequence: n must be a positive integer"),
            lambda v: (
                DerivativeUnavailable,
                f"harmonic_shifted: derivative order {v} exceeds derivative_max=6",
            ),
        ),
        "shifted pair derivative": _derivative_entry(
            shift_sequence(exp, 2), "exp(a=1) shifted by 2"
        ),
        "hermite degree": _degree_entry(hermite, "hermite"),
        "laguerre degree": _degree_entry(laguerre, "laguerre"),
        "laguerre_weight n": Entry(
            lambda v: _pair_values(catalog_get("laguerre_weight", n=v)),
            1, 50,
            lambda v: (
                ParamDomainError,
                f"catalog 'laguerre_weight': requires integer 1 <= n <= 50, got {float(v)!r}",
            ),
        ),
        "lemma2 n": Entry(
            lambda v: lemma2(harmonic, v).lhs,
            1, 6,
            lambda v: (DomainError, "lemma2: n must be a positive integer"),
            lambda v: (
                DerivativeUnavailable,
                f"harmonic_shifted: derivative order {v} exceeds derivative_max=6",
            ),
        ),
        "partial_fraction_sum terms": Entry(
            lambda v: partial_fraction_sum(exp, 0.5, v),
            0, math.inf,
            lambda v: (DomainError, "partial_fraction_sum: terms must be >= 0"),
        ),
        "residue_check m": Entry(
            lambda v: residue_check(exp, v, 1e-4),
            0, math.inf,
            lambda v: (DomainError, "residue_check: m must be a non-negative integer"),
        ),
        # Order 0 is the closed form; FD gives orders 1 to FD_MAX_ORDER.
        "expression pair FD derivative": _derivative_entry(
            expression_pair(*FD_PAIR), "expression pair"
        ),
        "expression pair derivative": _derivative_entry(
            expression_pair("--phi", "1", "--closed-form", "exp(-x)"), "expression pair"
        ),
        "nth_derivative_fd n": Entry(
            lambda v: nth_derivative_fd(math.exp, 0.5, v, 1e-3),
            1, FD_MAX_ORDER,
            lambda v: (DomainError, f"nth_derivative_fd: n must be in 1..{FD_MAX_ORDER}, got {v}"),
        ),
    }


ENTRIES = _entries()


def _bad_values(entry):
    values = [-1, 0.5, math.nan, math.inf, -math.inf, entry.low - 1]
    if entry.high < math.inf:
        values.append(int(entry.high) + 1)
    return values


def _expected(entry, value):
    if entry.above is not None and float(value).is_integer() and value > entry.high:
        return entry.above(value)
    return entry.refusal(value)


def _outcome(thunk):
    try:
        return thunk()
    except RmtError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(ENTRIES))
class TestIntegerOrders:
    def test_bad_values_are_refused_with_the_callers_error(self, name):
        entry = ENTRIES[name]
        for value in _bad_values(entry):
            error, message = _expected(entry, value)
            with pytest.raises(RmtError) as info:
                entry.call(value)
            assert (type(info.value), str(info.value)) == (error, message), value

    def test_bounds_are_accepted(self, name):
        entry = ENTRIES[name]
        for value in (entry.low, entry.high):
            if value < math.inf:
                entry.call(int(value))

    def test_integral_float_is_that_integer(self, name):
        entry = ENTRIES[name]
        assert _outcome(lambda: entry.call(2.0)) == _outcome(lambda: entry.call(2))


# An int that float() cannot convert: the rule refuses it with the caller's
# own error rather than letting float()'s OverflowError escape (this covers
# lemma2's n, residue_check's m and a catalog derivative's order).  The
# laguerre_weight builder is left out: like every catalog parameter, its n
# goes through float() before it reaches the rule.
HUGE = 10**400


@pytest.mark.parametrize("name", sorted(set(ENTRIES) - {"laguerre_weight n"}))
def test_int_beyond_the_double_range_is_refused(name):
    entry = ENTRIES[name]
    with pytest.raises(RmtError) as info:
        entry.call(HUGE)
    assert (type(info.value), str(info.value)) == entry.refusal(HUGE)
