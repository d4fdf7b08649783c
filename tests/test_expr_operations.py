"""Expression operations: each node reaches its own kind's operation, and a
generated function calls specfun with no frame between."""

import struct
import sys

import pytest
from oracles import reference_evaluate

from rmtkit import specfun
from rmtkit.errors import DomainError, UnknownFunction
from rmtkit.expr import BinaryOp, Call, Constant, Variable, compile_expr, parse


def _outcome(thunk):
    """The value's type and bytes, or the exception's type and message."""
    try:
        value = thunk()
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), struct.pack("<d", value)


def test_gamma_and_erf_are_called_from_the_generated_function(monkeypatch):
    callers = []

    def spy(fn):
        def called(x):
            callers.append(sys._getframe(1).f_code.co_name)
            return fn(x)
        return called

    erf, gamma = specfun.erf, specfun.gamma
    monkeypatch.setattr(specfun, "erf", spy(erf))
    monkeypatch.setattr(specfun, "gamma", spy(gamma))
    assert compile_expr(parse("erf(x)"), {}, "x")(0.5) == erf(0.5)
    assert compile_expr(parse("gamma(x)"), {}, "x")(2.5) == gamma(2.5)
    assert callers == ["expression", "expression"]


x, one = Variable("x"), Constant(1.0)


# An operator's symbol names no function, and a function's name, or unary
# minus's "neg", no operator.
@pytest.mark.parametrize("tree, error", [
    (Call("neg", (x,)), UnknownFunction),
    (Call("+", (x, one)), UnknownFunction),
    (Call("^", (x, one)), UnknownFunction),
    (BinaryOp("pow", x, one), DomainError),
    (BinaryOp("neg", x, one), DomainError),
    (BinaryOp("exp", x, one), DomainError),
    (BinaryOp("", x, one), DomainError),
], ids=repr)
def test_a_key_is_read_only_by_its_own_kind_of_node(tree, error):
    expected = _outcome(lambda: reference_evaluate(tree, {"x": 2.0}))
    assert expected[0] is error
    assert _outcome(lambda: compile_expr(tree, {}, "x")(2.0)) == expected
