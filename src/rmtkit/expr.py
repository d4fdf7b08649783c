"""A small, total expression language for user-supplied coefficient
functions and closed forms.

Grammar (precedence climbing, lowest first)::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := primary ('^' power)?
    primary := number | identifier | identifier '(' expr (',' expr)* ')'
             | '(' expr ')'

'^' is right-associative and binds tighter than unary minus, so ``-k^2``
is ``-(k^2)``; an exponent may not start with a bare unary minus
(``2^-3`` is a syntax error, write ``2^(-3)``).  Numbers are decimal with
optional fraction and exponent; one beyond double range is a syntax error,
so every parsed tree prints back through ``to_source``.  Whitespace is
insignificant.

``fact(x)`` is defined as gamma(x+1) so it accepts real arguments.
There are no user-defined functions or conditionals; evaluation is strict,
bottom-up, in double precision.  ``compile_expr`` turns a tree once into
one closure per node and reads every bound name then, so a later
evaluation walks no tree and a builtin call passes its argument values
straight to the function; ``evaluate`` compiles and calls once.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Union

from . import specfun
from .errors import (
    DivisionByZero,
    DomainError,
    ExprSyntaxError,
    UnboundVariable,
    UnknownFunction,
)

__all__ = [
    "ExprNode",
    "Constant",
    "Variable",
    "UnaryNeg",
    "BinaryOp",
    "Call",
    "parse",
    "evaluate",
    "compile_expr",
    "to_source",
    "BUILTIN_FUNCTIONS",
    "MAX_SOURCE_BYTES",
]

MAX_SOURCE_BYTES = 64 * 1024
# Parentheses, calls, unary minus and every binary operator count toward
# the limit: each _Parser method takes the depth it parses at, and passes
# one more to what it parses below such a construct.  So the limit bounds
# the tree depth that compile_expr, the closures it builds and to_source
# recurse through.  Each counted level costs several interpreter stack
# frames; 120 keeps the parser well inside CPython's default recursion
# limit while allowing any realistic expression.
_MAX_DEPTH = 120


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class UnaryNeg:
    child: "ExprNode"


@dataclass(frozen=True)
class BinaryOp:
    op: str  # one of + - * / ^
    left: "ExprNode"
    right: "ExprNode"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple["ExprNode", ...]


ExprNode = Union[Constant, Variable, UnaryNeg, BinaryOp, Call]


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExprSyntaxError(
                f"unexpected character {source[pos]!r}",
                pos,
                ("number", "identifier", "operator"),
            )
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive descent over the token list.

    Each grammar method takes the depth it parses at as an argument.  A
    construct that deepens the tree passes ``_deeper(depth, offset)``, one
    more, to what it parses below, so no depth is kept or restored here.
    """

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", offset, (op,))
        return self.advance()

    @staticmethod
    def _deeper(depth: int, offset: int) -> int:
        """``depth + 1``, or the nesting error at ``offset`` past the limit."""
        if depth >= _MAX_DEPTH:
            raise ExprSyntaxError("expression too deeply nested", offset, ())
        return depth + 1

    def _chain(self, ops: str, operand: Callable[[int], ExprNode], depth: int) -> ExprNode:
        """A left-associative chain of ``operand`` joined by ``ops``.

        Each operator deepens the tree one level, so each counts toward the
        depth limit until the chain ends.
        """
        node = operand(depth)
        while True:
            kind, text, offset = self.peek()
            if kind != "op" or text not in ops:
                return node
            depth = self._deeper(depth, offset)
            self.advance()
            node = BinaryOp(text, node, operand(depth))

    def parse_expr(self, depth: int) -> ExprNode:
        return self._chain("+-", self.parse_term, self._deeper(depth, self.peek()[2]))

    def parse_term(self, depth: int) -> ExprNode:
        return self._chain("*/", self.parse_factor, depth)

    def parse_factor(self, depth: int) -> ExprNode:
        kind, text, offset = self.peek()
        if kind == "op" and text == "-":
            depth = self._deeper(depth, offset)
            self.advance()
            return UnaryNeg(self.parse_factor(depth))
        return self.parse_power(depth)

    def parse_power(self, depth: int) -> ExprNode:
        base = self.parse_primary(depth)
        kind, text, offset = self.peek()
        if kind == "op" and text == "^":
            depth = self._deeper(depth, offset)
            self.advance()
            # Right-associative; the exponent may not start with a bare
            # unary minus (parenthesise it instead).
            return BinaryOp("^", base, self.parse_power(depth))
        return base

    def parse_primary(self, depth: int) -> ExprNode:
        kind, text, offset = self.advance()
        if kind == "number":
            value = float(text)
            if math.isinf(value):
                raise ExprSyntaxError(f"number {text!r} exceeds double range", offset, ())
            return Constant(value)
        if kind == "ident":
            pk, pt, _ = self.peek()
            if pk == "op" and pt == "(":
                return self.parse_call(text, offset, depth)
            return Variable(text)
        if kind == "op" and text == "(":
            node = self.parse_expr(self._deeper(depth, offset))
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            f"expected a value, got {text!r}" if text else "unexpected end of input",
            offset,
            ("number", "identifier", "'('"),
        )

    def parse_call(self, name: str, offset: int, depth: int) -> ExprNode:
        if name not in BUILTIN_FUNCTIONS:
            raise UnknownFunction(
                f"unknown function {name!r}",
                offset,
                tuple(sorted(BUILTIN_FUNCTIONS)),
            )
        self.expect_op("(")
        depth = self._deeper(depth, offset)
        args = [self.parse_expr(depth)]
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == ",":
                self.advance()
                args.append(self.parse_expr(depth))
            else:
                break
        self.expect_op(")")
        arity = BUILTIN_FUNCTIONS[name]
        if len(args) != arity:
            raise ExprSyntaxError(
                f"{name} takes {arity} argument(s), got {len(args)}",
                offset,
                (),
            )
        return Call(name, tuple(args))


def parse(source: str) -> ExprNode:
    """Parse ``source`` into an expression tree.

    Raises ExprSyntaxError (with a byte offset and expected-token set) on
    malformed input and UnknownFunction for calls outside the builtin list.
    """
    if len(source.encode("utf-8", errors="replace")) > MAX_SOURCE_BYTES:
        raise ExprSyntaxError("input exceeds 64 KiB", MAX_SOURCE_BYTES, ())
    parser = _Parser(_tokenize(source))
    node = parser.parse_expr(0)
    kind, text, offset = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {text!r}", offset, ("end of input",))
    return node


def _apply_power(base: float, exponent: float) -> float:
    if base == 0.0 and exponent < 0.0:
        raise DivisionByZero("0 raised to a negative power")
    if base < 0.0 and not float(exponent).is_integer():
        raise DomainError(
            f"negative base {base!r} with non-integer exponent {exponent!r}"
        )
    return math.pow(base, exponent)


def _fact(x: float) -> float:
    try:
        return specfun.gamma(x + 1.0)
    except (DomainError, OverflowError) as exc:
        raise type(exc)(f"fact({x!r}): {exc}") from None


# name -> (arity, function).  The specfun functions are looked up when
# called, so a function replaced on specfun is the one expressions reach.
_BUILTINS: dict[str, tuple[int, Callable[..., float]]] = {
    "exp": (1, math.exp),
    "ln": (1, math.log),
    "sin": (1, math.sin),
    "cos": (1, math.cos),
    "sqrt": (1, math.sqrt),
    "gamma": (1, lambda x: specfun.gamma(x)),
    "fact": (1, _fact),
    "erf": (1, lambda x: specfun.erf(x)),
    "pow": (2, _apply_power),
}
BUILTIN_FUNCTIONS: dict[str, int] = {name: arity for name, (arity, _) in _BUILTINS.items()}


def compile_expr(
    node: ExprNode, bindings: Mapping[str, float], variable: str | None
) -> Callable[[float], float]:
    """Compile a tree once into a one-argument function of ``variable``.

    Every other name is read from ``bindings`` once, here, as a float;
    with ``variable`` None every name is, and the argument goes unused.
    Each node becomes one closure, and a call passes its argument values
    to the builtin directly.  Evaluation is strict, bottom-up, in double
    precision, and an error is raised only when evaluation reaches it, so
    ``1/0 + q`` with ``q`` unbound raises DivisionByZero as a left-to-right
    walk would.
    """
    if isinstance(node, Constant):
        value = node.value
        return lambda x: value
    if isinstance(node, Variable):
        name = node.name
        if name == variable:
            return float
        try:
            value = float(bindings[name])
        except KeyError:
            return _raises(UnboundVariable, f"variable {name!r} is not bound")
        return lambda x: value
    if isinstance(node, UnaryNeg):
        child = compile_expr(node.child, bindings, variable)
        return lambda x: -child(x)
    if isinstance(node, BinaryOp):
        return _compile_binary(
            node.op,
            compile_expr(node.left, bindings, variable),
            compile_expr(node.right, bindings, variable),
        )
    if isinstance(node, Call):
        return _compile_call(node, bindings, variable)
    return _raises(DomainError, f"unknown node type {type(node).__name__}")


def _raises(error: type[Exception], *args) -> Callable[[float], float]:
    def fail(x: float) -> float:
        raise error(*args)

    return fail


def _compile_binary(op: str, left, right) -> Callable[[float], float]:
    if op == "+":
        return lambda x: left(x) + right(x)
    if op == "-":
        return lambda x: left(x) - right(x)
    if op == "*":
        return lambda x: left(x) * right(x)
    if op == "/":

        def divide(x: float) -> float:
            numerator = left(x)
            denominator = right(x)
            if denominator == 0.0:
                raise DivisionByZero(f"division by zero: {numerator!r} / 0")
            return numerator / denominator

        return divide
    if op == "^":
        return lambda x: _apply_power(left(x), right(x))

    def unknown(x: float) -> float:
        left(x)
        right(x)
        raise DomainError(f"unknown operator {op!r}")

    return unknown


def _compile_call(node: Call, bindings, variable) -> Callable[[float], float]:
    name = node.fn
    builtin = _BUILTINS.get(name)
    if builtin is None:
        return _raises(UnknownFunction, f"unknown function {name!r}", 0, ())
    arity, fn = builtin
    if len(node.args) != arity:  # hand-built: parse rejects such a call
        return _raises(DomainError, f"{name} takes {arity} argument(s), got {len(node.args)}")
    args = [compile_expr(a, bindings, variable) for a in node.args]
    if name == "pow":  # '^', whose _apply_power raises no ValueError
        return _compile_binary("^", *args)
    (arg,) = args

    def call(x: float) -> float:
        value = arg(x)
        try:
            return fn(value)
        except ValueError:  # math.log, math.sqrt, math.sin, math.cos off their domains
            raise DomainError(f"{name} undefined at {value!r}") from None

    return call


def evaluate(node: ExprNode, env: Mapping[str, float]) -> float:
    """Strict bottom-up evaluation in double precision."""
    return compile_expr(node, env, None)(0.0)


# Printing: precedence levels for minimal parenthesisation.
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(node: ExprNode) -> int:
    if isinstance(node, BinaryOp):
        return _PREC[node.op]
    if isinstance(node, UnaryNeg):
        return _PREC["neg"]
    return _PREC["atom"]


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_source(node: ExprNode) -> str:
    """Render a tree back to source with minimal parentheses.

    ``to_source`` composed with ``parse`` is a fixed point: printing,
    re-parsing, and printing again yields the identical string.
    """
    if isinstance(node, Constant):
        return _fmt_number(node.value)
    if isinstance(node, Variable):
        return node.name
    if isinstance(node, UnaryNeg):
        child = to_source(node.child)
        if _prec(node.child) < _PREC["neg"]:
            child = f"({child})"
        return f"-{child}"
    if isinstance(node, Call):
        return f"{node.fn}({', '.join(to_source(a) for a in node.args)})"
    if isinstance(node, BinaryOp):
        lp, rp = _prec(node.left), _prec(node.right)
        left, right = to_source(node.left), to_source(node.right)
        if node.op == "^":
            # Right-associative; the base must be an atom, and an exponent
            # beginning with '-' must be parenthesised to re-parse.
            if lp < _PREC["atom"]:
                left = f"({left})"
            if rp < _PREC["^"] or isinstance(node.right, UnaryNeg):
                right = f"({right})"
            return f"{left}^{right}"
        prec = _PREC[node.op]
        if lp < prec:
            left = f"({left})"
        # Left-associative: a right operand at the same level needs parens.
        if rp <= prec:
            right = f"({right})"
        return f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"
    raise DomainError(f"unknown node type {type(node).__name__}")
