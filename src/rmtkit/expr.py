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
bottom-up, in double precision.  ``parse`` is memoized per source string in
a bounded cache, since trees are immutable.  ``compile_expr`` folds each
variable-free subtree and turns the rest of a tree into one generated
Python function of the free variable, from a plan made once per tree and
variable, in one of two number domains: ``float``, F itself (``evaluate``
compiles and calls once), or ``log``, L -> ln F(e^L) on (sign, ln|v|), which
carries a Mellin walk on where x or F leaves the double range.  Each
operation is stated once, in one table keyed by its symbol or name.
"""

from __future__ import annotations

import functools
import math
import operator
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
# the tree depth that compile_expr's walk and to_source recurse through.
# Each counted level costs several interpreter stack frames; 120 keeps the
# parser well inside CPython's default recursion limit while allowing any
# realistic expression.
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


@functools.lru_cache(maxsize=256)
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


def _quotient(numerator: float, denominator: float) -> float:
    if denominator == 0.0:
        raise DivisionByZero(f"division by zero: {numerator!r} / 0")
    return numerator / denominator


def _log_sum(sa: float, la: float, sb: float, lb: float) -> tuple[float, float]:
    """(sign, ln|a + b|) of a = sa e^la, b = sb e^lb, refusing a difference that loses a bit."""
    if la < lb:
        sa, la, sb, lb = sb, lb, sa, la
    ratio = math.exp(lb - la)
    if sa != sb and ratio > 0.5:
        raise DomainError("log form: cancelling sum")
    return sa, la + math.log1p(ratio if sa == sb else -ratio)


# key -> (arity, fold, line, log): an operator's key is its symbol, unary minus's
# "neg", a builtin's its name.  fold maps the operands' values to the
# operation's; line computes it in generated code, formatted with the operands'
# names, {t} its temporary's and {g} its global's, the fold's.  A zero divisor
# alone reaches _quotient's test, a zero or negative base _apply_power's, whose
# comparisons come first, so a malformed base fails as it does there.  math.log,
# sqrt, sin and cos raise ValueError off their domains; gamma and erf read
# specfun when they run or are folded, so a function replaced there is reached.
# log, None for sin and cos, computes a node on the variable as a sign {t}s and a log {t}l
# from its operands' {0}s and {0}l (the variable's: 1.0 and ln x), and reads an operand's
# float, {1} alone, only where it folds: an exponent on the variable has no log either.
_NEGATIVE = "if {{0}}s < 0.0: raise DomainError('{} undefined at a negative value')\n"
_OPERATIONS: dict[str, tuple[int, Callable[..., float], str, str | None]] = {
    "+": (2, operator.add, "{t} = {0} + {1}", "{t}s, {t}l = _log_sum({0}s, {0}l, {1}s, {1}l)"),
    "-": (2, operator.sub, "{t} = {0} - {1}", "{t}s, {t}l = _log_sum({0}s, {0}l, -{1}s, {1}l)"),
    "*": (2, operator.mul, "{t} = {0} * {1}", "{t}s, {t}l = {0}s * {1}s, {0}l + {1}l"),
    "/": (2, _quotient, "{t} = {0} / {1} if {1} else _quotient({0}, {1})",
          "{t}s, {t}l = {0}s * {1}s, {0}l - {1}l"),
    "^": (2, _apply_power,
          "{t} = _apply_power({0}, {1}) if {0} == 0.0 or {0} < 0.0 else _pow({0}, {1})",
          "{t}s, {t}l = _apply_power({0}s, {1}), {1} * {0}l"),
    "neg": (1, operator.neg, "{t} = -{0}", "{t}s, {t}l = -{0}s, {0}l"),
    **{name: (1, fn, f"try: {{t}} = {{g}}({{0}})\nexcept ValueError: "
                     f"raise DomainError('{name} undefined at %r' % ({{0}},)) from None", log)
       for name, fn, log in (
           ("exp", math.exp, "{t}s, {t}l = 1.0, _unlog({0}s, {0}l)"),
           ("ln", math.log, _NEGATIVE.format("ln") + "{t}s, {t}l = _split({0}l)"),
           ("sin", math.sin, None), ("cos", math.cos, None),
           ("sqrt", math.sqrt, _NEGATIVE.format("sqrt") + "{t}s, {t}l = 1.0, 0.5 * {0}l"))},
    "gamma": (1, lambda x: specfun.gamma(x), "{t} = _specfun.gamma({0})",
              "{t}s, {t}l = _log_gamma(_unlog({0}s, {0}l))"),
    "fact": (1, _fact, "{t} = {g}({0})", "{t}s, {t}l = _log_gamma(_unlog({0}s, {0}l) + 1.0)"),
    "erf": (1, lambda x: specfun.erf(x), "{t} = _specfun.erf({0})",  # 2u/sqrt(pi) below e^-20
            "{t}s, {t}l = {0}s, {0}l + _LN_TWO_OVER_SQRT_PI if {0}l < -20.0 "
            "else _log(_specfun.erf(_unlog(1.0, {0}l)))"),
}
_OPERATIONS["pow"] = _OPERATIONS["^"]  # pow(a, b) is a^b
BUILTIN_FUNCTIONS: dict[str, int] = {  # a call's key is a name, and "neg" is no call
    key: entry[0] for key, entry in _OPERATIONS.items() if key.isidentifier() and key != "neg"}
_RUNTIME = {"_quotient": _quotient, "_apply_power": _apply_power, "_pow": math.pow,
            "_specfun": specfun, "DomainError": DomainError, "_log_sum": _log_sum, "_log": math.log,
            "_inf": math.inf, "_LN_TWO_OVER_SQRT_PI": math.log(specfun.TWO_OVER_SQRT_PI),
            # v as (sign, ln|v|); sign e^log, inf past the doubles; (sign, ln|Gamma(u)|)
            "_split": lambda v: (1.0 if v >= 0.0 else -1.0, math.log(abs(v)) if v else -math.inf),
            "_unlog": lambda sign, log: sign * (math.inf if log > 709.78 else math.exp(log)),
            "_log_gamma": lambda u: (1.0 if u > 0.0 else math.copysign(1.0, specfun.gamma(u)),
                                     math.lgamma(u))}

_UNFOLDED = object()  # stands for the value of a subtree that reads the variable or raises


def _raising(error: type[Exception], *args) -> tuple:
    """(fold, line, log, global) of a node that raises error(*args), its operands evaluated."""
    return None, "raise {g}()", "raise {g}()", functools.partial(error, *args)


def _operation(node) -> tuple:
    """(operands, fold, line, log, global) of a node that is not a leaf: fold
    maps the operands' values to the node's, and is None where the node raises
    whatever they are; line and log compute it in a generated body."""
    if isinstance(node, Variable):  # unbound: the fold plan reads a bound one
        return ((), *_raising(UnboundVariable, f"variable {node.name!r} is not bound"))
    if isinstance(node, UnaryNeg):
        key, operands = "neg", (node.child,)
    elif isinstance(node, BinaryOp):
        key, operands = node.op, (node.left, node.right)
        if key not in _OPERATIONS or key.isidentifier():  # a name is a call's key
            return (operands, *_raising(DomainError, f"unknown operator {node.op!r}"))
    elif isinstance(node, Call):
        key, operands = node.fn, node.args
        if key not in BUILTIN_FUNCTIONS:
            return ((), *_raising(UnknownFunction, f"unknown function {node.fn!r}", 0, ()))
    else:
        return ((), *_raising(DomainError, f"unknown node type {type(node).__name__}"))
    arity, fold, line, log = _OPERATIONS[key]
    if len(operands) != arity:  # a hand-built call: parse rejects it
        return ((), *_raising(DomainError, f"{key} takes {arity} argument(s), got {len(operands)}"))
    return operands, fold, line, log, fold


# (id(tree), variable) -> [tree, *_plan(tree, variable), {domain: factory}], at most 256 plans
# each holding per domain the one factory made where no fold raises; the tree keeps its id
_COMPILED: dict = {}
_COMPILED_SIZE = 256


def compile_expr(
    node: ExprNode, bindings: Mapping[str, float], variable: str | None, domain: str = "float"
) -> Callable[[float], float] | None:
    """Compile a tree into a one-argument function of ``variable``.

    Every other name is read from ``bindings`` once, here, as a float;
    with ``variable`` None every name is, and the argument, converted by
    float, goes unused.  Each variable-free subtree is evaluated once, here,
    by a plan made once per tree and variable.  The rest becomes a
    generated function: straight-line code with one temporary per node, a
    walk's operations in its order, and no text from the tree, generated
    from the plan once per tree and variable and kept with it; each call
    passes its folded values in.  A call under which a fold raises gets code
    of its own, not kept, since its line for that fold raises on every call.
    Evaluation is strict, bottom-up, in double precision; an error is raised
    only when reached: ``1/0 + q``, ``q`` unbound, raises DivisionByZero.
    ``domain`` "log" gives L -> ln F(e^L) instead, made on its first call
    from each node's log line, raising DomainError where F <= 0 or a sum
    cancels, or None where a node on the variable has no log line.
    """
    plan = _COMPILED.get((id(node), variable))
    if plan is None:
        if len(_COMPILED) >= _COMPILED_SIZE:
            _COMPILED.clear()
        plan = _COMPILED[id(node), variable] = [node, *_plan(node, variable), {}]
    if domain == "float":
        return _function(plan, bindings, domain)
    if not plan[5]:
        return None
    bindings, made = dict(bindings), []

    def log_form(log_x: float) -> float:  # folds and generates on its first call
        if not made:
            made.append(_function(plan, bindings, domain))
        return made[0](log_x)

    return log_form


def _function(plan, bindings: Mapping[str, float], domain: str) -> Callable[[float], float]:
    """The plan's function in ``domain`` under ``bindings``, as compile_expr describes it."""
    outcomes, failed = list(plan[1]), False
    for index, fold, operands in plan[2]:
        try:
            if fold is None:  # a bound variable; operands is its name
                outcomes[index] = float(bindings[operands])
            elif _UNFOLDED not in (values := [outcomes[i] for i in operands]):
                outcomes[index] = fold(*values)
        except KeyError if fold is None else Exception:  # a read fails only unbound
            failed = True
    if failed:
        return _generate(plan, outcomes, domain)(*outcomes)
    if domain not in plan[6]:
        plan[6][domain] = _generate(plan, outcomes, domain)
    return plan[6][domain](*outcomes)


def _plan(node, variable) -> tuple[list, list, list, int | None, bool]:
    """(outcomes, steps, lines, root, logs): each node's value in preorder, _UNFOLDED but for a
    constant; in a walk's order (index, None, name) reading a binding or (index, fold, operands);
    (index, operands, line, log, global) of each node but a constant and the variable, log None
    if it may fold; the root's index; and whether each node on the variable has a log line."""
    outcomes, steps, lines, refused = [], [], [], []

    def visit(node) -> tuple:  # adds node's outcomes, steps and line; (its index, may it fold)
        index = len(outcomes)
        outcomes.append(node.value if isinstance(node, Constant) else _UNFOLDED)
        if isinstance(node, Constant):
            return index, True
        if isinstance(node, Variable) and node.name == variable:
            return None, False
        operands, fold, line, log, value = _operation(node)
        visits = [visit(operand) for operand in operands]
        indices = tuple(operand for operand, _ in visits)
        folds = isinstance(node, Variable) or fold is not None and all(f for _, f in visits)
        if not folds and (log is None or any(  # {i} alone: an operand's float
                re.search(rf"\{{{i}\}}(?![sl])", log) for i, (_, f) in enumerate(visits) if not f)):
            refused.append(index)
        lines.append((index, indices, line, None if folds else log, value))
        if not folds:
            return index, False
        steps.append((index, fold, node.name if isinstance(node, Variable) else indices))
        return index, True

    return outcomes, steps, lines, visit(node)[0], not refused  # refused once visited


def _generate(plan, outcomes: list, domain: str) -> Callable:
    """The factory that, given compile_expr's outcomes for a plan's tree, returns its
    function of the variable in ``domain``: a line for each node the outcomes leave
    _UNFOLDED, in the log domain its log where it has one, each folded value split
    into its sign and log once, in the factory."""
    log = domain == "log"
    namespace, body = dict(_RUNTIME), ["x = float(x)", "xs, xl = 1.0, x"][:1 + log]
    head = [f"p{i}s, p{i}l = _split(p{i})" for i, outcome in enumerate(outcomes)
            if log and outcome is not _UNFOLDED]

    def name(index) -> str:  # the variable x, a folded p<index> or a temporary t<index>
        return "x" if index is None else f"t{index}" if outcomes[index] is _UNFOLDED else f"p{index}"

    for index, operands, line, log_line, value in plan[3]:
        if outcomes[index] is _UNFOLDED:
            namespace[f"g{index}"] = value
            line = log_line if log and log_line else line
            body.extend(line.format(*map(name, operands), t=f"t{index}", g=f"g{index}").split("\n"))
    root = name(plan[4])
    if log:
        body.append(f"if {root}s < 0.0 or not -_inf < {root}l < _inf: "
                    "raise DomainError('log form: ln F undefined at ln x = %r' % (x,))")
        root += "l"
    body.append(f"return {root}")
    parameters = ", ".join(f"p{i}" for i in range(len(outcomes)))
    exec(compile(f"def factory({parameters}):\n"
                 + "".join(f"    {line}\n" for line in head)
                 + "    def expression(x):\n" + "".join(f"        {line}\n" for line in body)
                 + "    return expression\n", "<expression>", "exec"), namespace)
    return namespace["factory"]


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
