"""Expression language: grammar, evaluation, printing, robustness."""

import math
import random
import re
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtkit.errors import (
    DivisionByZero,
    DomainError,
    ExprSyntaxError,
    PoleError,
    RmtError,
    UnboundVariable,
    UnknownFunction,
)
from rmtkit import expr, specfun
from oracles import reference_evaluate, reference_parse
from rmtkit.expr import (
    BUILTIN_FUNCTIONS,
    MAX_SOURCE_BYTES,
    BinaryOp,
    Call,
    Constant,
    UnaryNeg,
    Variable,
    compile_expr,
    evaluate,
    parse,
    to_source,
)


class TestGrammar:
    def test_nested_calls_and_division(self):
        node = parse("gamma(m+k)/gamma(m)")
        assert isinstance(node, BinaryOp) and node.op == "/"
        assert isinstance(node.left, Call) and node.left.fn == "gamma"
        assert isinstance(node.left.args[0], BinaryOp)
        assert isinstance(node.right, Call)

    def test_exponent_may_not_start_with_minus(self):
        with pytest.raises(ExprSyntaxError) as exc_info:
            parse("2^-3")
        assert exc_info.value.offset == 2
        assert exc_info.value.expected

    def test_parenthesised_negative_exponent(self):
        assert evaluate(parse("2^(-3)"), {}) == 0.125

    def test_power_binds_tighter_than_unary_minus(self):
        node = parse("-k^2")
        assert isinstance(node, UnaryNeg)
        assert isinstance(node.child, BinaryOp) and node.child.op == "^"
        assert evaluate(node, {"k": 2.0}) == -4.0

    def test_power_right_associative(self):
        assert evaluate(parse("2^2^3"), {}) == 256.0

    def test_number_forms(self):
        assert evaluate(parse("1.5e3"), {}) == 1500.0
        assert evaluate(parse("2."), {}) == 2.0
        assert evaluate(parse("7e-2"), {}) == 0.07

    def test_whitespace_insignificant(self):
        assert to_source(parse("1+2 * k")) == to_source(parse("1 + 2*k"))

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction):
            parse("sinh(1)")

    def test_arity_checked(self):
        with pytest.raises(ExprSyntaxError):
            parse("gamma(1,2)")
        with pytest.raises(ExprSyntaxError):
            parse("pow(1)")

    def test_error_offset_points_at_problem(self):
        with pytest.raises(ExprSyntaxError) as exc_info:
            parse("1 + * 2")
        assert exc_info.value.offset == 4

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse("1 + 2 )")

    def test_length_cap(self):
        with pytest.raises(ExprSyntaxError):
            parse("1+" * 40000 + "1")

    def test_deep_nesting_is_graceful(self):
        with pytest.raises(ExprSyntaxError):
            parse("(" * 3000 + "1" + ")" * 3000)

    @pytest.mark.parametrize("op", ["^", "+", "-", "*", "/"])
    def test_long_operator_chain_is_graceful(self, op):
        # Each operator deepens the tree; a chain under the byte cap must
        # stop at the depth limit, not in evaluate or to_source.
        with pytest.raises(ExprSyntaxError, match="too deeply nested"):
            parse(f"x{op}" * 30000 + "x")

    @pytest.mark.parametrize("op,value", [("^", 1.0), ("+", 120.0), ("*", 1.0)])
    def test_chain_just_under_the_depth_limit(self, op, value):
        tree = parse(f"x{op}" * 119 + "x")
        assert evaluate(tree, {"x": 1.0}) == value
        printed = to_source(tree)
        assert to_source(parse(printed)) == printed
        with pytest.raises(ExprSyntaxError, match="too deeply nested"):
            parse(f"x{op}" * 120 + "x")


class TestEvaluate:
    def test_power_binding(self):
        assert evaluate(parse("a^k"), {"a": 2.0, "k": 3.0}) == 8.0

    def test_harmonic_coefficient(self):
        assert evaluate(parse("1/(k+1)"), {"k": 0.0}) == 1.0

    def test_reflection_product(self):
        # fact(-s) gamma(s) = pi/sin(pi s) at s = 1/2.
        value = evaluate(parse("fact(-s)*gamma(s)"), {"s": 0.5})
        assert value == pytest.approx(math.pi, abs=1e-12)

    def test_builtins(self):
        env = {"x": 0.25}
        assert evaluate(parse("exp(x)"), env) == pytest.approx(math.exp(0.25))
        assert evaluate(parse("ln(x)"), env) == pytest.approx(math.log(0.25))
        assert evaluate(parse("sqrt(x)"), env) == 0.5
        assert evaluate(parse("sin(x)^2 + cos(x)^2"), env) == pytest.approx(1.0)
        assert evaluate(parse("erf(x)"), env) == pytest.approx(0.2763263901682369)
        assert evaluate(parse("pow(x, 2)"), env) == 0.0625

    def test_builtin_arities(self):
        assert BUILTIN_FUNCTIONS == {
            "exp": 1, "ln": 1, "sin": 1, "cos": 1, "sqrt": 1,
            "gamma": 1, "fact": 1, "erf": 1, "pow": 2,
        }

    @pytest.mark.parametrize("name", sorted(BUILTIN_FUNCTIONS))
    @pytest.mark.parametrize("inf", [math.inf, -math.inf])
    def test_builtins_at_infinity_return_or_raise_library_errors(self, name, inf):
        others = (inf, -inf, 2.0, -2.0, 0.5, 0.0)
        arglists = [(inf,)] if BUILTIN_FUNCTIONS[name] == 1 else [
            args for other in others for args in ((inf, other), (other, inf))
        ]
        for args in arglists:
            try:
                value = evaluate(Call(name, tuple(map(Constant, args))), {})
            except RmtError:
                continue
            assert not math.isnan(value), (name, args)

    def test_hand_built_call_to_unknown_function(self):
        with pytest.raises(UnknownFunction):
            evaluate(Call("zeta", (Constant(2.0),)), {})

    @pytest.mark.parametrize("call,message", [
        (Call("exp", ()), "exp takes 1 argument(s), got 0"),
        (Call("pow", (Constant(1.0),)), "pow takes 2 argument(s), got 1"),
        (Call("exp", (Constant(1.0), Constant(2.0))), "exp takes 1 argument(s), got 2"),
    ])
    def test_hand_built_call_with_wrong_arity_is_a_domain_error(self, call, message):
        with pytest.raises(DomainError) as info:
            evaluate(call, {})
        assert (type(info.value), str(info.value)) == (DomainError, message)

    @pytest.mark.parametrize("source", ["pow(1)", "exp(1, 2)", "gamma(x, x, x)"])
    def test_arity_refusal_has_the_wording_of_parse(self, source):
        with pytest.raises(ExprSyntaxError) as parsed:
            parse(source)
        call = Call(source[:source.index("(")], (Constant(1.0),) * (source.count(",") + 1))
        with pytest.raises(DomainError) as info:
            evaluate(call, {})
        assert str(parsed.value).startswith(str(info.value) + " at offset ")

    def test_builtins_read_specfun_when_called(self, monkeypatch):
        monkeypatch.setattr(specfun, "gamma", lambda x: -x)
        monkeypatch.setattr(specfun, "erf", lambda x: 7.0)
        assert evaluate(parse("gamma(2) + fact(3) + erf(0)"), {}) == -2.0 - 4.0 + 7.0

    @pytest.mark.parametrize("k, error, message", [
        (-1.0, PoleError, "fact(-1.0): gamma: pole at non-positive integer near x=0.0"),
        (171.0, OverflowError, "fact(171.0): gamma: Gamma(172.0) exceeds double range"),
        (math.inf, DomainError, "fact(inf): gamma: undefined at inf"),
    ])
    def test_fact_errors_name_fact_and_its_argument(self, k, error, message):
        tree = parse("fact(k)")
        for run in (lambda: evaluate(tree, {"k": k}),
                    lambda: compile_expr(tree, {"k": k}, "x")(1.0)):
            with pytest.raises(error, match=rf"^{re.escape(message)}$") as exc_info:
                run()
            assert type(exc_info.value) is error

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            evaluate(parse("q + 1"), {})

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            evaluate(parse("1/0"), {})
        with pytest.raises(DivisionByZero):
            evaluate(parse("1/(k-k)"), {"k": 3.0})

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            evaluate(parse("ln(0-1)"), {})
        with pytest.raises(DomainError):
            evaluate(parse("sqrt(0-4)"), {})
        with pytest.raises(DomainError):
            evaluate(parse("(0-2)^0.5"), {})
        with pytest.raises(DomainError):
            evaluate(parse("gamma(0)"), {})

    @pytest.mark.parametrize(
        "source, message",
        [
            ("ln(0-1)", "ln undefined at -1.0"),
            ("ln(0)", "ln undefined at 0.0"),
            ("sqrt(0-1)", "sqrt undefined at -1.0"),
        ],
    )
    def test_domain_error_messages(self, source, message):
        tree = parse(source)
        for run in (lambda: evaluate(tree, {}), lambda: compile_expr(tree, {}, "x")(1.0)):
            with pytest.raises(DomainError, match=rf"^{re.escape(message)}$"):
                run()

    def test_sqrt_of_negative_zero(self):
        tree = parse("sqrt(-0.0)")
        assert math.copysign(1.0, evaluate(tree, {})) == -1.0
        assert math.copysign(1.0, compile_expr(tree, {}, "x")(1.0)) == -1.0

    def test_zero_to_negative_power(self):
        with pytest.raises(DivisionByZero):
            evaluate(parse("0^(-1)"), {})


# Fifty expressions exercising every operator, function, and nesting shape.
ROUND_TRIP_CORPUS = [
    "gamma(m+k)/gamma(m)",
    "-k^2",
    "a^k",
    "1/(k+1)",
    "fact(-s)*gamma(s)",
    "2^2^3",
    "1 - 2 - 3",
    "1 - (2 - 3)",
    "a/(b*c)",
    "a/b*c",
    "(a+b)*c",
    "-(a+b)",
    "2^(-3)",
    "exp(-x)*x^2",
    "sqrt(x)/ln(x+1)",
    "pow(x, y+1)",
    "1.5e3 + 0.25",
    "x",
    "-x",
    "- - x",
    "(x)",
    "sin(cos(x))",
    "a*b+c*d",
    "a*(b+c)*d",
    "x^2^2^2",
    "(x^2)^2",
    "-(x^2)^2",
    "k*(k-1)*(k-2)",
    "1/(1+x)^5",
    "erf(x)",
    "x/2",
    "3/4/5",
    "3/(4/5)",
    "a-b+c",
    "a-(b+c)",
    "2.0*x",
    "1e-3*x",
    "gamma(0.5)",
    "fact(n)/fact(k)/fact(n-k)",
    "x*y^2",
    "(x*y)^2",
    "x+y+z",
    "x+(y+z)",
    "exp(x)^2",
    "ln(x)^(1/2)",
    "-1",
    "0.5^k",
    "(1-x)^m",
    "a^(b^c)",
    "((a))",
]


class TestPrinting:
    def test_corpus_size(self):
        assert len(ROUND_TRIP_CORPUS) == 50

    @pytest.mark.parametrize("source", ROUND_TRIP_CORPUS)
    def test_round_trip_fixed_point(self, source):
        once = to_source(parse(source))
        twice = to_source(parse(once))
        assert once == twice

    @pytest.mark.parametrize("source", ROUND_TRIP_CORPUS)
    def test_round_trip_preserves_tree(self, source):
        assert parse(to_source(parse(source))) == parse(source)

    @pytest.mark.parametrize("tree,source", [
        (BinaryOp("+", Variable("a"), BinaryOp("-", Variable("b"), Variable("c"))), "a + (b - c)"),
        (BinaryOp("*", Variable("a"), BinaryOp("/", Variable("b"), Variable("c"))), "a*(b/c)"),
        (BinaryOp("-", Variable("a"), BinaryOp("+", Variable("b"), Variable("c"))), "a - (b + c)"),
    ])
    def test_right_nested_operand_of_equal_precedence_is_parenthesised(self, tree, source):
        assert to_source(tree) == source
        assert parse(source) == tree

    @pytest.mark.parametrize("node", [1.5, "x", None])
    def test_a_non_node_is_a_domain_error(self, node):
        with pytest.raises(DomainError, match=f"^unknown node type {type(node).__name__}$"):
            to_source(node)


_BINARY_OPS = ["+", "-", "*", "/", "^"]


class TestPrecedence:
    def test_adjacent_operator_pairs_match_reference_parse(self):
        """a op1 b op2 c must evaluate like its explicitly parenthesised
        reading under the precedence/associativity table."""
        prec = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
        env = {"a": 5.0, "b": 3.0, "c": 2.0}
        for op1 in _BINARY_OPS:
            for op2 in _BINARY_OPS:
                flat = f"a {op1} b {op2} c"
                if prec[op1] >= prec[op2] and not (op1 == op2 == "^"):
                    grouped = f"(a {op1} b) {op2} c"
                else:
                    grouped = f"a {op1} (b {op2} c)"
                assert evaluate(parse(flat), env) == evaluate(parse(grouped), env), flat

    def test_unary_minus_below_power_above_multiplication(self):
        env = {"x": 3.0}
        assert evaluate(parse("-x^2"), env) == -9.0
        assert evaluate(parse("2*-x"), env) == -6.0
        assert evaluate(parse("(-x)^2"), env) == 9.0


class TestRobustness:
    @given(st.text(max_size=120))
    @settings(max_examples=2000, deadline=None)
    def test_arbitrary_text_never_crashes(self, text):
        try:
            parse(text)
        except ExprSyntaxError:
            pass

    def test_seeded_fuzz_100k(self):
        """At least 1e5 generated inputs parse or fail cleanly."""
        rng = random.Random(0xC0FFEE)
        fragments = [
            "k", "x", "m", "s", "1", "2.5", "1e3", "+", "-", "*", "/", "^",
            "(", ")", ",", " ", "gamma", "exp(", "fact(", "pow(", "q_1", ".",
        ]
        charset = "abkxms0123456789+-*/^(), .eE_#@!\\\"'"
        total = 100_000
        for i in range(total):
            if i % 3 == 0:
                source = "".join(
                    rng.choice(fragments) for _ in range(rng.randrange(0, 14))
                )
            else:
                source = "".join(
                    rng.choice(charset) for _ in range(rng.randrange(0, 30))
                )
            try:
                parse(source)
            except ExprSyntaxError:
                pass


class TestNumberLiterals:
    @pytest.mark.parametrize("source,offset", [("1e999", 0), ("exp(-x)+exp(-5e794)", 13)])
    def test_overflowing_literal_is_a_syntax_error(self, source, offset):
        with pytest.raises(ExprSyntaxError, match="exceeds double range") as exc_info:
            parse(source)
        assert exc_info.value.offset == offset

    @pytest.mark.parametrize("source,value", [
        ("1.7976931348623157e308", 1.7976931348623157e308),
        ("2.5e-320", 2.5e-320),
        ("1e-999", 0.0),
    ])
    def test_literals_at_the_ends_of_double_range_round_trip(self, source, value):
        assert parse(source) == Constant(value)
        printed = to_source(parse(source))
        assert parse(printed) == Constant(value)
        assert to_source(parse(printed)) == printed


def _outcome(thunk):
    """What thunk() gives, comparable bit for bit: the value's type and
    bytes, or the exception's type and message."""
    try:
        value = thunk()
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), struct.pack("<d", value)


class TestCompiled:
    POINTS = (0.0, -1.5, 0.7, 3.0, 1e300)
    # x is the free variable; every other fuzzed name is unbound.
    BINDINGS = {"k": 2.0, "m": 0.5, "s": -1.5, "a": 3.0}
    MALFORMED = [
        BinaryOp("%", Constant(1.0), Constant(2.0)),
        BinaryOp("%", Variable("q"), Constant(2.0)),
        BinaryOp("+", BinaryOp("/", Constant(1.0), Constant(0.0)), Variable("q")),
        BinaryOp("+", Variable("q"), BinaryOp("/", Constant(1.0), Constant(0.0))),
        Call("zeta", (Variable("q"),)),
        Call("exp", (Constant(1.0), Constant(2.0))),
        Call("pow", (Variable("x"),)),
        Call("gamma", ()),
        Call("cos", (BinaryOp("*", Variable("x"), Constant(1e10)),)),
        UnaryNeg(Constant("a")),
        Constant(3),
        "x",
        BinaryOp("*", Constant(2.0), None),
        # Python source where the tree holds text: none of it may reach the
        # generated code, where it would run or break the syntax.
        BinaryOp("+-", Variable("x"), Constant(1.0)),
        BinaryOp("+ __import__('os').getpid() +", Variable("x"), Constant(1.0)),
        Call("exp(x) or __import__('os').getpid", (Variable("x"),)),
        BinaryOp("*", Variable("x"), Variable("__import__('os').getpid()")),
        BinaryOp("+", Variable("x"), Constant("__import__('os').getpid()")),
        UnaryNeg(Constant("x) + __import__('os').getpid() + (x")),
        # A base that is no number fails in _apply_power's first comparison.
        BinaryOp("^", Constant("a"), Constant(2.0)),
        BinaryOp("^", BinaryOp("+", Variable("x"), Constant(1j)), Constant(2.0)),
    ]

    @staticmethod
    def _fuzz_sources():
        """test_seeded_fuzz_100k's generator, with four more call fragments."""
        rng = random.Random(0xC0FFEE)
        fragments = [
            "k", "x", "m", "s", "1", "2.5", "1e3", "+", "-", "*", "/", "^",
            "(", ")", ",", " ", "gamma", "exp(", "fact(", "pow(", "q_1", ".",
            "sqrt(", "ln(", "cos(", "erf(",
        ]
        charset = "abkxms0123456789+-*/^(), .eE_#@!\\\"'"
        for i in range(100_000):
            if i % 3 == 0:
                yield "".join(rng.choice(fragments) for _ in range(rng.randrange(0, 14)))
            else:
                yield "".join(rng.choice(charset) for _ in range(rng.randrange(0, 30)))

    @classmethod
    def _fuzz_trees(cls):
        """Every tree that parses from ``_fuzz_sources``."""
        trees = []
        for source in cls._fuzz_sources():
            try:
                trees.append(parse(source))
            except ExprSyntaxError:
                pass
        return trees

    def _assert_matches_reference(self, tree):
        compiled = compile_expr(tree, self.BINDINGS, "x")
        for x in self.POINTS:
            env = {**self.BINDINGS, "x": x}
            expected = _outcome(lambda: reference_evaluate(tree, env))
            assert _outcome(lambda: compiled(x)) == expected, (tree, x)
            assert _outcome(lambda: evaluate(tree, env)) == expected, (tree, x)

    def test_fuzzed_trees_match_the_tree_walk_and_print_to_a_fixed_point(self):
        trees = self._fuzz_trees()
        assert len(trees) > 4000
        for tree in trees:
            self._assert_matches_reference(tree)
            printed = to_source(tree)
            assert to_source(parse(printed)) == printed

    @pytest.mark.parametrize("source", ROUND_TRIP_CORPUS)
    def test_corpus_matches_the_tree_walk(self, source):
        self._assert_matches_reference(parse(source))

    @pytest.mark.parametrize("tree", MALFORMED, ids=repr)
    def test_malformed_trees_fail_as_the_tree_walk_does(self, tree):
        self._assert_matches_reference(tree)

    def test_bindings_are_read_once(self):
        bindings = {"a": 2.0}
        f = compile_expr(parse("a*x"), bindings, "x")
        bindings["a"] = 5.0
        assert f(3.0) == 6.0

    # One- and two-argument builtin calls, on and off each builtin's domain.
    CALLS = [
        "ln(0)", "sqrt(-1)", "cos(1e308*10)", "erf(1e308*10)",
        "gamma(0)", "fact(-1)", "exp(1000)",
        "pow(-2, 0.5)", "pow(0, -1)",
        "exp(-sqrt(x))", "pow(pow(x, 2), 0.5)",
    ]
    SPECIAL = (0.0, -0.0, math.inf, math.nan)

    @staticmethod
    def _assert_call_matches_reference(tree, bindings):
        compiled = compile_expr(tree, bindings, "x")
        for x in TestCompiled.POINTS:
            expected = _outcome(lambda: reference_evaluate(tree, {**bindings, "x": x}))
            assert _outcome(lambda: compiled(x)) == expected, (tree, bindings, x)

    @pytest.mark.parametrize("source", CALLS)
    def test_call_closures_match_the_tree_walk(self, source):
        self._assert_call_matches_reference(parse(source), self.BINDINGS)

    @pytest.mark.parametrize("name", sorted(BUILTIN_FUNCTIONS))
    @pytest.mark.parametrize("b", SPECIAL, ids=repr)
    def test_call_closures_match_the_tree_walk_at_special_bound_values(self, name, b):
        args = ("b",) if BUILTIN_FUNCTIONS[name] == 1 else ("b", "2")
        for source in {f"{name}({', '.join(args)})", f"{name}({', '.join(reversed(args))})"}:
            self._assert_call_matches_reference(parse(source), {"b": b})

    @staticmethod
    def _python_calls(f, x):
        """Python-level ``call`` events in one evaluation of ``f`` at ``x``."""
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(profile)
        try:
            f(x)
        finally:
            sys.setprofile(None)
        return calls

    # One frame per evaluation, the generated function's: the math functions
    # are C, and _apply_power runs only at a zero or negative base
    # (_quotient only at a zero divisor, where it raises).
    @pytest.mark.parametrize("source, x, frames", [
        ("exp(-a*x)", 0.5, 1),
        ("exp(-sqrt(x))", 0.5, 1),
        ("pow(x, 2)", 0.5, 1),
        ("pow(x, 2)", -0.5, 2),
        ("a^x", 0.5, 1),
        ("1/(1+c*x)", 0.5, 1),
    ])
    def test_one_frame_per_evaluation(self, source, x, frames):
        f = compile_expr(parse(source), {"a": 2.0, "c": 3.0}, "x")
        assert self._python_calls(f, x) == frames

    def test_a_variable_free_tree_folds_to_one_frame(self):
        f = compile_expr(parse("exp(-a) * gamma(c) / (1 + pow(a, c))"), {"a": 2.0, "c": 3.0}, "x")
        assert self._python_calls(f, 0.5) == 1
        assert f(0.5) == math.exp(-2.0) * 2.0 / 9.0

    # Variable-free subtrees whose evaluation raises: folding must leave
    # each error to the evaluation that reaches it.
    RAISING = ["ln(0)", "sqrt(-1)", "exp(1000)", "1/0", "gamma(0)", "fact(-1)",
               "pow(0, -1)", "q"]

    @pytest.mark.parametrize("subtree", RAISING)
    @pytest.mark.parametrize("template", ["x + {}", "{} * x", "exp(x - {})", "{} / (1 + x)"])
    def test_folding_keeps_errors_lazy(self, subtree, template):
        tree = parse(template.format(subtree))
        compiled = compile_expr(tree, self.BINDINGS, "x")  # raises nothing
        for x in self.POINTS:
            expected = _outcome(lambda: reference_evaluate(tree, {**self.BINDINGS, "x": x}))
            assert issubclass(expected[0], Exception), (tree, x)
            assert _outcome(lambda: compiled(x)) == expected, (tree, x)

    def test_first_error_wins_after_folding(self):
        compiled = compile_expr(parse("1/0 + q"), {}, "x")
        with pytest.raises(DivisionByZero, match=r"^division by zero: 1\.0 / 0$"):
            compiled(0.5)


def _parse_outcome(parser, source):
    """What parser(source) gives: the tree, or the exception's type,
    message, offset and expected-token set."""
    try:
        return parser(source)
    except ExprSyntaxError as exc:
        return type(exc), str(exc), exc.offset, exc.expected


# Each family nests ``n`` constructs of one kind around ``x``.
_DEPTH_FAMILIES = {
    "parens": lambda n: "(" * n + "x" + ")" * n,
    "unary_minus": lambda n: "-" * n + "x",
    "exp": lambda n: "exp(" * n + "x" + ")" * n,
    "pow": lambda n: "pow(x," * n + "x" + ")" * n,
    "power_parens": lambda n: "x^(" * n + "x" + ")" * n,
    "sum_parens": lambda n: "(x+" * n + "x" + ")" * n,
    **{f"chain{op}": (lambda n, op=op: f"x{op}" * n + "x") for op in "^+-*/"},
}


class TestReferenceParse:
    """parse agrees with the parser as it stood with a mutable depth
    counter: the same tree, or the same error at the same offset."""

    def test_fuzzed_sources_match(self):
        parsed = 0
        for source in TestCompiled._fuzz_sources():
            outcome = _parse_outcome(parse, source)
            assert outcome == _parse_outcome(reference_parse, source), source
            parsed += not isinstance(outcome, tuple)
        assert parsed > 4000

    @pytest.mark.parametrize("source", ROUND_TRIP_CORPUS)
    def test_corpus_matches(self, source):
        assert _parse_outcome(parse, source) == _parse_outcome(reference_parse, source)

    @pytest.mark.parametrize("family", sorted(_DEPTH_FAMILIES))
    def test_depth_boundary_matches(self, family):
        # Every nesting count up to 121 levels, so each family's own limit
        # is crossed; a chain of 119 operators parses and 120 do not.
        outcomes = set()
        for n in range(122):
            source = _DEPTH_FAMILIES[family](n)
            outcome = _parse_outcome(parse, source)
            assert outcome == _parse_outcome(reference_parse, source), (family, n)
            outcomes.add(isinstance(outcome, tuple))
        assert outcomes == {False, True}


class TestCompileCache:
    """compile_expr compiles a tree's generated code once per variable,
    and passes each call's folded values in."""

    def test_bindings_share_one_compiled_function_in_a_bounded_cache(self, monkeypatch):
        compiles = []

        def counting_compile(*args):
            compiles.append(args)
            return compile(*args)

        monkeypatch.setattr(expr, "compile", counting_compile, raising=False)
        tree = BinaryOp("*", Variable("a"), Variable("x"))  # a fresh tree: not yet compiled
        twice, five_times = (compile_expr(tree, {"a": a}, "x") for a in (2.0, 5.0))
        assert len(compiles) == 1
        assert (twice(3.0), five_times(3.0)) == (6.0, 15.0)
        for _ in range(expr._COMPILED_SIZE + 1):
            compile_expr(BinaryOp("*", Variable("a"), Variable("x")), {"a": 2.0}, "x")
        assert len(expr._COMPILED) <= expr._COMPILED_SIZE

    def test_bindings_share_one_fold_plan_in_a_bounded_cache(self, monkeypatch):
        plans = []

        def counting_plan(*args):
            plans.append(args)
            return plan(*args)

        plan = expr._plan
        monkeypatch.setattr(expr, "_plan", counting_plan)
        # A fresh tree, not yet planned; under the third binding, a is
        # unbound and gamma(0) a pole: neither fold is made, both errors lazy.
        tree = BinaryOp("*", parse("exp(-a*x) * gamma(c)"), Variable("x"))
        bindings = ({"a": 2.0, "c": 3.0}, {"a": 0.5, "c": 4.0}, {"c": 0.0})
        functions = [compile_expr(tree, env, "x") for env in bindings]
        assert plans == [(tree, "x")]
        for f, env in zip(functions, bindings):
            for x in (0.5, 2.0):
                expected = _outcome(lambda: reference_evaluate(tree, {**env, "x": x}))
                assert _outcome(lambda: f(x)) == expected, (env, x)
        compile_expr(tree, {"a": 2.0, "x": 1.0}, "c")
        assert plans == [(tree, "x"), (tree, "c")]
        for _ in range(expr._COMPILED_SIZE + 1):
            compile_expr(BinaryOp("*", Variable("a"), Variable("x")), {"a": 2.0}, "x")
        assert len(expr._COMPILED) <= expr._COMPILED_SIZE

    def test_a_tree_is_walked_once_per_variable(self, monkeypatch):
        operations = []

        def counting_operation(node):
            operations.append(node)
            return operation(node)

        operation = expr._operation
        monkeypatch.setattr(expr, "_operation", counting_operation)
        monkeypatch.setattr(expr, "_COMPILED", {})  # empty: no clear drops the plan
        # Nine nodes are neither a constant nor x: +, the two *, exp, the *
        # and - under it, a, gamma and c.
        tree = parse("exp(-a*x) * gamma(c) + 2*x")
        compile_expr(tree, {"a": 2.0, "c": 3.0}, "x")
        assert len(operations) == 9
        # Other bindings, then a unbound and gamma(0) a pole: folds that
        # raise, so a function generated from the same plan and not kept.
        compile_expr(tree, {"a": 0.5, "c": 4.0}, "x")
        compile_expr(tree, {"c": 0.0}, "x")
        assert len(operations) == 9
        assert len(expr._COMPILED) == 1

    def test_a_plan_is_not_evicted_by_its_own_function(self, monkeypatch):
        plans = []

        def counting_plan(*args):
            plans.append(args)
            return plan(*args)

        plan = expr._plan
        monkeypatch.setattr(expr, "_plan", counting_plan)
        # One slot left: the plan takes it, and its function takes none.
        monkeypatch.setattr(expr, "_COMPILED", {i: None for i in range(expr._COMPILED_SIZE - 1)})
        tree = BinaryOp("+", Variable("a"), Variable("x"))  # a fresh tree: not yet planned
        for a in (1.0, 2.0, 3.0):
            assert compile_expr(tree, {"a": a}, "x")(1.0) == a + 1.0
        assert plans == [(tree, "x")]
        assert len(expr._COMPILED) == expr._COMPILED_SIZE

    def test_a_function_whose_fold_raises_is_not_kept(self, monkeypatch):
        generated = []

        def counting_generate(*args):
            generated.append(generate(*args))
            return generated[-1]

        generate = expr._generate
        monkeypatch.setattr(expr, "_generate", counting_generate)
        monkeypatch.setattr(expr, "_COMPILED", {})
        tree = parse("ln(x) + gamma(c)*a")
        # gamma(0) is a pole, then a is unbound: each gets code of its own.
        bindings = ({"c": 0.0, "a": 1.0}, {"c": 0.0, "a": 1.0}, {"c": 2.0}, {"c": 2.0, "a": 3.0})
        functions = [compile_expr(tree, env, "x") for env in bindings]
        assert len(generated) == 4
        assert len(expr._COMPILED) == 1
        assert compile_expr(tree, {"c": 1.0, "a": 2.0}, "x")(1.0) == 2.0
        assert len(generated) == 4
        ln = (DomainError, "ln undefined at -1.0")
        pole = (PoleError, "gamma: pole at non-positive integer near x=0.0")
        unbound = (UnboundVariable, "variable 'a' is not bound")
        value = (float, struct.pack("<d", 3.6931471805599454))
        expected = [(ln, pole), (ln, pole), (ln, unbound), (ln, value)]
        for f, env, outcomes in zip(functions, bindings, expected):
            for x, outcome in zip((-1.0, 2.0), outcomes):
                assert _outcome(lambda: f(x)) == _outcome(lambda: f(x)) == outcome, (env, x)
                assert _outcome(lambda: reference_evaluate(tree, {**env, "x": x})) == outcome


class TestParseCache:
    """parse is memoized per source string: trees are frozen, so a repeated
    source may share one; errors are raised afresh on every call."""

    def test_repeated_source_returns_the_identical_tree(self):
        source = "gamma(m+k)/gamma(m)"
        first = parse(source)
        # An equal string built separately, not the same object.
        again = parse("".join(["gamma(m+k)", "/gamma(m)"]))
        assert again is first
        assert again == reference_parse(source)

    def test_malformed_source_raises_on_every_call(self):
        errors = []
        for _ in range(3):
            with pytest.raises(ExprSyntaxError) as info:
                parse("1 + * 2")
            errors.append((str(info.value), info.value.offset, info.value.expected))
        assert errors == [errors[0]] * 3

    def test_length_cap_fires_on_every_call(self):
        source = "1+" * 40000 + "1"
        for _ in range(2):
            with pytest.raises(ExprSyntaxError, match="64 KiB") as info:
                parse(source)
            assert info.value.offset == MAX_SOURCE_BYTES

    def test_cache_is_bounded(self):
        maxsize = parse.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize < 10_000
