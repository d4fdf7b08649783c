"""Command-line interface.

Three subcommands: ``verify`` runs a single identity (catalog pair or
user-supplied expressions), ``corpus`` runs the built-in regression cases,
``residue`` demonstrates pole-residue convergence.

Exit codes: 0 pass, 1 verification failure, 2 input error.  Results go to
standard output (a fixed-width table, or JSON lines with ``--json``);
diagnostics go to standard error.  All numbers are printed with 15
significant digits and records serialise keys in a fixed order, so output
is reproducible byte for byte.  An argv of exact ``--flags`` and values is
read from a table built once from its subcommand parser's actions; the
top-level parser reads any other (``--flag=value``, ``-1``, ``-h``, errors).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace

from . import transforms
from .corpus import builtin_cases, run_corpus, scale_tolerances
from .errors import DerivativeUnavailable, ExprSyntaxError, RmtError
# bench/tracer.py patches parse, evaluate, nth_derivative_fd, catalog_get,
# SeriesPair and main on this module by name: keep them all.  The parse cache
# sits on expr.parse, so every call still goes through cli.parse and counts.
from .expr import compile_expr, evaluate, parse  # noqa: F401
from .quadrature import QuadratureConfig
from .sequences import SeriesPair, _PerOrder, catalog_get, catalog_ids
from .transforms import FD_MAX_ORDER, IdentityReport, nth_derivative_fd  # noqa: F401

__all__ = ["main"]

# OutputRecord keys, in the documented emission order.
_RECORD_KEYS = (
    "command",
    "inputs",
    "lhs_value",
    "lhs_error",
    "rhs_value",
    "discrepancy",
    "passed",
    "evaluations",
    "warnings",
)

_FD_STEP = 0.05  # the finite-difference step used when --fd-step is absent
# Every identity input, in the order IDENTITIES first names each.
_INPUT_NAMES = tuple(dict.fromkeys(
    name for kind in transforms.IDENTITIES.values() for name in kind.inputs))


class _InputError(Exception):
    """User input problem; maps to exit code 2."""


def _fmt(value: float) -> str:
    return f"{value:.15g}"


def _json_float(value: float):
    if not math.isfinite(value):
        return None
    return float(f"{value:.15g}")


def _record(
    command: str, head: dict, params: dict, values: dict, report: IdentityReport
) -> dict:
    """One output record.  Its inputs are ``head`` (what names the case or
    pair), then the catalog parameters or expression bindings as
    ``param.<name>`` after the ``--param`` flag they come from, then the
    identity inputs under their IDENTITIES names, so that a parameter and
    an input of one name (laguerre_weight's n, lemma2's n) both appear."""
    inputs = dict(head)
    inputs.update((f"param.{name}", _fmt(v)) for name, v in params.items())
    inputs.update((name, _fmt(v)) for name, v in values.items())
    return {
        "command": command,
        "inputs": inputs,
        "lhs_value": _json_float(report.lhs.value),
        "lhs_error": _json_float(report.lhs.error_estimate),
        "rhs_value": _json_float(report.rhs),
        "discrepancy": _json_float(report.abs_discrepancy),
        "passed": report.passed,
        "evaluations": report.lhs.evaluations,
        "warnings": list(report.warnings),
    }


def _emit_json(record: dict) -> None:
    assert tuple(record) == _RECORD_KEYS
    sys.stdout.write(json.dumps(record, separators=(",", ":")) + "\n")


_TABLE_COLUMNS = (
    ("identity", 22),
    ("lhs_value", 22),
    ("lhs_error", 12),
    ("rhs_value", 22),
    ("discrepancy", 12),
    ("status", 6),
)


def _table_header() -> str:
    return "  ".join(name.ljust(width) for name, width in _TABLE_COLUMNS)


def _table_row(identity: str, report: IdentityReport) -> str:
    cells = (
        identity,
        _fmt(report.lhs.value),
        f"{report.lhs.error_estimate:.2e}",
        _fmt(report.rhs),
        f"{report.abs_discrepancy:.2e}",
        "pass" if report.passed else "FAIL",
    )
    row = "  ".join(cell.ljust(width) for cell, (_, width) in zip(cells, _TABLE_COLUMNS))
    if report.warnings:
        row += "  [" + "; ".join(report.warnings) + "]"
    return row


def _parse_params(items: list[str]) -> dict[str, float]:
    params = {}
    for item in items:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise _InputError(f"--param expects NAME=VALUE, got {item!r}")
        try:
            params[name] = float(value)
        except ValueError:
            raise _InputError(f"--param {name}: {value!r} is not a number") from None
    return params


def _quad_config(args: argparse.Namespace) -> QuadratureConfig:
    try:
        return QuadratureConfig(
            abs_tol=args.abs_tol,
            rel_tol=args.rel_tol,
            max_subdivisions=args.max_subdivisions,
            max_tail_panels=args.max_tail_panels,
        )
    except ValueError as exc:
        raise _InputError(str(exc)) from None


def _expression_pair(args: argparse.Namespace) -> SeriesPair:
    if not args.closed_form:
        raise _InputError("--phi requires --closed-form as well")
    try:
        phi_node = parse(args.phi)
        closed_node = parse(args.closed_form)
    except ExprSyntaxError as exc:
        raise _InputError(f"--phi/--closed-form: {exc}") from None
    bindings = dict(args.params)
    if "k" in bindings or "x" in bindings:
        raise _InputError("--param: k and x are the free variables of --phi and --closed-form")
    phi = compile_expr(phi_node, bindings, "k")
    closed = compile_expr(closed_node, bindings, "x")
    if args.fd_step is not None and not args.fd_derivatives:
        raise _InputError("--fd-step needs --fd-derivatives")
    step = _FD_STEP if args.fd_step is None else transforms.positive_tolerance(
        args.fd_step, "--fd-step")
    # order -> its FD derivative, built on first use; derivative_max 0 leaves order 0 alone.
    fds = _PerOrder("expression pair", FD_MAX_ORDER if args.fd_derivatives else 0,
                    lambda order: transforms._fd_derivative(closed, order, step))

    def derivative(order: int, x: float) -> float:
        return closed(x) if order == 0 else fds[order](x)

    flags = [("--f0", args.f0), ("--finf", args.finf)]
    flags += [(f"--param {name}", value) for name, value in bindings.items()]
    for flag, value in flags:
        if value is not None and not math.isfinite(value):
            raise _InputError(f"{flag} must be finite")
    return SeriesPair(
        phi=phi,
        closed_form=closed,
        derivative=derivative,
        derivative_max=fds.derivative_max,
        f_at_zero=args.f0 if args.f0 is not None else phi(0.0),
        f_at_infinity=args.finf if args.finf is not None else 0.0,
        convergence_radius=math.inf,
        phi_plain=phi,
        label="expression pair",
        derivative_with_noise=(
            lambda order, x: (closed(x), 0.0) if order == 0 else fds[order](x, noise=True))
        if args.fd_derivatives else None,
    )


def _build_pair(args: argparse.Namespace) -> SeriesPair:
    if args.phi:
        if args.catalog:
            raise _InputError("--catalog and --phi are mutually exclusive")
        return _expression_pair(args)
    if not args.catalog:
        raise _InputError("select a pair with --catalog or --phi/--closed-form")
    flags = {"--f0": args.f0 is not None, "--finf": args.finf is not None,
             "--fd-derivatives": args.fd_derivatives, "--fd-step": args.fd_step is not None}
    if given := [flag for flag, on in flags.items() if on]:
        raise _InputError(f"--catalog pairs take no {', '.join(given)} (expression pairs only)")
    return catalog_get(args.catalog, **args.params)


def _cmd_verify(args: argparse.Namespace) -> int:
    identity = args.identity
    args.params = _parse_params(args.param)
    cfg = _quad_config(args)
    tol = None if args.tol is None else transforms.positive_tolerance(args.tol, "--tol")

    pair = _build_pair(args)
    head: dict = {"identity": identity}
    if args.catalog:
        head["catalog"] = args.catalog
    else:
        head["phi"] = args.phi
        head["closed_form"] = args.closed_form

    kind = transforms.IDENTITIES[identity]
    values = {name: getattr(args, name) for name in kind.inputs}
    if None in values.values():
        flags = " and ".join(f"--{name}" for name in kind.inputs)
        raise _InputError(f"{identity} requires {flags}")
    if extra := [f"--{name}" for name in _INPUT_NAMES  # those verify has: alpha, beta, n, s
                 if name not in kind.inputs and getattr(args, name, None) is not None]:
        raise _InputError(f"{identity} takes no {', '.join(extra)}")
    try:
        report = kind.run(pair, cfg, tol, **values)
    except DerivativeUnavailable as exc:
        hint = "" if args.catalog or args.fd_derivatives else " (use --fd-derivatives)"
        raise _InputError(f"{exc}{hint}") from None

    if args.json:
        _emit_json(_record("verify", head, args.params, values, report))
    else:
        print(_table_header())
        print(_table_row(report.identity, report))
    return 0 if report.passed else 1


def _cmd_corpus(args: argparse.Namespace) -> int:
    cfg = _quad_config(args)
    cases = builtin_cases()
    if args.filter:
        cases = [c for c in cases if args.filter in c.name]
        if not cases:
            raise _InputError(f"--filter: no case name contains {args.filter!r}")
    if args.tol_scale is not None:
        scale = transforms.positive_tolerance(args.tol_scale, "--tol-scale")
        cases = scale_tolerances(cases, scale)
    results = run_corpus(cases, cfg)
    passed = sum(1 for _, rep in results if rep.passed)
    if args.json:
        for case, rep in results:
            head = {"case": case.name, "kind": case.kind, "catalog": case.catalog_id}
            _emit_json(_record("corpus", head, case.params, case.inputs, rep))
    else:
        name_w = max([len(c.name) for c, _ in results], default=8) + 2
        header = "name".ljust(name_w) + "  " + _table_header()
        print(header)
        for case, rep in results:
            print(case.name.ljust(name_w) + "  " + _table_row(rep.identity, rep))
        print(f"summary: {passed}/{len(results)} passed")
    return 0 if passed == len(results) else 1


def _cmd_residue(args: argparse.Namespace) -> int:
    params = _parse_params(args.param)
    pair = catalog_get(args.catalog, **params)
    residue = transforms.IDENTITIES["residue"].run
    # The verdict is convergence as the probe width shrinks, not a tolerance.
    rows = [
        (eps, residue(pair, None, math.inf, m=args.m, eps=eps))
        for eps in (args.eps, args.eps / 10.0)
    ]
    wide, narrow = (report.abs_discrepancy for _, report in rows)
    converging = narrow <= wide or narrow < 1e-12
    if args.json:
        for eps, report in rows:
            values = {"m": args.m, "eps": eps}
            report = replace(report, passed=converging)
            _emit_json(_record("residue", {"catalog": args.catalog}, params, values, report))
    else:
        print("eps           left                    right                   abs_diff")
        for eps, report in rows:
            print(
                f"{_fmt(eps):<12}  {_fmt(report.lhs.value):<22}  "
                f"{_fmt(report.rhs):<22}  {report.abs_discrepancy:.6e}"
            )
        print(f"converging: {'yes' if converging else 'no'}")
    return 0 if converging else 1


# Built on the first main call and reused: parsing leaves each parser as it
# was (an append action copies its default list before appending).  main
# parses with it whatever _exact_args declines on top.subcommands' parsers.
@functools.cache
def _build_argparser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rmtkit",
        description="Numerically cross-verify classical integral identities.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_quad_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--abs-tol", type=float, default=QuadratureConfig.abs_tol)
        p.add_argument("--rel-tol", type=float, default=QuadratureConfig.rel_tol)
        p.add_argument("--max-subdivisions", type=int, default=QuadratureConfig.max_subdivisions,
                       help="bisections per Gauss-Kronrod integral; on [0, inf) it bounds "
                            "each panel of the geometric ends the double-exponential rule "
                            "falls back to")
        p.add_argument("--max-tail-panels", type=int, default=QuadratureConfig.max_tail_panels,
                       help="geometric panels per end of a [0, inf) integral, used when the "
                            "double-exponential rule cannot certify its result")
        p.add_argument("--json", action="store_true", help="emit JSON lines")

    verify = sub.add_parser("verify", help="check a single identity")
    # residue has a subcommand of its own.
    verify.add_argument(
        "identity", choices=[kind for kind in transforms.IDENTITIES if kind != "residue"]
    )
    verify.add_argument("--catalog", help=f"pair id ({', '.join(catalog_ids())})")
    verify.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    verify.add_argument("--phi", help="coefficient expression in k")
    verify.add_argument("--closed-form", help="closed-form expression in x")
    verify.add_argument("--s", type=float, help="Mellin exponent")
    verify.add_argument("--n", type=int, help="derivative order for lemma2")
    verify.add_argument("--alpha", type=float, help="frullani scale")
    verify.add_argument("--beta", type=float, help="frullani scale")
    verify.add_argument("--f0", type=float, help="limit at 0 for expression pairs")
    verify.add_argument("--finf", type=float, help="limit at infinity for expression pairs")
    verify.add_argument(
        "--fd-derivatives",
        action="store_true",
        help=f"finite-difference derivatives for expression pairs (orders 1..{FD_MAX_ORDER})",
    )
    verify.add_argument("--fd-step", type=float, default=None)
    verify.add_argument("--tol", type=float, default=None, help="identity tolerance")
    add_quad_flags(verify)
    verify.set_defaults(func=_cmd_verify)

    corpus = sub.add_parser("corpus", help="run the built-in cases")
    corpus.add_argument("--filter", help="substring filter on case names")
    corpus.add_argument("--tol-scale", type=float, default=None)
    add_quad_flags(corpus)
    corpus.set_defaults(func=_cmd_corpus)

    residue = sub.add_parser("residue", help="pole residue convergence")
    residue.add_argument("--catalog", required=True)
    residue.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    residue.add_argument("--m", type=int, required=True, help="pole index")
    residue.add_argument("--eps", type=float, default=transforms.RESIDUE_EPS)
    residue.add_argument("--json", action="store_true")
    residue.set_defaults(func=_cmd_residue)
    top.subcommands = {"verify": verify, "corpus": corpus, "residue": residue}
    return top


@functools.cache
def _exact_table(parser: argparse.ArgumentParser) -> tuple:
    """(flags, positionals, defaults) read from a subcommand parser's actions:
    each ``--long`` flag of a store, append or store_true action (not --help)."""
    kinds = (argparse._StoreAction, argparse._AppendAction, argparse._StoreTrueAction)
    actions = [a for a in parser._actions if type(a) in kinds and a.nargs in (None, 0)]
    positionals = [a for a in parser._actions if not a.option_strings]
    assert all(a in actions for a in positionals), "a positional _exact_args cannot read"
    flags = {flag: a for a in actions for flag in a.option_strings if flag.startswith("--")}
    defaults = {a.dest: a.default for a in reversed(parser._actions)
                if argparse.SUPPRESS not in (a.dest, a.default)}
    return flags, positionals, {**parser._defaults, **defaults}


def _exact_args(parser: argparse.ArgumentParser, tokens: list[str]) -> argparse.Namespace | None:
    """The namespace ``parser`` reads from ``tokens`` when each is a flag of
    _exact_table's or a value; else None, for argparse to parse."""
    flags, positionals, defaults = _exact_table(parser)
    values, seen, pending, tokens = dict(defaults), set(), iter(positionals), iter(tokens)
    for token in tokens:
        action = flags.get(token) or (None if token.startswith("-") else next(pending, None))
        if action is None:
            return None
        if action.option_strings and action.nargs != 0:  # a flag that takes a value
            token = next(tokens, "-")  # a missing value declines as a flag would
            if token.startswith("-"):  # argparse tells a negative number from a flag
                return None
        try:
            value = action.const if action.nargs == 0 else (action.type or str)(token)
        except (argparse.ArgumentTypeError, TypeError, ValueError):  # argparse reports it
            return None
        if action.choices is not None and value not in action.choices:
            return None
        if isinstance(action, argparse._AppendAction):
            value = [*(values.get(action.dest) or ()), value]
        values[action.dest] = value
        seen.add(action)
    if any(action.required and action not in seen for action in parser._actions):
        return None
    return argparse.Namespace(**values)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_argparser()
    command = parser.subcommands.get(argv[0]) if argv else None
    args = command and _exact_args(command, argv[1:]) or parser.parse_args(argv)
    try:
        return args.func(args)
    except (_InputError, RmtError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: overflow: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
