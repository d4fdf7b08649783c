"""Command-line interface.

Three subcommands: ``verify`` runs a single identity (catalog pair or
user-supplied expressions), ``corpus`` runs the built-in regression cases,
``residue`` demonstrates pole-residue convergence.

Exit codes: 0 pass, 1 verification failure, 2 input error.  Results go to
standard output (a fixed-width table, or JSON lines with ``--json``);
diagnostics go to standard error.  All numbers are printed with 15
significant digits and records serialise keys in a fixed order, so output
is reproducible byte for byte.  _COMMANDS states each argument once.  An
argv of exact ``--flags`` and values is read by that table, any other by
argparse through _Parser (``--flag=value``, ``--finf -Inf``, ``-h``, errors).
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
_ENCODER = json.JSONEncoder(separators=(",", ":"))  # json.dumps would make one per record

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
    sys.stdout.write(_ENCODER.encode(record) + "\n")


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
        if name in params:
            raise _InputError(f"--param {name} given twice")
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
        log_closed_form=compile_expr(closed_node, bindings, "x", "log"),
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
        head.update((name, _fmt(getattr(args, name))) for name in ("f0", "finf")
                    if getattr(args, name) is not None)

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


_PARAM = ("--param", dict(action="append", default=[], metavar="NAME=VALUE"))
_QUAD_ARGS = (
    ("--abs-tol", dict(type=float, default=QuadratureConfig.abs_tol)),
    ("--rel-tol", dict(type=float, default=QuadratureConfig.rel_tol)),
    ("--max-subdivisions", dict(type=int, default=QuadratureConfig.max_subdivisions, help=(
        "bisections per Gauss-Kronrod integral; on [0, inf) it bounds each panel of the "
        "geometric ends the double-exponential rule falls back to"))),
    ("--max-tail-panels", dict(type=int, default=QuadratureConfig.max_tail_panels, help=(
        "geometric panels per end of a [0, inf) integral, used when the double-exponential "
        "rule cannot certify its result"))),
    ("--json", dict(action="store_true", help="emit JSON lines")),
)
# Each subcommand's handler, help and arguments, each the (name, add_argument
# keywords) pair argparse takes; the one statement of every CLI argument.
_COMMANDS = {
    "verify": (_cmd_verify, "check a single identity", (
        # residue has a subcommand of its own.
        ("identity", dict(choices=[kind for kind in transforms.IDENTITIES if kind != "residue"])),
        ("--catalog", dict(help=f"pair id ({', '.join(catalog_ids())})")),
        _PARAM,
        ("--phi", dict(help="coefficient expression in k")),
        ("--closed-form", dict(help="closed-form expression in x")),
        ("--s", dict(type=float, help="Mellin exponent")),
        ("--n", dict(type=int, help="derivative order for lemma2")),
        ("--alpha", dict(type=float, help="frullani scale")),
        ("--beta", dict(type=float, help="frullani scale")),
        ("--f0", dict(type=float, help="limit at 0 for expression pairs")),
        ("--finf", dict(type=float, help="limit at infinity for expression pairs")),
        ("--fd-derivatives", dict(action="store_true", help="finite-difference derivatives "
                                  f"for expression pairs (orders 1..{FD_MAX_ORDER})")),
        ("--fd-step", dict(type=float)),
        ("--tol", dict(type=float, help="identity tolerance")),
        *_QUAD_ARGS)),
    "corpus": (_cmd_corpus, "run the built-in cases", (
        ("--filter", dict(help="substring filter on case names")),
        ("--tol-scale", dict(type=float)),
        *_QUAD_ARGS)),
    "residue": (_cmd_residue, "pole residue convergence", (
        ("--catalog", dict(required=True)),
        _PARAM,
        ("--m", dict(type=int, required=True, help="pole index")),
        ("--eps", dict(type=float, default=transforms.RESIDUE_EPS)),
        ("--json", dict(action="store_true")))),
}


class _Parser(argparse.ArgumentParser):
    """An argparse parser that reads a token led by '-' after a flag that takes
    a value, in full or by a unique prefix, alike on every Python: as that value
    if ``float`` reads it (``--finf -Inf`` as ``--finf=-Inf``), else as a flag,
    the value missing, unless it is '-' alone or holds a space."""

    arguments: dict = {}  # a subcommand's: each argument's name -> (dest, keywords, takes_value)

    def parse_known_args(self, args=None, namespace=None):
        args = list(sys.argv[1:] if args is None else args)
        end = args.index("--") if "--" in args else len(args)
        read = []
        for token in args[:end]:
            flag = self._value_flag(read[-1]) if read and token.startswith("-") else None
            if flag:
                try:
                    float(token)
                except ValueError:
                    if len(token) > 1 and " " not in token:  # else a value to any argparse
                        self.error(f"argument {flag}: expected one argument")
                else:
                    token = f"{read.pop()}={token}"
            read.append(token)
        return super().parse_known_args(read + args[end:], namespace)

    def _value_flag(self, token: str) -> str | None:
        """The flag ``token`` names, in full or by a unique prefix, if it takes a value."""
        names = [name for name in self.arguments if name.startswith(token)]
        if token in names:  # a full name wins over the longer names it begins
            names = [token]
        takes_value = token.startswith("--") and len(names) == 1 and self.arguments[names[0]][2]
        return names[0] if takes_value else None


# Built on the first main call and reused: parsing leaves each parser as it
# was (an append action copies its default list before appending).  Each of
# top.subcommands keeps what _exact_args reads from its _COMMANDS entry.
@functools.cache
def _build_argparser() -> _Parser:
    top = _Parser(prog="rmtkit",
                  description="Numerically cross-verify classical integral identities.")
    sub = top.add_subparsers(dest="command", required=True)
    top.subcommands = {}
    for command, (func, help, arguments) in _COMMANDS.items():
        parser = top.subcommands[command] = sub.add_parser(command, help=help)
        parser.set_defaults(func=func)
        parser.arguments, parser.defaults = {}, {"func": func}
        for name, keywords in arguments:
            dest = parser.add_argument(name, **keywords).dest
            takes_value = name.startswith("-") and keywords.get("action") != "store_true"
            parser.arguments[name] = dest, keywords, takes_value
            parser.defaults[dest] = parser.get_default(dest)
        parser.positionals = [name for name, _ in arguments if not name.startswith("-")]
        parser.required = parser.positionals + [  # every name an argv must give
            name for name, keywords in arguments if keywords.get("required")]
    return top


def _exact_args(parser: _Parser, tokens: list[str]) -> argparse.Namespace | None:
    """The namespace ``parser`` reads from ``tokens`` when each is a full
    ``--flag``, a value not led by '-' or a positional; else None."""
    values, seen, tokens = dict(parser.defaults), set(), iter(tokens)
    positionals = iter(parser.positionals)
    for token in tokens:
        name = token if token.startswith("-") else next(positionals, None)
        if name not in parser.arguments:
            return None
        dest, keywords, takes_value = parser.arguments[name]
        action = keywords.get("action")
        if takes_value:
            token = next(tokens, "-")  # a missing value declines as a flag would
            if token.startswith("-"):  # _Parser reads a negative number
                return None
        try:
            value = True if action == "store_true" else keywords.get("type", str)(token)
        except (argparse.ArgumentTypeError, TypeError, ValueError):  # argparse reports it
            return None
        if value not in keywords.get("choices", [value]):
            return None
        values[dest] = [*values[dest], value] if action == "append" else value
        seen.add(name)
    vars(namespace := argparse.Namespace()).update(values)  # Namespace(**values) sets each
    return namespace if seen.issuperset(parser.required) else None


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
