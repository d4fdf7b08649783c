"""Seeded identity-check workloads, their exact references and the judge.

A workload turns ``(seed, pass index)`` into a list of checks.  Every pass
has the same composition - the same strata of identity, pair and discrete
order - while the continuous parameters (s, scales, alpha/beta) are drawn
afresh, one jittered-stratified draw per slot across each identity's
documented strip.  Fixed composition keeps the cost and the failure share
of a pass nearly independent of the seed; fresh draws keep any cache the
program might grow from seeing repeated inputs.

Each check carries the exact value of its left side (the integral rmtkit
is asked to compute) and of its right side, both computed here with mpmath
at 40 digits from textbook formulas; this route never calls rmtkit's
``specfun`` or ``quadrature``.  Negative controls are identities made false
on purpose (mismatched scales or limits); their correct verdict is FAIL.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import mpmath

import rmtkit
import rmtkit.cli

MP = mpmath.mp.clone()
MP.dps = 40

DEFAULT_TOL = 1e-8  # rmtkit's default identity tolerance
TIGHT = rmtkit.QuadratureConfig(abs_tol=1e-14, rel_tol=1e-13)  # round-off floor
FD_TOL = 1e-5  # identity tolerance for finite-difference derivatives (h = 0.05)
FD_STEP = 0.05  # the CLI's default --fd-step
NOT_CONVERGED = "quadrature did not converge; best-effort value used"
RECORD_KEYS = ("command", "inputs", "lhs_value", "lhs_error", "rhs_value",
               "discrepancy", "passed", "evaluations", "warnings")


@dataclass
class Check:
    label: str
    call: Callable[[], object]
    decode: Callable[[object], "Outcome"]
    ref_lhs: object  # mpmath mpf
    ref_rhs: object
    tol: float
    expect_pass: bool


@dataclass
class Outcome:
    value: float
    error: float
    evaluations: int
    converged: bool
    rhs: float
    passed: bool
    problems: list


@dataclass
class Verdict:
    failed: bool  # raised, non-finite, wrong closed form, broken output contract
    # or a negative control that passed: an output that is plainly wrong
    wrong_verdict: bool  # a true identity reported as FAIL
    underreported: bool
    evaluations: int
    converged: bool
    reason: str  # "" when the check is right


# -- decoding ------------------------------------------------------------------


def _decode_report(report, tol=DEFAULT_TOL) -> Outcome:
    problems = []
    lhs = report.lhs
    if report.tolerance_used != tol:
        problems.append(f"tolerance_used {report.tolerance_used!r} != {tol!r}")
    if report.abs_discrepancy != abs(lhs.value - report.rhs):
        problems.append("abs_discrepancy is not |lhs - rhs|")
    rel = report.abs_discrepancy / abs(report.rhs) if report.rhs != 0.0 else math.inf
    # run_corpus may fail a case whose recorded exact value drifted, or
    # record an error it caught as a failed report with a NaN value.
    flagged = any("recorded exact value" in w for w in report.warnings)
    if report.passed != (report.abs_discrepancy <= tol or rel <= tol) and not flagged:
        problems.append("passed disagrees with the discrepancies")
    if math.isfinite(lhs.value) and (NOT_CONVERGED in report.warnings) == lhs.converged:
        problems.append("non-convergence warning disagrees with converged")
    return Outcome(lhs.value, lhs.error_estimate, lhs.evaluations, lhs.converged,
                   report.rhs, report.passed, problems)


def _decode_corpus(case):
    def decode(results) -> Outcome:
        if len(results) != 1 or results[0][0] is not case:
            return Outcome(math.nan, math.nan, 0, False, math.nan, False,
                           ["run_corpus did not return the one case it was given"])
        return _decode_report(results[0][1], case.tolerance)
    return decode


def _decode_cli(raw) -> Outcome:
    code, text = raw
    problems = []
    try:
        record = json.loads(text)
    except json.JSONDecodeError:
        return Outcome(math.nan, math.nan, 0, False, math.nan, False,
                       [f"stdout is not one JSON record: {text[:80]!r}"])
    if tuple(record) != RECORD_KEYS:
        problems.append(f"record keys out of order: {tuple(record)}")
    if json.dumps(record, separators=(",", ":")) + "\n" != text:
        problems.append("record does not re-serialise byte for byte")
    if code != (0 if record.get("passed") else 1):
        problems.append(f"exit code {code} disagrees with passed={record.get('passed')}")

    def num(key):
        value = record.get(key)
        return math.nan if value is None else float(value)

    return Outcome(num("lhs_value"), num("lhs_error"), int(record.get("evaluations", 0)),
                   NOT_CONVERGED not in record.get("warnings", ()), num("rhs_value"),
                   bool(record.get("passed")), problems)


def judge(check: Check, raw) -> Verdict:
    """Compare one check's output with its exact references."""
    if isinstance(raw, Exception):
        return Verdict(True, False, True, 0, False, f"raised {type(raw).__name__}")
    out = check.decode(raw)
    # The slack covers the value's own rounding: the CLI prints 15 digits.
    underreported = not (
        abs(MP.mpf(out.value) - check.ref_lhs)
        <= out.error + 1e-14 * abs(check.ref_lhs)
    ) if math.isfinite(out.value) else True
    reason = ""
    if out.problems:
        reason = "contract: " + "; ".join(out.problems)
    elif not (math.isfinite(out.value) and math.isfinite(out.rhs)):
        reason = "non-finite value"
    elif abs(MP.mpf(out.rhs) - check.ref_rhs) > 1e-11 * max(abs(check.ref_rhs), 1e-3):
        reason = "closed form disagrees with the reference"
    elif out.passed and not check.expect_pass:
        reason = "negative control passed"
    elif not out.passed and check.expect_pass:
        return Verdict(False, True, underreported, out.evaluations, out.converged,
                       "wrong verdict")
    return Verdict(bool(reason), False, underreported, out.evaluations, out.converged,
                   reason)


# -- input generation ----------------------------------------------------------


def _strata(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """One uniform draw inside each of k equal slices of [lo, hi]."""
    return [lo + (hi - lo) * (i + rng.random()) / k for i in range(k)]


def _logu(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _ratio_pair(rng: random.Random) -> tuple[float, float]:
    """Frullani scales whose ratio is at least 1.5 either way."""
    alpha = _logu(rng, 0.25, 4.0)
    return alpha, alpha * _logu(rng, 1.5, 4.0) ** rng.choice((-1, 1))


def _check(label, call, decode, ref_lhs, ref_rhs, tol, expect_pass=True) -> Check:
    """Build a check, asserting its expected verdict is far from the boundary."""
    gap = abs(ref_lhs - ref_rhs)
    rel = gap / abs(ref_rhs) if ref_rhs != 0 else MP.inf
    if expect_pass and not min(gap, rel) <= tol / 10:
        raise AssertionError(f"{label}: expected pass but the exact sides differ by {gap}")
    if not expect_pass and not min(gap, rel) >= tol * 100:
        raise AssertionError(f"{label}: expected FAIL but the exact sides are close")
    return Check(label, call, decode, ref_lhs, ref_rhs, tol, expect_pass)


def _lemma2_exact(f0, finf, n):
    return (-1) ** (n - 1) * (MP.mpf(finf) - MP.mpf(f0)) * MP.gamma(n)


def _frullani_exact(f0, finf, alpha, beta):
    return (MP.mpf(finf) - MP.mpf(f0)) * (MP.log(alpha) - MP.log(beta))


# f(0) and f(inf) of each catalog pair's closed form.
LIMITS = {"exp": (1, 0), "power": (1, 0), "erf": (0, 1), "laguerre_weight": (0, 0),
          "geometric": (1, 0), "harmonic_shifted": (1, 0)}


def _pair_params(rng: random.Random, cid: str) -> dict:
    """One draw of a catalog pair's parameters across its domain."""
    if cid == "exp":
        return {"a": _logu(rng, 0.5, 3.0)}
    if cid == "power":
        return {"m": rng.uniform(0.5, 4.0)}
    return {}


# Frullani on laguerre_weight at fixed (n, alpha, beta).  At the round-off
# floor its cost jumps from under 1 ms to about 0.5 s at scattered points;
# fixed points keep the number of such checks per pass constant (the last
# one is one), so the cost of a pass does not depend on the seed.
FRULLANI_LAGUERRE = ((2.0, 3.0, 0.5), (4.0, 0.5, 2.0), (6.0, 1.5, 0.75))


def _catalog_checks(rng: random.Random, cfg) -> list[Check]:
    """Library calls to rmt, hardy, lemma2 and frullani over the catalog."""
    T = rmtkit.transforms
    S = rmtkit.sequences
    lib = _decode_report
    tol = DEFAULT_TOL
    checks = []

    def rmt(label, cid, params, s, exact):
        checks.append(_check(
            f"rmt/{label}",
            lambda: T.rmt(S.catalog_get(cid, **params), s, cfg),
            lib, exact, exact, tol))

    for s in _strata(rng, 12, 0.05, 8.0):
        a = _logu(rng, 0.5, 3.0)
        rmt("exp", "exp", {"a": a}, s, MP.gamma(s) * MP.mpf(a) ** -s)
    for u in _strata(rng, 12, 0.02, 0.98):
        m = rng.uniform(0.5, 5.0)
        s = m * u
        rmt("power", "power", {"m": m}, s, MP.gamma(s) * MP.gamma(m - MP.mpf(s)) / MP.gamma(m))
    for s in _strata(rng, 12, 0.02, 0.98):
        rmt("harmonic_shifted", "harmonic_shifted", {}, s, MP.gamma(s) / (1 - MP.mpf(s)))
    for s in _strata(rng, 12, 0.02, 0.98):
        rmt("geometric", "geometric", {}, s, MP.gamma(s) * MP.gamma(1 - MP.mpf(s)))
    for s in _strata(rng, 12, 0.02, 0.98):
        exact = MP.pi / MP.sin(MP.pi * s)
        checks.append(_check(
            "hardy/geometric",
            lambda s=s: T.hardy(S.catalog_get("geometric"), s, cfg),
            lib, exact, exact, tol))

    # One parameter draw per check; the power exponents are stratified.
    exponents = _strata(rng, 5, 0.5, 4.0)
    rng.shuffle(exponents)
    grids = {
        "exp": [({"a": _logu(rng, 0.5, 3.0)}, n) for n in range(1, 6)],
        "power": [({"m": m}, n) for n, m in enumerate(exponents, 1)],
        "erf": [({}, n) for n in range(1, 7)],
        "laguerre_weight": [({"n": float(k)}, n) for k in range(1, 5) for n in range(1, 4)],
        "geometric": [({}, n) for n in range(1, 6)],
        "harmonic_shifted": [({}, n) for n in range(1, 7)],
    }
    for cid, grid in grids.items():
        for p, n in grid:
            exact = _lemma2_exact(*LIMITS[cid], n)
            checks.append(_check(
                f"lemma2/{cid}",
                lambda cid=cid, p=p, n=n: T.lemma2(S.catalog_get(cid, **p), n, cfg),
                lib, exact, exact, tol))
    for k, fixed_alpha, fixed_beta in FRULLANI_LAGUERRE:
        for cid, (f0, finf) in LIMITS.items():
            if cid == "laguerre_weight":
                params, alpha, beta = {"n": k}, fixed_alpha, fixed_beta
            else:
                params = _pair_params(rng, cid)
                alpha, beta = _logu(rng, 0.25, 4.0), _logu(rng, 0.25, 4.0)

            def call(cid=cid, params=params, alpha=alpha, beta=beta):
                pair = S.catalog_get(cid, **params)
                return T.frullani(pair.closed_form, pair.f_at_zero, pair.f_at_infinity,
                                  alpha, beta, cfg)

            exact = _frullani_exact(f0, finf, alpha, beta)
            checks.append(_check(f"frullani/{cid}", call, lib, exact, exact, tol))

    # Negative controls: false identities whose correct verdict is FAIL.
    for s in _strata(rng, 4, 0.3, 6.0):
        a = _logu(rng, 0.5, 3.0)
        b = a * rng.uniform(1.3, 2.0)

        def call(a=a, b=b, s=s):
            pair = dataclasses.replace(S.catalog_get("exp", a=a),
                                       closed_form=S.catalog_get("exp", a=b).closed_form)
            return T.rmt(pair, s, cfg)

        checks.append(_check("control/rmt", call, lib, MP.gamma(s) * MP.mpf(b) ** -s,
                             MP.gamma(s) * MP.mpf(a) ** -s, tol, False))
    for s in _strata(rng, 2, 0.1, 0.9):
        c = rng.uniform(1.5, 3.0)

        def call(c=c, s=s):
            pair = dataclasses.replace(S.catalog_get("geometric"), phi_plain=lambda k: c**k)
            return T.hardy(pair, s, cfg)

        exact = MP.pi / MP.sin(MP.pi * s)
        checks.append(_check("control/hardy", call, lib, exact,
                             exact * MP.mpf(c) ** -s, tol, False))
    for n in (rng.randint(1, 2), rng.randint(3, 4)):
        a = _logu(rng, 0.5, 3.0)

        def call(a=a, n=n):
            pair = dataclasses.replace(S.catalog_get("exp", a=a), f_at_zero=2.0)
            return T.lemma2(pair, n, cfg)

        checks.append(_check("control/lemma2", call, lib, _lemma2_exact(1, 0, n),
                             _lemma2_exact(2, 0, n), tol, False))
    for _ in range(2):
        alpha, beta = _ratio_pair(rng)

        def call(alpha=alpha, beta=beta):
            pair = S.catalog_get("exp")
            return T.frullani(pair.closed_form, 1.0, 0.5, alpha, beta, cfg)

        checks.append(_check("control/frullani", call, lib,
                             _frullani_exact(1, 0, alpha, beta),
                             _frullani_exact(1, 0.5, alpha, beta), tol, False))
    return checks


_HALF_SQRT_PI = MP.sqrt(MP.pi) / 2
# Exact value of each built-in corpus case, independent of rmtkit.
CORPUS_EXACT = {
    "euler_n3_a2": MP.mpf(1) / 4,
    "euler_half": MP.sqrt(MP.pi),
    "beta_2_3": MP.mpf(1) / 12,
    "gaussian": _HALF_SQRT_PI,
    "hermite_2": _HALF_SQRT_PI,
    "hermite_3": _HALF_SQRT_PI * 2,
    "hermite_4": _HALF_SQRT_PI * 6,
    "laguerre_zero_2": MP.mpf(0),
    "laguerre_zero_3": MP.mpf(0),
    "laguerre_zero_4": MP.mpf(0),
    "hardy_half": +MP.pi,
    "frullani_exp": -MP.log(2),
    "residue_m0": MP.mpf(1),
    "residue_m1": MP.mpf(-1),
    "residue_m2": MP.mpf(1) / 2,
    "harmonic_half": 2 * MP.sqrt(MP.pi),
}


def _corpus_checks(cfg) -> list[Check]:
    """The built-in regression cases, one run_corpus call each."""
    checks = []
    for case in rmtkit.corpus.builtin_cases():
        if case.name not in CORPUS_EXACT:  # a case added later has no reference here
            continue
        exact = CORPUS_EXACT[case.name]
        checks.append(_check(
            f"corpus/{case.kind}",
            lambda case=case: rmtkit.corpus.run_corpus([case], cfg),
            _decode_corpus(case), exact, exact, case.tolerance))
    return checks


def catalog_grid(rng: random.Random) -> list[Check]:
    return _catalog_checks(rng, None) + _corpus_checks(None)


def tight_tol(rng: random.Random) -> list[Check]:
    return _catalog_checks(rng, TIGHT) + _corpus_checks(TIGHT)


# -- the CLI ---------------------------------------------------------------------


def _run_cli(argv: list[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = rmtkit.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, out.getvalue()


def _fd_exact(a: float, n: int):
    """Exact integral of x^(n-1) times the CLI's Richardson-extrapolated
    central difference of exp(-a x): the stencil maps exp(-a x) to
    (-2 sinh(a h / 2) / h)^n exp(-a x)."""
    a = MP.mpf(a)

    def stencil(h):
        return (-2 * MP.sinh(a * h / 2) / h) ** n

    h = MP.mpf(FD_STEP)
    factor = (4 * stencil(h / 2) - stencil(h)) / 3
    return factor * MP.gamma(n) / a**n


def cli_expr(rng: random.Random) -> list[Check]:
    """In-process ``rmtkit verify ... --json`` calls, mostly on user
    expression pairs."""
    checks = []

    def add(label, argv, ref_lhs, ref_rhs, tol=DEFAULT_TOL, expect_pass=True):
        argv = ["verify"] + argv + ["--json"]
        if tol != DEFAULT_TOL:
            argv += ["--tol", repr(tol)]
        checks.append(_check(f"cli/{label}", lambda: _run_cli(argv), _decode_cli,
                             ref_lhs, ref_rhs, tol, expect_pass))

    for s in _strata(rng, 12, 0.05, 8.0):
        a = _logu(rng, 0.5, 3.0)
        exact = MP.gamma(s) * MP.mpf(a) ** -s
        add("rmt/exp", ["rmt", "--phi", "a^k", "--closed-form", "exp(-a*x)",
                        "--param", f"a={a!r}", "--s", repr(s)], exact, exact)
    for u in _strata(rng, 12, 0.02, 0.98):
        m = rng.uniform(0.5, 5.0)
        s = m * u
        exact = MP.gamma(s) * MP.gamma(m - MP.mpf(s)) / MP.gamma(m)
        add("rmt/power", ["rmt", "--phi", "gamma(m+k)/gamma(m)", "--closed-form",
                          "(1+x)^(-m)", "--param", f"m={m!r}", "--s", repr(s)], exact, exact)
    for s in _strata(rng, 12, 0.02, 0.98):
        c = _logu(rng, 0.5, 2.5)
        exact = MP.pi / MP.sin(MP.pi * s) * MP.mpf(c) ** -s
        add("hardy/scaled", ["hardy", "--phi", "c^k", "--closed-form", "1/(1+c*x)",
                             "--param", f"c={c!r}", "--s", repr(s)], exact, exact)
    for n in (1, 1, 1, 2, 2, 2):
        a = _logu(rng, 0.5, 2.0)
        add("lemma2/fd", ["lemma2", "--phi", "a^k", "--closed-form", "exp(-a*x)",
                          "--param", f"a={a!r}", "--fd-derivatives", "--n", str(n)],
            _fd_exact(a, n), _lemma2_exact(1, 0, n), FD_TOL)
    frullani_forms = (
        ("exp(-sqrt(x))", 1, 0),  # cusp at 0: exposes the 1e-8 freeze
        ("1/(1+x^2)", 1, 0),
        ("erf(x)", 0, 1),
        ("exp(-x)*cos(x)", 1, 0),
    )
    for form, f0, finf in frullani_forms:
        for _ in range(6):
            alpha, beta = _logu(rng, 0.25, 4.0), _logu(rng, 0.25, 4.0)
            exact = _frullani_exact(f0, finf, alpha, beta)
            add(f"frullani/{form}", ["frullani", "--phi", str(f0), "--closed-form", form,
                                     "--f0", str(f0), "--finf", str(finf),
                                     "--alpha", repr(alpha), "--beta", repr(beta)],
                exact, exact)
    for s in _strata(rng, 2, 0.05, 8.0):
        a = _logu(rng, 0.5, 3.0)
        exact = MP.gamma(s) * MP.mpf(a) ** -s
        add("catalog/rmt", ["rmt", "--catalog", "exp", "--param", f"a={a!r}",
                            "--s", repr(s)], exact, exact)
    for n in (rng.randint(1, 3), rng.randint(4, 6)):
        exact = _lemma2_exact(0, 1, n)
        add("catalog/lemma2", ["lemma2", "--catalog", "erf", "--n", str(n)], exact, exact)
    for s in _strata(rng, 2, 0.02, 0.98):
        exact = MP.pi / MP.sin(MP.pi * s)
        add("catalog/hardy", ["hardy", "--catalog", "geometric", "--s", repr(s)],
            exact, exact)
    for _ in range(2):
        m = rng.uniform(0.5, 4.0)
        alpha, beta = _logu(rng, 0.25, 4.0), _logu(rng, 0.25, 4.0)
        exact = _frullani_exact(1, 0, alpha, beta)
        add("catalog/frullani", ["frullani", "--catalog", "power", "--param", f"m={m!r}",
                                 "--alpha", repr(alpha), "--beta", repr(beta)], exact, exact)

    # Negative controls: false identities whose correct exit code is 1.
    for s in _strata(rng, 2, 0.3, 6.0):
        a = _logu(rng, 0.5, 3.0)
        b = a * rng.uniform(1.3, 2.0)
        add("control/rmt", ["rmt", "--phi", "b^k", "--closed-form", "exp(-a*x)",
                            "--param", f"a={a!r}", "--param", f"b={b!r}", "--s", repr(s)],
            MP.gamma(s) * MP.mpf(a) ** -s, MP.gamma(s) * MP.mpf(b) ** -s, expect_pass=False)
    for s in _strata(rng, 2, 0.1, 0.9):
        c = rng.uniform(1.5, 3.0)
        exact = MP.pi / MP.sin(MP.pi * s)
        add("control/hardy", ["hardy", "--phi", "1", "--closed-form", "1/(1+c*x)",
                              "--param", f"c={c!r}", "--s", repr(s)],
            exact * MP.mpf(c) ** -s, exact, expect_pass=False)
    for n in (1, 2):
        a = _logu(rng, 0.5, 2.0)
        add("control/lemma2", ["lemma2", "--phi", "a^k", "--closed-form", "exp(-a*x)",
                               "--param", f"a={a!r}", "--fd-derivatives", "--f0", "2",
                               "--n", str(n)],
            _fd_exact(a, n), _lemma2_exact(2, 0, n), FD_TOL, expect_pass=False)
    for _ in range(2):
        alpha, beta = _ratio_pair(rng)
        add("control/frullani", ["frullani", "--phi", "1", "--closed-form", "exp(-x)",
                                 "--finf", "0.5", "--alpha", repr(alpha),
                                 "--beta", repr(beta)],
            _frullani_exact(1, 0, alpha, beta), _frullani_exact(1, 0.5, alpha, beta),
            expect_pass=False)
    return checks


WORKLOADS = {
    "catalog_grid": catalog_grid,
    "tight_tol": tight_tol,
    "cli_expr": cli_expr,
}


def generate(workload: str, seed: int, pass_index: int) -> list[Check]:
    """The checks of one pass, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    checks = WORKLOADS[workload](rng)
    rng.shuffle(checks)
    return checks
