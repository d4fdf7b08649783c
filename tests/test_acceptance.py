"""Acceptance suite: the quantitative exit criteria for the package.

Each test prints one `[PASS]`/`[FAIL]` line per criterion (visible with
``pytest -s``).  Criterion 5 checks the Mittag-Leffler (Prym) split
Gamma(s) = sum_k (-1)^k / (k! (s+k)) + Gamma(s, 1): the truncated
partial-fraction sum converges to the unit-interval integral of
x^(s-1) e^-x, and adding the entire part Gamma(s, 1), the upper incomplete
gamma, must give Gamma(s).  Both references come from mpmath at 40 digits,
never from rmtkit's own special functions or quadrature.
"""

import json
import math
import pathlib
import random
import subprocess
import sys
import time

import mpmath
import pytest

from rmtkit import specfun
from rmtkit.corpus import builtin_cases, run_corpus
from rmtkit.errors import ExprSyntaxError
from rmtkit.expr import parse, to_source
from rmtkit.quadrature import integrate_semi_infinite
from rmtkit.sequences import catalog_get
from rmtkit.transforms import (
    lemma2,
    nth_derivative_fd,
    partial_fraction_sum,
    residue_check,
    rmt,
)

from test_expr import ROUND_TRIP_CORPUS

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
SQRT_PI = 1.7724538509055159


def _finish(criterion: str, checks: list[tuple[str, bool]]) -> None:
    failed = [label for label, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"[{status}] {criterion}" + (f" -- failing: {failed}" if failed else ""))
    assert not failed, f"{criterion}: {failed}"


def test_criterion_01_corpus_reproduction():
    """All built-in cases pass at their per-case tolerances, in under 10 s."""
    started = time.time()
    results = {c.name: (c, r) for c, r in run_corpus(builtin_cases())}
    elapsed = time.time() - started
    required = {
        "euler_n3_a2": (0.25, 1e-9),
        "beta_2_3": (1.0 / 12.0, 1e-9),
        "gaussian": (SQRT_PI / 2.0, 1e-10),
        "hermite_2": ((SQRT_PI / 2.0) * 1.0, 1e-8),
        "hermite_3": ((SQRT_PI / 2.0) * 2.0, 1e-8),
        "hermite_4": ((SQRT_PI / 2.0) * 6.0, 1e-8),
        "hardy_half": (math.pi, 1e-8),
        "frullani_exp": (-math.log(2.0), 1e-9),
    }
    checks = []
    for name, (expected, tol) in required.items():
        case, report = results[name]
        ok = (
            report.passed
            and abs(report.rhs - expected) <= 1e-12 * max(1.0, abs(expected))
            and report.rel_discrepancy <= tol
        )
        checks.append((name, ok))
    for n in (2, 3, 4):
        case, report = results[f"laguerre_zero_{n}"]
        checks.append((f"laguerre_zero_{n}", report.passed and report.abs_discrepancy <= 1e-9))
    checks.append(("all cases pass", all(r.passed for _, r in results.values())))
    checks.append(("under 10 s", elapsed < 10.0))
    _finish("criterion 1: corpus reproduction", checks)


def test_criterion_02_weighted_derivative_sweep():
    """exp(a=1) and power(m=8), orders 1..6, relative discrepancy <= 1e-8."""
    checks = []
    for id_, params in (("exp", {"a": 1.0}), ("power", {"m": 8.0})):
        pair = catalog_get(id_, **params)
        for n in range(1, 7):
            report = lemma2(pair, n)
            checks.append((f"{id_} n={n}", report.rel_discrepancy <= 1e-8))
    _finish("criterion 2: weighted-derivative sweep", checks)


def test_criterion_03_non_integer_orders():
    """Mellin evaluations at fractional exponents match Gamma(s) and the
    shifted-harmonic value 2 sqrt(pi)."""
    checks = []
    pair = catalog_get("exp", a=1.0)
    for s in (0.5, 1.5, 2.5, 3.7):
        report = rmt(pair, s)
        ok = (
            abs(report.rhs - specfun.gamma(s)) <= 1e-13 * specfun.gamma(s)
            and report.rel_discrepancy <= 1e-8
        )
        checks.append((f"exp s={s}", ok))
    harmonic = rmt(catalog_get("harmonic_shifted"), 0.5)
    checks.append(
        (
            "harmonic s=0.5",
            abs(harmonic.rhs - 2.0 * SQRT_PI) <= 1e-12
            and harmonic.rel_discrepancy <= 1e-7,
        )
    )
    _finish("criterion 3: non-integer orders", checks)


def test_criterion_04_residue_convergence():
    """Two-sided pole probes land within 1e-3 at eps=1e-4 and shrink at
    least fivefold against eps=1e-3."""
    pair = catalog_get("exp", a=1.0)
    checks = []
    for m in (0, 1, 2):
        expected = (1.0 if m % 2 == 0 else -1.0) / math.factorial(m)
        left_coarse, right = residue_check(pair, m, 1e-3)
        left_fine, _ = residue_check(pair, m, 1e-4)
        err_coarse = abs(left_coarse - expected)
        err_fine = abs(left_fine - expected)
        checks.append((f"m={m} within 1e-3", err_fine <= 1e-3 and right == pytest.approx(expected, rel=1e-12)))
        checks.append((f"m={m} shrink >= 5x", err_fine <= err_coarse / 5.0))
    _finish("criterion 4: residue convergence", checks)


def test_criterion_05_partial_fraction_matches_gamma():
    """Truncated pole expansion plus its entire part vs Gamma(s).

    Gamma(s) phi(-s), with phi(-s) = 1 for the unit-coefficient pair, has
    simple poles at s = -k with residues (-1)^k / k!.  Their sum is the
    integral of x^(s-1) e^-x over [0, 1]; the rest of Gamma(s) is the entire
    upper incomplete gamma Gamma(s, 1).  So the sum to K = 40 plus
    Gamma(s, 1) must match Gamma(s) to 1e-6, and more closely than the sum
    to K = 10.  Gamma(s) and Gamma(s, 1) come from mpmath.gamma and
    mpmath.gammainc at 40 digits.
    """
    pair = catalog_get("exp", a=1.0)
    checks = []
    for s in (0.5, 1.5):
        with mpmath.workdps(40):
            gamma_s = float(mpmath.gamma(s))
            upper = float(mpmath.gammainc(s, 1))
        err_10 = abs(partial_fraction_sum(pair, s, 10) + upper - gamma_s)
        err_40 = abs(partial_fraction_sum(pair, s, 40) + upper - gamma_s)
        checks.append((f"s={s} within 1e-6 of Gamma", err_40 <= 1e-6))
        checks.append((f"s={s} K=40 closer than K=10", err_40 < err_10))
    _finish("criterion 5: partial-fraction sum plus Gamma(s, 1) vs Gamma", checks)


def test_criterion_06_scaling_covariance():
    """integral x^(n-1) g(alpha x) = alpha^-n integral t^(n-1) g(t)."""
    checks = []
    g = lambda t: math.exp(-t)
    for alpha in (0.5, 2.0, 3.7):
        for n in (1, 2, 3):
            scaled = integrate_semi_infinite(lambda x: x ** (n - 1) * g(alpha * x))
            plain = integrate_semi_infinite(lambda t: t ** (n - 1) * g(t))
            expected = alpha ** (-n) * plain.value
            ok = abs(scaled.value - expected) <= 1e-8 * abs(expected)
            checks.append((f"alpha={alpha} n={n}", ok))
    _finish("criterion 6: scaling covariance", checks)


def test_criterion_07_rodrigues_cross_checks():
    """Finite differences of erf and x^n e^-x recover the Hermite and
    Laguerre closed forms at 1e-5."""
    checks = []
    for n in (1, 2, 3, 4):
        sign = 1.0 if (n - 1) % 2 == 0 else -1.0
        worst = 0.0
        for i in range(100):
            x = -2.5 + 5.0 * i / 99
            fd = nth_derivative_fd(specfun.erf, x, n, 0.02).value
            closed = sign * (2.0 / math.sqrt(math.pi)) * specfun.hermite(n - 1, x) * math.exp(-x * x)
            worst = max(worst, abs(fd - closed))
        checks.append((f"hermite order {n}", worst <= 1e-5))
    for n in (1, 2, 3):
        worst = 0.0
        for i in range(50):
            x = 0.5 + 4.5 * i / 49
            fd = nth_derivative_fd(lambda t: t**n * math.exp(-t), x, n, 0.01).value
            closed = math.factorial(n) * specfun.laguerre(n, x) * math.exp(-x)
            worst = max(worst, abs(fd - closed) / abs(closed))
        checks.append((f"laguerre order {n}", worst <= 1e-5))
    _finish("criterion 7: Rodrigues cross-checks", checks)


def test_criterion_08_gamma_identity_suites():
    """Recurrence and reflection identity grids at their tolerances, with
    fixed seeds for reproducibility."""
    checks = []
    rng = random.Random(20240817)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(0.1, 50.0)
        lhs = specfun.gamma(x + 1.0)
        worst = max(worst, abs(lhs - x * specfun.gamma(x)) / abs(lhs))
    checks.append(("recurrence 1000 draws <= 1e-12", worst <= 1e-12))
    rng = random.Random(987)
    worst = 0.0
    count = 0
    while count < 500:
        s = rng.uniform(-5.0, 5.0)
        if abs(s - round(s)) < 1e-6:
            continue
        count += 1
        product = specfun.gamma(s) * specfun.gamma(1.0 - s) * specfun._sinpi(s) / math.pi
        worst = max(worst, abs(product - 1.0))
    checks.append(("reflection 500 draws <= 1e-11", worst <= 1e-11))
    _finish("criterion 8: gamma identity suites", checks)


def test_criterion_09_parser_robustness():
    """1e5 fuzz inputs parse or fail cleanly; printing is a fixed point on
    the 50-expression corpus."""
    rng = random.Random(0xFEED)
    charset = "abkxms0123456789+-*/^(), .eE_#@!\\\"'gamma"
    fragments = ["k", "1", "2.5", "+", "-", "*", "/", "^", "(", ")", ",", "gamma(", "fact(", " "]
    crashes = 0
    total = 100_000
    for i in range(total):
        if i % 3 == 0:
            source = "".join(rng.choice(fragments) for _ in range(rng.randrange(0, 14)))
        else:
            source = "".join(rng.choice(charset) for _ in range(rng.randrange(0, 30)))
        try:
            parse(source)
        except ExprSyntaxError:
            pass
        except Exception:
            crashes += 1
    fixed_point = all(
        to_source(parse(to_source(parse(src)))) == to_source(parse(src))
        for src in ROUND_TRIP_CORPUS
    )
    checks = [
        (f"{total} fuzz inputs, no crash", crashes == 0),
        ("50-expression round-trip fixed point", fixed_point),
    ]
    _finish("criterion 9: parser robustness", checks)


def test_criterion_10_cli_contract():
    """Exit codes and JSON round-trips across golden invocations."""
    golden = {
        "verify_rmt_exp.txt": ["verify", "rmt", "--catalog", "exp", "--param", "a=2", "--s", "3"],
        "verify_rmt_exp_json.txt": ["verify", "rmt", "--catalog", "exp", "--param", "a=2", "--s", "3", "--json"],
        "verify_expr_json.txt": ["verify", "rmt", "--phi", "1/(k+1)", "--closed-form", "(1-exp(-x))/x", "--s", "0.5", "--json"],
        "verify_frullani.txt": ["verify", "frullani", "--catalog", "exp", "--alpha", "2", "--beta", "1"],
        "verify_lemma2_erf.txt": ["verify", "lemma2", "--catalog", "erf", "--n", "1"],
        "corpus_laguerre.txt": ["corpus", "--filter", "laguerre"],
        "corpus_euler_json.txt": ["corpus", "--filter", "euler", "--json"],
        "residue_exp_m0.txt": ["residue", "--catalog", "exp", "--m", "0"],
    }
    checks = []
    for name, argv in golden.items():
        proc = subprocess.run(
            [sys.executable, "-m", "rmtkit", *argv], capture_output=True, text=True
        )
        ok = proc.returncode == 0 and proc.stdout == (GOLDEN_DIR / name).read_text()
        checks.append((name, ok))
        if name.endswith("json.txt"):
            round_trips = all(
                json.dumps(json.loads(line), separators=(",", ":")) == line
                for line in proc.stdout.splitlines()
            )
            checks.append((f"{name} round-trip", round_trips))
    for argv, expected in [
        (("verify", "hardy", "--catalog", "geometric", "--s", "1"), 2),
        (("residue", "--catalog", "erf", "--m", "0"), 2),
        (("verify", "rmt", "--catalog", "exp", "--param", "a=2", "--s", "2.5", "--tol", "1e-30"), 1),
    ]:
        proc = subprocess.run([sys.executable, "-m", "rmtkit", *argv], capture_output=True, text=True)
        checks.append((f"exit {expected} for {' '.join(argv[:2])}", proc.returncode == expected))
    _finish("criterion 10: CLI contract", checks)
