"""rmtkit benchmark: seeded identity-check workloads in a closed loop.

Usage::

    python3 bench/run.py --workload catalog_grid --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 7 --seconds 20   # every workload

One caller in one process, no threads: each identity check starts only
after the previous one returned.  A run makes passes over freshly drawn
check lists (see ``workloads.py``) until ``--seconds`` have elapsed in
passes, finishing the pass in progress.  Every output is compared with an
exact mpmath reference after the pass, outside the timed region.

Workloads:

- ``catalog_grid``: library calls to rmt, hardy, lemma2 and frullani over
  the six catalog pairs at default tolerances, plus the 16 built-in corpus
  cases.  Common traffic; time goes to the quadrature layer, catalog
  integrands and specfun.  Carries the strip-edge algebraic-tail defect.
- ``tight_tol``: the same generator at abs_tol=1e-14, rel_tol=1e-13, where
  some checks exhaust max_subdivisions: the quadrature layer's
  deep-bisection regime.
- ``cli_expr``: in-process ``rmtkit.cli.main([... "--json"])`` calls, mostly
  on user expression pairs: the only workload that parses and evaluates
  expressions and builds the argument parser.

End-to-end metrics (``--trace 0``):

- ``checks_per_s``: checks completed per second of the timed passes.
- ``check_ms_p50`` / ``check_ms_p90``: per-check latency percentiles.
- ``verdict_ok_ratio``: share of checks that returned a finite result with
  the right verdict (a true identity passes, a negative control fails) and
  a closed-form side matching the reference: one minus the ratio of failed
  checks and wrong verdicts to attempted checks.  The strip-edge tail
  defect shows here, as true identities reported as FAIL.
- ``error_honest_ratio``: share of checks with |lhs - exact| within the
  reported error estimate.  Both ratios are complements so they stay
  nonzero when rmtkit has no defect left.
- ``peak_rss_mb``: peak resident memory of this process.
- ``setup_s``: median, over fresh interpreters, of the time from spawning
  the interpreter until ``import rmtkit`` (and ``rmtkit.cli`` on cli_expr)
  is done.

All times above are in reference units: each measured time is scaled by
the ratio of a calibration kernel's nominal time (1 ms) to its time
measured just before and after, so a host whose speed drifts - other
tenants, frequency changes - moves the kernel and the checks together
and the ratio stays put.  The plain wall-clock figures are printed and
recorded under ``wall_clock`` in the ``meta`` line.

``--trace 1`` runs the seed's first pass alternately without and with
spans around each module's public functions (``tracer.py``) and reports
per-layer figures: counts per pass (exact and repeatable), times per call
or per check in reference units (means over the traced repetitions),
import costs in wall-clock ms from ``-X importtime``, and
``trace.overhead_ratio`` (traced over untraced throughput).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
checks whose output is plainly wrong: they raised, returned a non-finite
value or a wrong closed form, broke a documented guarantee (CLI record
format, exit code, report consistency), or passed a negative control.
True identities reported as FAIL are counted apart, as wrong verdicts in
``verdict_ok_ratio``: they are rmtkit's known accuracy defects, held to
that metric's bound rather than to zero.  ``correct`` is false when any
check failed or a repeated pass gave different counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("catalog_grid", "tight_tol", "cli_expr")
SETUP_REPEATS = 7
# Times are reported in reference units: wall time scaled so that the
# calibration kernel, timed alongside, takes NOMINAL_KERNEL_NS.  On the
# shared 2-core x86 host this benchmark was tuned on, the same work took
# anywhere from 1x to 1.5x as long from one run to the next; the kernel
# slows with the checks, so the ratio moved by a few percent.
KERNEL_STEPS = 5000  # about 1 ms on that host when it is quiet
NOMINAL_KERNEL_NS = 1_000_000
KERNEL_RUNS = 3  # kernel timings averaged per calibration mark
CALIBRATE_EVERY_NS = 40_000_000
IDENTITY_KINDS = ("frullani", "lemma2", "rmt", "hardy", "residue_check")

# The child reads the monotonic clock, which is shared across processes,
# right after the imports; the parent subtracts its own reading at spawn.
_SETUP_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, {src!r})\n"
    "import {modules}\n"
    "done = time.perf_counter()\n"
    "sys.stdout.write(repr(done) + ' ' + rmtkit.__file__)\n"
)


def _imports(workload: str) -> str:
    return "rmtkit, rmtkit.cli" if workload == "cli_expr" else "rmtkit"


def measure_setup(workload: str) -> tuple[float, float]:
    """Median seconds from spawning a fresh interpreter to rmtkit imported,
    in reference units and as wall time."""
    code = _SETUP_CHILD.format(src=str(SRC), modules=_imports(workload))
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        kernel_before = kernel_ns()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, check=True)
        done, module_file = proc.stdout.split(" ", 1)
        if not Path(module_file).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported rmtkit from {module_file}, not {SRC}")
        times.append(float(done) - start)
        kernel = (kernel_before + kernel_ns()) / 2
        scaled.append(times[-1] * NOMINAL_KERNEL_NS / kernel)
    return statistics.median(scaled), statistics.median(times)


def measure_import_layers(workload: str) -> dict[str, float]:
    """Median cumulative import times (ms) of rmtkit and mpmath, from
    ``-X importtime`` in fresh interpreters.  mpmath reads 0 when importing
    rmtkit no longer pulls it in."""
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\nimport {_imports(workload)}\n"
    samples: dict[str, list[float]] = {"rmtkit": [], "mpmath": []}
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              capture_output=True, text=True, timeout=120, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:") and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1000.0
        samples["rmtkit"].append(cumulative.get("rmtkit", 0.0) + cumulative.get("rmtkit.cli", 0.0))
        samples["mpmath"].append(cumulative.get("mpmath", 0.0))
    return {name: statistics.median(values) for name, values in samples.items()}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def _kernel_step(x: float) -> float:
    return math.exp(-x) * math.sqrt(x) / (1.0 + x)


def kernel_ns() -> float:
    """Mean time of KERNEL_RUNS runs of a fixed pure-Python kernel: calls
    and float arithmetic, the instruction mix of rmtkit's quadrature."""
    t0 = time.perf_counter_ns()
    total = 0.0
    for _ in range(KERNEL_RUNS):
        for i in range(KERNEL_STEPS):
            total += _kernel_step(0.5 + (i % 97) * 0.01)
    return (time.perf_counter_ns() - t0) / KERNEL_RUNS


def run_pass(checks) -> tuple[list, list[int], list[float]]:
    """Run every check once, in order.

    Returns raw outputs, per-check wall times (ns) and the same times in
    reference ns: each check's time scaled by NOMINAL_KERNEL_NS over the
    mean of the kernel timings taken just before and just after it.  The
    kernel runs between checks at least every CALIBRATE_EVERY_NS.
    """
    clock = time.perf_counter_ns
    raws, latencies = [], []
    marks = []  # (index of the next check, kernel ns)
    gc.collect()
    next_mark = 0
    for i, check in enumerate(checks):
        if clock() >= next_mark:
            marks.append((i, kernel_ns()))
            next_mark = clock() + CALIBRATE_EVERY_NS
        t0 = clock()
        try:
            raw = check.call()
        except Exception as exc:  # recorded as a failed check
            raw = exc
        latencies.append(clock() - t0)
        raws.append(raw)
    marks.append((len(checks), kernel_ns()))
    scaled = []
    j = 0
    for i, ns in enumerate(latencies):
        while marks[j + 1][0] <= i:
            j += 1
        scaled.append(ns * 2 * NOMINAL_KERNEL_NS / (marks[j][1] + marks[j + 1][1]))
    return raws, latencies, scaled


class Tally:
    """Outcome counts over every check run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong_verdicts = 0
        self.underreported = 0
        self.repeatable = True
        self.reasons: Counter = Counter()

    def add(self, checks, raws, judge) -> dict:
        """Judge one pass; returns its fingerprint counts."""
        fingerprint = Counter(checks=len(checks))
        for check, raw in zip(checks, raws):
            verdict = judge(check, raw)
            fingerprint["evaluations"] += verdict.evaluations
            fingerprint["unconverged"] += not verdict.converged
            fingerprint["failed"] += verdict.failed
            fingerprint["wrong_verdicts"] += verdict.wrong_verdict
            fingerprint["underreported"] += verdict.underreported
            if verdict.reason:
                self.reasons[f"{check.label}: {verdict.reason}"] += 1
        self.attempted += len(checks)
        self.failed += fingerprint["failed"]
        self.wrong_verdicts += fingerprint["wrong_verdicts"]
        self.underreported += fingerprint["underreported"]
        return dict(fingerprint)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _latency_summary(latencies) -> tuple[float, float, float]:
    """(checks/s, p50 ms, p90 ms) of per-check times in ns."""
    return (len(latencies) / (sum(latencies) / 1e9), statistics.median(latencies) / 1e6,
            statistics.quantiles(latencies, n=10)[8] / 1e6)


def run_untraced(args, workloads, setup: tuple[float, float]) -> tuple[dict, Tally, dict]:
    tally = Tally()
    latencies: list[float] = []
    wall_latencies: list[int] = []
    elapsed_ns = 0
    fingerprint = None
    passes = 0
    while passes == 0 or elapsed_ns < args.seconds * 1e9:
        checks = workloads.generate(args.workload, args.seed, passes)
        start = time.perf_counter_ns()
        raws, wall, scaled = run_pass(checks)
        elapsed_ns += time.perf_counter_ns() - start
        counts = tally.add(checks, raws, workloads.judge)
        fingerprint = fingerprint or counts
        latencies += scaled
        wall_latencies += wall
        passes += 1
    rate, p50, p90 = _latency_summary(latencies)
    metrics = {
        "checks_per_s": _metric(rate, "1/s"),
        "check_ms_p50": _metric(p50, "ms"),
        "check_ms_p90": _metric(p90, "ms"),
        "verdict_ok_ratio": _metric(
            1 - (tally.failed + tally.wrong_verdicts) / tally.attempted, "ratio"),
        "error_honest_ratio": _metric(1 - tally.underreported / tally.attempted, "ratio"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": _metric(setup[0], "s"),
    }
    wall_rate, wall_p50, wall_p90 = _latency_summary(wall_latencies)
    meta = {"passes": passes, "checks_per_pass": fingerprint["checks"],
            "latency_samples": len(latencies), "fingerprint": fingerprint,
            "wall_clock": {"checks_per_s": wall_rate, "check_ms_p50": wall_p50,
                           "check_ms_p90": wall_p90, "setup_s": setup[1]}}
    return metrics, tally, meta


def run_traced(args, workloads, imports: dict) -> tuple[dict, Tally, dict]:
    from tracer import Tracer

    checks = workloads.generate(args.workload, args.seed, 0)
    tracer = Tracer()
    tally = Tally()
    untraced_ns = traced_ns = check_ns = 0
    reps = 0
    snapshots = []
    while reps == 0 or untraced_ns + traced_ns < args.seconds * 1e9:
        raws, _, scaled = run_pass(checks)
        tally.add(checks, raws, workloads.judge)
        untraced_ns += sum(scaled)
        before = tracer.snapshot()
        tracer.install()
        try:
            raws, wall, scaled = run_pass(checks)
        finally:
            tracer.remove()
        after = tracer.snapshot()
        snapshots.append({k: after[k] - before.get(k, 0) for k in after})
        tally.add(checks, raws, workloads.judge)
        traced_ns += sum(scaled)
        check_ns += sum(wall)
        reps += 1
    repeatable = all(s == snapshots[0] for s in snapshots)
    spans, counters = tracer.spans, tracer.counters
    n_checks = len(checks) * reps

    def calls(name):
        return spans[name].calls / reps

    # Span times are wall clock; convert them to reference units with the
    # traced passes' own calibration.
    unit = traced_ns / check_ns

    def per_call(name, scale):
        span = spans[name]
        return unit * span.total_ns / span.calls / scale if span.calls else 0.0

    def self_per_call(names, scale):
        called = sum(spans[n].calls for n in names)
        return unit * sum(spans[n].self_ns for n in names) / called / scale if called else 0.0

    quadrature_self_ns = unit * sum(span.self_ns for name, span in spans.items()
                                    if name.startswith("quadrature."))
    evaluations = counters["evaluations"]
    identities = [f"transforms.{kind}" for kind in IDENTITY_KINDS]
    m = {
        "quadrature.integrate_finite.calls": _metric(calls("quadrature.integrate_finite"), "count"),
        "quadrature.tail_panels": _metric(counters["tail_panels"] / reps, "count"),
        "quadrature.evaluations": _metric(evaluations / reps, "count"),
        "quadrature.evals_per_check": _metric(evaluations / n_checks, "count"),
        "quadrature.unconverged": _metric(counters["unconverged"] / reps, "count"),
        "quadrature.self_ms": _metric(quadrature_self_ns / n_checks / 1e6, "ms"),
        "quadrature.self_ns_per_eval": _metric(
            quadrature_self_ns / evaluations if evaluations else 0.0, "ns"),
        "expr.parse.calls": _metric(calls("expr.parse"), "count"),
        "expr.parse.us_per_call": _metric(per_call("expr.parse", 1e3), "us"),
        "expr.evaluate.calls": _metric(calls("expr.evaluate"), "count"),
        "expr.evaluate.ns_per_call": _metric(per_call("expr.evaluate", 1), "ns"),
        "expr.evaluate.share": _metric(spans["expr.evaluate"].total_ns / check_ns, "ratio"),
        "cli.main.calls": _metric(calls("cli.main"), "count"),
        "cli.main.self_us": _metric(self_per_call(["cli.main"], 1e3), "us"),
        "sequences.catalog_get.calls": _metric(calls("sequences.catalog_get"), "count"),
        "sequences.catalog_get.us_per_call": _metric(per_call("sequences.catalog_get", 1e3), "us"),
        "sequences.integrand.calls": _metric(calls("sequences.integrand"), "count"),
        "sequences.integrand.ns_per_call": _metric(per_call("sequences.integrand", 1), "ns"),
        "specfun.gamma.calls": _metric(calls("specfun.gamma"), "count"),
        "specfun.gamma.ns_per_call": _metric(per_call("specfun.gamma", 1), "ns"),
        "specfun.erf.calls": _metric(calls("specfun.erf"), "count"),
        "specfun.erf.ns_per_call": _metric(per_call("specfun.erf", 1), "ns"),
        "specfun.hermite.calls": _metric(calls("specfun.hermite"), "count"),
    }
    for kind in IDENTITY_KINDS:
        m[f"transforms.checks.{kind}"] = _metric(calls(f"transforms.{kind}"), "count")
    m.update({
        "transforms.self_us": _metric(self_per_call(identities, 1e3), "us"),
        "corpus.run_corpus.ms": _metric(per_call("corpus.run_corpus", 1e6), "ms"),
        "corpus.self_us": _metric(self_per_call(["corpus.run_corpus"], 1e3), "us"),
        "setup.import_rmtkit_ms": _metric(imports["rmtkit"], "ms"),
        "setup.import_mpmath_ms": _metric(imports["mpmath"], "ms"),
        "trace.overhead_ratio": _metric(untraced_ns / traced_ns, "ratio"),
        "repo.src_lines": _metric(src_lines(), "count"),
    })
    if not repeatable:
        tally.repeatable = False
        tally.reasons["traced passes gave different counts"] += 1
    meta = {"passes": 2 * reps, "checks_per_pass": len(checks), "counts": snapshots[0]}
    return m, tally, meta


def run_all(args) -> int:
    """Run every workload in its own interpreter and print all metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rmtkit" / "__init__.py").is_file():
        print(f"error: no rmtkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # Setup is timed in fresh interpreters before this process imports
    # rmtkit or mpmath.
    if args.trace:
        runner, setup = run_traced, measure_import_layers(args.workload)
    else:
        runner, setup = run_untraced, measure_setup(args.workload)
    sys.path.insert(0, str(SRC))
    os.environ.pop("RMT_DEFAULT_TOL", None)  # keep rmtkit's default identity tolerance
    import mpmath
    import workloads

    metrics, tally, meta = runner(args, workloads, setup)
    meta.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": tally.attempted, "failed": tally.failed,
        "wrong_verdicts": tally.wrong_verdicts, "underreported": tally.underreported,
        "nproc": os.cpu_count(),
        "python": platform.python_version(), "mpmath": mpmath.__version__,
        "repo.src_lines": src_lines(),
    })
    for reason, count in sorted(tally.reasons.items()):
        print(f"outcome  {count:6d}  {reason}")
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    for name, value in meta.get("wall_clock", {}).items():
        print(f"{'wall_clock.' + name:40s} {value:.6g}")
    print(json.dumps({"meta": meta}))
    correct = tally.failed == 0 and tally.repeatable
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
