"""Self-test of the benchmark: its deterministic counts repeat exactly.

For each workload and for seeds 7 and 8, the first pass's fingerprint -
checks, integrand evaluations, unconverged, failed, wrong-verdict and
underreported checks - is computed in two fresh interpreters and must match; a third
run with the tracer installed must match too, so tracing never changes
what rmtkit computes.  These counts are the machine-independent signal
to compare two versions of rmtkit on.

Run with ``python3 -m pytest bench/selftest.py`` or ``python3 bench/selftest.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORKLOADS = ("catalog_grid", "tight_tol", "cli_expr")
SEEDS = (7, 8)

_CHILD = """
import json, sys
sys.path[:0] = [{bench!r}, {src!r}]
import run, tracer, workloads
checks = workloads.generate({workload!r}, {seed}, 0)
spans = tracer.Tracer()
if {traced}:
    spans.install()
raws, _, _ = run.run_pass(checks)
spans.remove()
print(json.dumps(run.Tally().add(checks, raws, workloads.judge)))
"""


def fingerprint(workload: str, seed: int, traced: bool = False) -> dict:
    code = _CHILD.format(bench=str(BENCH), src=str(SRC), workload=workload,
                         seed=seed, traced=traced)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, check=True)
    return json.loads(proc.stdout)


def test_fingerprints_repeat_exactly():
    for workload in WORKLOADS:
        for seed in SEEDS:
            first = fingerprint(workload, seed)
            assert first["checks"] > 0 and first["evaluations"] > 0
            assert fingerprint(workload, seed) == first, (workload, seed)
            assert fingerprint(workload, seed, traced=True) == first, (workload, seed)


if __name__ == "__main__":
    for workload in WORKLOADS:
        for seed in SEEDS:
            print(workload, seed, json.dumps(fingerprint(workload, seed)))
    test_fingerprints_repeat_exactly()
    print("fingerprints repeat exactly")
