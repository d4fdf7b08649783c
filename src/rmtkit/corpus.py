"""Built-in regression cases: each classical application encoded as a
named, machine-checkable record with its exact closed-form value.

Exact values are computed from the special-function layer alone (gamma,
the reflection factor, square roots, logarithms); the quadrature side only
ever appears in the left-hand evaluation, keeping the two routes
independent.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from . import specfun, transforms
from .errors import RmtError
from .quadrature import EvaluationResult, QuadratureConfig
from .sequences import catalog_get
from .transforms import IdentityReport

__all__ = ["IdentityCase", "builtin_cases", "run_corpus", "scale_tolerances"]

_SQRT_PI = specfun.gamma(0.5)


@dataclass(frozen=True)
class IdentityCase:
    """One named identity check.

    ``inputs`` holds the kind's inputs under the names of
    ``transforms.IDENTITIES[kind].inputs`` (s, n, alpha, ...); ``params``
    holds the catalog parameters only, so a parameter may share an input's
    name (laguerre_weight's ``n``).  Both sides of the report are
    multiplied by ``scale`` before they are compared.
    The laguerre cases carry an absolute tolerance (their exact value is
    zero); all others are effectively relative since a report passes when
    either discrepancy is within tolerance.
    """

    name: str
    kind: str
    catalog_id: str
    params: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    exact_value: float = 0.0
    tolerance: float = transforms.DEFAULT_IDENTITY_TOL
    description: str = ""
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in transforms.IDENTITIES:
            raise ValueError(f"unknown case kind {self.kind!r}")
        expected = transforms.IDENTITIES[self.kind].inputs
        if set(self.inputs) != set(expected):
            raise ValueError(f"{self.name}: {self.kind} takes inputs {expected}")


def builtin_cases() -> list[IdentityCase]:
    """The standard corpus, in canonical order."""
    cases = [
        IdentityCase(
            name="euler_n3_a2",
            kind="rmt",
            catalog_id="exp",
            params={"a": 2.0},
            inputs={"s": 3.0},
            exact_value=specfun.gamma(3.0) / 8.0,
            tolerance=1e-9,
            description="Euler integral: x^2 e^(-2x) integrates to Gamma(3)/2^3",
        ),
        IdentityCase(
            name="euler_half",
            kind="rmt",
            catalog_id="exp",
            params={"a": 1.0},
            inputs={"s": 0.5},
            exact_value=_SQRT_PI,
            tolerance=1e-9,
            description="Euler integral at half order: Gamma(1/2) = sqrt(pi)",
        ),
        IdentityCase(
            name="beta_2_3",
            kind="rmt",
            catalog_id="power",
            params={"m": 5.0},
            inputs={"s": 2.0},
            exact_value=specfun.gamma(2.0) * specfun.gamma(3.0) / specfun.gamma(5.0),
            tolerance=1e-9,
            description="beta function B(2,3) via x/(1+x)^5; the catalog "
            "exponent m=5 is the total n+m of the classical statement",
        ),
        IdentityCase(
            name="gaussian",
            kind="lemma2",
            catalog_id="erf",
            inputs={"n": 1},
            exact_value=_SQRT_PI / 2.0,
            tolerance=1e-10,
            description="Gaussian integral: e^(-x^2) integrates to sqrt(pi)/2",
            scale=_SQRT_PI / 2.0,
        ),
    ]
    for n in (2, 3, 4):
        cases.append(
            IdentityCase(
                name=f"hermite_{n}",
                kind="lemma2",
                catalog_id="erf",
                inputs={"n": n},
                exact_value=(_SQRT_PI / 2.0) * specfun.gamma(float(n)),
                tolerance=1e-8,
                description=(
                    f"x^{n - 1} H_{n - 1}(x) e^(-x^2) integrates to "
                    f"sqrt(pi)/2 Gamma({n}); recovered from the erf "
                    "derivative by unwinding its Rodrigues factor"
                ),
                # Divides out the erf derivative's factor (-1)^(n-1) 2/sqrt(pi).
                scale=(-1.0) ** (n - 1) * _SQRT_PI / 2.0,
            )
        )
    for n in (2, 3, 4):
        cases.append(
            IdentityCase(
                name=f"laguerre_zero_{n}",
                kind="lemma2",
                catalog_id="laguerre_weight",
                params={"n": float(n)},
                inputs={"n": n},
                exact_value=0.0,
                tolerance=1e-9,
                description=(
                    f"x^{n - 1} L_{n}(x) e^(-x) integrates to 0 "
                    "(orthogonality); absolute tolerance"
                ),
            )
        )
    cases.extend(
        [
            IdentityCase(
                name="hardy_half",
                kind="hardy",
                catalog_id="geometric",
                inputs={"s": 0.5},
                exact_value=math.pi,
                tolerance=1e-8,
                description="x^(-1/2)/(1+x) integrates to pi/sin(pi/2) = pi",
            ),
            IdentityCase(
                name="frullani_exp",
                kind="frullani",
                catalog_id="exp",
                params={"a": 1.0},
                inputs={"alpha": 2.0, "beta": 1.0},
                exact_value=-math.log(2.0),
                tolerance=1e-9,
                description="Frullani integral of e^(-x) at scales 2 and 1",
            ),
        ]
    )
    for m in (0, 1, 2):
        cases.append(
            IdentityCase(
                name=f"residue_m{m}",
                kind="residue",
                catalog_id="exp",
                params={"a": 1.0},
                inputs={"m": m, "eps": transforms.RESIDUE_EPS},
                exact_value=(-1.0) ** m / specfun.gamma(m + 1.0),
                tolerance=1e-3,
                description=f"residue of Gamma at -{m} is (-1)^{m}/{m}!",
            )
        )
    cases.append(
        IdentityCase(
            name="harmonic_half",
            kind="rmt",
            catalog_id="harmonic_shifted",
            inputs={"s": 0.5},
            exact_value=2.0 * _SQRT_PI,
            tolerance=1e-7,
            description="x^(-3/2)(1 - e^(-x)) integrates to 2 sqrt(pi)",
        )
    )
    assert len({c.name for c in cases}) == len(cases), "case names must be unique"
    return cases


def _failed_report(identity: str, exact: float, tol: float, reason: str) -> IdentityReport:
    return IdentityReport(
        identity=identity,
        lhs=EvaluationResult(math.nan, math.inf, 0, False),
        rhs=exact,
        abs_discrepancy=math.inf,
        rel_discrepancy=math.inf,
        passed=False,
        tolerance_used=tol,
        warnings=(f"error: {reason}",),
    )


def _run_case(case: IdentityCase, cfg: QuadratureConfig | None) -> IdentityReport:
    pair = catalog_get(case.catalog_id, **case.params)
    report = transforms.IDENTITIES[case.kind].run(pair, cfg, case.tolerance, **case.inputs)
    return transforms.scale_report(report, case.scale)


def run_corpus(
    cases: list[IdentityCase],
    cfg: QuadratureConfig | None = None,
) -> list[tuple[IdentityCase, IdentityReport]]:
    """Evaluate each case; per-case errors become failed reports with the
    reason recorded, never aborting the batch.  Output preserves input
    order and is deterministic for a fixed config."""
    results = []
    for case in cases:
        try:
            report = _run_case(case, cfg)
        except (RmtError, OverflowError, ValueError) as exc:
            report = _failed_report(case.kind, case.exact_value, case.tolerance, str(exc))
        # The recorded exact value must agree with the closed-form side the
        # transform computed; a mismatch means the case itself is wrong.
        drift = abs(report.rhs - case.exact_value)
        if math.isfinite(report.rhs) and drift > max(1e-12, 1e-11 * abs(case.exact_value)):
            report = dataclasses.replace(
                report,
                passed=False,
                warnings=report.warnings
                + (f"closed form {report.rhs!r} disagrees with the recorded "
                   f"exact value {case.exact_value!r}",),
            )
        results.append((case, report))
    return results


def scale_tolerances(cases: list[IdentityCase], factor: float) -> list[IdentityCase]:
    """Copies of ``cases`` with every tolerance multiplied by ``factor``."""
    transforms.positive_tolerance(factor, "tolerance scale")
    return [dataclasses.replace(c, tolerance=c.tolerance * factor) for c in cases]
