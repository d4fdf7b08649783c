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

# Two-sided probe width for the residue cases.
_RESIDUE_EPS = 1e-4

# The identity inputs a case's ``order`` fills; every other input comes from
# ``params``.  A catalog parameter may share an input's name (laguerre_weight's
# ``n``), so these are never taken from ``params``.
_ORDER_INPUTS = ("n", "s", "m")


@dataclass(frozen=True)
class IdentityCase:
    """One named identity check.

    ``order`` is the derivative order n, the exponent s, or the pole index
    m depending on ``kind``; the kind's other inputs (alpha, beta, eps) and
    the catalog parameters live in ``params``.  Both sides of the report are
    multiplied by ``scale`` before they are compared.
    The laguerre cases carry an absolute tolerance (their exact value is
    zero); all others are effectively relative since a report passes when
    either discrepancy is within tolerance.
    """

    name: str
    kind: str
    catalog_id: str
    params: dict = field(default_factory=dict)
    order: float = 0.0
    exact_value: float = 0.0
    tolerance: float = 1e-8
    description: str = ""
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in transforms.IDENTITIES:
            raise ValueError(f"unknown case kind {self.kind!r}")

    @property
    def order_input(self) -> str | None:
        """The input of the case's kind that ``order`` fills, if any."""
        inputs = transforms.IDENTITIES[self.kind].inputs
        return next((name for name in inputs if name in _ORDER_INPUTS), None)


def builtin_cases() -> list[IdentityCase]:
    """The standard corpus, in canonical order."""
    cases = [
        IdentityCase(
            name="euler_n3_a2",
            kind="rmt",
            catalog_id="exp",
            params={"a": 2.0},
            order=3.0,
            exact_value=specfun.gamma(3.0) / 8.0,
            tolerance=1e-9,
            description="Euler integral: x^2 e^(-2x) integrates to Gamma(3)/2^3",
        ),
        IdentityCase(
            name="euler_half",
            kind="rmt",
            catalog_id="exp",
            params={"a": 1.0},
            order=0.5,
            exact_value=_SQRT_PI,
            tolerance=1e-9,
            description="Euler integral at half order: Gamma(1/2) = sqrt(pi)",
        ),
        IdentityCase(
            name="beta_2_3",
            kind="rmt",
            catalog_id="power",
            params={"m": 5.0},
            order=2.0,
            exact_value=specfun.gamma(2.0) * specfun.gamma(3.0) / specfun.gamma(5.0),
            tolerance=1e-9,
            description="beta function B(2,3) via x/(1+x)^5; the catalog "
            "exponent m=5 is the total n+m of the classical statement",
        ),
        IdentityCase(
            name="gaussian",
            kind="lemma2",
            catalog_id="erf",
            order=1.0,
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
                order=float(n),
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
                order=float(n),
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
                order=0.5,
                exact_value=math.pi,
                tolerance=1e-8,
                description="x^(-1/2)/(1+x) integrates to pi/sin(pi/2) = pi",
            ),
            IdentityCase(
                name="frullani_exp",
                kind="frullani",
                catalog_id="exp",
                params={"a": 1.0, "alpha": 2.0, "beta": 1.0},
                exact_value=-math.log(2.0),
                tolerance=1e-9,
                description="Frullani integral of e^(-x) at scales 2 and 1",
            ),
        ]
    )
    for m in (0, 1, 2):
        sign = 1.0 if m % 2 == 0 else -1.0
        cases.append(
            IdentityCase(
                name=f"residue_m{m}",
                kind="residue",
                catalog_id="exp",
                params={"a": 1.0, "eps": _RESIDUE_EPS},
                order=float(m),
                exact_value=sign / specfun.gamma(m + 1.0),
                tolerance=1e-3,
                description=f"residue of Gamma at -{m} is (-1)^{m}/{m}!",
            )
        )
    cases.append(
        IdentityCase(
            name="harmonic_half",
            kind="rmt",
            catalog_id="harmonic_shifted",
            order=0.5,
            exact_value=2.0 * _SQRT_PI,
            tolerance=1e-7,
            description="x^(-3/2)(1 - e^(-x)) integrates to 2 sqrt(pi)",
        )
    )
    names = [c.name for c in cases]
    assert len(names) == len(set(names)), "case names must be unique"
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
    params = dict(case.params)
    inputs = {}
    for name in transforms.IDENTITIES[case.kind].inputs:
        if name in _ORDER_INPUTS:
            inputs[name] = case.order
        elif name == "eps":
            inputs[name] = params.pop("eps", _RESIDUE_EPS)
        else:
            inputs[name] = params.pop(name)
    pair = catalog_get(case.catalog_id, **params)
    report = transforms.IDENTITIES[case.kind].run(pair, cfg, case.tolerance, **inputs)
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
