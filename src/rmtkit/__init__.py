"""rmtkit: numerical cross-verification of classical integral identities.

The library evaluates each identity twice, by independent routes: the left
side with adaptive quadrature, the right side in closed form from the
special-function layer, and reports the discrepancy.

Quick start::

    from rmtkit import catalog_get, rmt

    pair = catalog_get("exp", a=2.0)
    report = rmt(pair, 3.0)        # integral of x^2 e^(-2x)
    assert report.passed and abs(report.rhs - 0.25) < 1e-15
"""

from .corpus import IdentityCase, builtin_cases, run_corpus
from .errors import (
    DerivativeUnavailable,
    DivisionByZero,
    DomainError,
    EvaluationError,
    ExprSyntaxError,
    NonConvergenceError,
    NonstandardPair,
    ParamDomainError,
    PoleError,
    PresentationError,
    RadiusError,
    RmtError,
    SingularityError,
    UnboundVariable,
    UnknownEntry,
    UnknownFunction,
)
from .quadrature import (
    EvaluationResult,
    QuadratureConfig,
    integrate_finite,
    integrate_mellin,
    integrate_semi_infinite,
)
from .sequences import (
    SeriesPair,
    SeriesValue,
    catalog_get,
    catalog_ids,
    eval_series,
    shift_sequence,
)
from .specfun import erf, gamma, hermite, laguerre, log_gamma, reflection_factor
from .transforms import (
    FdDerivative,
    IdentityReport,
    frullani,
    hardy,
    lemma2,
    nth_derivative_fd,
    partial_fraction_sum,
    residue_check,
    rmt,
)

__version__ = "0.1.0"


def __getattr__(name: str):  # PEP 562: no identity parses, so expr loads on first use
    if name not in ("evaluate", "parse", "to_source"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import expr
    return getattr(expr, name)


__all__ = [
    "IdentityCase",
    "builtin_cases",
    "run_corpus",
    "RmtError",
    "DomainError",
    "PoleError",
    "EvaluationError",
    "SingularityError",
    "RadiusError",
    "NonConvergenceError",
    "DerivativeUnavailable",
    "UnknownEntry",
    "ParamDomainError",
    "NonstandardPair",
    "PresentationError",
    "ExprSyntaxError",
    "UnknownFunction",
    "UnboundVariable",
    "DivisionByZero",
    "evaluate",
    "parse",
    "to_source",
    "EvaluationResult",
    "QuadratureConfig",
    "integrate_finite",
    "integrate_mellin",
    "integrate_semi_infinite",
    "SeriesPair",
    "SeriesValue",
    "catalog_get",
    "catalog_ids",
    "eval_series",
    "shift_sequence",
    "erf",
    "gamma",
    "hermite",
    "laguerre",
    "log_gamma",
    "reflection_factor",
    "FdDerivative",
    "IdentityReport",
    "frullani",
    "hardy",
    "lemma2",
    "nth_derivative_fd",
    "partial_fraction_sum",
    "residue_check",
    "rmt",
]
