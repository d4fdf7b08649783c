"""Exception types shared across the package, and the integer rule that
raises them for every order and count.

The hierarchy is intentionally shallow: ``RmtError`` is the common base so
callers can catch everything library-specific in one clause, while the CLI
maps the leaf types onto its exit-code contract.
"""

from __future__ import annotations


class RmtError(Exception):
    """Base class for all library-specific errors."""


class DomainError(RmtError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation was requested within the exclusion radius of a pole."""


class EvaluationError(RmtError):
    """An integrand returned a non-finite value that bisection retries
    could not step around."""


class SingularityError(EvaluationError):
    """The transformed function itself is non-finite inside the head
    interval of a Mellin integral."""


class RadiusError(DomainError):
    """Series evaluation requested at or beyond the convergence radius."""


class NonConvergenceError(RmtError):
    """A series did not reach its stopping rule within the term budget."""


class DerivativeUnavailable(RmtError):
    """A derivative order above the pair's supported maximum was requested."""


class UnknownEntry(RmtError, KeyError):
    """Catalog lookup with an id that is not registered."""


class ParamDomainError(DomainError):
    """A catalog parameter is missing, superfluous, or out of range."""


class NonstandardPair(RmtError):
    """The pair has a vanishing leading coefficient and is rejected by
    operations that require phi(0) != 0."""


class PresentationError(RmtError):
    """The pair is not in the series presentation the operation expects."""


class ExprSyntaxError(RmtError):
    """Parse failure, carrying the byte offset and the expected-token set."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        detail = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at offset {offset}{detail}")


class UnknownFunction(ExprSyntaxError):
    """A call names a function that is not in the builtin list."""


class UnboundVariable(RmtError):
    """Expression evaluation met a variable absent from the environment."""


class DivisionByZero(RmtError):
    """Expression evaluation divided by exactly zero."""


def integer_in(value, low, high, error: type[Exception], message: str, *args) -> int:
    """``value`` as an int when it is an integral number in [low, high] that a
    float can hold (2.0 counts as 2); otherwise ``error(message % args)``.
    This is the one rule for every integer order and count the package takes.
    The message is formatted only on refusal, so a hot caller pays for the test alone."""
    try:
        if low <= value <= high and float(value).is_integer():
            return int(value)
    except OverflowError:  # an int beyond the double range
        pass
    raise error(message % args)
