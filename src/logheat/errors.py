"""Exception hierarchy shared by all logheat modules."""
import math
import operator


class LogheatError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(LogheatError):
    """Invalid input data (bad weights, nonpositive variances, ...)."""


class DomainError(LogheatError):
    """A closed-form bound was requested outside its validity region."""


class CapabilityError(LogheatError):
    """The measure does not support the requested operation."""


class NumericalError(LogheatError):
    """A numerical routine produced or encountered non-finite values."""


class BracketError(LogheatError):
    """Root bracket does not contain a sign change."""


class PreconditionError(LogheatError):
    """A verified hypothesis (e.g. a Hessian lower bound on a grid) fails."""


class SearchError(LogheatError):
    """A certificate search ran out of bracket or truncation budget."""


def check_integers(names: str, *values) -> tuple[int, ...]:
    """The values as ints through ``operator.index``; 2.5 is a ValidationError naming them all."""
    try:
        return tuple(operator.index(v) for v in values)
    except TypeError:
        raise ValidationError(f"need integer {names}: {', '.join(map(repr, values))}") from None


def check_finite(**values: float) -> None:
    """A ValidationError naming the first argument that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")
