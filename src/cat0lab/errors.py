"""Exception types shared across the package, and the constructors' `real` and `finite`."""

import math
import numbers


class UsageError(ValueError):
    """An operation was called outside its contract (bad arguments, model mismatch)."""


class DomainError(ValueError):
    """The input is outside the mathematical domain of the operation."""


class DistributionError(UsageError):
    """A step distribution violates its invariants."""


class UncertifiedError(RuntimeError):
    """A theorem-grade estimator was fed a distribution whose hypotheses
    were not certified and no override was given."""


def real(x) -> float:
    """x as a float, or UsageError unless it is a real number: a string or a
    bool is not one, a numpy scalar is."""
    if type(x) is not float and (isinstance(x, bool) or not isinstance(x, numbers.Real)):
        raise UsageError(f"expected a number, not {x!r}")
    return float(x)


def finite(x) -> float:
    """`real(x)`, or UsageError if it is NaN or infinite."""
    x = real(x)
    if not math.isfinite(x):
        raise UsageError(f"coordinates must be finite, not {x}")
    return x
