"""Exception types shared across the package, and the constructors' `finite`."""

import math


class UsageError(ValueError):
    """An operation was called outside its contract (bad arguments, model mismatch)."""


class DomainError(ValueError):
    """The input is outside the mathematical domain of the operation."""


class DistributionError(UsageError):
    """A step distribution violates its invariants."""


class UncertifiedError(RuntimeError):
    """A theorem-grade estimator was fed a distribution whose hypotheses
    were not certified and no override was given."""


def finite(x) -> float:
    """x as a float, or UsageError if it is NaN or infinite."""
    x = float(x)
    if not math.isfinite(x):
        raise UsageError(f"coordinates must be finite, not {x}")
    return x
