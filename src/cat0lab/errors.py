"""Exception types shared across the package, the constructors' `real` and
`finite`, and the bin schemes' `bin_count`."""

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


# a hitting histogram holds one mass per bin: 10**6 bins are 8 MB of counts
MAX_BINS = 10 ** 6


def bin_count(count: int) -> int:
    """count as an int, or UsageError above MAX_BINS."""
    if int(count) > MAX_BINS:
        raise UsageError(f"a bin scheme has at most {MAX_BINS} bins")
    return int(count)
