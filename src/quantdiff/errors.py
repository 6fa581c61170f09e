"""Exception hierarchy shared across the package.

Validation errors signal bad user input (CLI exit code 2); estimation
errors signal statistically degenerate but well-formed input (exit code 3);
consistency errors signal a broken internal invariant (exit code 4).
"""


class QuantdiffError(Exception):
    """Base class for all package errors."""


class ValidationError(QuantdiffError, ValueError):
    """Malformed or out-of-domain input."""


class EmptySampleError(ValidationError):
    """A sample with zero observations was supplied."""


class NonFiniteValueError(ValidationError):
    """A sample contains NaN or infinity."""


class DomainError(ValidationError):
    """A parameter lies outside its mathematical domain."""


class IndexOutOfRangeError(ValidationError):
    """An order-statistic or count index lies outside [0, n]."""


class EstimationError(QuantdiffError):
    """Input is valid but too degenerate for the requested inference."""


class InsufficientSampleError(EstimationError):
    """The sample is too small for the requested quantile and level."""


class DegenerateRegionError(EstimationError):
    """The acceptance region contains no usable index pairs."""


class NumericOverflowError(EstimationError):
    """The interval arithmetic overflows double precision on these values."""


class ConsistencyError(QuantdiffError, RuntimeError):
    """An internal invariant was violated; indicates a bug, not bad input."""
