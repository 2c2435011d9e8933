"""Exception and warning types shared across the package."""


class DimensionError(ValueError):
    """Matrix or truncation dimensions are inconsistent or too small."""


class HermiticityError(ValueError):
    """An operation that requires a Hermitian matrix received one that is not."""


class StateError(ValueError):
    """A quantum-state argument violates its invariants (trace, norm, positivity)."""


class TimeDomainError(ValueError):
    """A schedule was evaluated at a negative time."""


class GridError(ValueError):
    """A sampling grid is empty, unsorted, or mismatched between series."""


class TruncationError(RuntimeError):
    """Clipped tail mass is too large for the requested truncation to be meaningful."""


class TruncationWarning(UserWarning):
    """Evolved-state population is not negligible at the truncation edge."""
