"""Exception types shared across the package."""


class WishminorsError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(WishminorsError):
    """Shapes, partition totals, or index bounds are incompatible."""


class NotPositiveDefinite(WishminorsError):
    """A matrix required to be symmetric positive definite is not."""


class DomainError(WishminorsError):
    """A scalar parameter lies outside its admissible domain."""


class SingularRegime(DomainError):
    """The requested operation needs a nonsingular Wishart (shape > dim - 1)."""


class NonIntegerAlpha(WishminorsError):
    """The sum-of-outer-products sampler needs an integer shape parameter."""


class NotBlockDiagonal(WishminorsError):
    """The scale matrix has off-diagonal coupling between the given blocks."""


class DegenerateEstimate(WishminorsError):
    """A Monte Carlo estimate that cannot be scored honestly.

    Raised when a draw of the log statistic is NaN or +inf, when every draw
    is -inf, or when a zero-spread estimate disagrees with the exact value.
    """
