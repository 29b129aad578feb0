"""Exception types shared across the package, and the admission rules.

``check_int`` admits every count, size, seed and order, ``check_real`` every
other real argument, and ``check_sequence`` the shape of every tuple-valued
one; a domain bound such as ``alpha > p - 1`` is checked after them, where
it lives.
"""
import math
import sys
from collections.abc import Sequence
from numbers import Integral, Real

__all__ = [
    "WishminorsError",
    "DimensionMismatch",
    "NotPositiveDefinite",
    "DomainError",
    "SingularRegime",
    "NonIntegerAlpha",
    "NotBlockDiagonal",
    "DegenerateEstimate",
]

_FLOAT_MAX = sys.float_info.max


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
    """The scale matrix couples blocks with a nonzero exponent."""


class DegenerateEstimate(WishminorsError):
    """A Monte Carlo estimate that cannot be scored honestly.

    Raised when a draw of the log statistic is NaN or +inf, when every draw
    is -inf, or when a zero-spread estimate disagrees with the exact value.
    """


def check_int(value, what: str, low: int, high: int | None = None, error=DomainError) -> int:
    """``value`` as an int; ``error`` unless it is an integer in [low, high).

    An integer is a ``numbers.Integral`` other than ``bool``: ``2.0``, NaN,
    inf and ``True`` are refused.
    """
    integer = isinstance(value, Integral) and not isinstance(value, bool)
    if integer and low <= value and (high is None or value < high):
        return int(value)
    bound = f">= {low}" if high is None else f"in [{low}, {high})"
    raise error(f"{what} must be an integer {bound}, got {value!r}")


def check_real(value, what: str, low: float = -math.inf) -> float:
    """``value`` as a float; DomainError unless it is a real, finite and >= ``low``.

    A real is a ``numbers.Real`` other than ``bool``: ``"0.5"``, ``True`` and
    ``1j`` are refused, and so is one beyond double range, like ``10**400``.
    """
    real = isinstance(value, Real) and not isinstance(value, bool)
    if real and max(low, -_FLOAT_MAX) <= value <= _FLOAT_MAX:
        return float(value)
    bound = "" if low == -math.inf else f" and >= {low:g}"
    raise DomainError(f"{what} must be finite{bound}, got {value!r}")


def check_sequence(value, what: str, length: int | None = None, error=DomainError) -> tuple:
    """``value`` as a tuple; ``error`` unless it is a non-string sequence of
    ``length`` items, or of one or more when ``length`` is None."""
    items = isinstance(value, Sequence) and not isinstance(value, (str, bytes))
    if items or getattr(value, "ndim", None) == 1:  # a 1-d numpy array
        if len(value) == length or (length is None and len(value) >= 1):
            return tuple(value)
    count = "one or more" if length is None else length
    raise error(f"{what} must be a sequence of {count} values, got {value!r}")
