"""Multivariate gamma function in log space.

The order-p multivariate gamma factors into ordinary gammas,

    Gamma_p(b) = pi**(p*(p-1)/4) * prod_{j=1}^{p} Gamma(b - (j-1)/2),

valid for b > (p-1)/2.  Ratios with a common shift are computed as sums
of lgamma differences so the pi prefactor cancels exactly and no large
intermediate ever materialises.  Each difference is taken in a form that
does not cancel, so the ratio keeps full relative precision at any shape.
"""
from __future__ import annotations

import math

from .errors import DomainError, check_int, check_real

__all__ = ["log_multigamma", "log_multigamma_ratio"]

_LOG_PI = math.log(math.pi)

# Below this argument lgamma is at most lgamma(12) ~ 17.5, so a plain
# difference loses only a few ulps; above it the Stirling form is used.
_STIRLING_FROM = 12.0


def _check_pole(p: int, beta: float) -> tuple[int, float]:
    """``(p, beta)`` as an int and a float; DomainError unless a finite beta > (p - 1) / 2."""
    p = check_int(p, "order p", 1)
    beta = check_real(beta, "beta")
    if not beta > (p - 1) / 2.0:
        raise DomainError(f"beta={beta} must exceed (p-1)/2 = {(p - 1) / 2}")
    return p, beta


def _lgamma(x: float) -> float:
    """math.lgamma, with inf in place of OverflowError."""
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def _stirling_correction(z: float) -> float:
    """lgamma(z) - ((z - 1/2) log z - z + log(2 pi)/2) for z >= 12, DLMF 5.11.1.

    The Bernoulli series to the 1/z**13 term; at z = 12 the first omitted
    term is below 2e-18.  Horner in 1/z**2, so a term that underflows drops
    out as 0.
    """
    r = 1.0 / z
    r2 = r * r
    return r * (1 / 12 + r2 * (-1 / 360 + r2 * (1 / 1260 + r2 * (-1 / 1680 + r2 * (
        1 / 1188 + r2 * (-691 / 360360 + r2 / 156))))))


def _lgamma_diff(x: float, s: float) -> float:
    """lgamma(x + s) - lgamma(x) for x > 0 and s >= 0, without cancellation.

    For x >= 12 the Stirling terms are differenced by hand:
    (x - 1/2) log1p(s/x) + s (log(x + s) - 1) + c(x + s) - c(x), where
    every part but the small c difference is positive.  Past double range
    the result is inf; at s = 0 both forms give exactly 0.0.
    """
    if x < _STIRLING_FROM:
        return _lgamma(x + s) - math.lgamma(x)
    return (
        (x - 0.5) * math.log1p(s / x)
        + s * (math.log(x + s) - 1.0)
        + (_stirling_correction(x + s) - _stirling_correction(x))
    )


def log_multigamma(p: int, beta: float) -> float:
    """log Gamma_p(beta) for beta > (p - 1) / 2.

    Raises
    ------
    DomainError
        If ``p`` is not a positive integer, or ``beta`` is not a finite real
        or is at or below the pole boundary (p - 1) / 2.
    """
    p, beta = _check_pole(p, beta)
    return p * (p - 1) / 4.0 * _LOG_PI + sum(_lgamma(beta - 0.5 * j) for j in range(p))


def log_multigamma_ratio(p: int, beta: float, shift: float) -> float:
    """log of Gamma_p(beta + shift) / Gamma_p(beta), for a finite shift >= 0.

    The pi prefactors cancel, so the result is a plain sum of
    ``lgamma(beta + shift - j/2) - lgamma(beta - j/2)`` terms, defined
    whenever ``beta > (p-1)/2`` and each exactly 0.0 at a zero shift.  Each
    keeps full relative precision at any beta; past double range it is inf.
    DomainError refuses what ``log_multigamma`` refuses, and a negative,
    NaN or infinite shift.
    """
    p, beta = _check_pole(p, beta)
    shift = check_real(shift, "shift", 0.0)
    return sum(_lgamma_diff(beta - 0.5 * j, shift) for j in range(p))
