"""Multivariate gamma function in log space.

The order-p multivariate gamma factors into ordinary gammas,

    Gamma_p(b) = pi**(p*(p-1)/4) * prod_{j=1}^{p} Gamma(b - (j-1)/2),

valid for b > (p-1)/2.  Ratios with a common shift are computed as sums
of lgamma differences so the pi prefactor cancels exactly and no large
intermediate ever materialises.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from .errors import DomainError

__all__ = ["log_multigamma", "log_multigamma_ratio"]

_LOG_PI = math.log(math.pi)


def _check_order(p: int) -> int:
    if int(p) != p or p < 1:
        raise DomainError(f"order p must be a positive integer, got {p!r}")
    return int(p)


def log_multigamma(p: int, beta: float) -> float:
    """log Gamma_p(beta) for beta > (p - 1) / 2.

    Raises
    ------
    DomainError
        If ``p`` is not a positive integer or ``beta`` is at or below the
        pole boundary (p - 1) / 2.
    """
    p = _check_order(p)
    beta = float(beta)
    if not beta > (p - 1) / 2.0:
        raise DomainError(f"beta={beta} must exceed (p-1)/2 = {(p - 1) / 2}")
    args = beta - 0.5 * np.arange(p)
    return float(p * (p - 1) / 4.0 * _LOG_PI + gammaln(args).sum())


def log_multigamma_ratio(p: int, beta: float, shift: float) -> float:
    """log of Gamma_p(beta + shift) / Gamma_p(beta), for shift >= 0.

    Exactly 0.0 when ``shift`` is zero.  The pi prefactors cancel, so the
    result is a plain sum of ``lgamma(beta + shift - j/2) - lgamma(beta - j/2)``
    terms, defined whenever ``beta > (p-1)/2``.  Past double range it is
    inf or, where both lgammas overflow, NaN, without a warning.
    """
    p = _check_order(p)
    beta = float(beta)
    shift = float(shift)
    if not beta > (p - 1) / 2.0:
        raise DomainError(f"beta={beta} must exceed (p-1)/2 = {(p - 1) / 2}")
    if shift < 0:
        raise DomainError(f"shift must be nonnegative, got {shift}")
    if shift == 0.0:
        return 0.0
    args = beta - 0.5 * np.arange(p)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sum(gammaln(args + shift) - gammaln(args)))
