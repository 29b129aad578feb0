"""Exact joint moments of principal minors of a Wishart matrix.

For X ~ Wishart(alpha, sigma) of dimension p and a contiguous partition
p_1 + ... + p_d = p, the joint moment of the nested leading minors

    E[ prod_{i=1}^{d} det(X[1:P_i, 1:P_i]) ** nu_i ],   P_i = p_1 + ... + p_i,

factors over the blocks: block i contributes the determinant term
``det(2 sigma[1:P_i, 1:P_i]) ** nu_i`` and the multivariate gamma ratio
``Gamma_{p_i}(alpha/2 - P_{i-1}/2 + V_i) / Gamma_{p_i}(alpha/2 - P_{i-1}/2)``
where V_i = nu_i + ... + nu_d is the suffix sum of the exponents.  Every
computation here stays in log space.

Joint moments of *disjoint* diagonal-block minors have no closed form in
general; they are exact only when the scale is block diagonal, in which
case the blocks are independent Wisharts with the full shape alpha.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DomainError, NotBlockDiagonal
from .linalg import BlockPartition, SpdMatrix, leading_logdets
from .specfun import log_multigamma_ratio
from .wishart import WishartParams

__all__ = [
    "MomentQuery",
    "MomentFactor",
    "ExactMoment",
    "single_minor_moment_log",
    "embedded_moment_log",
    "block_moments_log",
    "check_block_diagonal",
    "disjoint_moment_block_diag_log",
]

_LOG_2 = math.log(2.0)

# Off-block entries below this fraction of the largest diagonal entry are
# treated as exact zeros when testing block-diagonality.
_BLOCK_DIAG_TOL = 1e-12


@dataclass(frozen=True)
class MomentQuery:
    """A partition together with one nonnegative real exponent per block.

    ``suffix[i]`` is V_{i+1} = nu_{i+1} + ... + nu_d (0-based storage of
    the 1-based suffix sums), the effective shift applied to block i's
    gamma ratio in the nested-minor moment.
    """

    partition: BlockPartition
    nu: tuple[float, ...]
    suffix: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        nu = tuple(float(v) for v in self.nu)
        if len(nu) != self.partition.blocks:
            raise DimensionMismatch(
                f"{len(nu)} exponents for {self.partition.blocks} blocks"
            )
        if any(not math.isfinite(v) or v < 0 for v in nu):
            raise DomainError(f"exponents must be finite and >= 0, got {nu}")
        object.__setattr__(self, "nu", nu)
        acc = 0.0
        rev = []
        for v in reversed(nu):
            acc += v
            rev.append(acc)
        object.__setattr__(self, "suffix", tuple(reversed(rev)))


@dataclass(frozen=True)
class MomentFactor:
    """One block's contribution to a nested-minor moment, in log space."""

    block: int  # 1-based
    det_term: float
    gamma_term: float


@dataclass(frozen=True)
class ExactMoment:
    log_value: float
    factors: tuple[MomentFactor, ...]


def _sum_factors(factors) -> ExactMoment:
    """Sum the per-block factors; a total that is not finite is refused."""
    factors = tuple(factors)
    total = sum(f.det_term + f.gamma_term for f in factors)
    if not math.isfinite(total):
        raise DomainError(f"the log moment is {total}: a factor overflows double range")
    return ExactMoment(log_value=total, factors=factors)


def single_minor_moment_log(params: WishartParams, nu: float) -> float:
    """log E[det(X)^nu]: the one-block nested-minor moment.

    Equals ``nu * log det(2 sigma) + log Gamma_p(alpha/2 + nu) - log Gamma_p(alpha/2)``.
    """
    query = MomentQuery(partition=BlockPartition((params.dim,)), nu=(nu,))
    return embedded_moment_log(params, query).log_value


def embedded_moment_log(params: WishartParams, query: MomentQuery) -> ExactMoment:
    """Exact joint moment of the nested leading-block minors, in log space.

    Block i multiplies in ``nu_i * log det(2 sigma[1:P_i, 1:P_i])`` and the
    order-p_i gamma ratio at base ``alpha/2 - P_{i-1}/2`` with shift V_i.
    Requires the nonsingular regime, which also keeps every gamma base
    above its pole since V_i >= 0.
    """
    params.require_nonsingular("the nested-minor moment")
    part = query.partition
    logdets = leading_logdets(params.sigma, part)
    half_alpha = params.alpha / 2.0
    return _sum_factors(
        MomentFactor(
            block=i + 1,
            det_term=nu_i * (part.prefix[i + 1] * _LOG_2 + float(logdets[i])),
            gamma_term=log_multigamma_ratio(size, half_alpha - part.prefix[i] / 2.0, v_i),
        )
        for i, (size, nu_i, v_i) in enumerate(zip(part.sizes, query.nu, query.suffix))
    )


def block_moments_log(params: WishartParams, query: MomentQuery) -> ExactMoment:
    """Product of the per-block marginal moments E[det(X_kk)^nu_k], in log space.

    X_kk ~ Wishart(alpha, sigma_kk) for any sigma, so block k contributes
    ``nu_k * (p_k log 2 + log det sigma_kk)`` and the order-p_k gamma ratio
    at base alpha/2 with shift nu_k; it needs only alpha > p_k - 1, which
    the gamma ratio checks.  The product is the joint moment when sigma is
    block diagonal.
    """
    part = query.partition
    part.check_covers(params.dim)
    entries = params.sigma.entries
    return _sum_factors(
        MomentFactor(
            block=k + 1,
            det_term=nu_k * (size * _LOG_2 + SpdMatrix.from_array(entries[a:b, a:b]).logdet),
            gamma_term=log_multigamma_ratio(size, params.alpha / 2.0, nu_k),
        )
        for k, (size, nu_k, a, b) in enumerate(
            zip(part.sizes, query.nu, part.prefix, part.prefix[1:])
        )
    )


def disjoint_moment_block_diag_log(params: WishartParams, query: MomentQuery) -> float:
    """Exact joint moment of disjoint diagonal-block minors, block-diagonal scale only.

    When sigma is block diagonal along the partition the diagonal blocks
    of X are independent Wishart(alpha, sigma_ii) matrices, so the joint
    moment is ``block_moments_log``, each block with the *full* shape
    alpha.  A scale with off-block coupling makes this an open problem,
    and the function refuses rather than approximate.

    Raises
    ------
    NotBlockDiagonal
        If any off-block entry exceeds 1e-12 times the largest diagonal
        entry; the message pinpoints the worst offender.
    """
    check_block_diagonal(params.sigma, query.partition)
    return block_moments_log(params, query).log_value


def check_block_diagonal(sigma: SpdMatrix, part: BlockPartition) -> None:
    """Raise NotBlockDiagonal unless sigma is block diagonal along ``part``.

    An off-block entry counts as coupling when it exceeds 1e-12 times the
    largest diagonal entry; the message pinpoints the worst offender.
    """
    part.check_covers(sigma.dim)
    off = np.abs(sigma.entries)
    for a, b in zip(part.prefix, part.prefix[1:]):
        off[a:b, a:b] = 0.0
    r, c = (int(i) for i in np.unravel_index(np.argmax(off), off.shape))
    worst = float(off[r, c])
    tol = _BLOCK_DIAG_TOL * float(np.max(np.diag(sigma.entries)))
    if worst > tol:
        raise NotBlockDiagonal(
            f"off-block entry sigma[{r}, {c}] = {worst:.6e} exceeds tolerance {tol:.6e}"
        )
