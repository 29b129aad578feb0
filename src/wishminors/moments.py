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
general.  ``disjoint_moment_log`` is the one function that gives a
disjoint query its exact value, for ``exact`` and ``verify`` alike; today
that value exists only when the scale is block diagonal, in which case
the blocks are independent Wisharts with the full shape alpha.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatch, DomainError, NotBlockDiagonal, SingularRegime
from .errors import check_real, check_sequence
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
    "disjoint_moment_log",
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
        nu = check_sequence(self.nu, "the exponents", error=DimensionMismatch)
        nu = tuple(check_real(v, "exponent", 0.0) for v in nu)
        if len(nu) != self.partition.blocks:
            raise DimensionMismatch(f"{len(nu)} exponents for {self.partition.blocks} blocks")
        object.__setattr__(self, "nu", nu)
        suffix = itertools.accumulate(reversed(nu), initial=0.0)  # 0, V_d, ..., V_1
        object.__setattr__(self, "suffix", tuple(suffix)[:0:-1])


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


def admit_embedded(params: WishartParams, query: MomentQuery) -> None:
    """Raise unless the nested-minor moment of ``query`` exists for ``params``.

    It needs the nonsingular regime, which also keeps every gamma base
    above its pole since V_i >= 0, a partition that covers the scale, and
    a finite V_1, the largest shift.
    """
    params.require_nonsingular("the nested-minor moment")
    query.partition.check_covers(params.dim)
    check_real(query.suffix[0], "the sum of the exponents", 0.0)


def embedded_moment_log(params: WishartParams, query: MomentQuery) -> ExactMoment:
    """Exact joint moment of the nested leading-block minors, in log space.

    Block i multiplies in ``nu_i * log det(2 sigma[1:P_i, 1:P_i])`` and the
    order-p_i gamma ratio at base ``alpha/2 - P_{i-1}/2`` with shift V_i.
    ``admit_embedded`` decides the inputs it accepts.
    """
    admit_embedded(params, query)
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


def admit_disjoint(params: WishartParams, query: MomentQuery) -> None:
    """Raise unless the disjoint-block minors of ``query`` have moments under ``params``.

    The partition must cover the scale.  A singular integer shape admits
    blocks of size at most alpha, the gamma ratio's pole condition
    alpha > p_k - 1: block k of a rank-alpha draw is Wishart(alpha, sigma_kk),
    while a larger block has an almost-surely-zero minor and raises
    SingularRegime.
    """
    part = query.partition
    part.check_covers(params.dim)
    if not params.nonsingular and max(part.sizes) > params.alpha:
        raise SingularRegime(
            f"alpha={params.alpha} supports only blocks of size <= alpha, "
            f"got sizes {part.sizes}"
        )


def block_moments_log(params: WishartParams, query: MomentQuery) -> ExactMoment:
    """Product of the per-block marginal moments E[det(X_kk)^nu_k], in log space.

    X_kk ~ Wishart(alpha, sigma_kk) for any sigma, so block k's factor is
    the one-block nested moment of ``embedded_moment_log`` on those params,
    renumbered to k + 1.  ``admit_disjoint`` decides the inputs it accepts;
    each admitted block has alpha > p_k - 1.  The product is the joint
    moment when sigma is block diagonal.
    """
    admit_disjoint(params, query)
    prefix = query.partition.prefix
    factors = []
    for k, (nu_k, a, b) in enumerate(zip(query.nu, prefix, prefix[1:])):
        block = WishartParams(params.alpha, SpdMatrix.from_array(params.sigma.entries[a:b, a:b]))
        one = MomentQuery(BlockPartition((b - a,)), (nu_k,))
        (factor,) = embedded_moment_log(block, one).factors
        factors.append(replace(factor, block=k + 1))
    return _sum_factors(factors)


def disjoint_moment_log(params: WishartParams, query: MomentQuery) -> ExactMoment:
    """Exact joint moment of disjoint diagonal-block minors, in log space.

    The one place that decides which exact value a disjoint query gets;
    later exact disjoint values go in this body.  Today that is the
    block-diagonal scale only: the diagonal blocks of X are then
    independent Wishart(alpha, sigma_ii) matrices, so the joint moment is
    ``block_moments_log``, each block with the *full* shape alpha.  A scale
    with off-block coupling makes this an open problem, and the function
    refuses rather than approximate; the shape is admitted first, so a
    refusal of it reads as it does for the estimate.

    Raises
    ------
    NotBlockDiagonal
        If any off-block entry exceeds 1e-12 times the largest diagonal
        entry; the message pinpoints the worst offender.
    """
    exact = block_moments_log(params, query)
    sigma, prefix = params.sigma.entries, query.partition.prefix
    off = np.abs(sigma)
    for a, b in zip(prefix, prefix[1:]):
        off[a:b, a:b] = 0.0
    r, c = (int(i) for i in np.unravel_index(np.argmax(off), off.shape))
    worst = float(off[r, c])
    tol = _BLOCK_DIAG_TOL * float(np.max(np.diag(sigma)))
    if worst > tol:
        raise NotBlockDiagonal(
            f"off-block entry sigma[{r}, {c}] = {worst:.6e} exceeds tolerance {tol:.6e}"
        )
    return exact


def disjoint_moment_block_diag_log(params: WishartParams, query: MomentQuery) -> float:
    """``disjoint_moment_log(params, query).log_value``."""
    return disjoint_moment_log(params, query).log_value
