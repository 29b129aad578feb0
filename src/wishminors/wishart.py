"""Wishart parameters, density, and samplers.

A p x p Wishart with shape ``alpha`` and scale ``sigma`` is supported on
positive definite matrices when ``alpha > p - 1`` (the nonsingular
regime) and on rank-``alpha`` matrices when ``alpha`` is an integer in
``{1, ..., p-1}``.  Any other shape is outside the admissible set and is
rejected at construction.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .errors import DimensionMismatch, DomainError, NonIntegerAlpha, SingularRegime
from .linalg import SpdMatrix
from .specfun import log_multigamma
from .streams import chunk_sizes, map_ordered, substreams

__all__ = [
    "Regime",
    "WishartParams",
    "SampleBatch",
    "log_density",
    "sample_bartlett",
    "sample_gaussian_sum",
]

_LOG_2 = math.log(2.0)


class Regime(enum.Enum):
    NONSINGULAR = "nonsingular"
    SINGULAR_INTEGER = "singular-integer"


@dataclass(frozen=True, eq=False)
class WishartParams:
    """Shape/scale pair with its support regime resolved up front."""

    alpha: float
    sigma: SpdMatrix
    regime: Regime = field(init=False)

    def __post_init__(self) -> None:
        alpha = float(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        p = self.sigma.dim
        if alpha > p - 1:
            regime = Regime.NONSINGULAR
        elif alpha >= 1 and float(alpha).is_integer():
            regime = Regime.SINGULAR_INTEGER
        else:
            raise DomainError(
                f"shape alpha={alpha} is not admissible for dimension {p}: "
                f"need alpha > {p - 1} or an integer in [1, {p - 1}]"
            )
        object.__setattr__(self, "regime", regime)

    @property
    def dim(self) -> int:
        return self.sigma.dim


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """A batch of draws plus everything needed to reproduce it.

    ``draws`` has shape (count, p, p).  For the triangular-factor sampler
    ``factors`` holds the lower factors T with ``draws[i] = T[i] @ T[i].T``;
    the sum-of-outer-products sampler leaves it None.
    """

    params: WishartParams
    count: int
    seed: int
    workers: int
    method: str
    draws: np.ndarray
    factors: np.ndarray | None


def log_density(params: WishartParams, x) -> float:
    """Log density at ``x`` for a nonsingular Wishart.

    ``x`` may be an SpdMatrix or a plain symmetric positive definite
    array.  The quadratic form uses ``tr(sigma^-1 x) = ||L^-1 C||_F^2``
    with C the factor of x, so nothing is ever inverted.

    Raises
    ------
    SingularRegime
        If ``params`` is in the singular regime (no density exists).
    DimensionMismatch
        If ``x`` has a different dimension than the scale.
    """
    if params.regime is not Regime.NONSINGULAR:
        raise SingularRegime(
            f"alpha={params.alpha} <= dim-1={params.dim - 1}: no Lebesgue density"
        )
    if not isinstance(x, SpdMatrix):
        x = SpdMatrix.from_array(x)
    p = params.dim
    if x.dim != p:
        raise DimensionMismatch(f"point has dim {x.dim}, scale has dim {p}")
    half_alpha = params.alpha / 2.0
    y = solve_triangular(params.sigma.chol, x.chol, lower=True)
    trace = float(np.sum(y * y))
    return (
        (half_alpha - (p + 1) / 2.0) * x.logdet
        - 0.5 * trace
        - half_alpha * (p * _LOG_2 + params.sigma.logdet)
        - log_multigamma(p, half_alpha)
    )


def _check_count(count: int) -> int:
    if int(count) != count or count < 0:
        raise DomainError(f"draw count must be a nonnegative integer, got {count!r}")
    return int(count)


def _bartlett_dofs(alpha: float, p: int) -> np.ndarray:
    # Row j of the triangular factor has a chi(alpha - j) diagonal, j 0-based.
    return alpha - np.arange(p)


def _bartlett_factors(rng: np.random.Generator, m: int, p: int, dofs, scale_chol):
    """Draw m lower factors T = L @ A with A the standard Bartlett triangle.

    The generator is consumed in a fixed order (all chi-square diagonals,
    then all subdiagonal normals) so every statistic built on this layout
    sees identical variates for identical (seed, chunking).  The embedded
    statistic shares only the chi-square prefix: it draws no normals, and
    its chi-squares match these only when every degree of freedom is >= 2.
    """
    chisq = rng.chisquare(dofs, size=(m, p))
    normals = rng.standard_normal((m, p * (p - 1) // 2))
    a = np.zeros((m, p, p))
    rows = np.arange(p)
    a[:, rows, rows] = np.sqrt(chisq)
    low_r, low_c = np.tril_indices(p, k=-1)
    a[:, low_r, low_c] = normals
    return np.matmul(scale_chol, a)


def sample_bartlett(
    params: WishartParams, count: int, seed: int, workers: int = 1
) -> SampleBatch:
    """Sample via the triangular (Bartlett) decomposition.

    Each draw is ``(L A)(L A)^T`` where ``L`` is the scale's Cholesky
    factor and ``A`` is lower triangular with ``A[j, j]^2 ~ chi2(alpha - j)``
    and independent standard normal subdiagonals.  Only valid in the
    nonsingular regime (all chi-square degrees of freedom positive).

    Parameters
    ----------
    count : int
        Number of draws (>= 0).
    seed : int
        Root seed; draw ``i`` depends only on (seed, workers) chunk layout.
    workers : int
        Number of substreams, one per parallel chunk.

    Returns
    -------
    SampleBatch
        With ``factors`` populated.
    """
    if params.regime is not Regime.NONSINGULAR:
        raise SingularRegime(
            f"triangular sampler needs alpha > dim-1, got alpha={params.alpha}, "
            f"dim={params.dim}"
        )
    count = _check_count(count)
    p = params.dim
    dofs = _bartlett_dofs(params.alpha, p)
    scale_chol = params.sigma.chol
    sizes = chunk_sizes(count, max(workers, 1))
    gens = substreams(seed, len(sizes))

    def run(task):
        rng, m = task
        t = _bartlett_factors(rng, m, p, dofs, scale_chol)
        x = np.matmul(t, t.transpose(0, 2, 1))
        return 0.5 * (x + x.transpose(0, 2, 1)), t

    parts = map_ordered(run, list(zip(gens, sizes)), workers=workers)
    draws = np.concatenate([x for x, _ in parts]) if parts else np.zeros((0, p, p))
    factors = np.concatenate([t for _, t in parts]) if parts else np.zeros((0, p, p))
    draws.setflags(write=False)
    factors.setflags(write=False)
    return SampleBatch(
        params=params,
        count=count,
        seed=int(seed),
        workers=workers,
        method="bartlett",
        draws=draws,
        factors=factors,
    )


def sample_gaussian_sum(
    params: WishartParams, count: int, seed: int, workers: int = 1
) -> SampleBatch:
    """Sample as a sum of ``alpha`` Gaussian outer products.

    Each draw is ``sum_{k=1}^{alpha} z_k z_k^T`` with ``z_k ~ N(0, sigma)``
    i.i.d., which works for any positive integer shape including the
    singular regime ``alpha <= dim - 1``.

    Raises
    ------
    NonIntegerAlpha
        If the shape is not a positive integer.
    """
    alpha = params.alpha
    if not float(alpha).is_integer() or alpha < 1:
        raise NonIntegerAlpha(
            f"sum-of-outer-products sampler needs integer alpha >= 1, got {alpha}"
        )
    count = _check_count(count)
    n_terms = int(alpha)
    p = params.dim
    scale_chol_t = params.sigma.chol.T
    sizes = chunk_sizes(count, max(workers, 1))
    gens = substreams(seed, len(sizes))

    def run(task):
        rng, m = task
        g = rng.standard_normal((m, n_terms, p))
        z = g @ scale_chol_t
        x = np.matmul(z.transpose(0, 2, 1), z)
        return 0.5 * (x + x.transpose(0, 2, 1))

    parts = map_ordered(run, list(zip(gens, sizes)), workers=workers)
    draws = np.concatenate(parts) if parts else np.zeros((0, p, p))
    draws.setflags(write=False)
    return SampleBatch(
        params=params,
        count=count,
        seed=int(seed),
        workers=workers,
        method="gaussian-sum",
        draws=draws,
        factors=None,
    )
