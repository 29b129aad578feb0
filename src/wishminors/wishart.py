"""Wishart parameters, density, samplers, and the one chunked-sampling driver.

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
    "map_chunks",
    "log_density",
    "sample_bartlett",
    "sample_gaussian_sum",
]

_LOG_2 = math.log(2.0)

# A fixed chunk count keeps the batch-means error valid and makes the chunk
# layout, and with it every draw, a function of (n, seed) alone.
_CHUNKS = 64


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
        if math.isfinite(alpha) and alpha > p - 1:
            regime = Regime.NONSINGULAR
        elif alpha >= 1 and float(alpha).is_integer():
            regime = Regime.SINGULAR_INTEGER
        else:
            raise DomainError(
                f"shape alpha={alpha} is not admissible for dimension {p}: "
                f"need a finite alpha > {p - 1} or an integer in [1, {p - 1}]"
            )
        object.__setattr__(self, "regime", regime)

    @property
    def dim(self) -> int:
        return self.sigma.dim

    def require_nonsingular(self, what: str) -> None:
        """Raise SingularRegime unless ``alpha > dim - 1``; ``what`` names the need."""
        if self.regime is not Regime.NONSINGULAR:
            raise SingularRegime(
                f"{what} needs alpha > dim-1={self.dim - 1}, got alpha={self.alpha}"
            )


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
    params.require_nonsingular("a Lebesgue density")
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


def map_chunks(fn, n: int, seed: int, workers: int = 1) -> list:
    """Map ``fn((rng, m))`` over ``n`` draws split into ``min(n, 64)`` chunks.

    Chunk ``i`` holds ``m`` draws from substream ``i`` of ``seed``, and the
    results come back in chunk order, so they depend on ``(n, seed)`` alone:
    ``workers`` only schedules chunks onto threads.  Zero draws give ``[]``.
    """
    sizes = chunk_sizes(n, min(n, _CHUNKS)) if n else []
    return map_ordered(fn, zip(substreams(seed, len(sizes)), sizes), workers=workers)


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


def _sample_batch(params, method, run, count, seed, workers) -> SampleBatch:
    """Stack the per-chunk ``(draws, factors)`` that ``run`` returns into a batch.

    ``factors`` is kept for the bartlett method only.
    """
    if int(count) != count or count < 0:
        raise DomainError(f"draw count must be a nonnegative integer, got {count!r}")
    parts = map_chunks(run, int(count), seed, workers)
    empty = np.zeros((0, params.dim, params.dim))

    def stack(arrays):
        out = np.concatenate([empty, *arrays])
        out.setflags(write=False)
        return out

    return SampleBatch(
        params=params,
        count=int(count),
        seed=int(seed),
        method=method,
        draws=stack(x for x, _ in parts),
        factors=stack(t for _, t in parts) if method == "bartlett" else None,
    )


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
        Root seed; the draws depend only on (seed, count), see ``map_chunks``.
    workers : int
        Threads that run the chunks; it does not change the draws.

    Returns
    -------
    SampleBatch
        With ``factors`` populated.
    """
    params.require_nonsingular("the triangular sampler")
    p = params.dim
    dofs = _bartlett_dofs(params.alpha, p)
    scale_chol = params.sigma.chol

    def run(task):
        rng, m = task
        t = _bartlett_factors(rng, m, p, dofs, scale_chol)
        x = np.matmul(t, t.transpose(0, 2, 1))
        return 0.5 * (x + x.transpose(0, 2, 1)), t

    return _sample_batch(params, "bartlett", run, count, seed, workers)


def sample_gaussian_sum(
    params: WishartParams, count: int, seed: int, workers: int = 1
) -> SampleBatch:
    """Sample as a sum of ``alpha`` Gaussian outer products.

    Each draw is ``sum_{k=1}^{alpha} z_k z_k^T`` with ``z_k ~ N(0, sigma)``
    i.i.d., which works for any positive integer shape including the
    singular regime ``alpha <= dim - 1``.  Like ``sample_bartlett``, the
    draws depend only on (seed, count), not on ``workers``.

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
    n_terms = int(alpha)
    p = params.dim
    scale_chol_t = params.sigma.chol.T

    def run(task):
        rng, m = task
        g = rng.standard_normal((m, n_terms, p))
        z = g @ scale_chol_t
        x = np.matmul(z.transpose(0, 2, 1), z)
        return 0.5 * (x + x.transpose(0, 2, 1)), None

    return _sample_batch(params, "gaussian-sum", run, count, seed, workers)
