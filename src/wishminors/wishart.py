"""Wishart parameters, samplers, and the one chunked-sampling driver.

Both sampling methods write a draw as X = T T^T.  ``_factor_rows`` sizes
T and builds its rows, and ``_gram`` their Gram, for the batch samplers,
the CLI's chunk-by-chunk writer and the disjoint-minor statistic alike.
``_bartlett_variates`` holds the Bartlett stream order.  The chunk count
lives here alone: ``map_chunks`` splits a run by it, and ``check_draws``
refuses, before any draw, a count whose largest chunk numpy cannot address
or the allocator cannot grant.

A p x p Wishart with shape ``alpha`` and scale ``sigma`` is supported on
positive definite matrices when ``alpha > p - 1`` (the nonsingular
regime) and on rank-``alpha`` matrices when ``alpha`` is an integer in
``{1, ..., p-1}``.  Any other shape is outside the admissible set and is
rejected at construction.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NonIntegerAlpha, SingularRegime, check_int, check_real
from .linalg import SpdMatrix
from .specfun import log_multigamma  # noqa: F401 - bench/spans.py wraps it
from .streams import chunk_sizes, map_ordered, substreams

__all__ = [
    "WishartParams",
    "SampleBatch",
    "sample_bartlett",
    "sample_gaussian_sum",
]

# A fixed chunk count keeps the batch-means error valid and makes the chunk
# layout, and with it every draw, a function of (n, seed) alone.
_CHUNKS = 64
# Doubles in the largest array numpy can address, np.iinfo(np.intp).max bytes.
_MAX_DOUBLES = int(np.iinfo(np.intp).max) // 8


@dataclass(frozen=True, eq=False)
class WishartParams:
    """Shape/scale pair; ``nonsingular`` is ``alpha > dim - 1``, else draws have rank ``alpha``.

    ``alpha`` must be a finite real (``errors.check_real``), stored as a float.
    """

    alpha: float
    sigma: SpdMatrix
    nonsingular: bool = field(init=False)

    def __post_init__(self) -> None:
        alpha = check_real(self.alpha, "shape alpha")
        object.__setattr__(self, "alpha", alpha)
        p = self.sigma.dim
        nonsingular = alpha > p - 1
        if not (nonsingular or (alpha >= 1 and alpha.is_integer())):
            ranks = f" or an integer in [1, {p - 1}]" if p >= 2 else ""
            raise DomainError(
                f"shape alpha={alpha} is not admissible for dimension {p}: "
                f"need a finite alpha > {p - 1}{ranks}"
            )
        object.__setattr__(self, "nonsingular", nonsingular)

    @property
    def dim(self) -> int:
        return self.sigma.dim

    def require_nonsingular(self, what: str) -> None:
        """Raise SingularRegime unless ``alpha > dim - 1``; ``what`` names the need."""
        if not self.nonsingular:
            raise SingularRegime(
                f"{what} needs alpha > dim-1={self.dim - 1}, got alpha={self.alpha}"
            )


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """A batch of draws, shape (count, p, p).

    For the triangular-factor sampler ``factors`` holds the lower factors T
    with ``draws[i] = T[i] @ T[i].T``; the sum-of-outer-products sampler
    leaves it None.
    """

    draws: np.ndarray
    factors: np.ndarray | None


def map_chunks(fn, n: int, seed: int) -> list:
    """Map ``fn((rng, start, m))`` over ``n`` draws split into ``min(n, 64)`` chunks.

    Chunk ``i`` holds draws ``start, ..., start + m - 1``, drawn from
    substream ``i`` of ``seed``.  The chunks run in order on the calling
    thread, so the results depend on ``(n, seed)`` alone.  Zero draws give
    ``[]``.
    """
    sizes = chunk_sizes(n, min(n, _CHUNKS)) if n else []
    starts = itertools.accumulate(sizes, initial=0)
    return map_ordered(fn, zip(substreams(seed, len(sizes)), starts, sizes))


def check_draws(n, what: str, low: int, per_draw: int, chunks: int = _CHUNKS) -> int:
    """``n`` as an int; DomainError unless it is an integer >= ``low`` whose chunk fits.

    Split into ``chunks`` near-equal chunks (``map_chunks``' ``_CHUNKS``; a
    batch passes one), ``n`` draws of ``per_draw`` doubles hold ceil(n /
    chunks) draws at once.  Past ``np.iinfo(np.intp).max`` bytes numpy
    raises a bare ValueError mid-run, and past what the allocator grants it
    raises MemoryError there.  So every caller checks its count before any
    draw: the arithmetic bound first, then one reservation of the largest
    chunk's doubles, never written, so it touches no page.
    """
    n = check_int(n, what, low)
    high = chunks * (_MAX_DOUBLES // per_draw) + 1
    if n >= high:
        raise DomainError(
            f"{what} must be an integer in [{low}, {high}) so that the draws held "
            f"at once fit one numpy array, got {n}"
        )
    held = -(-n // chunks)
    try:
        np.empty(held * per_draw)
    except MemoryError:
        raise DomainError(
            f"{what} must be an integer whose {held} draws held at once "
            f"({held * per_draw * 8} bytes) fit in memory, got {n}"
        ) from None
    return n


def _bartlett_dofs(alpha: float, p: int) -> np.ndarray:
    # Row j of the triangular factor has a chi(alpha - j) diagonal, j 0-based.
    return alpha - np.arange(p)


def _bartlett_variates(rng: np.random.Generator, dofs: np.ndarray, m: int, out=None):
    """``(chisq, normals)`` of m Bartlett triangles A, drawn in this order.

    ``chisq[:, j] = A[j, j]**2 ~ chi2(dofs[j])``; ``normals`` holds the
    subdiagonal in ``np.tril_indices(p, -1)`` order, so row l's normals sit
    at columns ``l(l-1)/2 ... l(l-1)/2 + l - 1``.  The embedded statistic
    shares only the chi-square prefix, and only when every dof is >= 2.
    At p = 1 the scalar dof gives the same draws as a 1-array, sooner.
    ``normals`` is ``out`` when given: ``_factor_rows``' builder passes the
    C-contiguous (m, p(p-1)/2) array it reuses for every chunk, same draws.
    """
    p = len(dofs)
    chisq = rng.chisquare(float(dofs[0]) if p == 1 else dofs, size=(m, p))
    normals = rng.standard_normal((m, p * (p - 1) // 2), out=out)
    return chisq, normals


def _factor_rows(params: WishartParams, method: str):
    """Return ``(values, chunk_rows)``: the doubles one draw's T holds, and T's builder.

    ``values`` is what ``check_draws`` weighs a draw by.  ``chunk_rows(rng,
    m)`` draws m factors T and returns T's rows, batch-last, row i of shape
    (c_i, m); block ``a:b`` of X = T T^T is the ``_gram`` of ``rows[a:b]``.

    ``bartlett``: T = L A with L the scale's Cholesky factor and A the
    Bartlett triangle of ``_bartlett_variates`` (Muirhead 1982, Thm 3.2.14),
    for the nonsingular regime; its values are A's p(p+1)/2 variates.  Row i
    is ``T_ij = L_ij d_j + sum_{l=j+1..i} L_il z_lj``, with d_j^2 the j-th
    chi-square and z_lj the normal at (l, j) of A; it keeps its c_i = i + 1
    leading entries, T being lower triangular.
    The builder owns one normals array and its batch-last copy, sized by the
    first (largest) chunk and reused by every chunk, so no chunk faults in
    fresh pages for them; the rows, a list, are fresh, the caller's.

    ``gaussian-sum``: T = L G^T with G an alpha x p standard normal matrix
    (c_i = alpha; its values are G's alpha p normals), so T T^T sums alpha
    outer products of N(0, sigma) vectors; it needs a positive integer alpha
    and covers the singular regime.  Its rows are one (p, alpha, m) array,
    the GEMM ``z @ L^T`` copied once.
    """
    p = params.dim
    chol = params.sigma.chol
    if method == "bartlett":
        params.require_nonsingular("the triangular sampler")
        dofs = _bartlett_dofs(params.alpha, p)
        k = p * (p - 1) // 2
        normals_buf = z_buf = np.empty(0)

        def chunk_rows(rng: np.random.Generator, m: int):
            nonlocal normals_buf, z_buf
            if normals_buf.size < m * k:
                normals_buf, z_buf = np.empty(m * k), np.empty(m * k)
            chisq, normals = _bartlett_variates(rng, dofs, m, normals_buf[: m * k].reshape(m, k))
            d = np.sqrt(chisq.T, order="C")
            z = z_buf[: m * k].reshape(k, m)
            z[...] = normals.T
            rows = []
            for i in range(p):
                t = chol[i, : i + 1, None] * d[: i + 1]
                for l in range(1, i + 1):  # row l's normals z_l0 ... z_l,l-1
                    t[:l] += chol[i, l] * z[l * (l - 1) // 2 :][:l]
                rows.append(t)
            return rows

        return p * (p + 1) // 2, chunk_rows
    alpha = params.alpha
    if not alpha.is_integer() or alpha < 1:
        raise NonIntegerAlpha(
            f"sum-of-outer-products sampler needs integer alpha >= 1, got {alpha}"
        )
    n_terms = int(alpha)

    def chunk_rows(rng: np.random.Generator, m: int):
        # One flat GEMM (a batched product is ~2x slower at n_terms = 1), copied once:
        # _gram's einsum runs ~1.3x faster on that than on strided views at n_terms = 8.
        z = rng.standard_normal((m * n_terms, p)) @ chol.T
        return z.T.reshape(p, m, n_terms).transpose(0, 2, 1).copy()

    return p * n_terms, chunk_rows


def _gram(rows: list[np.ndarray] | np.ndarray) -> list[list[np.ndarray]]:
    """Lower triangle of the Gram R R^T of batch-last rows, one length-m vector per entry.

    Row r has shape (c_r, m): its leading c_r columns, the rest being zero.
    ``g[r][s]`` (s <= r) sums over the min(c_r, c_s) columns both rows hold.
    """
    return [
        [np.einsum("jm,jm->m", a[: len(b)], b[: len(a)]) for b in rows[: r + 1]]
        for r, a in enumerate(rows)
    ]


def _sample_batch(params, method, count, seed) -> SampleBatch:
    """Draw ``count`` matrices X = T T^T from ``_factor_rows(params, method)`` as a batch.

    Each chunk writes its draws, the mirrored ``_gram`` of all of T's rows
    (exactly symmetric, with no BLAS call per draw), and for the bartlett
    method T's rows into the lower triangle of the zero factors, straight
    into its own rows of the two preallocated arrays.
    """
    per_draw, chunk_rows = _factor_rows(params, method)
    count = check_draws(count, "draw count", 0, per_draw)
    p = params.dim
    check_draws(count, "draw count", 0, p * p, chunks=1)  # the (count, p, p) draws
    shape = (count, p, p)
    draws = np.empty(shape)
    factors = np.zeros(shape) if method == "bartlett" else None
    # Row-major, the order of _gram's lower triangle and of each row's entries.
    low_r, low_c = np.tril_indices(p)

    def run(task):
        rng, start, m = task
        rows = slice(start, start + m)
        t = chunk_rows(rng, m)
        g = np.array([g_rs for g_r in _gram(t) for g_rs in g_r]).T
        draws[rows, low_r, low_c] = draws[rows, low_c, low_r] = g
        if factors is not None:
            factors[rows, low_r, low_c] = np.concatenate(t).T

    map_chunks(run, count, seed)
    draws.setflags(write=False)
    if factors is not None:
        factors.setflags(write=False)
    return SampleBatch(draws=draws, factors=factors)


def sample_bartlett(params: WishartParams, count: int, seed: int) -> SampleBatch:
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

    Returns
    -------
    SampleBatch
        With ``factors`` populated.
    """
    return _sample_batch(params, "bartlett", count, seed)


def sample_gaussian_sum(params: WishartParams, count: int, seed: int) -> SampleBatch:
    """Sample as a sum of ``alpha`` Gaussian outer products.

    Each draw is ``sum_{k=1}^{alpha} z_k z_k^T`` with ``z_k ~ N(0, sigma)``
    i.i.d., which works for any positive integer shape including the
    singular regime ``alpha <= dim - 1``.  Like ``sample_bartlett``, the
    draws depend only on (seed, count).

    Raises
    ------
    NonIntegerAlpha
        If the shape is not a positive integer.
    """
    return _sample_batch(params, "gaussian-sum", count, seed)
