"""Dense symmetric positive definite kernels.

Everything downstream works with log-determinants of leading principal
blocks and with Schur complements, so this module centralises
the factorisation logic: one Cholesky per matrix, reused for
determinants, block eliminations, and quadratic forms.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, check_int, check_sequence

__all__ = [
    "BlockPartition",
    "SpdMatrix",
    "cholesky",
    "leading_logdets",
    "schur_complement",
]

# Relative Frobenius tolerance for the L @ L.T reconstruction check on
# SpdMatrix construction.  LAPACK's dpotrf is backward stable, so a clean
# factorisation reconstructs to a few ulps; 1e-10 leaves headroom for
# condition numbers up to ~1e8 without passing garbage.
_RECONSTRUCT_TOL = 1e-10


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def cholesky(m) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Parameters
    ----------
    m : array_like
        Square matrix, symmetric to the bit (no tolerance): callers that
        read matrices from files must symmetrise first.

    Returns
    -------
    numpy.ndarray
        Lower triangular ``L`` with ``L @ L.T == m``.

    Raises
    ------
    DimensionMismatch
        If ``m`` is not square.
    NotPositiveDefinite
        If ``m`` contains non-finite entries or any pivot fails.
    """
    a = _as_square(m)
    if not np.isfinite(a).all():
        raise NotPositiveDefinite("matrix has non-finite entries")
    if not np.array_equal(a, a.T):
        raise NotPositiveDefinite("matrix is not exactly symmetric")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


@dataclass(frozen=True, eq=False)
class SpdMatrix:
    """A validated symmetric positive definite matrix with its factor.

    The Cholesky factor is computed once on construction and the
    reconstruction ``L @ L.T`` is checked against the entries to a
    relative Frobenius error of 1e-10.  Both arrays are read-only.
    """

    entries: np.ndarray
    chol: np.ndarray = field(repr=False)

    @classmethod
    def from_array(cls, m) -> "SpdMatrix":
        """Validate and wrap ``m``, which must be exactly symmetric."""
        a = _as_square(m).copy()
        low = cholesky(a)
        err = np.linalg.norm(low @ low.T - a)
        scale = max(np.linalg.norm(a), 1.0)
        if err > _RECONSTRUCT_TOL * scale:
            raise NotPositiveDefinite(
                f"factor reconstruction error {err / scale:.3e} exceeds {_RECONSTRUCT_TOL}"
            )
        a.setflags(write=False)
        low.setflags(write=False)
        return cls(entries=a, chol=low)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class BlockPartition:
    """An ordered split of ``{1, ..., n}`` into contiguous blocks.

    ``sizes`` holds the block sizes (p_1, ..., p_d), each an integer >= 1
    (``2.0`` and ``1.5`` are refused with DimensionMismatch).  ``prefix``
    holds the cumulative sums (P_0, P_1, ..., P_d) with P_0 = 0, so block
    ``k`` (1-based) covers rows ``prefix[k-1]:prefix[k]``.
    """

    sizes: tuple[int, ...]
    prefix: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        sizes = check_sequence(self.sizes, "the block sizes", error=DimensionMismatch)
        sizes = tuple(check_int(s, "block size", 1, error=DimensionMismatch) for s in sizes)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "prefix", tuple(itertools.accumulate(sizes, initial=0)))

    @property
    def blocks(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        return self.prefix[-1]

    def check_covers(self, dim: int) -> None:
        """Raise DimensionMismatch unless the blocks cover exactly ``dim`` rows."""
        if self.total != dim:
            raise DimensionMismatch(f"partition covers {self.total} rows, matrix has {dim}")


def leading_logdets(m: SpdMatrix, partition: BlockPartition) -> np.ndarray:
    """log-determinants of the leading P_1, P_2, ..., P_d principal blocks.

    Since the Cholesky factor of a leading block of ``m`` is the leading
    block of ``m``'s factor, each value is a prefix sum of
    ``2 * log(diag(L))``; no refactorisation happens.
    """
    partition.check_covers(m.dim)
    csum = np.concatenate(([0.0], np.cumsum(2.0 * np.log(np.diag(m.chol)))))
    return csum[list(partition.prefix[1:])]


def schur_complement(m, k: int) -> np.ndarray:
    """Schur complement of the leading ``k x k`` block.

    Computes ``M22 - M21 @ inv(M11) @ M12`` via a solve against the
    Cholesky factor of ``M11``, then symmetrises the result exactly.

    Raises
    ------
    DimensionMismatch
        If ``k`` is not an integer in ``[1, dim - 1]``.
    NotPositiveDefinite
        If the leading block is not positive definite.
    """
    a = m.entries if isinstance(m, SpdMatrix) else _as_square(m)
    k = check_int(k, "block size k", 1, a.shape[0], error=DimensionMismatch)
    low = cholesky(np.ascontiguousarray(a[:k, :k]))
    w = np.linalg.solve(low, a[:k, k:])
    s = a[k:, k:] - w.T @ w
    return 0.5 * (s + s.T)
