"""Shared generators for the test suite."""
import numpy as np
import pytest

from wishminors import BlockPartition, SpdMatrix
from wishminors.wishart import _bartlett_dofs, _bartlett_variates

def random_spd(rng, dim, cond=100.0, scale=1.0):
    """Random SPD matrix with eigenvalues geomspaced over [scale, cond*scale]."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = np.geomspace(1.0, cond, dim) * scale
    a = (q * eigs) @ q.T
    return 0.5 * (a + a.T)


def random_spd_matrix(rng, dim, cond=100.0, scale=1.0) -> SpdMatrix:
    return SpdMatrix.from_array(random_spd(rng, dim, cond, scale))


def random_partition(rng, total, max_blocks=None) -> BlockPartition:
    """Uniformly random composition of ``total`` into at most max_blocks parts."""
    cap = total if max_blocks is None else min(total, max_blocks)
    d = int(rng.integers(1, cap + 1))
    if d == 1:
        return BlockPartition((total,))
    cuts = np.sort(rng.choice(np.arange(1, total), size=d - 1, replace=False))
    bounds = np.concatenate(([0], cuts, [total]))
    return BlockPartition(tuple(int(b - a) for a, b in zip(bounds[:-1], bounds[1:])))


def reference_factor(params, method):
    """``draw(rng, m)``: m dense factors T, shape (m, p, k), with X = T T^T.

    ``bartlett`` fills the Bartlett triangle A from ``_bartlett_variates``
    and returns ``L @ A``; ``gaussian-sum`` reshapes ``z @ L^T`` of the
    same normals the package draws.  ``L @ A`` goes through BLAS, so it
    rounds differently from the package's row recurrence; the Gaussian-sum
    T holds the package's rows bit for bit.
    """
    p, chol = params.dim, params.sigma.chol
    if method == "bartlett":
        dofs = _bartlett_dofs(params.alpha, p)
        diag, (low_r, low_c) = np.arange(p), np.tril_indices(p, k=-1)

        def draw(rng, m):
            chisq, normals = _bartlett_variates(rng, dofs, m)
            a = np.zeros((m, p, p))
            a[:, diag, diag] = np.sqrt(chisq)
            a[:, low_r, low_c] = normals
            return np.matmul(chol, a)

        return draw
    k = int(params.alpha)

    def draw(rng, m):
        z = rng.standard_normal((m * k, p)) @ chol.T
        return z.reshape(m, k, p).transpose(0, 2, 1)

    return draw


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
