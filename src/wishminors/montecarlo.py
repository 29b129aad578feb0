"""Monte Carlo estimation of minor-product moments with batch-means errors.

Per-sample statistics live in log space (s = sum of nu-weighted minor
log-determinants); the estimator reduces each chunk with a log-sum-exp,
merges chunks under a global shift, and takes the standard error across
chunk means.  With 64 chunks (fewer only below 64 draws) this is robust
to the heavy right tail of exp(s) where a naive per-sample variance
badly undercovers.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEstimate, DimensionMismatch, check_int, check_real
from .moments import MomentQuery, admit_disjoint, admit_embedded
from .streams import chunk_sizes, map_ordered, substreams  # noqa: F401 - bench/spans.py wraps them
from .wishart import WishartParams, _bartlett_dofs, _factor_rows, _gram, check_draws, map_chunks

__all__ = [
    "McEstimate",
    "Verdict",
    "ComparisonReport",
    "estimate_log_statistic",
    "estimate_embedded",
    "estimate_disjoint",
    "compare",
]

# Zero-spread estimates must match the exact value this tightly or the
# comparison is declared degenerate instead of silently "consistent".
_CONST_REL_TOL = 1e-12


def exp_or_inf(log_value: float) -> float:
    """exp that saturates to inf instead of raising or warning."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


class Verdict(enum.Enum):
    CONSISTENT = "consistent"
    SUSPICIOUS = "suspicious"
    INCONSISTENT = "inconsistent"


@dataclass(frozen=True)
class McEstimate:
    """A moment estimate from ``n`` draws, kept in log space.

    The log fields are always finite, except that ``stderr_log`` is ``-inf``
    exactly when the statistic was constant.  ``max_log`` is the largest
    per-sample log statistic.  ``mean`` and ``stderr`` are ``exp`` of their
    log counterparts and may overflow to ``inf``.
    """

    n: int
    mean_log: float
    stderr_log: float
    max_log: float

    @property
    def mean(self) -> float:
        return exp_or_inf(self.mean_log)

    @property
    def stderr(self) -> float:
        return exp_or_inf(self.stderr_log)

    @property
    def rel_stderr(self) -> float:
        return math.exp(self.stderr_log - self.mean_log)

    @property
    def unreliable(self) -> bool:
        # The largest draw carries at least half the sum: exp(max s) >= n * mean / 2.
        return self.max_log - (math.log(self.n) + self.mean_log) >= -math.log(2.0)

    @property
    def flags(self) -> tuple[str, ...]:
        return ("unreliable",) if self.unreliable else ()


@dataclass(frozen=True)
class ComparisonReport:
    z: float

    @property
    def verdict(self) -> Verdict:
        return _verdict_for(self.z)


def _verdict_for(z: float) -> Verdict:
    if abs(z) <= 4.0:
        return Verdict.CONSISTENT
    if abs(z) <= 6.0:
        return Verdict.SUSPICIOUS
    return Verdict.INCONSISTENT


def estimate_log_statistic(stat_fn, n: int, seed: int) -> McEstimate:
    """Estimate E[exp(s)] where ``stat_fn(rng, m)`` draws m values of s.

    ``map_chunks`` splits the sample into ``min(n, 64)`` chunks, one Philox
    substream each; chunk log-sum-exp reductions are merged in fixed chunk
    order under a running-max shift, so the result depends only on
    ``(n, seed)`` and never overflows on the way to the final mean.  The
    standard error needs an integer ``n >= 2`` (``2.0`` is refused), which
    ``errors.check_int`` checks before any draw.
    """
    n = check_int(n, "sample count", 2)

    def run(task):
        rng, _, m = task  # the start row serves only the samplers
        s = np.asarray(stat_fn(rng, m), dtype=float)
        if s.shape != (m,):
            raise DimensionMismatch(f"statistic returned shape {s.shape}, wanted ({m},)")
        # The array methods skip np.max's and np.sum's Python dispatch, which
        # costs about 5 us per chunk, next to a few hundred for a gpi chunk.
        top = float(s.max())  # NaN if any draw is NaN
        if not top < math.inf:
            raise DegenerateEstimate(f"statistic drew a non-finite value {top}")
        if top == -math.inf:
            return -math.inf, m, top
        log_mean = top + math.log(float(np.exp(s - top).sum())) - math.log(m)
        return log_mean, m, top

    # A draw past double range is refused below or weighs 0: numpy need not warn too.
    with np.errstate(over="ignore", invalid="ignore"):
        log_means, sizes, tops = zip(*map_chunks(run, n, seed))
    chunk_log_means = np.array(log_means)
    n_chunks = len(sizes)
    max_log = max(tops)
    if max_log == -math.inf:
        raise DegenerateEstimate(f"all {n} draws of the log statistic are -inf")

    shift = float(np.max(chunk_log_means))
    scaled = np.exp(chunk_log_means - shift)
    weights = np.asarray(sizes, dtype=float)
    mean_log = shift + math.log(float(np.dot(weights, scaled)) / n)
    spread = float(np.std(scaled, ddof=1))  # n >= 2 draws make at least 2 chunks
    if spread > 0.0:
        stderr_log = shift + math.log(spread) - 0.5 * math.log(n_chunks)
    else:
        stderr_log = -math.inf
    return McEstimate(n=n, mean_log=mean_log, stderr_log=stderr_log, max_log=max_log)


def _embedded_stat_factory(params: WishartParams, query: MomentQuery):
    p = params.dim
    dofs = _bartlett_dofs(params.alpha, p)
    scale_chol = params.sigma.chol
    # Coordinate j sits in block k, so it appears in every leading minor
    # from block k on: its weight is the suffix sum V_{k+1} (0-based k).
    weights = np.repeat(query.suffix, query.partition.sizes)
    base = float(np.dot(weights, 2.0 * np.log(np.diag(scale_chol))))
    # Gamma shapes below 1 (dof < 2) underflow to 0 near alpha = p - 1, so
    # those columns use the boost log G(a) = log G(a + 1) + log(U) / a
    # (Marsaglia & Tsang 2000): log chi2(k) = log chi2(k + 2) + 2 log(U) / k.
    small = np.flatnonzero(dofs < 2.0)
    draw_dofs = np.where(dofs < 2.0, dofs + 2.0, dofs)
    boost = 2.0 / dofs[small]

    def stat(rng: np.random.Generator, m: int) -> np.ndarray:
        log_chisq = np.log(rng.chisquare(draw_dofs, size=(m, p)))
        log_chisq[:, small] += np.log(rng.random((m, small.size))) * boost
        return log_chisq @ weights + base

    return stat


def estimate_embedded(
    params: WishartParams, query: MomentQuery, n: int, seed: int
) -> McEstimate:
    """Estimate the joint moment of nested leading-block minors.

    Uses the triangular-factor representation: the leading minor at P_i
    is the product of the first P_i squared diagonal entries of T = L A,
    so a draw needs only the p Bartlett chi-squares, taken in log space.
    """
    admit_embedded(params, query)
    n = check_draws(n, "sample count", 2, params.dim)  # p chi-squares a draw
    return estimate_log_statistic(_embedded_stat_factory(params, query), n, seed)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _gram_logdet(rows: list[np.ndarray] | np.ndarray) -> np.ndarray:
    """log det(R Rᵀ) per draw for the block R whose rows are ``rows``.

    The rows are batch-last, as ``_gram`` takes them.  Gaussian elimination
    without pivoting (the Gram is positive definite) runs on its lower
    triangle, one vector step per entry across the whole batch.  For finite
    rows, a pivot that is not positive, or NaN, marks a numerically singular
    block, which gets -inf; the errstate keeps those steps from warning.
    """
    g = _gram(rows)
    logdet = np.log(g[0][0])
    for j in range(1, len(g)):
        for r in range(j, len(g)):
            ratio = g[r][j - 1] / g[j - 1][j - 1]
            for s in range(j, r + 1):
                g[r][s] -= ratio * g[s][j - 1]
        logdet += np.log(g[j][j])
    # The first pivot is a sum of squares, whose log is -inf at zero.  A later
    # pivot can come out negative or NaN, whose log is NaN: fmax turns that
    # into -inf.  A 1x1 block has no later pivot, so it skips the call: one
    # numpy call less per unit block, in every chunk of every gpi trial.
    return np.fmax(logdet, -np.inf, out=logdet) if len(g) > 1 else logdet


def _disjoint_stat(query: MomentQuery, chunk_rows):
    """Return ``stat(rng, m)``: per draw, the nu-weighted sum of block log-minors.

    Block k of X = T T^T is the Gram matrix of T's rows ``a:b``, so every
    weighted block's log-minor is ``_gram_logdet(rows[a:b])`` of the rows
    ``chunk_rows`` (from ``wishart._factor_rows``) returns for the chunk.
    """
    prefix = query.partition.prefix
    spans = [(a, b, nu_k) for a, b, nu_k in zip(prefix, prefix[1:], query.nu) if nu_k != 0.0]

    def stat(rng: np.random.Generator, m: int) -> np.ndarray:
        rows = chunk_rows(rng, m)
        s = np.zeros(m)
        for a, b, nu_k in spans:
            s += nu_k * _gram_logdet(rows[a:b])
        return s

    return stat


def estimate_disjoint(
    params: WishartParams, query: MomentQuery, n: int, seed: int
) -> McEstimate:
    """Estimate the joint moment of disjoint diagonal-block minors.

    Each draw is X = T T^T with T the Bartlett factor (nonsingular shapes)
    or the Gaussian-sum factor (singular integer shapes), from
    ``wishart._factor_rows``: at the same ``(n, seed)`` it is the T of
    ``sample_bartlett`` or ``sample_gaussian_sum``, and each block's Gram
    equals the samplers' diagonal block bit for bit.  T's rows are built
    batch-last, and only the weighted blocks' Grams are formed.  A block's
    log-minor is the log-determinant of its rows' Gram matrix, from
    Gaussian elimination vectorized across the chunk (``_gram_logdet``): a
    few numpy calls per chunk instead of one LAPACK call per draw.  A draw
    whose block is numerically singular gets ``-inf``.
    """
    admit_disjoint(params, query)
    values, chunk_rows = _factor_rows(params, "bartlett" if params.nonsingular else "gaussian-sum")
    n = check_draws(n, "sample count", 2, values)
    return estimate_log_statistic(_disjoint_stat(query, chunk_rows), n, seed)


def compare(exact_log: float, mc: McEstimate) -> ComparisonReport:
    """z-score the estimate against an exact log-value.

    z = (mc.mean - exp(exact_log)) / mc.stderr, evaluated as
    expm1(mean_log - exact_log) / (stderr/mean) so it stays finite even
    when the moment itself overflows double range.  ``exact_log`` must be
    a finite real (``errors.check_real``), else DomainError.
    """
    check_int(mc.n, "the sample count to compare", 2)
    exact_log = check_real(exact_log, "the exact log moment")
    if mc.stderr_log == -math.inf:
        rel_gap = abs(math.expm1(mc.mean_log - exact_log))
        if not rel_gap <= _CONST_REL_TOL:
            raise DegenerateEstimate(
                f"constant statistic at relative gap {rel_gap:.3e} from the exact value"
            )
        z = 0.0
    else:
        z = math.expm1(mc.mean_log - exact_log) / mc.rel_stderr
    return ComparisonReport(z=z)
