"""Monte Carlo estimates of minor-product moments with batch-means errors, and their scores.

``wishart`` builds the per-sample statistics, in log space (s = sum of
nu-weighted minor log-determinants); this module estimates and scores them.
The estimator reduces each chunk with a log-sum-exp, merges chunks under a
global shift, and takes the standard error across chunk means.  With 64
chunks (fewer only below 64 draws) this is robust to the heavy right tail
of exp(s) where a naive per-sample variance badly undercovers.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEstimate, DimensionMismatch, check_int, check_real
from .moments import MomentQuery, admit_disjoint, admit_embedded
from .streams import chunk_sizes, map_ordered, substreams  # noqa: F401 - bench/spans.py wraps them
from .wishart import WishartParams, _disjoint_stat, _embedded_stat, check_draws, map_chunks

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
    ``errors.check_int`` checks before any draw.  Every ``stat_fn`` call runs
    in the package's one floating-point scope: a log of 0 (a singular block,
    a boost uniform of 0) weighs 0 and an overflow is refused, unwarned.
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

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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


def estimate_embedded(
    params: WishartParams, query: MomentQuery, n: int, seed: int
) -> McEstimate:
    """Estimate the joint moment of nested leading-block minors by ``wishart._embedded_stat``."""
    admit_embedded(params, query)
    # Coordinate j sits in block k, so it appears in every leading minor
    # from block k on: its weight is the suffix sum V_{k+1} (0-based k).
    p, stat = _embedded_stat(params, np.repeat(query.suffix, query.partition.sizes))
    n = check_draws(n, "sample count", 2, p)
    return estimate_log_statistic(stat, n, seed)


def estimate_disjoint(
    params: WishartParams, query: MomentQuery, n: int, seed: int
) -> McEstimate:
    """Estimate the joint moment of disjoint diagonal-block minors by ``wishart._disjoint_stat``."""
    admit_disjoint(params, query)
    prefix = query.partition.prefix
    blocks = [(a, b, nu_k) for a, b, nu_k in zip(prefix, prefix[1:], query.nu) if nu_k != 0.0]
    values, stat = _disjoint_stat(params, blocks)
    n = check_draws(n, "sample count", 2, values)
    return estimate_log_statistic(stat, n, seed)


def compare(exact_log: float, mc: McEstimate) -> ComparisonReport:
    """z-score the estimate against an exact log-value.

    z = (mc.mean - exp(exact_log)) / mc.stderr, evaluated as
    expm1(mean_log - exact_log) / (stderr/mean) so it stays finite even
    when the moment itself overflows double range.  ``exact_log`` must be
    a finite real (``errors.check_real``), else DomainError.  An estimate
    more than e^709.78 times its exact value is DegenerateEstimate, and so
    is one whose relative standard error leaves z no finite value.
    """
    check_int(mc.n, "the sample count to compare", 2)
    exact_log = check_real(exact_log, "the exact log moment")
    gap = mc.mean_log - exact_log
    try:
        rel_gap = math.expm1(gap)
    except OverflowError:
        raise DegenerateEstimate(f"estimate at log gap {gap:.6g} from the exact value") from None
    if mc.stderr_log == -math.inf:
        if not abs(rel_gap) <= _CONST_REL_TOL:
            raise DegenerateEstimate(
                f"constant statistic at relative gap {abs(rel_gap):.3e} from the exact value"
            )
        return ComparisonReport(z=0.0)
    try:
        z = rel_gap / mc.rel_stderr
    except (OverflowError, ZeroDivisionError):  # rel_stderr past double range, or 0
        z = math.inf
    if not math.isfinite(z):
        rel_log = mc.stderr_log - mc.mean_log
        raise DegenerateEstimate(f"estimate at log relative standard error {rel_log:.6g}: no finite z")
    return ComparisonReport(z=z)
