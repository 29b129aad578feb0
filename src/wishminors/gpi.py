"""Gaussian-product-inequality exploration for minor products.

The conjecture under study: for X ~ Wishart(alpha, sigma) and disjoint
diagonal blocks, E[prod det(X_ii)^nu_i] >= prod E[det(X_ii)^nu_i]; its
scalar Gaussian form replaces det(X_ii) by Z_i^2 for a centered Gaussian
vector Z ~ N(0, R), which is the alpha = 1, unit-block Wishart with
scale R.  Numerators are Monte Carlo, denominators are always exact (the
per-block moment formula), and a trial is only ever flagged, never
declared a counterexample: suspicious trials are re-run once at 10x the
sample size on a fresh substream.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DimensionMismatch, DomainError, NotPositiveDefinite
from .linalg import BlockPartition, SpdMatrix, cholesky
from .moments import MomentQuery, block_moments_log
from .moments import single_minor_moment_log  # noqa: F401 - bench/spans.py wraps it
from .montecarlo import (
    McEstimate,
    Verdict,
    check_disjoint_shape,
    compare,
    estimate_disjoint,
    exp_or_inf,
)
from .montecarlo import estimate_log_statistic  # noqa: F401 - bench/spans.py wraps it
from .streams import check_seed, map_ordered
from .wishart import WishartParams

__all__ = [
    "WishartGpiInstance",
    "GpiResult",
    "SearchConfig",
    "TrialRecord",
    "SearchReport",
    "gaussian_moment_log",
    "gpi_ratio",
    "random_correlation",
    "search",
]

DEFAULT_NU_GRID = (0.5, 1.0, 1.5, 2.0, 3.0)

_ESCALATION_FACTOR = 10


@dataclass(frozen=True, eq=False)
class WishartGpiInstance:
    """Disjoint-minor instance; ``check_disjoint_shape`` admits its shape and blocks.

    The scalar Gaussian instance Z ~ N(0, R) is alpha = 1, scale R, unit blocks.
    """

    params: WishartParams
    partition: BlockPartition
    nu: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nu", tuple(float(v) for v in self.nu))
        # Reuse the query validation (lengths, nonnegativity).
        MomentQuery(partition=self.partition, nu=self.nu)
        check_disjoint_shape(self.params, self.partition)


@dataclass(frozen=True, eq=False)
class GpiResult:
    """Estimated ratio numerator/denominator with its violation score.

    ``violation_z`` is the signed z-score of the estimated ratio against
    1 from below: large negative values are the conjecture-threatening
    direction.  ``first_pass_z`` is set when the trial was escalated.
    """

    instance: WishartGpiInstance
    numerator: McEstimate
    denominator_log: float
    ratio_log: float
    ratio: float
    ratio_stderr: float
    violation_z: float
    verdict: Verdict
    escalated: bool = False
    first_pass_z: float | None = None


def _violation_verdict(z: float) -> Verdict:
    # One-sided: only the ratio-below-1 direction threatens the conjecture.
    if z >= -4.0:
        return Verdict.CONSISTENT
    if z >= -6.0:
        return Verdict.SUSPICIOUS
    return Verdict.INCONSISTENT


def gaussian_moment_log(nu: float, variance: float = 1.0) -> float:
    """log E|Z|^(2 nu) for Z ~ N(0, variance).

    Equals nu*log(2*variance) + lgamma(nu + 1/2) - lgamma(1/2): the
    one-dimensional, one-degree-of-freedom case of the minor moment
    formula applied to Z^2.  Written independently of that formula, so
    tests can check the alpha = 1 unit-block denominator against it.
    """
    nu = float(nu)
    if not math.isfinite(nu) or nu < 0:
        raise DomainError(f"exponent must be finite and >= 0, got {nu}")
    if not variance > 0:
        raise DomainError(f"variance must be positive, got {variance}")
    return nu * math.log(2.0 * variance) + float(gammaln(nu + 0.5) - gammaln(0.5))


def gpi_ratio(instance, n: int, seed: int, workers: int = 1) -> GpiResult:
    """Estimate the product-moment ratio for one instance.

    The numerator is Monte Carlo; the denominator is the exact product of
    per-block marginal moments (never estimated), so the ratio's standard
    error is entirely the numerator's.
    """
    query = MomentQuery(partition=instance.partition, nu=instance.nu)
    den = block_moments_log(instance.params, query).log_value
    num = estimate_disjoint(instance.params, query, n, seed, workers)
    report = compare(den, num)
    ratio_log = num.mean_log - den
    return GpiResult(
        instance=instance,
        numerator=num,
        denominator_log=den,
        ratio_log=ratio_log,
        ratio=exp_or_inf(ratio_log),
        ratio_stderr=exp_or_inf(num.stderr_log - den),
        violation_z=report.z,
        verdict=_violation_verdict(report.z),
    )


def random_correlation(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random SPD correlation matrix: normalized Gram of dim Gaussian vectors.

    Each vector has length dim + 2, so the Gram matrix is full rank
    almost surely; the normalization puts exact ones on the diagonal.
    Retries up to 8 times if the result fails factorization.
    """
    if dim < 1:
        raise DimensionMismatch(f"dimension must be >= 1, got {dim}")
    last_err = None
    for _ in range(8):
        v = rng.standard_normal((dim, dim + 2))
        g = v @ v.T
        norm = np.sqrt(np.diag(g))
        r = g / np.outer(norm, norm)
        r = 0.5 * (r + r.T)
        np.fill_diagonal(r, 1.0)
        try:
            cholesky(r)
            return r
        except NotPositiveDefinite as exc:  # pragma: no cover - p(retry) ~ 0
            last_err = exc
    raise NotPositiveDefinite(f"no SPD correlation after 8 attempts: {last_err}")


@dataclass(frozen=True)
class SearchConfig:
    """Axes of the randomized search.

    ``dims`` is an inclusive (lo, hi) range.  Wishart instances use unit
    blocks (one coordinate per minor) with a shape drawn uniformly from
    ``alpha_range`` clamped above dim - 1.  When ``rho_grid`` is given
    (Gaussian kind, dims fixed at 2), trial t uses the grid value
    t mod len(grid) instead of a random correlation.
    """

    kind: str
    dims: tuple[int, int]
    trials: int
    samples: int
    seed: int
    workers: int = 1
    alpha_range: tuple[float, float] | None = None
    nu_grid: tuple[float, ...] = DEFAULT_NU_GRID
    rho_grid: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("wishart", "gaussian"):
            raise DomainError(f"kind must be 'wishart' or 'gaussian', got {self.kind!r}")
        check_seed(self.seed)
        lo, hi = self.dims
        if not (1 <= lo <= hi):
            raise DomainError(f"dimension range must satisfy 1 <= lo <= hi, got {self.dims}")
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if self.samples < 2:
            raise DomainError(f"samples per trial must be >= 2, got {self.samples}")
        if not self.nu_grid or any(v < 0 or not math.isfinite(v) for v in self.nu_grid):
            raise DomainError(f"exponent grid must be nonempty and >= 0, got {self.nu_grid}")
        if self.kind == "wishart":
            if self.alpha_range is None:
                raise DomainError("wishart search needs an alpha range")
            alo, ahi = self.alpha_range
            finite = math.isfinite(alo) and math.isfinite(ahi)
            if not (finite and alo <= ahi and ahi > hi - 1):
                raise DomainError(
                    f"alpha range {self.alpha_range} is not finite or leaves no "
                    f"admissible shape for dimension {hi}"
                )
        if self.rho_grid is not None:
            if self.kind != "gaussian" or (lo, hi) != (2, 2):
                raise DomainError("rho grid applies only to gaussian kind with dims 2")
            if any(not -1 < r < 1 for r in self.rho_grid):
                raise DomainError(f"rho values must lie in (-1, 1), got {self.rho_grid}")


@dataclass(frozen=True, eq=False)
class TrialRecord:
    index: int
    kind: str  # SearchConfig.kind
    estimate_seed: int
    escalation_seed: int
    result: GpiResult

    def to_record(self) -> dict:
        """Flat JSON-able dict with everything needed to re-run the trial.

        A gaussian line names its scale ``corr`` and omits the shape, always 1.
        """
        res = self.result
        params = res.instance.params
        scale = [[float(v) for v in row] for row in params.sigma.entries]
        if self.kind == "gaussian":
            shape = {"corr": scale}
        else:
            shape = {"alpha": float(params.alpha), "sigma": scale}
        return {
            "trial": self.index,
            "kind": self.kind,
            "dim": params.dim,
            **shape,
            "nu": [float(v) for v in res.instance.nu],
            "samples": res.numerator.n,
            "estimate_seed": self.estimate_seed,
            "escalation_seed": self.escalation_seed,
            "ratio": res.ratio,
            "ratio_stderr": res.ratio_stderr,
            "ratio_log": res.ratio_log,
            "denominator_log": res.denominator_log,
            "violation_z": res.violation_z,
            "verdict": res.verdict.value,
            "escalated": res.escalated,
            "first_pass_z": res.first_pass_z,
            "flags": list(res.numerator.flags),
        }


@dataclass(frozen=True, eq=False)
class SearchReport:
    config: SearchConfig
    trials: tuple[TrialRecord, ...]  # sorted by ascending violation_z


def _draw_instance(config: SearchConfig, rng: np.random.Generator, index: int):
    lo, hi = config.dims
    d = int(rng.integers(lo, hi + 1))
    if config.rho_grid is not None:
        rho = float(config.rho_grid[index % len(config.rho_grid)])
        corr = np.array([[1.0, rho], [rho, 1.0]])
    else:
        corr = random_correlation(d, rng)
    nu = tuple(float(v) for v in rng.choice(np.asarray(config.nu_grid), size=d))
    if config.kind == "gaussian":
        alpha = 1.0
    else:
        alo, ahi = config.alpha_range
        low = max(alo, float(d - 1))
        alpha = float(rng.uniform(low, ahi))
        while alpha <= d - 1:  # pragma: no cover - measure-zero endpoint redraw
            alpha = float(rng.uniform(low, ahi))
    params = WishartParams(alpha=alpha, sigma=SpdMatrix.from_array(corr))
    return WishartGpiInstance(
        params=params, partition=BlockPartition((1,) * d), nu=nu
    )


def search(config: SearchConfig) -> SearchReport:
    """Run the randomized search; most conjecture-threatening trials first.

    Each trial owns three deterministic substreams (instance generation,
    estimation, escalation) spawned from the master seed, so any line of
    the report can be reproduced in isolation.  A non-consistent first
    pass triggers one re-run at 10x samples on the escalation stream; the
    re-run's verdict is final.
    """
    root = np.random.SeedSequence(int(config.seed))
    trial_seqs = root.spawn(config.trials)

    def run_trial(index: int) -> TrialRecord:
        gen_seq, est_seq, esc_seq = trial_seqs[index].spawn(3)
        rng = np.random.Generator(np.random.Philox(gen_seq))
        instance = _draw_instance(config, rng, index)
        est_seed = int(est_seq.generate_state(1, np.uint64)[0])
        esc_seed = int(esc_seq.generate_state(1, np.uint64)[0])
        result = gpi_ratio(instance, config.samples, est_seed, workers=1)
        if result.verdict is not Verdict.CONSISTENT:
            rerun = gpi_ratio(
                instance, _ESCALATION_FACTOR * config.samples, esc_seed, workers=1
            )
            result = dataclasses.replace(
                rerun, escalated=True, first_pass_z=result.violation_z
            )
        return TrialRecord(
            index=index,
            kind=config.kind,
            estimate_seed=est_seed,
            escalation_seed=esc_seed,
            result=result,
        )

    records = map_ordered(run_trial, range(config.trials), workers=config.workers)
    ranked = sorted(records, key=lambda r: (r.result.violation_z, r.index))
    return SearchReport(config=config, trials=tuple(ranked))
