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
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import DimensionMismatch, DomainError, check_int, check_real, check_sequence
from .linalg import BlockPartition, SpdMatrix
from .linalg import cholesky  # noqa: F401 - bench/spans.py wraps it
from .moments import MomentQuery, block_moments_log
from .moments import single_minor_moment_log  # noqa: F401 - bench/spans.py wraps it
from .montecarlo import McEstimate, Verdict, _verdict_for, compare, estimate_disjoint, exp_or_inf
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
    """Disjoint-minor instance with its exact denominator, computed once.

    It stores the ``query`` of ``partition`` and ``nu``, which gives ``denominator_log``.
    The scalar Gaussian instance Z ~ N(0, R) is alpha = 1, scale R, unit blocks.
    """

    params: WishartParams
    partition: InitVar[BlockPartition]
    nu: InitVar[tuple[float, ...]]
    query: MomentQuery = field(init=False)
    denominator_log: float = field(init=False, repr=False)

    def __post_init__(self, partition: BlockPartition, nu: tuple[float, ...]) -> None:
        query = MomentQuery(partition=partition, nu=nu)
        den = block_moments_log(self.params, query).log_value
        object.__setattr__(self, "query", query)
        object.__setattr__(self, "denominator_log", den)


@dataclass(frozen=True, eq=False)
class GpiResult:
    """Estimated ratio numerator/denominator with its violation score.

    ``violation_z`` is the signed z-score of the estimated ratio against
    1 from below: large negative values are the conjecture-threatening
    direction.  ``first_pass_z`` is set when the trial was escalated.
    The properties derive from these four fields: ``denominator_log`` is
    the instance's, ``ratio_log``, ``ratio`` and ``ratio_stderr`` put the
    numerator over it, ``verdict`` is the one-sided verdict of
    ``violation_z``, and ``escalated`` says whether ``first_pass_z`` is set.
    """

    instance: WishartGpiInstance
    numerator: McEstimate
    violation_z: float
    first_pass_z: float | None = None

    @property
    def denominator_log(self) -> float:
        return self.instance.denominator_log

    @property
    def ratio_log(self) -> float:
        return self.numerator.mean_log - self.denominator_log

    @property
    def ratio(self) -> float:
        return exp_or_inf(self.ratio_log)

    @property
    def ratio_stderr(self) -> float:
        return exp_or_inf(self.numerator.stderr_log - self.denominator_log)

    @property
    def verdict(self) -> Verdict:
        return _violation_verdict(self.violation_z)

    @property
    def escalated(self) -> bool:
        return self.first_pass_z is not None


def _violation_verdict(z: float) -> Verdict:
    # One-sided: only the ratio-below-1 direction threatens the conjecture.
    return _verdict_for(min(z, 0.0))


def gaussian_moment_log(nu: float, variance: float = 1.0) -> float:
    """log E|Z|^(2 nu) for Z ~ N(0, variance).

    Equals nu*log(2*variance) + lgamma(nu + 1/2) - lgamma(1/2): the
    one-dimensional, one-degree-of-freedom case of the minor moment
    formula applied to Z^2.  Written independently of that formula, so
    tests can check the alpha = 1 unit-block denominator against it.
    ``nu`` and ``variance`` pass ``errors.check_real``; ``nu`` must be >= 0
    and ``variance`` > 0, else DomainError.
    """
    nu = check_real(nu, "exponent", 0.0)
    variance = check_real(variance, "variance")
    if not variance > 0:
        raise DomainError(f"variance must be positive, got {variance}")
    try:
        return nu * math.log(2.0 * variance) + math.lgamma(nu + 0.5) - math.lgamma(0.5)
    except OverflowError:
        return math.inf


def gpi_ratio(instance, n: int, seed: int) -> GpiResult:
    """Estimate the product-moment ratio for one instance.

    The numerator is Monte Carlo; the denominator is the exact product of
    per-block marginal moments (never estimated, kept on the instance), so
    the ratio's standard error is entirely the numerator's.
    """
    num = estimate_disjoint(instance.params, instance.query, n, seed)
    report = compare(instance.denominator_log, num)
    return GpiResult(instance=instance, numerator=num, violation_z=report.z)


def random_correlation(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random correlation matrix: normalized Gram of dim Gaussian vectors.

    Each vector has length dim + 2, so the result is SPD almost surely, and
    ``_draw_instance`` validates it; it is exactly symmetric with a unit diagonal.
    """
    dim = check_int(dim, "dimension", 1, error=DimensionMismatch)
    v = rng.standard_normal((dim, dim + 2))
    g = v @ v.T
    norm = np.sqrt(np.diag(g))
    r = g / np.outer(norm, norm)
    r = 0.5 * (r + r.T)
    np.fill_diagonal(r, 1.0)
    return r


@dataclass(frozen=True)
class SearchConfig:
    """Axes of the randomized search.

    ``dims`` is an inclusive (lo, hi) range; it, ``trials`` and ``samples``
    must be integers, else DomainError; the ``alpha_range`` bounds and the
    ``nu_grid`` and ``rho_grid`` values must pass ``errors.check_real``.
    Instances use unit blocks with a shape drawn uniformly from
    ``alpha_range`` clamped above dim - 1; the range must reach above hi - 1
    or be one integer shape >= 1.
    ``kind="gaussian"`` means ``alpha_range`` (1, 1) and otherwise only labels
    the trial lines.  With ``rho_grid`` (dims fixed at 2), trial t uses the
    grid value t mod len(grid) instead of a random correlation.
    """

    kind: str
    dims: tuple[int, int]
    trials: int
    samples: int
    seed: int
    alpha_range: tuple[float, float] | None = None
    nu_grid: tuple[float, ...] = DEFAULT_NU_GRID
    rho_grid: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("wishart", "gaussian"):
            raise DomainError(f"kind must be 'wishart' or 'gaussian', got {self.kind!r}")
        if self.kind == "gaussian":
            given = self.alpha_range
            if given is not None and check_sequence(given, "the alpha range", 2) != (1.0, 1.0):
                raise DomainError(f"gaussian search has alpha 1, got range {given}")
            object.__setattr__(self, "alpha_range", (1.0, 1.0))
        check_seed(self.seed)
        lo, hi = check_sequence(self.dims, "the dimension range", 2)
        lo = check_int(lo, "the lower dimension", 1)
        check_int(hi, "the upper dimension", lo)
        check_int(self.trials, "trials", 1)
        check_int(self.samples, "samples per trial", 2)
        for v in check_sequence(self.nu_grid, "the exponent grid"):
            check_real(v, "a grid exponent", 0.0)
        if self.alpha_range is None:
            raise DomainError("wishart search needs an alpha range")
        alo, ahi = check_sequence(self.alpha_range, "the alpha range", 2)
        alo, ahi = check_real(alo, "the lower shape"), check_real(ahi, "the upper shape")
        integer_shape = alo == ahi >= 1 and alo.is_integer()
        if not (alo <= ahi and (ahi > hi - 1 or integer_shape)):
            raise DomainError(
                f"alpha range {self.alpha_range} leaves no admissible shape for dimension {hi}"
            )
        if self.rho_grid is not None:
            if (lo, hi) != (2, 2):
                raise DomainError("rho grid applies only with dims 2")
            rhos = check_sequence(self.rho_grid, "the rho grid")
            if any(not -1 < check_real(r, "a grid correlation") < 1 for r in rhos):
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
        shape = {"alpha": float(params.alpha), "sigma": scale}
        if self.kind == "gaussian":
            shape = {"corr": scale}
        return {
            "trial": self.index,
            "kind": self.kind,
            "dim": params.dim,
            **shape,
            "nu": [float(v) for v in res.instance.query.nu],
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
    trials: tuple[TrialRecord, ...]  # sorted by ascending violation_z


def _draw_instance(config: SearchConfig, rng: np.random.Generator, index: int):
    """Draws dim, scale, nu, then alpha: the range's one value or its clamped uniform draw."""
    lo, hi = config.dims
    d = int(rng.integers(lo, hi + 1))
    if config.rho_grid is not None:
        rho = float(config.rho_grid[index % len(config.rho_grid)])
        corr = np.array([[1.0, rho], [rho, 1.0]])
    else:
        corr = random_correlation(d, rng)
    nu = tuple(float(v) for v in rng.choice(np.asarray(config.nu_grid), size=d))
    alo, ahi = config.alpha_range
    alpha = float(alo)
    if alo < ahi:
        low = max(alo, float(d - 1))
        alpha = float(rng.uniform(low, ahi))
        while alpha <= d - 1:  # pragma: no cover - measure-zero endpoint redraw
            alpha = float(rng.uniform(low, ahi))
    params = WishartParams(alpha=alpha, sigma=SpdMatrix.from_array(corr))
    return WishartGpiInstance(params=params, partition=BlockPartition((1,) * d), nu=nu)


def search(config: SearchConfig) -> SearchReport:
    """Run the randomized search; most conjecture-threatening trials first.

    Each trial owns three deterministic substreams (instance generation,
    estimation, escalation) spawned from the master seed, so any line of
    the report can be reproduced in isolation.  A non-consistent first
    pass triggers one re-run at 10x samples on the escalation stream; the
    re-run's verdict is final.

    Trials run in order on the calling thread: at p <= 3 a trial is short
    numpy calls, and two trial threads trading the GIL cost half again the
    CPU for no more draws per second.
    """
    root = np.random.SeedSequence(int(config.seed))
    trial_seqs = root.spawn(config.trials)

    def run_trial(index: int) -> TrialRecord:
        gen_seq, est_seq, esc_seq = trial_seqs[index].spawn(3)
        rng = np.random.Generator(np.random.Philox(gen_seq))
        instance = _draw_instance(config, rng, index)
        est_seed = int(est_seq.generate_state(1, np.uint64)[0])
        esc_seed = int(esc_seq.generate_state(1, np.uint64)[0])
        result = gpi_ratio(instance, config.samples, est_seed)
        if result.verdict is not Verdict.CONSISTENT:
            rerun = gpi_ratio(instance, _ESCALATION_FACTOR * config.samples, esc_seed)
            result = dataclasses.replace(rerun, first_pass_z=result.violation_z)
        return TrialRecord(
            index=index,
            kind=config.kind,
            estimate_seed=est_seed,
            escalation_seed=esc_seed,
            result=result,
        )

    records = map_ordered(run_trial, range(config.trials))  # bench/spans.py counts its tasks
    ranked = sorted(records, key=lambda r: (r.result.violation_z, r.index))
    return SearchReport(trials=tuple(ranked))
