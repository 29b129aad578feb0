"""Exact and Monte Carlo joint moments of principal minors of Wishart matrices.

The closed form: for X ~ Wishart(alpha, sigma) with alpha > p - 1 and a
contiguous block partition p_1 + ... + p_d = p,

    E[ prod_i det(X[1:P_i, 1:P_i])^nu_i ]
        = prod_i det(2 sigma[1:P_i, 1:P_i])^nu_i
          * Gamma_{p_i}(alpha/2 - P_{i-1}/2 + V_i) / Gamma_{p_i}(alpha/2 - P_{i-1}/2),

with P_i the partition prefix sums and V_i = nu_i + ... + nu_d.  The
package evaluates this in log space, checks it against independent
samplers, handles the block-diagonal disjoint-minor case exactly, and
searches for violations of the product inequality
E[prod det(X_ii)^nu_i] >= prod E[det(X_ii)^nu_i].
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateEstimate,
    DimensionMismatch,
    DomainError,
    NonIntegerAlpha,
    NotBlockDiagonal,
    NotPositiveDefinite,
    SingularRegime,
    WishminorsError,
)
from .linalg import (
    BlockPartition,
    SpdMatrix,
    cholesky,
    leading_logdets,
    schur_complement,
)
from .specfun import log_multigamma, log_multigamma_ratio
from .wishart import (
    Regime,
    SampleBatch,
    WishartParams,
    log_density,
    sample_bartlett,
    sample_gaussian_sum,
)
from .moments import (
    ExactMoment,
    MomentFactor,
    MomentQuery,
    block_moments_log,
    disjoint_moment_block_diag_log,
    embedded_moment_log,
    single_minor_moment_log,
)
from .montecarlo import (
    ComparisonReport,
    McEstimate,
    Verdict,
    compare,
    estimate_disjoint,
    estimate_embedded,
    estimate_log_statistic,
)
from .gpi import (
    GpiResult,
    SearchConfig,
    SearchReport,
    TrialRecord,
    WishartGpiInstance,
    gaussian_moment_log,
    gpi_ratio,
    random_correlation,
    search,
)

__all__ = [
    "__version__",
    "WishminorsError",
    "DimensionMismatch",
    "NotPositiveDefinite",
    "DomainError",
    "SingularRegime",
    "NonIntegerAlpha",
    "NotBlockDiagonal",
    "DegenerateEstimate",
    "BlockPartition",
    "SpdMatrix",
    "cholesky",
    "leading_logdets",
    "schur_complement",
    "log_multigamma",
    "log_multigamma_ratio",
    "Regime",
    "WishartParams",
    "SampleBatch",
    "log_density",
    "sample_bartlett",
    "sample_gaussian_sum",
    "MomentQuery",
    "MomentFactor",
    "ExactMoment",
    "single_minor_moment_log",
    "embedded_moment_log",
    "block_moments_log",
    "disjoint_moment_block_diag_log",
    "McEstimate",
    "Verdict",
    "ComparisonReport",
    "estimate_log_statistic",
    "estimate_embedded",
    "estimate_disjoint",
    "compare",
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
