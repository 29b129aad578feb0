"""One admission rule for every integer argument, one for every real, one for every tuple.

Counts, sizes, seeds and orders must be a ``numbers.Integral`` other than
``bool`` in range, so NaN, inf, ``2.0``, ``True``, ``1.5`` and ``-1`` all get
the typed error, and so does a draw count whose draws numpy could not hold
in one array, like ``10**20``.  Shapes, gamma bases, exponents, correlations,
variances and exact log values must be a ``numbers.Real`` other than ``bool``
that converts to a finite float; exponents must also be >= 0.  Tuple-valued
arguments must be a sequence other than a string, or a 1-d numpy array, of the
right length.  ``SearchConfig`` has more cases in ``test_gpi.py``.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from wishminors import (
    BlockPartition,
    DimensionMismatch,
    DomainError,
    MomentQuery,
    SearchConfig,
    SpdMatrix,
    WishartParams,
    compare,
    estimate_embedded,
    gaussian_moment_log,
    log_multigamma,
    log_multigamma_ratio,
    random_correlation,
    sample_bartlett,
)
from wishminors.linalg import schur_complement
from wishminors.streams import chunk_sizes, substreams

NOT_INTEGERS = (math.nan, math.inf, 2.0, True, 1.5, -1)
HUGE = 10**400  # an int beyond double range
NOT_EXPONENTS = (math.nan, math.inf, -1, None, "abc", "0.5", True, 1j, HUGE, Fraction(HUGE))
NOT_REALS = (None, "3", True, 1j, math.nan, math.inf, -math.inf, HUGE)

PARAMS = WishartParams(alpha=4.0, sigma=SpdMatrix.from_array(np.eye(2)))
QUERY = MomentQuery(partition=BlockPartition((1, 1)), nu=(1.0, 0.5))
ESTIMATE = estimate_embedded(PARAMS, QUERY, 200, seed=1)


def real_id(value) -> str:
    """``repr``, with ``HUGE`` spelled 10**400."""
    return repr(value).replace(str(HUGE), "10**400")


def search_config(**axes) -> SearchConfig:
    return SearchConfig(kind="wishart", trials=1, samples=100, seed=0, **axes)


INTEGER_ENTRIES = {
    "estimate_embedded-n": (lambda v: estimate_embedded(PARAMS, QUERY, v, seed=1), DomainError),
    "estimate_embedded-seed": (lambda v: estimate_embedded(PARAMS, QUERY, 10, seed=v),
                               DomainError),
    "sample_bartlett-count": (lambda v: sample_bartlett(PARAMS, v, seed=1), DomainError),
    "substreams-count": (lambda v: substreams(1, v), DomainError),
    "chunk_sizes-total": (lambda v: chunk_sizes(v, 4), DomainError),
    "chunk_sizes-chunks": (lambda v: chunk_sizes(10, v), DomainError),
    "BlockPartition": (lambda v: BlockPartition((1, v)), DimensionMismatch),
    "log_multigamma-order": (lambda v: log_multigamma(v, 3.0), DomainError),
    "log_multigamma_ratio-order": (lambda v: log_multigamma_ratio(v, 3.0, 1.0), DomainError),
    "random_correlation": (lambda v: random_correlation(v, np.random.default_rng(1)),
                           DimensionMismatch),
    "schur_complement": (lambda v: schur_complement(np.eye(3), v), DimensionMismatch),
}

EXPONENT_ENTRIES = {
    "log_multigamma_ratio-shift": lambda v: log_multigamma_ratio(2, 3.0, v),
    "MomentQuery": lambda v: MomentQuery(partition=BlockPartition((1, 1)), nu=(1.0, v)),
    "gaussian_moment_log": lambda v: gaussian_moment_log(v),
    "SearchConfig-nu_grid": lambda v: search_config(dims=(1, 2), alpha_range=(1, 4),
                                                    nu_grid=(1.0, v)),
}

# Each entry admits 0.5; the value it returns is comparable.
REAL_ENTRIES = {
    "WishartParams-alpha": lambda v: WishartParams(
        alpha=v, sigma=SpdMatrix.from_array(np.eye(1))).alpha,
    "log_multigamma-beta": lambda v: log_multigamma(1, v),
    "log_multigamma_ratio-beta": lambda v: log_multigamma_ratio(1, v, 1.0),
    "SearchConfig-alpha_range-lower": lambda v: search_config(dims=(1, 2), alpha_range=(v, 4)),
    "SearchConfig-alpha_range-upper": lambda v: search_config(dims=(1, 1), alpha_range=(0.5, v)),
    "SearchConfig-rho_grid": lambda v: search_config(dims=(2, 2), alpha_range=(1, 4),
                                                     rho_grid=(0.0, v)),
    "gaussian_moment_log-variance": lambda v: gaussian_moment_log(1.0, v),
    "compare-exact_log": lambda v: compare(v, ESTIMATE).z,
}


INTEGER_CASES = [
    pytest.param(entry, value, id=f"{entry}-{value!r}")
    for entry in INTEGER_ENTRIES
    for value in NOT_INTEGERS
]
# Counts whose largest chunk numpy could not hold in one array (10**20), or
# the allocator could not grant past any 47-bit address space (10**17):
# refused before any draw.
INTEGER_CASES += [
    pytest.param("sample_bartlett-count", 10**20, id="sample_bartlett-count-10**20"),
    pytest.param("sample_bartlett-count", 10**17, id="sample_bartlett-count-10**17"),
]


@pytest.mark.parametrize("entry, value", INTEGER_CASES)
def test_integer_arguments_refuse_non_integers(entry, value):
    call, error = INTEGER_ENTRIES[entry]
    with pytest.raises(error, match="must be an integer"):
        call(value)


@pytest.mark.parametrize("value", NOT_EXPONENTS, ids=real_id)
@pytest.mark.parametrize("entry", EXPONENT_ENTRIES)
def test_exponents_refuse_nonfinite_and_negative_values(entry, value):
    with pytest.raises(DomainError, match="finite and >= 0"):
        EXPONENT_ENTRIES[entry](value)


def test_numpy_integers_are_integers():
    # Sizes and dimensions drawn by numpy arrive as numpy integers.
    assert BlockPartition((np.int64(2), np.int32(1))).sizes == (2, 1)
    assert chunk_sizes(np.int64(5), np.uint8(2)) == [3, 2]
    assert log_multigamma(np.int64(1), 2.0) == 0.0


@pytest.mark.parametrize("entry", EXPONENT_ENTRIES)
def test_numpy_floats_are_exponents(entry):
    # Exponents drawn from a numpy grid arrive as numpy floats.
    assert EXPONENT_ENTRIES[entry](np.float64(0.5)) == EXPONENT_ENTRIES[entry](0.5)


@pytest.mark.parametrize("value", NOT_REALS, ids=real_id)
@pytest.mark.parametrize("entry", REAL_ENTRIES)
def test_real_arguments_refuse_nonfinite_and_non_real_values(entry, value):
    with pytest.raises(DomainError, match="must be finite"):
        REAL_ENTRIES[entry](value)


@pytest.mark.parametrize("value", [np.float64(0.5), Fraction(1, 2)], ids=real_id)
@pytest.mark.parametrize("entry", REAL_ENTRIES)
def test_numpy_floats_and_fractions_are_reals(entry, value):
    assert REAL_ENTRIES[entry](value) == REAL_ENTRIES[entry](0.5)


# Tuple-valued arguments of the wrong shape, each refused before any unpack.
SHAPE_ENTRIES = {
    "SearchConfig-dims-(1, 2, 3)": (lambda: search_config(dims=(1, 2, 3), alpha_range=(1, 4)),
                                    DomainError),
    "SearchConfig-dims-2": (lambda: search_config(dims=2, alpha_range=(1, 4)), DomainError),
    "SearchConfig-dims-'12'": (lambda: search_config(dims="12", alpha_range=(1, 4)), DomainError),
    "SearchConfig-alpha_range-(1, 2, 3)": (
        lambda: search_config(dims=(1, 2), alpha_range=(1, 2, 3)), DomainError),
    "SearchConfig-alpha_range-4": (lambda: search_config(dims=(1, 2), alpha_range=4), DomainError),
    "SearchConfig-gaussian-alpha_range-(1, 1, 1)": (
        lambda: SearchConfig(kind="gaussian", dims=(2, 2), trials=1, samples=100, seed=0,
                             alpha_range=(1, 1, 1)), DomainError),
    "SearchConfig-rho_grid-0.5": (
        lambda: search_config(dims=(2, 2), alpha_range=(1, 4), rho_grid=0.5), DomainError),
    "SearchConfig-rho_grid-()": (
        lambda: search_config(dims=(2, 2), alpha_range=(1, 4), rho_grid=()), DomainError),
    "SearchConfig-nu_grid-1.0": (
        lambda: search_config(dims=(1, 2), alpha_range=(1, 4), nu_grid=1.0), DomainError),
    "SearchConfig-nu_grid-()": (
        lambda: search_config(dims=(1, 2), alpha_range=(1, 4), nu_grid=()), DomainError),
    "MomentQuery-nu-0.5": (lambda: MomentQuery(partition=BlockPartition((1,)), nu=0.5),
                           DimensionMismatch),
    "MomentQuery-nu-'1'": (lambda: MomentQuery(partition=BlockPartition((1,)), nu="1"),
                           DimensionMismatch),
    "MomentQuery-nu-{0.5}": (lambda: MomentQuery(partition=BlockPartition((1,)), nu={0.5}),
                             DimensionMismatch),
    "BlockPartition-2": (lambda: BlockPartition(2), DimensionMismatch),
    "BlockPartition-()": (lambda: BlockPartition(()), DimensionMismatch),
    "BlockPartition-2d-array": (lambda: BlockPartition(np.ones((1, 2), dtype=int)),
                                DimensionMismatch),
}


@pytest.mark.parametrize("entry", SHAPE_ENTRIES)
def test_tuple_arguments_refuse_wrong_shapes(entry):
    call, error = SHAPE_ENTRIES[entry]
    with pytest.raises(error, match="must be a sequence of"):
        call()


def test_lists_and_numpy_vectors_are_sequences():
    assert BlockPartition([1, 2]).sizes == BlockPartition(np.array([1, 2])).sizes == (1, 2)
    query = MomentQuery(partition=BlockPartition((1, 1)), nu=np.array([0.5, 1.0]))
    assert query.nu == (0.5, 1.0) and query.suffix == (1.5, 1.0)
    search_config(dims=[1, 2], alpha_range=np.array([1.0, 4.0]), nu_grid=[1.0])  # admitted
    for given in ([1.0, 1.0], np.array([1.0, 1.0])):
        config = SearchConfig(kind="gaussian", dims=(2, 2), trials=1, samples=100, seed=0,
                              alpha_range=given)
        assert config.alpha_range == (1.0, 1.0)


def test_numpy_integers_are_reals():
    sigma = SpdMatrix.from_array(np.eye(2))
    assert type(WishartParams(alpha=np.int64(3), sigma=sigma).alpha) is float
    assert log_multigamma(1, np.int64(2)) == 0.0
    assert gaussian_moment_log(np.int64(1), np.int64(1)) == gaussian_moment_log(1.0)
    search_config(dims=(1, 2), alpha_range=(np.int64(1), np.int64(4)))  # admitted
