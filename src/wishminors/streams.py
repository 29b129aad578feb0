"""Deterministic parallel random number streams.

All samplers draw from counter-based Philox generators seeded through a
single ``SeedSequence``.  ``wishart.map_chunks`` fixes the stream layout
(how many substreams, which draws each one covers) from the draw count
alone and uses ``map_ordered`` only to schedule chunks onto threads, so
results depend on ``(n, seed)`` and are bit-identical for any worker count.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DomainError

__all__ = ["check_seed", "substreams", "chunk_sizes", "map_ordered"]

_SEED_MAX = 2**64


def check_seed(seed: int) -> None:
    """Raise DomainError unless ``seed`` is an integer in [0, 2**64)."""
    if int(seed) != seed or not 0 <= seed < _SEED_MAX:
        raise DomainError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def substreams(seed: int, count: int) -> list[np.random.Generator]:
    """``count`` independent Philox generators spawned from ``seed``."""
    check_seed(seed)
    if count < 0:
        raise DomainError(f"substream count must be >= 0, got {count}")
    children = np.random.SeedSequence(int(seed)).spawn(count)
    return [np.random.Generator(np.random.Philox(c)) for c in children]


def chunk_sizes(total: int, chunks: int) -> list[int]:
    """Split ``total`` items into ``chunks`` contiguous near-equal pieces.

    The first ``total % chunks`` pieces get one extra item, so the layout
    depends only on the two arguments.
    """
    if total < 0 or chunks < 1:
        raise DomainError(f"need total >= 0 and chunks >= 1, got {total}, {chunks}")
    base, extra = divmod(total, chunks)
    return [base + 1 if i < extra else base for i in range(chunks)]


def map_ordered(fn, items, workers: int = 1) -> list:
    """Apply ``fn`` to each item, in parallel when ``workers > 1``.

    Results come back in input order regardless of completion order, so
    downstream reductions are deterministic.
    """
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    items = list(items)
    if workers == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
