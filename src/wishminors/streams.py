"""Deterministic parallel random number streams.

All samplers draw from Philox generators seeded by the children that
``SeedSequence.spawn`` makes of one seed; no stream uses Philox's counter.
``wishart.map_chunks`` fixes the stream layout (how many substreams, which
draws each one covers) from the draw count alone and uses ``map_ordered``
only to schedule chunks onto threads, so results depend on ``(n, seed)``
and are bit-identical for any worker count.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import check_int

__all__ = ["check_seed", "substreams", "chunk_sizes", "map_ordered"]

_SEED_MAX = 2**64


def check_seed(seed: int) -> int:
    """``seed`` as an int; DomainError unless it is an integer in [0, 2**64)."""
    return check_int(seed, "seed", 0, _SEED_MAX)


def substreams(seed: int, count: int) -> list[np.random.Generator]:
    """``count`` independent Philox generators spawned from ``seed``."""
    seed = check_seed(seed)
    children = np.random.SeedSequence(seed).spawn(check_int(count, "substream count", 0))
    return [np.random.Generator(np.random.Philox(c)) for c in children]


def chunk_sizes(total: int, chunks: int) -> list[int]:
    """Split ``total`` items into ``chunks`` contiguous near-equal pieces.

    The first ``total % chunks`` pieces get one extra item, so the layout
    depends only on the two arguments.
    """
    total = check_int(total, "total", 0)
    chunks = check_int(chunks, "chunk count", 1)
    base, extra = divmod(total, chunks)
    return [base + 1 if i < extra else base for i in range(chunks)]


def map_ordered(fn, items, workers: int = 1) -> list:
    """Apply ``fn`` to each item, in parallel when ``workers > 1``.

    Results come back in input order regardless of completion order, so
    downstream reductions are deterministic.
    """
    workers = check_int(workers, "workers", 1)
    items = list(items)
    if workers == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
