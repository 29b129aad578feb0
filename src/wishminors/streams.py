"""Deterministic random number streams.

All samplers draw from Philox generators seeded by the children that
``SeedSequence.spawn`` makes of one seed; no stream uses Philox's counter.
``wishart.map_chunks`` fixes the stream layout (how many substreams, which
draws each one covers) from the draw count alone and runs the chunks in
order through ``map_ordered``, so results depend on ``(n, seed)`` alone.
"""
from __future__ import annotations

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


def map_ordered(fn, items) -> list:
    """``[fn(item) for item in items]``, in order on the calling thread.

    Every chunk and every gpi trial runs through it, so ``bench/spans.py``
    sees each one as a task.  Threads cost more CPU than they saved.
    """
    return [fn(item) for item in items]
