"""Deterministic random number streams: the only place a seed becomes one.

The node at ``path`` of a seed's spawn tree is ``SeedSequence(seed,
spawn_key=path)``, which ``SeedSequence(seed).spawn(n)[i].spawn(k)[j]``
reaches at ``(i, j)``; ``stream`` is its Philox generator, whose counter
no stream uses, and ``stream_seed`` its 64-bit seed.  Chunk ``i`` of an
estimate draws from ``(i,)`` of its seed (``substreams``); the chunks,
fixed by ``wishart.map_chunks`` from the draw count alone, run in order
through ``map_ordered``, so results depend on ``(n, seed)`` alone.  Trial
``i`` of a gpi search draws its instance from ``(i, 0)`` of the search
seed, and its estimate and escalation seeds are those of ``(i, 1)`` and
``(i, 2)``.
"""
from __future__ import annotations

import numpy as np

from .errors import check_int

__all__ = ["check_seed", "stream", "stream_seed", "substreams", "chunk_sizes", "map_ordered"]

_SEED_MAX = 2**64


def check_seed(seed: int) -> int:
    """``seed`` as an int; DomainError unless it is an integer in [0, 2**64)."""
    return check_int(seed, "seed", 0, _SEED_MAX)


def _node(seed: int, path: tuple[int, ...]) -> np.random.SeedSequence:
    return np.random.SeedSequence(check_seed(seed), spawn_key=path)


def stream(seed: int, *path: int) -> np.random.Generator:
    """The Philox generator at ``path`` of ``seed``'s spawn tree."""
    return np.random.Generator(np.random.Philox(_node(seed, path)))


def stream_seed(seed: int, *path: int) -> int:
    """The 64-bit seed of the node at ``path`` of ``seed``'s spawn tree."""
    return int(_node(seed, path).generate_state(1, np.uint64)[0])


def substreams(seed: int, count: int) -> list[np.random.Generator]:
    """The generators at ``(0,) ... (count - 1,)`` of ``seed``: ``count`` independent streams."""
    seed = check_seed(seed)
    return [stream(seed, i) for i in range(check_int(count, "substream count", 0))]


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
