"""Deterministic seed derivation.

All randomness in the package flows through numpy Generators built here.
Child seeds are derived from a master seed and an index path with
SeedSequence spawn keys, so any unit of work (one trace, one counter draw,
one sweep) gets a stream that depends only on (master_seed, indices) and
never on execution order or thread count.
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive_seed", "rng_for", "thread_map"]


def derive_seed(master_seed: int, *indices: int) -> int:
    """Return a 64-bit child seed for the given index path."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(indices))
    return int(ss.generate_state(1, np.uint64)[0])


def rng_for(master_seed: int, *indices: int) -> np.random.Generator:
    """Return a Generator seeded by the given index path."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(indices))
    return np.random.default_rng(ss)


def thread_map(func, items, threads: int = 1) -> list:
    """[func(item) for item in items], computed on up to threads threads.

    concurrent.futures (and the logging it loads) is imported only when
    threads > 1, so a single-threaded process never loads the pool.
    """
    if threads <= 1:
        return [func(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(func, items))
