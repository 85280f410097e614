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


def thread_map(func, items, threads: int = 1):
    """func(item) for item in items, in order, computed on up to threads
    threads; an iterator.

    All items are submitted at once, and each result is handed on as soon
    as it and those before it are done, so a caller that folds the results
    in as they come holds only those not yet taken. concurrent.futures (and
    the logging it loads) is imported only when threads > 1, so a
    single-threaded process never loads the pool.
    """
    if threads <= 1:
        yield from map(func, items)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(func, items)
