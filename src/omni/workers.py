"""Deterministic fan-out helper for the embarrassingly parallel sweeps.

Results must not depend on the worker count, so work is always split into
an order-preserving map over a fixed item list; workers=1 stays in-process.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor


def parallel_map(fn, items, workers: int = 1, chunksize: int | None = None) -> list:
    if workers < 1:
        raise ValueError("workers must be >= 1")
    items = list(items)
    # the executor starts all its processes at the first submit, so it gets
    # no more than there are items, or CPUs to run them
    workers = min(workers, len(items), len(os.sched_getaffinity(0)))
    if workers <= 1:
        return [fn(x) for x in items]
    if chunksize is None:
        chunksize = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items, chunksize=chunksize))
