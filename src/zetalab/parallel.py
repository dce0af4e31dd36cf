"""The package's one thread pool, with a worker per core the process may run
on, and its ordered map.  Callers fix their work items (row blocks, sample
chunks) independently of the core count, so results are bit-identical for
any pool size."""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

_pool: ThreadPoolExecutor | None = None   # created on first use
_pool_lock = threading.Lock()
_local = threading.local()               # `inside` is set while a pool thread runs an item


def _run_item(fn, item):
    _local.inside = True
    try:
        return fn(item)
    finally:
        _local.inside = False


def map_blocks(fn, items) -> list:
    """`[fn(item) for item in items]`, with the items run on the shared pool.
    A single item, or a call from inside a pool item, runs in the caller, so a
    nested call never waits on the pool it runs on."""
    global _pool
    items = list(items)
    if len(items) <= 1 or getattr(_local, "inside", False):
        return [fn(item) for item in items]
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0)),
                                       thread_name_prefix="zetalab")
    futures = [_pool.submit(_run_item, fn, item) for item in items]
    return [future.result() for future in futures]
