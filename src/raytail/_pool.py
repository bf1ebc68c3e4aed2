"""The package's one process pool.

Replication studies and the CSV reader run their calls here. The pool holds
as many forked workers as the environment variable RAYTAIL_THREADS says
(default: the usable cores). It is created at the first parallel call and
reused by every later one, so its workers see module state as of that call.
RAYTAIL_THREADS=1, a single call or a platform that cannot fork runs the
calls serially in the caller.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

_executor = None  # (workers, ProcessPoolExecutor), created on first use


def _worker_count() -> int:
    raw = os.environ.get("RAYTAIL_THREADS")
    if raw is None:
        # the usable cores; all cores where the platform cannot say
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def map(fn, *iterables) -> list:
    """``[fn(*args) for args in zip(*iterables)]``, in input order.

    Each worker takes one contiguous chunk of the calls. A different worker
    count replaces the pool. If a worker dies, the call raises
    ``BrokenProcessPool`` and the next one forks a fresh pool.
    """
    global _executor
    calls = list(zip(*iterables))
    workers = _worker_count()
    n = len(calls)
    if min(workers, n) <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(*args) for args in calls]
    if _executor is None or _executor[0] != workers:
        if _executor is not None:
            _executor[1].shutdown()
        ctx = multiprocessing.get_context("fork")
        _executor = (workers, ProcessPoolExecutor(workers, mp_context=ctx))
    try:
        return list(_executor[1].map(fn, *zip(*calls), chunksize=-(-n // min(workers, n))))
    except BrokenProcessPool:
        _executor = None
        raise
