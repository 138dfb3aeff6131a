"""Array work of one call split across the CPUs this process may use.

One thread pool per process, created on first use and dropped in forked
children, which inherit the pool object but not its threads.  The thread
count is derived, never set: the CPUs of the process's affinity mask
divided by the number of processes a sweep's pool runs side by side.  A
part runs in a copy of the caller's context (numpy's error state
included).  Parts must not call split, which would wait on the pool they
occupy, nor the functions a tracer wraps, so every traced span stays on
the calling thread.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_processes = 1  # processes of a sweep's pool sharing the CPUs; set in each of them


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count, else 1."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def share_cpus(processes: int) -> None:
    """Initializer of a sweep's worker processes: each takes its share of the CPUs."""
    global _processes
    _processes = processes


def thread_count() -> int:
    return max(1, usable_cpus() // _processes)


def _drop_pool() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_drop_pool)


def split(fn, count: int, min_part: int = 1) -> list:
    """[fn(lo, hi), ...] over contiguous parts of range(count), in order.

    At most thread_count() parts of at least min_part each (one part when
    count is smaller); the calling thread runs the first part.
    """
    parts = max(1, min(thread_count(), count // min_part))
    if parts == 1:
        return [fn(0, count)]
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=max(1, usable_cpus() - 1))
        pool = _pool
    edges = [count * i // parts for i in range(parts + 1)]
    futures = [pool.submit(contextvars.copy_context().run, fn, lo, hi)
               for lo, hi in zip(edges[1:-1], edges[2:])]
    try:
        first = fn(edges[0], edges[1])
    finally:
        wait(futures)  # no part outlives the call, also when the first one raises
    return [first] + [f.result() for f in futures]
