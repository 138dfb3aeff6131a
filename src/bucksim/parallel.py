"""Array work of one call split across the CPUs this process may use.

Its one user is the engine's fill of the normals it draws; the distance
bound walks its grid on the calling thread.

Each call opens its own thread executor and closes it before it returns,
so no thread outlives a call and a forked child starts with none.  The
thread count is derived, never set: the CPUs of the process's affinity
mask divided by the number of processes a sweep's pool runs side by side.
A part runs in a copy of the caller's context (numpy's error state
included).  Parts must not call the functions a tracer wraps, so every
traced span stays on the calling thread.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor

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


def split(fn, count: int) -> list:
    """[fn(lo, hi), ...] over contiguous parts of range(count), in order.

    At most thread_count() parts, none empty (one part when count < 2);
    the calling thread runs the first part.
    """
    parts = max(1, min(thread_count(), count))
    if parts == 1:
        return [fn(0, count)]
    edges = [count * i // parts for i in range(parts + 1)]
    # Leaving the block waits for every part, also when the first one raises.
    with ThreadPoolExecutor(max_workers=parts - 1) as pool:
        futures = [pool.submit(contextvars.copy_context().run, fn, lo, hi)
                   for lo, hi in zip(edges[1:-1], edges[2:])]
        first = fn(edges[0], edges[1])
    return [first] + [f.result() for f in futures]
