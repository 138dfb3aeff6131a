import multiprocessing

import numpy as np
import pytest

from bucksim import parallel


def _split_sum(count: int) -> int:
    """sum(range(count)), one part per thread."""
    return sum(parallel.split(lambda lo, hi: sum(range(lo, hi)), count))


def _report_split_sum(conn) -> None:
    conn.send(_split_sum(1000))
    conn.close()


def test_parts_cover_the_range_in_order(monkeypatch):
    for threads in (1, 2, 3):
        monkeypatch.setattr(parallel, "thread_count", lambda: threads)
        for count in (0, 1, 2, 10, 1001):
            parts = parallel.split(lambda lo, hi: (lo, hi), count)
            assert len(parts) == max(1, min(threads, count))
            assert parts[0][0] == 0 and parts[-1][1] == count
            assert all(a[1] == b[0] for a, b in zip(parts, parts[1:]))


def test_parts_run_in_the_callers_error_state(monkeypatch):
    # numpy's error state is per thread; the second part, on a pool thread,
    # still raises under the caller's errstate, and the error reaches the caller.
    monkeypatch.setattr(parallel, "thread_count", lambda: 2)

    def part(lo, hi):
        return np.sqrt(np.full(hi - lo, -1.0 if lo else 1.0))

    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        parallel.split(part, 2)
    with np.errstate(invalid="ignore"):
        assert np.isnan(parallel.split(part, 2)[1]).all()


def test_split_runs_in_a_forked_child(monkeypatch):
    # A forked child inherits no threads; a split in the parent before the
    # fork must not leave the child's split waiting on threads that do not exist.
    monkeypatch.setattr(parallel, "thread_count", lambda: 2)
    assert _split_sum(1000) == 499500
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_report_split_sum, args=(send,))
    child.start()
    send.close()
    child.join(timeout=30)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung and child.exitcode == 0
    assert recv.poll(1) and recv.recv() == 499500
