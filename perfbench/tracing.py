"""Spans around calls into bucksim, timed from outside the package.

The tracer replaces public functions at the names where bucksim.montecarlo
and bucksim.cli look them up, so no file under src/ changes.  Each call
becomes a span (name, start, end, parent, growth of ru_maxrss) kept in
memory.  The wrappers keep only the small values that the work counts need
(schedules, horizons, batch sizes, the deformation returned or not); the
counts themselves are computed after the workload, outside every span.
"""

from __future__ import annotations

import math
import os
import resource
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import bucksim
from bucksim import cli, montecarlo


def maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, maxrss growth kB]
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.batches: list[tuple] = []   # (StochConfig, replica ids, record_paths, schedules)
        self.aligned = 0
        self.bounds: list[tuple] = []    # (horizon, grid_step, DetPath, ReplicaSchedule, lam)
        self.written: list[str] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rss0 = maxrss_kb()
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            rec[4] = maxrss_kb() - rss0
            self._stack.pop()

    def _wrap(self, module, attr: str, name: str, record=None) -> None:
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if record is not None:
                record(out, *args, **kwargs)
            return out

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, fn))

    def install(self) -> None:
        self._wrap(montecarlo, "simulate_batch", "stochastic.simulate_batch", self._on_batch)
        self._wrap(montecarlo, "simulate_det", "deterministic.simulate_det")
        self._wrap(montecarlo, "align_schedules", "skorokhod.align_schedules", self._on_align)
        self._wrap(montecarlo, "skorokhod_upper_bound", "skorokhod.upper_bound", self._on_bound)
        self._wrap(cli, "sweep", "montecarlo.sweep")
        self._wrap(cli, "atomic_write_text", "output.atomic_write_text", self._on_write)
        self._wrap(cli, "write_json", "output.write_json", self._on_write)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _on_batch(self, out, p, x0, cfg, replica_ids, record_paths=True):
        self.batches.append((cfg, tuple(int(r) for r in replica_ids), bool(record_paths),
                             out.schedules))

    def _on_align(self, out, *args, **kwargs):
        self.aligned += out is not None

    def _on_bound(self, out, z1, z2, lam, grid_step=1e-3, **kwargs):
        self.bounds.append((z1.horizon, grid_step, z1, z2.schedule, lam))

    def _on_write(self, out, path, *args, **kwargs):
        self.written.append(str(path))

    # ---- after the workload -------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[str, float] = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (t1 - t0) - child[i]
        return out

    def total(self, name: str) -> float:
        return sum(t1 - t0 for n, t0, t1, _, _ in self.spans if n == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def rss_growth_mb(self, layer: str) -> float:
        return sum(s[4] for s in self.spans if s[0].split(".", 1)[0] == layer) / 1024.0

    def redraw_seconds(self) -> float:
        """Draw every batch's normals (and bridge uniforms) again, as the engine does."""
        t = 0.0
        for cfg, ids, _, _ in self.batches:
            if cfg.epsilon <= 0.0:
                continue
            n = cfg.horizon * cfg.steps_per_unit()
            bridge = cfg.bridge_correction
            t0 = perf_counter()
            normals = np.empty((len(ids), n))
            uniforms = np.empty((len(ids), n)) if bridge else None
            for j, r in enumerate(ids):
                g = bucksim.replica_generator(cfg.seed, r, cfg.stream)
                normals[j] = g.standard_normal(n)
                if bridge:
                    uniforms[j] = g.random(n)
            t += perf_counter() - t0
            del normals, uniforms
        return t


def on_step_counts(schedules, horizon: int, spu: int) -> tuple[int, int]:
    """(ON replica-steps, grid steps with at least one ON replica) of one batch.

    The engine steps a replica as ON in grid step i when it is ON at
    t = i / spu: from its restart node sigma * spu up to and including the
    step whose interval (t_i, t_{i+1}] holds the passage tau.  That step is
    the number of grid nodes strictly before tau, found on the same floats
    the engine uses.  A phase begun at the last restart that never crossed
    runs to the horizon.
    """
    n = horizon * spu
    grid_t = np.arange(n + 1) / spu
    starts, ends = [], []
    for s in schedules:
        k = len(s.taus)
        st = np.rint(np.concatenate(([0.0], s.sigmas)) * spu).astype(np.int64)
        starts.append(st[:k])
        ends.append(np.searchsorted(grid_t, s.taus, side="left"))
        if st[k] < n:
            starts.append(st[k:k + 1])
            ends.append(np.array([n]))
    starts = np.concatenate(starts)
    ends = np.concatenate(ends)
    edges = np.zeros(n + 1, dtype=np.int64)
    np.add.at(edges, starts, 1)
    np.add.at(edges, ends, -1)
    any_on = int(np.count_nonzero(np.cumsum(edges)[:n] > 0))
    return int((ends - starts).sum()), any_on


def eval_point_count(horizon: float, grid_step: float, det, sched, lam, cache: dict) -> int:
    """Points at which skorokhod_upper_bound evaluates both paths.

    The uniform grid of the given step over [0, T], the jump times of the
    deterministic path and the lam-preimages of the stochastic jump times,
    without duplicates.
    """
    key = (horizon, grid_step)
    if key not in cache:
        cache[key] = np.linspace(0.0, horizon, max(1, int(math.ceil(horizon / grid_step))) + 1)
    base = cache[key]
    z2 = np.concatenate([sched.taus, sched.sigmas])
    z2 = z2[(z2 > 0.0) & (z2 < horizon)]
    extra = np.concatenate([det.jump_times, lam.inverse()(z2)])
    extra = np.unique(extra[(extra >= 0.0) & (extra <= horizon)])
    pos = np.minimum(np.searchsorted(base, extra), len(base) - 1)
    return len(base) + int(np.count_nonzero(base[pos] != extra))


def layer_metrics(tr: Tracer, root_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (trace.overhead_s is added by the runner)."""
    selfs = tr.self_times()
    replica_steps = on_steps = any_on = grid_steps = 0
    drawn = path = 0
    for cfg, ids, record_paths, schedules in tr.batches:
        spu = cfg.steps_per_unit()
        n = cfg.horizon * spu
        B = len(ids)
        replica_steps += B * n
        grid_steps += n
        on, anyo = on_step_counts(schedules, cfg.horizon, spu)
        on_steps += on
        any_on += anyo
        if cfg.epsilon > 0.0:
            drawn = max(drawn, B * n * 8 * (2 if cfg.bridge_correction else 1))
        if record_paths:
            path = max(path, B * (n + 1) * (8 + 1))
    cache: dict = {}
    eval_points = sum(eval_point_count(*b, cache) for b in tr.bounds)
    batch_s = tr.total("stochastic.simulate_batch")
    return {
        "stochastic.simulate_batch_s": batch_s,
        "stochastic.calls": len(tr.batches),
        "stochastic.replica_steps": replica_steps,
        "stochastic.replica_steps_per_s": replica_steps / batch_s if batch_s > 0 else 0.0,
        "stochastic.on_step_frac": on_steps / replica_steps if replica_steps else 0.0,
        "stochastic.any_on_step_frac": any_on / grid_steps if grid_steps else 0.0,
        "stochastic.rng_draw_s": tr.redraw_seconds(),
        "stochastic.drawn_bytes_computed": drawn,
        "stochastic.path_bytes_computed": path,
        "stochastic.maxrss_growth_mb": tr.rss_growth_mb("stochastic"),
        "skorokhod.upper_bound_s": tr.total("skorokhod.upper_bound"),
        "skorokhod.upper_bound_calls": len(tr.bounds),
        "skorokhod.align_s": tr.total("skorokhod.align_schedules"),
        "skorokhod.aligned_frac": tr.aligned / len(tr.bounds) if tr.bounds else 0.0,
        "skorokhod.eval_points_computed": eval_points,
        "skorokhod.maxrss_growth_mb": tr.rss_growth_mb("skorokhod"),
        "deterministic.simulate_det_s": tr.total("deterministic.simulate_det"),
        "deterministic.calls": tr.count("deterministic.simulate_det"),
        "montecarlo.self_s": selfs.get("montecarlo", 0.0),
        "montecarlo.batches": len(tr.batches),
        "output.write_s": tr.total("output.atomic_write_text") + tr.total("output.write_json"),
        "output.bytes": sum(os.path.getsize(p) for p in tr.written),
        "cli.self_s": selfs.get("cli", 0.0),
        "trace.workload_span_s": root_s,
        "trace.self_sum_s": sum(selfs.values()),
    }

