"""Simulation of the noise-perturbed switching system.

In the ON state the current follows the linear SDE
dX = (-alpha_on X + beta) dt + eps dW, which is an Ornstein-Uhlenbeck
process: its transition law over any step is Gaussian with known mean and
variance, so grid stepping uses the exact law and carries no integrator
bias.  The only approximation is first-passage detection of the threshold
x_ref, refined below the grid by linear interpolation at endpoint crossings
and, optionally, by a Brownian-bridge crossing test inside non-crossing
steps.  The OFF state is deterministic decay and is evaluated closed-form;
its grid samples exist only for output.  Each rule has one formula: the
engine's ON step makes ou_step's operations in ou_step's order, its bridge
test calls the function crossing_probability calls, and its restarts follow
Schedule.sigmas, so the scalars are the rules the engine runs.

A batch runs one clock period at a time: in [k, k + 1] only the replicas
ON at node k are stepped, in blocks whose scratch is bounded independent
of the grid size, until the block of their passage.  Restarts are applied
at the integer nodes, so each period's ON steps are its first ones, and
the batch keeps only a window of W steps per period: the latest
deterministic passage of the run plus WINDOW_SDS linear-response sds of
the mistiming (window_steps).  A phase still ON at its window's edge
spills: it steps on to the period's end in the same loop, with its normals
re-drawn from its own stream.  The OFF stretches of recorded paths are
filled in closed form when a path is read.  A replica's mode is not
stored: its schedule fixes it (schedule_modes).  simulate_batch
describes the one store that holds a batch's draws and recorded paths.

Replica k of an ensemble draws from a counter-based Philox stream derived
from (seed, k), so ensembles are reproducible independent of batching or
scheduling.  Within a replica the draw consumed at grid step i is always
element i of its stream (normals first, then uniforms when the bridge test
is enabled), which makes paths bit-reproducible.  The normal fill is split
by replica rows across threads (parallel.split); each stream is still
built and drawn by one thread, in order, so no value depends on the
thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import parallel
from .deterministic import MODE_ON, Schedule, on_flow, simulate_det
from .errors import ConfigError, DomainError, check_grid_size
from .params import ConverterParams, derive_constants, mistiming_sd, require_valid


# A block of ON steps spans about BLOCK_ELEMENTS replica-steps (at most
# BLOCK_STEPS_MAX steps), so its scratch arrays do not depend on n.
BLOCK_ELEMENTS = 2 ** 14
BLOCK_STEPS_MAX = 128
# A period keeps its first W steps: the latest deterministic passage plus
# WINDOW_SDS linear-response sds of the mistiming (window_steps).  At seeds
# 42 and 7 at most 0.5 % of the replica-periods of the benchmark's
# workloads outlast 3 sds and spill, and none outlasts 5.2 at seed 42.
WINDOW_SDS = 3.0


def ou_step(p: ConverterParams, x: float, h: float, eps: float, gauss: float) -> float:
    """Exact ON-state transition over a step of length h.

    Returns m + (x - m) e^{-a h} + sd(h) * gauss with m = beta/alpha_on and
    sd(h) = eps sqrt((1 - e^{-2 a h}) / (2 a)); `gauss` is a standard-normal
    draw.  With eps = 0 this reduces exactly to the deterministic flow.  It
    is the engine's ON step: simulate_batch's in-place loop makes the same
    operations in the same order, so each recorded step equals ou_step with
    that step's normal, bit for bit.
    """
    if h < 0:
        raise DomainError(f"ou_step: h={h!r} must be >= 0")
    return on_flow(p, x, h) + ou_step_sd(p, h, eps) * gauss


def ou_step_sd(p: ConverterParams, h: float, eps: float) -> float:
    """Conditional standard deviation of the exact ON transition over h."""
    decay = math.exp(-p.alpha_on * h)
    return eps * math.sqrt((1.0 - decay * decay) / (2.0 * p.alpha_on))


def crossing_probability(x1: float, x2: float, level: float, h: float, eps: float) -> float:
    """Brownian-bridge probability that a step with endpoints below `level` touched it.

    exp(-2 (level - x1)(level - x2) / (eps^2 h)), by the formula the
    engine's bridge test calls (_bridge_probability); endpoints exactly at
    the level give 1.  Endpoints above the level are the caller's crossing
    case and are rejected.  An eps^2 h that underflows to 0 is treated as
    eps = 0.
    """
    if x1 > level or x2 > level:
        raise DomainError("crossing_probability: endpoint above the level is a crossing")
    if h <= 0:
        raise DomainError(f"crossing_probability: h={h!r} must be > 0")
    if x1 == level or x2 == level:
        return 1.0
    var = eps * eps * h
    if var == 0.0:
        return 0.0
    return float(_bridge_probability(-(2.0 / var), np.array([level - x1]), level - x2)[0])


def _bridge_probability(neg_inv_var, gap1, gap2, out=None):
    """Bridge crossing probability of steps with endpoint gaps below the level.

    neg_inv_var is -2 / (eps^2 h).  Clamping the exponent at 0 gives 1 for
    an endpoint crossing, which the engine flags on its own, and keeps exp
    from overflowing.  A product that overflows, at an x_ref near the top
    of the double range, is infinite, and the clamp and exp give it the
    probability 0 or 1 of its sign.  The gaps are arrays; the result is
    computed in one array of their shape, out when given.
    """
    with np.errstate(over="ignore"):
        e = np.multiply(neg_inv_var, gap1, out=out)
        e *= gap2
    return np.exp(np.minimum(e, 0.0, out=e), out=e)


@dataclass(frozen=True)
class StochConfig:
    """Run configuration for the stochastic engine.

    1/dt must be an integer so the grid hits every clock time exactly.
    stream isolates independent sub-ensembles (e.g. rows of a noise sweep)
    that share one base seed: replica k of stream s draws from the Philox
    stream keyed by (seed, s, k).
    """

    epsilon: float
    dt: float = 1e-3
    horizon: int = 10
    seed: int = 0
    bridge_correction: bool = True
    stream: int = 0

    def steps_per_unit(self) -> int:
        if not (math.isfinite(self.dt) and self.dt > 0 and math.isfinite(1.0 / self.dt)):
            raise ConfigError(f"dt={self.dt!r} must be finite and > 0, with a finite 1/dt")
        spu = round(1.0 / self.dt)
        if spu < 1 or abs(spu * self.dt - 1.0) > 1e-9:
            raise ConfigError(f"1/dt must be an integer (dt={self.dt!r})")
        return spu

    def grid_nodes(self) -> int:
        """Nodes of one replica's time grid: 0, dt, ..., horizon."""
        return int(self.horizon) * self.steps_per_unit() + 1

    def validate(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ConfigError(f"epsilon={self.epsilon!r} must be finite and >= 0")
        self.steps_per_unit()
        if not (isinstance(self.horizon, (int, np.integer)) and self.horizon >= 0):
            raise ConfigError(f"horizon={self.horizon!r} must be a non-negative integer")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ConfigError(f"seed={self.seed!r} must be a non-negative integer")


def replica_generator(seed: int, replica: int, stream: int = 0) -> np.random.Generator:
    """Independent counter-based stream for one replica of an ensemble."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, replica))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class StochPath:
    """One simulated replica: grid samples of x plus its switching schedule.

    Between nodes x is linear, with each passage a knot at the level; eval
    builds those knots around its queries only, never for the whole grid.
    """

    t: np.ndarray
    x: np.ndarray
    schedule: Schedule
    level: float  # threshold the path was clamped to at passages (x_ref)

    @property
    def y(self) -> np.ndarray:
        """Mode at the grid times, derived from the schedule."""
        return schedule_modes(self.schedule.taus, self.schedule.sigmas, self.t)

    @property
    def horizon(self) -> float:
        return float(self.t[-1])

    @property
    def jump_times(self) -> np.ndarray:
        return self.schedule.jump_times(self.horizon)

    def eval(self, q) -> tuple[np.ndarray, np.ndarray]:
        """State (x, y) at time(s) q; linear between knots, x exactly the level at passages.

        The knots are the grid (t, x) with each passage (tau, level) inserted
        before the first node not below it.  np.interp's value at a query
        depends only on the two knots around it, so knots that keep the nodes
        around every query and every passage give the doubles of the whole
        array.  Queries as dense as the grid, such as a chunk of a distance
        grid, take the nodes from the last one at or below the earliest query
        to the first one above the latest; sparser ones, such as jump points,
        the two nodes around each.  Either way the knots number at most about
        twice the queries plus the passages, whatever the grid's length.
        """
        qa = np.atleast_1d(np.asarray(q, dtype=float))
        first, last = (qa.min(), qa.max()) if qa.size else (0.0, 0.0)
        if first < 0.0 or last > self.horizon:
            raise DomainError(f"eval: time outside [0, {self.horizon}]")
        t, n = self.t, len(self.t) - 1
        lo, hi = np.searchsorted(t, (first, last), side="right")
        if hi - lo <= 2 * qa.size and not np.isnan(first):
            nodes = slice(lo - 1, min(hi, n) + 1)
        else:
            above = np.searchsorted(t, qa.ravel(), side="right")
            nodes = np.sort(np.concatenate([above - 1, np.minimum(above, n)]))
            nodes = nodes[np.concatenate([[True], nodes[1:] != nodes[:-1]])]
        x = self._interp(qa, nodes)
        y = schedule_modes(self.schedule.taus, self.schedule.sigmas, qa)
        if np.isscalar(q) or np.asarray(q).ndim == 0:
            return float(x[0]), int(y[0])
        return x, y

    def _interp(self, q: np.ndarray, nodes) -> np.ndarray:
        """np.interp at q on the given grid nodes with every passage inserted."""
        t, taus = self.t[nodes], self.schedule.taus
        at = np.searchsorted(t, taus) + np.arange(len(taus))
        on_grid = np.ones(len(t) + len(taus), dtype=bool)
        on_grid[at] = False
        kt, kx = np.empty(len(on_grid)), np.empty(len(on_grid))
        kt[at], kx[at] = taus, self.level
        kt[on_grid], kx[on_grid] = t, self.x[nodes]
        return np.interp(q, kt, kx)


def schedule_modes(taus: np.ndarray, sigmas: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Mode (int8) at times q of a replica with this schedule.

    Right-continuous: OFF on each [tau_n, sigma_n), ON elsewhere, so the
    mode is ON after an even number of switches (MODE_ON is 1, MODE_OFF 0).
    Sorted queries, such as a grid, are filled run by run between the
    switch times; other queries each count the switch times at or below.
    """
    bnds = np.empty(2 * len(taus))
    bnds[0::2] = taus
    bnds[1::2] = sigmas
    if q.ndim == 1 and np.all(q[1:] >= q[:-1]):
        # Run j, from the first query at or above switch time j - 1 to the
        # last one below switch time j, follows j switches.
        runs = np.diff(np.searchsorted(q, bnds), prepend=0, append=q.size)
        return np.repeat(_parity_modes(np.arange(bnds.size + 1)), runs)
    return _parity_modes(np.searchsorted(bnds, q, side="right"))


def _parity_modes(switches: np.ndarray) -> np.ndarray:
    """MODE_ON after an even number of switches, MODE_OFF after an odd one (int8)."""
    return np.equal(np.bitwise_and(switches, 1), 0).view(np.int8)


@dataclass
class BatchResult:
    """Ensemble slice: schedules always, each replica's recorded path on request.

    A recorded path is kept as the x of each period's first W grid nodes
    after its start (window, replicas x periods x W, a view into the
    batch's store; see simulate_batch), and, for each period in which
    the replica spilled, the x of the period's remaining nodes (spills).
    path(b) fills in the rest, the OFF stretches and restart nodes, in
    closed form when it is read, in place and stretch by stretch, so a read
    allocates only the path's n + 1 doubles; ys derives every replica's
    grid modes from its schedule.
    """

    grid_t: np.ndarray
    schedules: list[Schedule]
    params: ConverterParams
    x0: float
    window: np.ndarray | None            # None without paths
    spills: list[list[tuple[int, np.ndarray]]] | None  # per replica: (period, x of steps W..)
    passage_steps: list[np.ndarray]      # grid step of each passage, per replica

    def path(self, b: int) -> StochPath:
        """Replica b's grid samples of x, with its schedule."""
        if self.window is None:
            raise DomainError("BatchResult.path: the batch was simulated without paths")
        s, p = self.schedules[b], self.params
        n = len(self.grid_t) - 1
        horizon, W = self.window.shape[1:]
        x = np.empty(n + 1)
        x[0] = self.x0
        if horizon:
            periods = x[1:].reshape(horizon, -1)
            periods[:, :W] = self.window[b]
            for k, spilled in self.spills[b]:
                periods[k, W:] = spilled
        if len(s.taus):
            # x decays from the node after each passage up to and including
            # the restart node; a window never reaches past those nodes.
            # Each stretch is x_ref * exp(-alpha_off * (t - tau)), computed in place.
            stops = np.minimum(s.sigmas.astype(np.int64) * (n // horizon), n) + 1
            for tau, lo, hi in zip(s.taus.tolist(), (self.passage_steps[b] + 1).tolist(),
                                    stops.tolist()):
                off = x[lo:hi]
                np.subtract(self.grid_t[lo:hi], tau, out=off)
                np.multiply(off, -p.alpha_off, out=off)
                np.exp(off, out=off)
                np.multiply(off, p.x_ref, out=off)
        return StochPath(t=self.grid_t, x=x, schedule=s, level=p.x_ref)

    @cached_property
    def ys(self) -> np.ndarray | None:
        """Modes (int8, replicas x grid nodes) derived from the schedules; None without paths."""
        if self.window is None:
            return None
        ys = np.empty((len(self.schedules), len(self.grid_t)), dtype=np.int8)
        for b, s in enumerate(self.schedules):
            ys[b] = schedule_modes(s.taus, s.sigmas, self.grid_t)
        return ys


def window_steps(p: ConverterParams, x0: float, cfg: StochConfig) -> int:
    """Grid steps W per period in which every ON phase of a batch is expected to pass.

    W = min(spu, ceil(spu (d_max + WINDOW_SDS eps s_inf)) + 1): d_max is the
    longest ON phase of the deterministic path over the horizon from (x0, ON)
    and s_inf the linear-response sd of a passage's mistiming
    (params.mistiming_sd).  A deterministic phase that spans a clock pulse
    or runs past the horizon gives W = spu.  W sets only the batch's memory
    and which phases spill, never its bytes.
    """
    spu = cfg.steps_per_unit()
    sched = simulate_det(p, (x0, MODE_ON), cfg.horizon).schedule
    if sched.anomaly or sched.partial_final_on:
        return spu
    reach = (sched.on_durations.max(initial=0.0)
             + WINDOW_SDS * cfg.epsilon * mistiming_sd(p, derive_constants(p)))
    return spu if reach >= 1.0 else min(spu, math.ceil(spu * reach) + 1)


def simulate_batch(p: ConverterParams, x0: float, cfg: StochConfig,
                   replica_ids: Sequence[int], record_paths: bool = True) -> BatchResult:
    """Simulate a batch of replicas on the shared grid, one clock period at a time.

    All replicas start from (x0, ON).  The grid time of node i is i / spu,
    an exact float ratio, so integer clock times are hit exactly.  Restarts
    fall on clock times, so every period's ON steps are its first ones; the
    batch keeps only the first W steps of each period (window_steps), about
    t_star + 3 eps s_inf of it on the orbit.  In the period [k, k + 1] the
    replicas ON at node k are stepped in blocks of L steps (BLOCK_ELEMENTS
    over their count, capped at BLOCK_STEPS_MAX, stopped at the window's
    edge and at the period's): the exact OU update step by step, then one
    pass over the block for passage detection (endpoint crossing with
    interpolated tau; optional bridge test with mid-step tau).  Crossed
    replicas leave after the block; the period ends once none is left.
    OFF->ON restarts are applied at node k + 1 from the closed-form OFF
    decay.

    Each replica's stream holds its n normals, then (bridge) its n uniforms.
    One store holds a row per replica: column k W + j holds normal k spu + j
    for j < W, which a block gathers before it writes x_{k spu + j + 1}
    over it, so the first T W columns are the paths' windows and recorded
    paths need no array of their own; their OFF stretches are filled in
    closed form when read (BatchResult.path).  The normals are drawn a few
    periods at a time into a scratch of each thread, in stream order, and
    each period's first W are kept; they are scaled to the step's sd one
    block at a time.  The generators' set-up and this fill are the only
    work split across threads, by replica rows; everything else runs on the
    calling thread.  The last spu columns hold one period's uniforms, drawn
    whole at the period's start; a separate period buffer came from the
    malloc heap, where the block scratch fragmented it (about 3 MB more
    peak RSS).  Drawn in parts, both kinds equal one draw of the whole
    horizon.

    A replica still ON at a window's edge, by a late passage or an ON phase
    that spans a clock pulse, spills: the same blocks step it on to the
    period's end with normals re-drawn from its own stream, so any W gives
    the bytes of whole periods in one pass.  So a batch holds B (T W + spu)
    doubles, with or without paths (the last spu columns only with the
    bridge test), plus spu - W per spilled replica-period: on the orbit at
    eps 0.01 and dt 1e-3, W = 424 of each period's 1000 steps.  Each
    passage is written once, into replica b's row of a record of taus and
    grid steps that its Schedule.taus and passage_steps view.  A replica
    passes at most once a period (restarts fall on integer nodes), so the
    record is B T (8 + 8) bytes, more than the store's B T W doubles only at
    spu = 1 (W = 1).  A block's scratch is about three arrays of its size,
    two kept for the batch.  The shared grid_t, n + 1 doubles, is built as
    floats and divided in place, so no integer copy sits on top of the store.
    """
    require_valid(p)
    cfg.validate()
    if not 0.0 < x0 < p.x_ref:
        raise DomainError(f"simulate_batch: x0={x0!r} outside (0, {p.x_ref})")
    check_grid_size(len(replica_ids) * cfg.grid_nodes(), "simulate_batch: replicas x grid nodes")
    W = window_steps(p, x0, cfg)
    spu = cfg.steps_per_unit()
    horizon = int(cfg.horizon)
    n = horizon * spu
    B = len(replica_ids)
    eps = float(cfg.epsilon)
    a_off = p.alpha_off
    x_ref = p.x_ref
    m = p.equilibrium
    h = 1.0 / spu
    # The ON step's operands as 0-d arrays, so that no step converts a float
    # (a step then allocates only its row view, which keeps the loop fast
    # under tracemalloc too).
    m0, decay0 = np.array(m), np.array(math.exp(-p.alpha_on * h))
    # An eps^2 h that underflows to 0 makes every bridge probability 0.
    bridge = cfg.bridge_correction and eps * eps * h > 0.0
    neg_inv_var = -(2.0 / (eps * eps * h)) if bridge else 0.0
    # A step whose endpoints both lie at least `far` below x_ref has a bridge
    # probability below e^-42, under every nonzero uniform (at least 2^-53,
    # about e^-36.7): in a period whose uniforms hold no 0 it cannot cross.
    # Formed from eps, not eps^2 h, which overflows above eps of about 1e154.
    far = eps * math.sqrt(21.0 * h) if bridge else 0.0

    noisy = eps > 0.0
    win = horizon * W
    store = np.empty((B, win + spu * bridge)) if noisy or record_paths else None
    uniforms = store[:, win:] if bridge else None
    sd = ou_step_sd(p, h, eps)
    if noisy:
        gens = [None] * B
        periods_per_draw = max(1, BLOCK_ELEMENTS // spu)

        def fill_normals(lo: int, hi: int) -> None:
            scratch = np.empty((min(periods_per_draw, horizon), spu))
            for j in range(lo, hi):
                gens[j] = replica_generator(cfg.seed, int(replica_ids[j]), cfg.stream)
                kept = store[j, :win].reshape(horizon, W)
                for k in range(0, horizon, periods_per_draw):
                    drawn = scratch[:min(periods_per_draw, horizon - k)]
                    gens[j].standard_normal(out=drawn)
                    kept[k:k + len(drawn)] = drawn[:, :W]

        # Each generator is built and filled by one thread, in stream order.
        parallel.split(fill_normals, B)

    # Replica rows still ON at step W of period k step on to the period's
    # end in the same block loop.  spill(k, act) gives their rows for steps
    # W .. spu - 1: normals re-drawn from each replica's stream by a spill
    # generator that moves on from where its last spill stopped, so no
    # stream is drawn more than twice; with paths the x of those steps is
    # written over them and each row kept (BatchResult.spills).
    spills = [[] for _ in range(B)] if record_paths else None
    spill_gens: dict[int, tuple[np.random.Generator, int]] = {}

    def spill(k: int, act: np.ndarray) -> np.ndarray:
        spilled = np.empty((act.size, spu - W))
        start = k * spu + W  # stream index of the first normal a row takes
        for r, b in enumerate(act.tolist()):
            if record_paths:
                spills[b].append((k, spilled[r]))
            if noisy:
                g, at = spill_gens.get(b) or (
                    replica_generator(cfg.seed, int(replica_ids[b]), cfg.stream), 0)
                for lo in range(at, start, spu):
                    g.standard_normal(min(spu, start - lo))
                g.standard_normal(out=spilled[r])
                spill_gens[b] = (g, start + spu - W)
        return spilled

    # Two arrays serve every block: its x, each row holding the step's scaled
    # normal until the step is taken, and its bridge probabilities, at most
    # (L + 1) A <= max(BLOCK_ELEMENTS, B) + B elements each.  The block's
    # gathers and gaps live one at a time, so malloc reuses their memory
    # rather than returning it to the system and faulting it in again.
    scratch = np.empty((2, max(BLOCK_ELEMENTS, B) + B))

    x = np.full(B, float(x0))   # state at the current node of every ON replica
    on = np.ones(B, dtype=bool)
    tau_last = np.full(B, np.nan)
    # Replica b's k-th passage, k < count[b], is taus[b, k] at grid step steps[b, k].
    taus = np.empty((B, horizon))
    steps = np.empty((B, horizon), dtype=np.int64)
    count = np.zeros(B, dtype=np.int64)

    for k in range(horizon):
        base = k * spu
        if bridge:
            for j in range(B):
                gens[j].random(out=uniforms[j])
            # Only a uniform of 0 crosses a step farther than `far` below x_ref.
            reach = x_ref - far if uniforms.min() > 0.0 else -np.inf
        act = np.flatnonzero(on)
        xa = x[act]
        # Step j0 of the period reads its normal from, and writes its x to,
        # column col0 + j0 of rows `rows` of buf: the window's up to step W,
        # then the spill of the replicas still ON there.
        buf, rows, col0 = store, act, k * W
        j0 = 0  # step of the period
        while act.size and j0 < spu:
            if j0 == W:
                buf, rows, col0 = spill(k, act), np.arange(act.size), -W
            # Steps base + j0 .. base + j0 + L - 1 of every active replica, time along axis 0.
            L = min(max(BLOCK_ELEMENTS // act.size, 1), BLOCK_STEPS_MAX,
                    (W if j0 < W else spu) - j0)
            cols = slice(col0 + j0, col0 + j0 + L)
            A = act.size
            xb = scratch[0, :(L + 1) * A].reshape(L + 1, A)
            xb[0] = xa
            if noisy:
                np.multiply(buf[rows, cols].T, sd, out=xb[1:])
            else:
                xb[1:] = 0.0
            drift = np.empty(A)
            prev = xb[0]
            for xm in xb[1:]:
                np.subtract(prev, m0, out=drift)
                np.multiply(drift, decay0, out=drift)
                np.add(drift, m0, out=drift)
                np.add(drift, xm, out=xm)
                prev = xm
            up = xb[1:] >= x_ref
            crossed = up
            # Bridge-test only the replicas that come within reach of x_ref.
            near = np.flatnonzero(xb.max(axis=0) > reach) if bridge else ()
            if len(near):
                An = len(near)
                gap = xb[:, near]
                np.subtract(x_ref, gap, out=gap)
                pb = _bridge_probability(neg_inv_var, gap[:-1], gap[1:],
                                         out=scratch[1, :L * An].reshape(L, An))
                del gap
                crossed = up.copy()
                crossed[:, near] |= uniforms[act[near], j0:j0 + L].T < pb
            if record_paths:
                # Values after a passage are replaced by the OFF fill when the
                # path is read.  These columns held the normals gathered into xb.
                buf[rows, cols] = xb[1:].T
            done = crossed.any(axis=0)
            c = np.flatnonzero(done)
            jc = crossed[:, c].argmax(axis=0)  # step of each crosser's first passage
            t0 = (base + j0 + jc) / spu
            tv = t0 + 0.5 * h
            hit = up[jc, c]
            if hit.any():
                ju, cu = jc[hit], c[hit]
                # den == 0 only when the phase both starts and ends exactly
                # at the threshold; place tau at the step start then.
                den = np.maximum(xb[ju + 1, cu] - xb[ju, cu], 1e-300)
                tv[hit] = t0[hit] + h * ((x_ref - xb[ju, cu]) / den)
            ended = act[c]
            at = count[ended]
            taus[ended, at] = tv
            steps[ended, at] = base + j0 + jc
            count[ended] = at + 1
            on[ended] = False
            tau_last[ended] = tv
            keep = ~done
            act, rows, xa = act[keep], rows[keep], xb[L, keep]
            j0 += L
        x[act] = xa
        node = float(k + 1)
        # A passage's restart is the next integer node (Schedule.sigmas).
        restart = np.flatnonzero(~on & (np.floor(tau_last) + 1.0 == node))
        if restart.size:
            on[restart] = True
            x[restart] = x_ref * np.exp(-a_off * (node - tau_last[restart]))

    scratch = gens = spill_gens = None  # freed before grid_t is built
    # A replica's last ON phase begins at its last restart, or at 0, and
    # has no passage; one begun before the horizon is still ON there.
    partial = (np.where(count > 0, np.floor(tau_last) + 1.0, 0.0) < horizon).tolist()
    taus, steps = ([row[:c] for row, c in zip(rec, count.tolist())] for rec in (taus, steps))
    schedules = [Schedule(taus=t, partial_final_on=f) for t, f in zip(taus, partial)]
    # Without paths this frees the draws before grid_t; the window keeps the store.
    window = store[:, :win].reshape(B, horizon, W) if record_paths else None
    store = uniforms = None
    grid_t = np.arange(n + 1, dtype=float)
    grid_t /= spu
    return BatchResult(grid_t=grid_t, schedules=schedules, params=p, x0=float(x0),
                       window=window, spills=spills, passage_steps=steps)
