"""Closed-form construction of the unperturbed switching trajectory.

A trajectory alternates ON phases (exponential pull toward beta/alpha_on,
terminated when the state reaches x_ref) and OFF phases (exponential decay,
terminated at the next integer clock time, strictly later than the switch).
Both flows are elementary exponentials, so the path is represented
symbolically as a list of anchored segments and can be evaluated at any time
to machine precision; no integrator is involved.  Its switch times form a
Schedule, the record the stochastic engine returns too: the passages are
stored, and the restarts, ON-phase lengths, slow passages and jump times
are derived from them by one rule.

Conventions: the continuous component x is continuous across switches; the
mode y is right-continuous (y = 0 at the instant the threshold is hit, y = 1
at the instant a clock pulse restarts the ON phase).  A clock pulse arriving
during an ON phase is ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, check_grid_size
from .params import ConverterParams, require_valid

MODE_ON = 1
MODE_OFF = 0


def on_flow(p: ConverterParams, x0: float, dt: float) -> float:
    """ON-state flow after time dt from x0: beta/a + (x0 - beta/a) e^{-a dt}."""
    if dt < 0:
        raise DomainError(f"on_flow: dt={dt!r} must be >= 0")
    m = p.equilibrium
    return m + (x0 - m) * math.exp(-p.alpha_on * dt)


def off_flow(p: ConverterParams, dt: float) -> float:
    """OFF-state decay after time dt from the threshold: x_ref e^{-alpha_off dt}."""
    if dt < 0:
        raise DomainError(f"off_flow: dt={dt!r} must be >= 0")
    return p.x_ref * math.exp(-p.alpha_off * dt)


def on_hit_time(p: ConverterParams, x0: float) -> float:
    """Time for the ON flow from x0 to reach x_ref; 0 if already at or above it.

    The flow from below never reaches the equilibrium beta/alpha_on, so
    starting at or above it is a domain error.
    """
    m = p.equilibrium
    if x0 >= m:
        raise DomainError(f"on_hit_time: x0={x0!r} is at or above the equilibrium {m}")
    if x0 >= p.x_ref:
        return 0.0
    return (1.0 / p.alpha_on) * math.log((m - x0) / (m - p.x_ref))


@dataclass(frozen=True)
class Schedule:
    """Switch times of a trajectory on [0, horizon], deterministic or stochastic.

    taus[n] is the n-th threshold passage; each restart sigmas[n] is the
    integer clock time strictly after it, so the last one may lie past the
    horizon (OFF phase truncated, or a passage exactly at the horizon).
    partial_final_on marks an ON phase begun strictly before the horizon
    that never crossed (its tau is absent).  The first ON phase begins at
    start_on: 0.0, or 1.0 after an OFF start.
    """

    taus: np.ndarray
    partial_final_on: bool
    start_on: float = 0.0

    @cached_property
    def sigmas(self) -> np.ndarray:
        """Restart times: the strictly-next integer after each passage."""
        return np.floor(self.taus) + 1.0

    @property
    def cycles(self) -> int:
        return len(self.taus)

    @property
    def on_durations(self) -> np.ndarray:
        """Length of each ON phase that ends in a passage."""
        return self.taus - np.concatenate([[self.start_on], self.sigmas[:-1]])

    @property
    def anomaly(self) -> bool:
        """True when an ON phase lasts at least 1, i.e. spans a clock pulse (slow passage)."""
        return bool(np.any(self.on_durations >= 1.0))

    def jump_times(self, horizon: float) -> np.ndarray:
        """All mode-switch times strictly inside (0, horizon), sorted."""
        t = np.concatenate([self.taus, self.sigmas, [self.start_on]])
        return np.sort(t[(t > 0.0) & (t < horizon)])


@dataclass(frozen=True)
class DetPath:
    """Piecewise-exponential trajectory with its switching schedule.

    Segments are stored as (start time, mode, x at the start); within a
    segment the state is the closed-form flow from its start.  boundaries
    has one entry per segment start plus the horizon, and end_state is the
    (x, y) value at exactly the horizon (right limits of events at the
    horizon already applied).
    """

    params: ConverterParams
    schedule: Schedule
    boundaries: np.ndarray    # segment starts + horizon, strictly increasing
    seg_mode: np.ndarray      # int, per segment
    seg_anchor_x: np.ndarray  # x at each segment start
    end_state: tuple[float, int]
    # Per grid step: the path on the uniform distance grid and at its own
    # jump times, shared by every distance bound against it (see
    # skorokhod._on_uniform_grid).
    grid_memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def horizon(self) -> float:
        return float(self.boundaries[-1])

    @property
    def jump_times(self) -> np.ndarray:
        """All mode-switch times strictly inside (0, horizon)."""
        return self.schedule.jump_times(self.horizon)

    def eval(self, t) -> tuple[np.ndarray, np.ndarray]:
        """State (x, y) at time(s) t in [0, horizon]; y right-continuous."""
        q = np.atleast_1d(np.asarray(t, dtype=float))
        if q.size and (q.min() < 0.0 or q.max() > self.horizon):
            raise DomainError(
                f"eval: time outside [0, {self.horizon}] "
                f"(got range [{q.min()}, {q.max()}])"
            )
        x = np.empty_like(q)
        y = np.empty(q.shape, dtype=np.int8)
        if len(self.seg_mode):
            # Each query's segment; one at the horizon takes the end state below.
            idx = np.searchsorted(self.boundaries[:-1], q, side="right") - 1
            y[...] = self.seg_mode[idx]
            dt = self.boundaries[idx]
            np.subtract(q, dt, out=dt)
            ax = self.seg_anchor_x[idx]
            del idx
            # ON: m + (ax - m) exp(-alpha_on dt); OFF: ax exp(-alpha_off dt).
            p = self.params
            m = p.equilibrium
            decay = np.multiply(dt, -p.alpha_off)
            np.exp(decay, out=decay)
            np.multiply(ax, decay, out=x)
            np.multiply(dt, -p.alpha_on, out=decay)
            np.exp(decay, out=decay)
            np.subtract(ax, m, out=ax)
            np.multiply(ax, decay, out=ax)
            np.add(ax, m, out=ax)
            np.copyto(x, ax, where=y == MODE_ON)
        at_end = q == self.horizon
        x[at_end] = self.end_state[0]
        y[at_end] = self.end_state[1]
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return float(x[0]), int(y[0])
        return x, y


def simulate_det(p: ConverterParams, z0: tuple[float, int], horizon: int) -> DetPath:
    """Run the switching recursion from z0 = (x0, y0) for an integer horizon.

    y0 = 1 requires x0 in (0, x_ref); y0 = 0 requires x0 in (0, x_ref] and
    inserts a decay segment until the clock pulse at t = 1.
    """
    require_valid(p)
    x0, y0 = z0
    if not (isinstance(horizon, (int, np.integer)) and horizon >= 0):
        raise DomainError(f"simulate_det: horizon={horizon!r} must be a non-negative integer")
    check_grid_size(2 * horizon + 1, "simulate_det: path segments")
    if y0 not in (MODE_ON, MODE_OFF):
        raise DomainError(f"simulate_det: mode y0={y0!r} not in {{0, 1}}")
    if y0 == MODE_ON and not 0.0 < x0 < p.x_ref:
        raise DomainError(f"simulate_det: x0={x0!r} outside (0, {p.x_ref}) for an ON start")
    if y0 == MODE_OFF and not 0.0 < x0 <= p.x_ref:
        raise DomainError(f"simulate_det: x0={x0!r} outside (0, {p.x_ref}] for an OFF start")

    horizon = int(horizon)
    seg_start: list[float] = []
    seg_mode: list[int] = []
    seg_ax: list[float] = []
    t_list: list[float] = []

    def add_segment(start: float, mode: int, anchor_x: float) -> None:
        seg_start.append(start)
        seg_mode.append(mode)
        seg_ax.append(anchor_x)

    T = float(horizon)
    if horizon == 0:
        sched = Schedule(np.empty(0), False, 0.0 if y0 == MODE_ON else 1.0)
        return DetPath(p, sched, np.array([0.0]), np.empty(0, dtype=int),
                       np.empty(0), (float(x0), int(y0)))

    start_on = 0.0
    cur_t = 0.0
    cur_x = float(x0)
    partial = False
    end_state: tuple[float, int] | None = None
    if y0 == MODE_OFF:
        # Decay from x0 until the first clock pulse at t = 1.
        add_segment(0.0, MODE_OFF, cur_x)
        start_on = 1.0
        cur_t = 1.0
        cur_x = cur_x * math.exp(-p.alpha_off)
        if horizon == 1:
            end_state = (cur_x, MODE_ON)

    while end_state is None:
        t_n = cur_t + on_hit_time(p, cur_x)
        add_segment(cur_t, MODE_ON, cur_x)
        if t_n > T:
            partial = True
            end_state = (on_flow(p, cur_x, T - cur_t), MODE_ON)
            break
        t_list.append(t_n)
        if t_n == T:
            # Threshold reached exactly at the horizon: switch, then stop.
            end_state = (p.x_ref, MODE_OFF)
            break
        add_segment(t_n, MODE_OFF, p.x_ref)
        cur_t = math.floor(t_n) + 1.0  # the restart, Schedule.sigmas
        cur_x = off_flow(p, cur_t - t_n)
        if cur_t == T:
            end_state = (cur_x, MODE_ON)

    sched = Schedule(np.asarray(t_list), partial, start_on)
    boundaries = np.append(np.asarray(seg_start), T)
    return DetPath(p, sched, boundaries, np.asarray(seg_mode, dtype=int),
                   np.asarray(seg_ax), end_state)


def sample_path(path: DetPath, step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample (t, x, y) on a uniform grid of the given step plus the horizon."""
    if not (math.isfinite(step) and step > 0.0):
        raise DomainError(f"sample_path: step={step!r} must be finite and > 0")
    span = path.horizon / step + 1e-9
    check_grid_size(span + 2, "sample_path: samples")
    n = int(math.floor(span))
    grid = np.minimum(np.arange(n + 1) * step, path.horizon)
    # The grid is sorted and only its last node can reach the horizon.
    t = grid if grid[-1] == path.horizon else np.append(grid, path.horizon)
    x, y = path.eval(t)
    return t, x, y

