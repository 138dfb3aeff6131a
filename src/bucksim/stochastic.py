"""Simulation of the noise-perturbed switching system.

In the ON state the current follows the linear SDE
dX = (-alpha_on X + beta) dt + eps dW, which is an Ornstein-Uhlenbeck
process: its transition law over any step is Gaussian with known mean and
variance, so grid stepping uses the exact law and carries no integrator
bias.  The only approximation is first-passage detection of the threshold
x_ref, refined below the grid by linear interpolation at endpoint crossings
and, optionally, by a Brownian-bridge crossing test inside non-crossing
steps.  The OFF state is deterministic decay and is evaluated closed-form;
its grid samples exist only for output.

Replica k of an ensemble draws from a counter-based Philox stream derived
from (seed, k), so ensembles are reproducible independent of batching or
scheduling.  Within a replica the draw consumed at grid step i is always
element i of its stream (normals first, then uniforms when the bridge test
is enabled), which makes paths bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .deterministic import MODE_OFF, MODE_ON
from .errors import ConfigError, DomainError, check_grid_size
from .params import ConverterParams, require_valid


def ou_step(p: ConverterParams, x: float, h: float, eps: float, gauss: float) -> float:
    """Exact ON-state transition over a step of length h.

    Returns m + (x - m) e^{-a h} + sd(h) * gauss with m = beta/alpha_on and
    sd(h) = eps sqrt((1 - e^{-2 a h}) / (2 a)); `gauss` is a standard-normal
    draw.  With eps = 0 this reduces exactly to the deterministic flow.
    """
    if h < 0:
        raise DomainError(f"ou_step: h={h!r} must be >= 0")
    m = p.equilibrium
    return m + (x - m) * math.exp(-p.alpha_on * h) + ou_step_sd(p, h, eps) * gauss


def ou_step_sd(p: ConverterParams, h: float, eps: float) -> float:
    """Conditional standard deviation of the exact ON transition over h."""
    decay = math.exp(-p.alpha_on * h)
    return eps * math.sqrt((1.0 - decay * decay) / (2.0 * p.alpha_on))


def crossing_probability(x1: float, x2: float, level: float, h: float, eps: float) -> float:
    """Brownian-bridge probability that a step with endpoints below `level` touched it.

    exp(-2 (level - x1)(level - x2) / (eps^2 h)); endpoints exactly at the
    level give 1.  Endpoints above the level are the caller's crossing case
    and are rejected.  An eps^2 h that underflows to 0 is treated as eps = 0.
    """
    if x1 > level or x2 > level:
        raise DomainError("crossing_probability: endpoint above the level is a crossing")
    if h <= 0:
        raise DomainError(f"crossing_probability: h={h!r} must be > 0")
    var = eps * eps * h
    if var == 0.0:
        return 1.0 if (x1 == level or x2 == level) else 0.0
    return math.exp(-2.0 * (level - x1) * (level - x2) / var)


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
class ReplicaSchedule:
    """Switching times of one stochastic replica.

    taus[n] is the n-th threshold passage, sigmas[n] the strictly-next
    integer after it.  The final sigma may exceed the horizon (OFF phase
    truncated); partial_final_on marks an ON phase begun strictly before
    the horizon that never crossed (its tau is absent).
    """

    taus: np.ndarray
    sigmas: np.ndarray
    partial_final_on: bool

    @property
    def cycles(self) -> int:
        return len(self.taus)


@dataclass(frozen=True)
class StochPath:
    """One simulated replica: grid samples plus its switching schedule."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    schedule: ReplicaSchedule
    config: StochConfig
    replica: int
    level: float  # threshold the path was clamped to at passages (x_ref)

    @property
    def horizon(self) -> float:
        return float(self.t[-1])

    @property
    def jump_times(self) -> np.ndarray:
        s = self.schedule
        times = np.concatenate([s.taus, s.sigmas])
        times = times[(times > 0.0) & (times < self.horizon)]
        return np.sort(times)

    def eval(self, q) -> tuple[np.ndarray, np.ndarray]:
        """State (x, y) at time(s) q; linear between grid knots, exact at passages."""
        qa = np.atleast_1d(np.asarray(q, dtype=float))
        if qa.size and (qa.min() < 0.0 or qa.max() > self.horizon):
            raise DomainError(f"eval: time outside [0, {self.horizon}]")
        x, y = eval_sampled_path(self.t, self.x, self.schedule.taus,
                                 self.schedule.sigmas, self.level, qa)
        if np.isscalar(q) or np.asarray(q).ndim == 0:
            return float(x[0]), int(y[0])
        return x, y

    def slope_bound(self) -> float:
        """Max interpolant slope between consecutive sample knots."""
        dx = np.abs(np.diff(self.x))
        dt = np.diff(self.t)
        return float((dx / dt).max()) if len(dx) else 0.0


def eval_sampled_path(grid_t: np.ndarray, grid_x: np.ndarray, taus: np.ndarray,
                      sigmas: np.ndarray, level: float, q: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a grid-sampled hybrid path at query times q.

    x is linear between knots; the knot set is the sample grid augmented
    with the passage times, where x equals the clamp level exactly.  y is
    right-continuous: ON before each tau, OFF until the matching sigma.
    """
    if len(taus):
        ins = np.searchsorted(grid_t, taus)
        knot_t = np.insert(grid_t, ins, taus)
        knot_x = np.insert(grid_x, ins, level)
    else:
        knot_t, knot_x = grid_t, grid_x
    x = np.interp(q, knot_t, knot_x)
    bnds = np.empty(2 * len(taus))
    bnds[0::2] = taus
    bnds[1::2] = sigmas
    idx = np.searchsorted(bnds, q, side="right")
    y = np.where(idx % 2 == 0, MODE_ON, MODE_OFF).astype(np.int8)
    return x, y


@dataclass
class BatchResult:
    """Ensemble slice: schedules always, grid samples when requested."""

    grid_t: np.ndarray
    schedules: list[ReplicaSchedule]
    xs: np.ndarray | None
    ys: np.ndarray | None


def simulate_batch(p: ConverterParams, x0: float, cfg: StochConfig,
                   replica_ids: Sequence[int], record_paths: bool = True) -> BatchResult:
    """Simulate a batch of replicas on the shared grid.

    All replicas start from (x0, ON).  The grid time of step i is i / spu
    computed as an exact float ratio, so integer clock times are hit
    exactly.  Per grid step: exact OU update for ON replicas, passage
    detection (endpoint crossing, interpolated tau; optional bridge test,
    mid-step tau), closed-form OFF decay anchored at the last passage, and
    OFF->ON restarts at integer nodes.
    """
    require_valid(p)
    cfg.validate()
    if not 0.0 < x0 < p.x_ref:
        raise DomainError(f"simulate_batch: x0={x0!r} outside (0, {p.x_ref})")
    spu = cfg.steps_per_unit()
    n = int(cfg.horizon) * spu
    B = len(replica_ids)
    check_grid_size(B * cfg.grid_nodes(), "simulate_batch: replicas x grid nodes")
    eps = float(cfg.epsilon)
    a_on, a_off = p.alpha_on, p.alpha_off
    x_ref = p.x_ref
    m = p.equilibrium
    h = 1.0 / spu
    decay_on = math.exp(-a_on * h)
    sd = ou_step_sd(p, h, eps)
    # An eps^2 h that underflows to 0 makes every bridge probability 0.
    bridge = cfg.bridge_correction and eps * eps * h > 0.0
    inv_var = 2.0 / (eps * eps * h) if bridge else 0.0

    grid_t = np.arange(n + 1) / spu

    if eps > 0.0:
        normals = np.empty((B, n))
        uniforms = np.empty((B, n)) if bridge else None
        for j, r in enumerate(replica_ids):
            g = replica_generator(cfg.seed, int(r), cfg.stream)
            normals[j] = g.standard_normal(n)
            if bridge:
                uniforms[j] = g.random(n)
    else:
        normals = uniforms = None

    x = np.full(B, float(x0))
    on = np.ones(B, dtype=bool)
    tau_last = np.full(B, np.nan)
    sig_pending = np.full(B, np.inf)
    on_start = np.zeros(B)
    taus: list[list[float]] = [[] for _ in range(B)]
    sigmas: list[list[float]] = [[] for _ in range(B)]

    if record_paths:
        xs = np.empty((B, n + 1))
        ys = np.empty((B, n + 1), dtype=np.int8)
        xs[:, 0] = x
        ys[:, 0] = MODE_ON
    else:
        xs = ys = None

    for i in range(n):
        t0 = i / spu
        t1 = (i + 1) / spu
        on_idx = np.nonzero(on)[0]
        if on_idx.size:
            xa = x[on_idx]
            if eps > 0.0:
                xm = m + (xa - m) * decay_on + sd * normals[on_idx, i]
            else:
                xm = m + (xa - m) * decay_on
            crossed = xm >= x_ref
            tau_vals = np.empty(on_idx.size)
            if crossed.any():
                # den == 0 only when the phase both starts and ends exactly at
                # the threshold; place tau at the step start then.
                den = np.maximum(xm[crossed] - xa[crossed], 1e-300)
                frac = (x_ref - xa[crossed]) / den
                tau_vals[crossed] = t0 + h * frac
            if bridge:
                nc = ~crossed
                if nc.any():
                    pb = np.exp(-inv_var * (x_ref - xa[nc]) * (x_ref - xm[nc]))
                    hit = uniforms[on_idx[nc], i] < pb
                    if hit.any():
                        sub = np.nonzero(nc)[0][hit]
                        crossed[sub] = True
                        tau_vals[sub] = t0 + 0.5 * h
            if crossed.any():
                cross_idx = on_idx[crossed]
                tv = tau_vals[crossed]
                sv = np.floor(tv) + 1.0
                x[cross_idx] = x_ref * np.exp(-a_off * (t1 - tv))
                on[cross_idx] = False
                tau_last[cross_idx] = tv
                sig_pending[cross_idx] = sv
                for k, b in enumerate(cross_idx):
                    taus[b].append(float(tv[k]))
                    sigmas[b].append(float(sv[k]))
            keep = on_idx[~crossed]
            if keep.size:
                x[keep] = xm[~crossed]
        off_idx = np.nonzero(~on)[0]
        if off_idx.size:
            x[off_idx] = x_ref * np.exp(-a_off * (t1 - tau_last[off_idx]))
        if (i + 1) % spu == 0:
            restart = (~on) & (sig_pending == t1)
            if restart.any():
                on[restart] = True
                on_start[restart] = t1
        if record_paths:
            xs[:, i + 1] = x
            ys[:, i + 1] = np.where(on, MODE_ON, MODE_OFF)

    horizon = float(cfg.horizon)
    schedules = [
        ReplicaSchedule(
            taus=np.asarray(taus[b]),
            sigmas=np.asarray(sigmas[b]),
            partial_final_on=bool(on[b] and on_start[b] < horizon and cfg.horizon > 0),
        )
        for b in range(B)
    ]
    return BatchResult(grid_t=grid_t, schedules=schedules, xs=xs, ys=ys)


def simulate_stoch(p: ConverterParams, z0: tuple[float, int], cfg: StochConfig,
                   replica: int = 0) -> StochPath:
    """Simulate a single replica from z0 = (x0, 1)."""
    x0, y0 = z0
    if y0 != MODE_ON:
        raise DomainError("simulate_stoch: the initial mode must be ON")
    res = simulate_batch(p, x0, cfg, [replica], record_paths=True)
    return StochPath(
        t=res.grid_t,
        x=res.xs[0],
        y=res.ys[0],
        schedule=res.schedules[0],
        config=cfg,
        replica=replica,
        level=p.x_ref,
    )
