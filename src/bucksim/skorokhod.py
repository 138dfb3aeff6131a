"""Path distance for hybrid trajectories: time deformations and upper bounds.

Trajectories live in the cadlag path space over Z = R x {0, 1} with the
Euclidean state metric r(z1, z2) = sqrt(|x1 - x2|^2 + |y1 - y2|^2).  The
path distance over [0, T] is the infimum, over strictly increasing
continuous bijections lam of [0, T], of

    max( distortion(lam),  sup_t r(z1(t), z2(lam(t))) ),

where distortion(lam) = sup_{s<t} |log((lam(t) - lam(s)) / (t - s))|.  The
exact infimum is not computed here: every reported number is the bound
of an explicit candidate deformation (identity, or the piecewise-linear
alignment of switching schedules), plus a brute-force search over small
candidate families that serves as a reference on small instances.  The
continuous part of the state mismatch is resolved on a grid (step
GRID_STEP = 1e-3 by default), so a bound can fall short of the
candidate's true value, by at most about 4-5 % on the reference sweeps.

A bound evaluates the second path at the deformed grid and at the jump
points, and the first path only at the preimages of the second path's
jumps: its values on the grid and at its own jumps are memoised on a
DetPath, the first path of every bound in a sweep.  The state metric is
|dx| where the modes agree and hypot(|dx|, 1) where they differ, which is
np.hypot(dx, dy) bit for bit (up to the sign bit of a NaN).  Long grids
are split into contiguous parts on the process's threads; the maximum is
exact, so no bound depends on the thread count.

For piecewise-linear lam the distortion equals max |log slope| over linear
pieces: any chord slope is a convex combination (weighted by time
fractions) of the piece slopes it spans, hence lies between the extreme
piece slopes, and log is monotone.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import parallel
from .deterministic import DetPath, DetSchedule
from .errors import DomainError, check_grid_size
from .stochastic import ReplicaSchedule

# The grid part of a bound is split across threads in parts of at least
# this many points: shorter parts lose more to handing the interpreter lock
# between threads than they gain.
SPLIT_POINTS = 2 ** 14

# Step of the uniform distance grid; the sweep and the CLI always use it.
GRID_STEP = 1e-3


def hybrid_distance(z1: tuple[float, float], z2: tuple[float, float]) -> float:
    """Euclidean metric on R x {0,1}: sqrt(|x1-x2|^2 + |y1-y2|^2)."""
    return math.hypot(z1[0] - z2[0], z1[1] - z2[1])


@dataclass(frozen=True)
class TimeDeformation:
    """Strictly increasing piecewise-linear bijection of [0, T] onto itself."""

    knots_t: np.ndarray
    knots_v: np.ndarray

    def __post_init__(self):
        kt = np.asarray(self.knots_t, dtype=float)
        kv = np.asarray(self.knots_v, dtype=float)
        object.__setattr__(self, "knots_t", kt)
        object.__setattr__(self, "knots_v", kv)
        if len(kt) < 2 or len(kt) != len(kv):
            raise DomainError("deformation needs matching knot arrays of length >= 2")
        if not (np.all(np.diff(kt) > 0) and np.all(np.diff(kv) > 0)):
            raise DomainError("deformation knots must be strictly increasing")
        if kt[0] != 0.0 or kv[0] != 0.0 or kt[-1] != kv[-1]:
            raise DomainError("deformation must map [0, T] onto [0, T]")

    @staticmethod
    def identity(horizon: float) -> "TimeDeformation":
        return TimeDeformation(np.array([0.0, horizon]), np.array([0.0, horizon]))

    @property
    def horizon(self) -> float:
        return float(self.knots_t[-1])

    def __call__(self, t) -> np.ndarray:
        return np.interp(t, self.knots_t, self.knots_v)

    def inverse(self) -> "TimeDeformation":
        return TimeDeformation(self.knots_v, self.knots_t)

    def slopes(self) -> np.ndarray:
        return np.diff(self.knots_v) / np.diff(self.knots_t)

    def distortion(self) -> float:
        """sup |log chord slope|; attained on a single linear piece."""
        return float(np.abs(np.log(self.slopes())).max())


def align_schedules(det: DetSchedule, stoch: ReplicaSchedule,
                    horizon: float) -> TimeDeformation | None:
    """The schedule-matching deformation, or None when it does not exist.

    Sends each deterministic switch pair (t_n, s_n) to the stochastic pair
    (tau_n, sigma_n), linearly in between, provided both schedules consist
    of the same number of complete cycles on [0, horizon] and the integer
    restart times agree (sigma_n == s_n, with the last one equal to the
    horizon).  Outside that case there is no jump-aligning deformation of
    this form and the caller falls back to the identity.
    """
    n_det = len(det.on_to_off)
    if (det.start_on != 0.0 or stoch.partial_final_on
            or len(det.off_to_on) != n_det or len(stoch.sigmas) != len(stoch.taus)
            or len(stoch.taus) != n_det):
        return None
    if n_det == 0:
        return TimeDeformation.identity(horizon) if horizon > 0 else None
    if det.off_to_on[-1] != horizon or not np.array_equal(det.off_to_on, stoch.sigmas):
        return None
    kt = np.empty(2 * n_det + 1)
    kv = np.empty(2 * n_det + 1)
    kt[0] = kv[0] = 0.0
    kt[1::2] = det.on_to_off
    kt[2::2] = det.off_to_on
    kv[1::2] = stoch.taus
    kv[2::2] = stoch.sigmas
    if not (np.all(np.diff(kt) > 0) and np.all(np.diff(kv) > 0)):
        return None
    return TimeDeformation(kt, kv)


@dataclass(frozen=True)
class DistanceBound:
    """Path-distance bound of one candidate deformation, grid-resolved in x.

    bound = max(gamma, sup_r), where gamma is the deformation distortion and
    sup_r the state mismatch maximized over the evaluation points.  The sup
    is exact in the mode component (all jump times and their preimages are
    evaluation points) and grid-resolved in the continuous component, so it
    may underestimate the candidate's continuous mismatch slightly.
    """

    gamma: float
    sup_r: float
    bound: float
    method: str


@dataclass(frozen=True)
class WarpedPath:
    """Time-reparameterized view of a base path: eval(q) = base.eval(warp(q))."""

    base: object
    warp: TimeDeformation

    def __post_init__(self):
        if abs(self.warp.horizon - self.base.horizon) > 1e-9:
            raise DomainError("warp horizon must match the base path horizon")

    @property
    def horizon(self) -> float:
        return self.base.horizon

    @property
    def jump_times(self) -> np.ndarray:
        return np.sort(self.warp.inverse()(self.base.jump_times))

    def eval(self, q):
        qa = np.atleast_1d(np.asarray(q, dtype=float))
        out = self.base.eval(np.clip(self.warp(qa), 0.0, self.base.horizon))
        if np.isscalar(q) or np.asarray(q).ndim == 0:
            return float(out[0][0]), int(out[1][0])
        return out


def distance_grid_nodes(horizon: float, grid_step: float = GRID_STEP) -> int:
    """Nodes of the uniform distance grid over [0, horizon]; checked against the grid cap."""
    span = horizon / grid_step
    check_grid_size(span + 1, "distance evaluation grid")
    return max(1, int(math.ceil(span))) + 1


def _on_uniform_grid(z, grid_step: float) -> tuple[np.ndarray, ...]:
    """z on the uniform distance grid and at its own jump times in [0, T].

    Returns (grid, x, y, jump times, x, y); memoised on a DetPath, the z1
    of every bound in a sweep.
    """
    memo = z.grid_memo if isinstance(z, DetPath) else {}
    if grid_step not in memo:
        grid = np.linspace(0.0, z.horizon, distance_grid_nodes(z.horizon, grid_step))
        jumps = np.asarray(z.jump_times, dtype=float)
        jumps = jumps[(jumps >= 0.0) & (jumps <= z.horizon)]
        memo[grid_step] = (grid, *z.eval(grid), jumps, *z.eval(jumps))
        for a in memo[grid_step]:
            a.setflags(write=False)  # shared by every later call
    return memo[grid_step]


def _state_gaps(x1, y1, x2, y2) -> np.ndarray:
    """r(z1, z2) pointwise; bit for bit np.hypot(x1 - x2, y1 - y2) for modes in {0, 1}.

    Where the modes agree that is |x1 - x2|, since hypot(x, +-0) is fabs(x)
    (C99 Annex F); where they differ it is hypot(|x1 - x2|, 1), since hypot
    is even in each argument.  A NaN gap stays NaN but loses its sign bit.
    """
    r = np.subtract(x1, x2)
    np.abs(r, out=r)
    return np.hypot(r, 1.0, out=r, where=y1 != y2)


def skorokhod_upper_bound(z1, z2, lam: TimeDeformation, grid_step: float = GRID_STEP,
                          method: str = "deformation") -> DistanceBound:
    """Distance bound from one explicit candidate deformation.

    Evaluation points: a uniform grid of the given step over [0, T], all
    jump times of z1, and the lam-preimages of all jump times of z2; the
    0-or-1 mode mismatch is therefore captured exactly.  z2 is evaluated
    twice, at the grid and at the jump points; z1 only at the preimages,
    the rest is memoised on a DetPath.  The grid part runs in parts of at
    least SPLIT_POINTS points on the process's threads, so z2.eval must be
    safe to call from several threads at once; the parts' maxima are
    combined with np.maximum, which keeps a NaN from any part.
    """
    T = z1.horizon
    if abs(z2.horizon - T) > 1e-9 or abs(lam.horizon - T) > 1e-9:
        raise DomainError("skorokhod_upper_bound: horizons must match")
    grid, gx1, gy1, j1, jx1, jy1 = _on_uniform_grid(z1, grid_step)
    # lam.inverse() at z2's jumps, without building the inverse.
    j2 = np.interp(np.asarray(z2.jump_times, dtype=float), lam.knots_v, lam.knots_t)
    j2 = j2[(j2 >= 0.0) & (j2 <= T)]
    px1, py1 = z1.eval(j2)
    jumps = np.concatenate([j1, j2])
    identity = len(lam.knots_t) == 2

    def grid_sup(lo: int, hi: int):
        # A two-knot deformation is the identity: the grid is its own image.
        q = grid[lo:hi] if identity else np.clip(lam(grid[lo:hi]), 0.0, T)
        return _state_gaps(gx1[lo:hi], gy1[lo:hi], *z2.eval(q)).max()

    on_grid = np.maximum.reduce(parallel.split(grid_sup, len(grid), SPLIT_POINTS))
    at_jumps = _state_gaps(np.concatenate([jx1, px1]), np.concatenate([jy1, py1]),
                           *z2.eval(np.clip(lam(jumps), 0.0, T))).max(initial=0.0)
    sup_r = float(np.maximum(on_grid, at_jumps))  # a NaN gap propagates
    gamma = lam.distortion()
    return DistanceBound(gamma=gamma, sup_r=sup_r, bound=max(gamma, sup_r), method=method)


def skorokhod_uniform(z1, z2, grid_step: float = GRID_STEP) -> DistanceBound:
    """The uniform-metric bound (identity deformation)."""
    return skorokhod_upper_bound(z1, z2, TimeDeformation.identity(z1.horizon),
                                 grid_step=grid_step, method="identity")


MAX_BRUTEFORCE_HORIZON = 3.0
MAX_BRUTEFORCE_JUMPS = 4


def skorokhod_bruteforce(z1, z2, candidates_per_jump: int = 9,
                         grid_step: float = 2e-3,
                         refine_rounds: int = 40) -> DistanceBound:
    """Small-instance reference: minimize the bound over candidate deformations.

    Candidate deformations keep knots at the jump times of z1 and scan a
    grid of images around the corresponding jump times of z2 (the exact
    correspondence included), then refine the best candidate by coordinate
    descent.  The result is still an upper bound on the distance; it
    converges toward the metric as the candidate family grows.  Refuses
    horizons above 3 or more than 4 jumps per path; mismatched jump counts
    fall back to the identity bound (a mode mismatch of size 1 is then
    unavoidable under the candidate family).
    """
    T = z1.horizon
    if abs(z2.horizon - T) > 1e-9:
        raise DomainError("skorokhod_bruteforce: horizons must match")
    a = np.asarray(z1.jump_times, dtype=float)
    b = np.asarray(z2.jump_times, dtype=float)
    if T > MAX_BRUTEFORCE_HORIZON + 1e-9 or max(len(a), len(b)) > MAX_BRUTEFORCE_JUMPS:
        raise DomainError("skorokhod_bruteforce: instance too large for the oracle")
    if len(a) != len(b):
        return skorokhod_uniform(z1, z2, grid_step=grid_step)
    if len(a) == 0:
        return skorokhod_uniform(z1, z2, grid_step=grid_step)

    def bound_for(images: np.ndarray) -> float:
        lam = TimeDeformation(np.concatenate([[0.0], a, [T]]),
                              np.concatenate([[0.0], images, [T]]))
        return skorokhod_upper_bound(z1, z2, lam, grid_step=grid_step).bound

    fences = np.concatenate([[0.0], b, [T]])
    spans = 0.45 * np.minimum(np.diff(fences)[:-1], np.diff(fences)[1:])
    grids = []
    for j in range(len(b)):
        g = b[j] + spans[j] * np.linspace(-1.0, 1.0, candidates_per_jump)
        g = g[(g > 0.0) & (g < T)]
        grids.append(np.unique(np.append(g, b[j])))

    best_val = math.inf
    best = None
    for combo in itertools.product(*grids):
        images = np.asarray(combo)
        if np.any(np.diff(images) <= 0.0):
            continue
        val = bound_for(images)
        key = (val, tuple(images))
        if best is None or key < (best_val, tuple(best)):
            best_val, best = val, images

    # Coordinate descent around the best grid candidate.
    step = float(spans.min()) / candidates_per_jump
    images = best.copy()
    for _ in range(refine_rounds):
        improved = False
        for j in range(len(images)):
            for cand in (images[j] - step, images[j] + step):
                trial = images.copy()
                trial[j] = cand
                full = np.concatenate([[0.0], trial, [T]])
                if np.any(np.diff(full) <= 0.0):
                    continue
                val = bound_for(trial)
                if val < best_val:
                    best_val, images = val, trial
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-6:
                break

    lam = TimeDeformation(np.concatenate([[0.0], a, [T]]),
                          np.concatenate([[0.0], images, [T]]))
    out = skorokhod_upper_bound(z1, z2, lam, grid_step=grid_step, method="bruteforce")
    # identity is always admissible; never report worse than it
    ident = skorokhod_uniform(z1, z2, grid_step=grid_step)
    if ident.bound < out.bound:
        return dataclasses.replace(ident, method="bruteforce")
    return out
