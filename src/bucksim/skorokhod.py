"""Path distance for hybrid trajectories: time deformations and upper bounds.

Trajectories live in the cadlag path space over Z = R x {0, 1} with the
Euclidean state metric r(z1, z2) = sqrt(|x1 - x2|^2 + |y1 - y2|^2).  The
path distance over [0, T] is the infimum, over strictly increasing
continuous bijections lam of [0, T], of

    max( distortion(lam),  sup_t r(z1(t), z2(lam(t))) ),

where distortion(lam) = sup_{s<t} |log((lam(t) - lam(s)) / (t - s))|.  The
exact infimum is not computed here: every reported number is the bound
of an explicit candidate deformation (identity, or the piecewise-linear
alignment of two switching Schedules, align_schedules).  The brute-force
reference that the tests compare these bounds against lives in
tests/oracles.py.  The continuous part of the state mismatch is resolved
on a grid of step GRID_STEP = 1e-3, so a bound can fall short of the
candidate's true value, by at most about 4-5 % on the reference sweeps.

A bound evaluates the second path at the deformed grid and at the jump
points, and the first path only at the preimages of the second path's
jumps: its values on the grid and at its own jumps are memoised on a
DetPath, the first path of every bound in a sweep.  The state metric is
|dx| where the modes agree and hypot(|dx|, 1) where they differ, which is
np.hypot(dx, dy) bit for bit (up to the sign bit of a NaN).  A bound
walks its grid CHUNK_POINTS points at a time on the calling thread, and
the memo is filled the same way, so besides the path being bounded and
the memo (both grid-length) a bound's scratch is about CHUNK_POINTS
points, whatever the horizon.

For piecewise-linear lam the distortion equals max |log slope| over linear
pieces: any chord slope is a convex combination (weighted by time
fractions) of the piece slopes it spans, hence lies between the extreme
piece slopes, and log is monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deterministic import DetPath, Schedule
from .errors import DomainError, check_grid_size

# A bound walks its grid CHUNK_POINTS points at a time, so its scratch
# does not grow with the horizon (a 10 001-point grid is one chunk).
CHUNK_POINTS = 2 ** 14

# Step of the uniform distance grid, the only one a bound uses.
GRID_STEP = 1e-3


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


def align_schedules(det: Schedule, stoch: Schedule,
                    horizon: float) -> TimeDeformation | None:
    """The schedule-matching deformation, or None when it does not exist.

    Sends each deterministic switch pair (t_n, s_n) to the stochastic pair
    (tau_n, sigma_n), linearly in between, provided both schedules start ON
    at 0, neither ends in a partial ON phase, they have the same number of
    cycles, the restart times agree (sigma_n == s_n) and the last one is the
    horizon.  Outside that case there is no jump-aligning deformation of
    this form and the caller falls back to the identity.
    """
    n = det.cycles
    if (n == 0 or stoch.cycles != n or det.start_on != 0.0 or stoch.start_on != 0.0
            or det.partial_final_on or stoch.partial_final_on
            or det.sigmas[-1] != horizon or not np.array_equal(det.sigmas, stoch.sigmas)):
        return None
    kt = np.empty(2 * n + 1)
    kv = np.empty(2 * n + 1)
    kt[0] = kv[0] = 0.0
    kt[1::2] = det.taus
    kt[2::2] = det.sigmas
    kv[1::2] = stoch.taus
    kv[2::2] = stoch.sigmas
    if not (np.all(np.diff(kt) > 0) and np.all(np.diff(kv) > 0)):
        return None
    return TimeDeformation(kt, kv)


@dataclass(frozen=True)
class DistanceBound:
    """Path-distance bound of one candidate deformation, grid-resolved in x.

    gamma is the deformation distortion and sup_r the state mismatch
    maximized over the evaluation points.  The sup is exact in the mode
    component (all jump times and their preimages are evaluation points)
    and resolved on the GRID_STEP grid in the continuous component, so it
    may underestimate the candidate's continuous mismatch slightly.
    """

    gamma: float
    sup_r: float

    @property
    def bound(self) -> float:
        """max(gamma, sup_r), keeping a NaN (Python's max(0.0, nan) is 0.0)."""
        return float(np.maximum(self.gamma, self.sup_r))


def distance_grid_nodes(horizon: float) -> int:
    """Nodes of the uniform distance grid over [0, horizon]; checked against the grid cap."""
    span = horizon / GRID_STEP
    check_grid_size(span + 1, "distance evaluation grid", "use a shorter horizon")
    return max(1, int(math.ceil(span))) + 1


def _on_uniform_grid(z) -> tuple[np.ndarray, ...]:
    """z on the uniform distance grid and at its own jump times in [0, T].

    Returns (grid, x, y, jump times, x, y); memoised on a DetPath, the z1
    of every bound in a sweep.  z.eval runs CHUNK_POINTS grid points at a
    time into the memo's arrays, so its scratch does not grow with T.
    """
    memo = z.grid_memo if isinstance(z, DetPath) else None
    if memo is None:
        grid = np.linspace(0.0, z.horizon, distance_grid_nodes(z.horizon))
        gx, gy = np.empty(len(grid)), np.empty(len(grid), dtype=np.int8)
        for lo in range(0, len(grid), CHUNK_POINTS):
            part = slice(lo, lo + CHUNK_POINTS)
            gx[part], gy[part] = z.eval(grid[part])
        jumps = np.asarray(z.jump_times, dtype=float)
        jumps = jumps[(jumps >= 0.0) & (jumps <= z.horizon)]
        memo = (grid, gx, gy, jumps, *z.eval(jumps))
        for a in memo:
            a.setflags(write=False)  # shared by every later call
        if isinstance(z, DetPath):
            object.__setattr__(z, "grid_memo", memo)  # DetPath is frozen
    return memo


def _state_gaps(x1, y1, x2, y2) -> np.ndarray:
    """r(z1, z2) pointwise; bit for bit np.hypot(x1 - x2, y1 - y2) for modes in {0, 1}.

    Where the modes agree that is |x1 - x2|, since hypot(x, +-0) is fabs(x)
    (C99 Annex F); where they differ it is hypot(|x1 - x2|, 1), since hypot
    is even in each argument.  A NaN gap stays NaN but loses its sign bit.
    """
    r = np.subtract(x1, x2)
    np.abs(r, out=r)
    return np.hypot(r, 1.0, out=r, where=y1 != y2)


def skorokhod_upper_bound(z1, z2, lam: TimeDeformation) -> DistanceBound:
    """Distance bound from one explicit candidate deformation.

    Evaluation points: the uniform grid of step GRID_STEP over [0, T], all
    jump times of z1, and the lam-preimages of all jump times of z2; the
    0-or-1 mode mismatch is therefore captured exactly.  z2 is evaluated
    twice, at the grid and at the jump points; z1 only at the preimages,
    the rest is memoised on a DetPath.  The grid part is walked
    CHUNK_POINTS points at a time; the chunks' maxima are combined with
    np.maximum, which keeps a NaN from any of them.
    """
    T = z1.horizon
    if abs(z2.horizon - T) > 1e-9 or abs(lam.horizon - T) > 1e-9:
        raise DomainError("skorokhod_upper_bound: horizons must match")
    grid, gx1, gy1, j1, jx1, jy1 = _on_uniform_grid(z1)
    # lam.inverse() at z2's jumps, without building the inverse.
    j2 = np.interp(np.asarray(z2.jump_times, dtype=float), lam.knots_v, lam.knots_t)
    j2 = j2[(j2 >= 0.0) & (j2 <= T)]
    px1, py1 = z1.eval(j2)
    jumps = np.concatenate([j1, j2])
    identity = len(lam.knots_t) == 2
    on_grid = -np.inf
    for lo in range(0, len(grid), CHUNK_POINTS):
        part = slice(lo, lo + CHUNK_POINTS)
        # A two-knot deformation is the identity: the grid is its own image.
        q = grid[part] if identity else np.clip(lam(grid[part]), 0.0, T)
        on_grid = np.maximum(on_grid, _state_gaps(gx1[part], gy1[part], *z2.eval(q)).max())
    at_jumps = _state_gaps(np.concatenate([jx1, px1]), np.concatenate([jy1, py1]),
                           *z2.eval(np.clip(lam(jumps), 0.0, T))).max(initial=0.0)
    sup_r = float(np.maximum(on_grid, at_jumps))  # a NaN gap propagates
    return DistanceBound(gamma=lam.distortion(), sup_r=sup_r)
