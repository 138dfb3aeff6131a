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

A sweep bounds each batch with _batch_bounds first: it decides in closed
form the bounds of aligned replicas whose certified state mismatch is at
most the distortion, each as the walk's own double; only the others are
walked.  The certificate bounds the continuous mismatch, not only its grid
values, so a decided bound, the distortion, is its deformation's exact
value: the grid caveat above holds only for walked bounds.

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
from .stochastic import BatchResult

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


# The closed-form decisions of _batch_bounds keep an absolute slack of
# 1e-9.  The rounding they must cover, of lam(t), np.interp and exp, stays
# below about 1e-11 up to the longest horizon under the grid cap (about
# 3.4e4), so 1e-9 is ample.  A grid point nearer than that to an orbit knot
# but not on it would leave the modes there to rounding.
_SLACK = 1e-9


def _batch_bounds(det: DetPath, res: BatchResult,
                  lams: list[TimeDeformation]) -> np.ndarray:
    """skorokhod_upper_bound(det, res.path(b), lams[b]).bound of each aligned replica, in closed form.

    The same double as the grid walk wherever it is decided; NaN for every
    identity replica, for any replica whose walk gives NaN and for aligned
    ones the certificate below does not decide, and the caller walks the
    grid for those.  lams[b] is the identity or the aligning deformation of
    replica b, and det the orbit of every replica from the batch's start,
    with the memo of the walk.

    An aligned replica reports gamma = lam.distortion() when the certified
    bound U of its state mismatch (_aligned_mismatch) is at most gamma: the
    walk's sup_r never exceeds U, and its bound is max(gamma, sup_r).  That
    takes the modes to agree at every evaluation point.  Jump points are
    knots of lam, whose images np.interp returns exactly, so they do; so
    does a grid point at least _SLACK from every knot, under lam's slopes of
    at least 1/e (gamma <= 1).  A grid point nearer to a knot sends every
    aligned replica of the batch to the walk.
    """
    memo = _on_uniform_grid(det)
    out = np.full(len(lams), np.nan)
    aligned = [b for b, lam in enumerate(lams) if len(lam.knots_t) > 2]
    if aligned and _clear_of_knots(memo[0], lams[aligned[0]].knots_t):
        gamma = np.array([lams[b].distortion() for b in aligned])
        U = _aligned_mismatch(det, res, aligned)
        decided = (U <= gamma) & (gamma <= 1.0)  # a NaN U is not decided
        out[np.asarray(aligned)[decided]] = gamma[decided]
    return out


def _clear_of_knots(grid: np.ndarray, knots: np.ndarray) -> bool:
    """Every grid point is one of the knots or more than _SLACK from all of them."""
    above = np.minimum(np.searchsorted(grid, knots), len(grid) - 1)
    near = np.concatenate([grid[above], grid[np.maximum(above - 1, 0)]]) - np.tile(knots, 2)
    return bool(np.all((near == 0.0) | (np.abs(near) > _SLACK)))


def _aligned_mismatch(det: DetPath, res: BatchResult, rows: list[int]) -> np.ndarray:
    """Upper bound U of sup_t |x1(t) - x2(lam(t))| for the aligned replicas rows of res.

    NaN for a replica that spilled or whose cycles are not one a period.
    With orbit passage t_k, noisy passage tau_k, d = t_k - k, D = tau_k - k
    and h = 1 / spu, lam is affine on each phase, so per period:

      * ON, [k, tau_k]: x1(lam^-1(u)) is concave in u (the ON orbit is
        concave below m = beta / alpha_on) and x2 is linear between its
        nodes and the passage knot (tau_k, x_ref), where both are x_ref.  So
        the mismatch is at most the largest gap at the stored ON nodes
        j = 0 .. J_k, plus the chord error h^2/8 alpha_on^2 (m - x1(k)) (d/D)^2.
        Node 0 is the restart value, or x0 at k = 0.
      * OFF, [tau_k, k + 1]: with c = (k + 1 - tau_k) / (k + 1 - t_k), the
        mismatch is x_ref |e^{-alpha_off w} - e^{-alpha_off c w}| at w = s - t_k,
        whose one peak is w = ln c / (alpha_off (c - 1)), clipped to the
        phase, plus the chord error h^2/8 alpha_off^2 x_ref of x2.

    The ON nodes are read CHUNK_POINTS elements at a time from the window.
    """
    p, T, W = res.params, *res.window.shape[1:]
    spu = (len(res.grid_t) - 1) // T
    h = 1.0 / spu
    m, a_on, a_off, x_ref = p.equilibrium, p.alpha_on, p.alpha_off, p.x_ref
    U = np.full(len(rows), np.nan)
    ok = [i for i, b in enumerate(rows) if len(res.schedules[b].taus) == T and not res.spills[b]]
    if not ok:
        return U
    rows = np.asarray(rows)[ok]
    k = np.arange(T)
    t_det = det.schedule.taus
    x1k = det.eval(k.astype(float))[0]           # orbit at each restart
    taus = np.array([res.schedules[b].taus for b in rows])
    J = np.array([res.passage_steps[b] for b in rows]) - k * spu
    x2k = np.empty_like(taus)                    # noisy x at each restart
    x2k[:, 0] = res.x0
    x2k[:, 1:] = x_ref * np.exp(-a_off * (k[1:] - taus[:, :-1]))
    ratio = (t_det - k) / (taus - k)             # d / D, the slope of lam^-1 on ON
    U_on = np.abs(x1k - x2k)
    # Nodes j = 1 .. W of period k of `per` replicas at a time.
    per = max(1, CHUNK_POINTS // W)
    gap = np.empty((min(per, len(rows)), W))
    offsets = np.arange(1, W + 1) / spu
    cols = np.arange(W)
    for kk in range(T):
        for lo in range(0, len(rows), per):
            r = slice(lo, lo + per)
            g = gap[:len(rows[r])]
            np.multiply.outer(-a_on * ratio[r, kk], offsets, out=g)
            np.exp(g, out=g)
            g *= m - x1k[kk]
            g -= m                               # -x1(lam^-1(u_j))
            g += res.window[rows[r], kk]
            np.abs(g, out=g)
            np.copyto(g, 0.0, where=cols >= J[r, kk, None])
            np.maximum(U_on[r, kk], g.max(axis=1), out=U_on[r, kk])
    # A passage just after its clock time makes ratio huge: an inf U decides no replica.
    with np.errstate(over="ignore"):
        U_on += h * h / 8.0 * a_on * a_on * (m - x1k) * ratio * ratio
    span = (k + 1) - t_det
    c = ((k + 1) - taus) / span
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(c == 1.0, 0.0, np.log(c) / (a_off * (c - 1.0)))
    w = np.clip(w, 0.0, span)
    U_off = x_ref * np.abs(np.exp(-a_off * w) - np.exp(-a_off * c * w))
    U_off += h * h / 8.0 * a_off * a_off * x_ref
    U[ok] = np.maximum(U_on, U_off).max(axis=1) + _SLACK
    return U
