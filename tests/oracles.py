"""Reference path-distance computations that the acceptance criteria compare against.

Criterion 10 and the oracle tests check the library's deformation bounds
(bucksim.skorokhod) against these: the uniform-metric bound of the
identity, a brute-force minimum over small candidate families of
deformations, and a time-warped view of a path whose aligning deformation
is known exactly.  Nothing in the package or its CLI uses them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from bucksim import DomainError, TimeDeformation, skorokhod_upper_bound
from bucksim.skorokhod import GRID_STEP, DistanceBound


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


def skorokhod_uniform(z1, z2, grid_step: float = GRID_STEP) -> DistanceBound:
    """The uniform-metric bound (identity deformation)."""
    return skorokhod_upper_bound(z1, z2, TimeDeformation.identity(z1.horizon),
                                 grid_step=grid_step)


MAX_BRUTEFORCE_HORIZON = 3.0
MAX_BRUTEFORCE_JUMPS = 4
# The oracle's candidate images per jump, its distance grid step and its
# rounds of coordinate descent.
BRUTEFORCE_CANDIDATES = 9
BRUTEFORCE_GRID_STEP = 2e-3
BRUTEFORCE_REFINE_ROUNDS = 40


def skorokhod_bruteforce(z1, z2) -> DistanceBound:
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
    if len(a) != len(b) or len(a) == 0:
        return skorokhod_uniform(z1, z2, grid_step=BRUTEFORCE_GRID_STEP)

    def bound_for(images: np.ndarray) -> float:
        lam = TimeDeformation(np.concatenate([[0.0], a, [T]]),
                              np.concatenate([[0.0], images, [T]]))
        return skorokhod_upper_bound(z1, z2, lam, grid_step=BRUTEFORCE_GRID_STEP).bound

    fences = np.concatenate([[0.0], b, [T]])
    spans = 0.45 * np.minimum(np.diff(fences)[:-1], np.diff(fences)[1:])
    grids = []
    for j in range(len(b)):
        g = b[j] + spans[j] * np.linspace(-1.0, 1.0, BRUTEFORCE_CANDIDATES)
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
    step = float(spans.min()) / BRUTEFORCE_CANDIDATES
    images = best.copy()
    for _ in range(BRUTEFORCE_REFINE_ROUNDS):
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
    out = skorokhod_upper_bound(z1, z2, lam, grid_step=BRUTEFORCE_GRID_STEP)
    # identity is always admissible; never report worse than it
    ident = skorokhod_uniform(z1, z2, grid_step=BRUTEFORCE_GRID_STEP)
    return ident if ident.bound < out.bound else out
