"""The sweep's distance bounds decided in closed form (skorokhod._batch_bounds).

Every decided bound must be the grid walk's double, skorokhod_upper_bound(
det, path, lam).bound, and every replica that no rule decides must take the
walk.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bucksim import (McConfig, Schedule, TimeDeformation, align_schedules,
                     derive_constants, simulate_batch, simulate_det,
                     skorokhod_upper_bound)
from bucksim import montecarlo, skorokhod, stochastic
from conftest import P0, random_valid_params


def _lams(det, res, cfg, eps):
    """The deformation the sweep bounds each replica with."""
    T = cfg.horizon_for(eps)
    lams = []
    for s in res.schedules:
        first_bad, _ = montecarlo._first_bad_cycle(det.schedule.taus, s.taus,
                                                   cfg.delta_for(eps), T)
        lam = align_schedules(det.schedule, s, float(T)) if first_bad == 0 else None
        lams.append(lam or TimeDeformation.identity(float(T)))
    return lams


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.uint64)


def _check_sweep_against_walk(p, eps, dt, horizon, seed, replicas=6, window=None):
    """The sweep's d of every replica against the walk.

    Returns the batch, how many replicas the sweep walked and how many of
    them are identity replicas, which are always walked.

    window, when given, replaces the engine's W, so phases that outlast it spill.
    """
    dc = derive_constants(p)
    cfg = McConfig(epsilons=(eps,), frak_t=horizon, replicas=replicas, dt=dt, seed=seed)
    det = simulate_det(p, (dc.x_star, 1), cfg.horizon_for(eps))
    ids = range(replicas)
    walked = []
    real_walk = montecarlo.skorokhod_upper_bound
    with pytest.MonkeyPatch.context() as mp:
        if window is not None:
            mp.setattr(stochastic, "window_steps", lambda *args: window)
        mp.setattr(montecarlo, "skorokhod_upper_bound",
                   lambda *args: walked.append(args[1]) or real_walk(*args))
        d = montecarlo._ensemble_batch(p, dc, cfg, eps, det, ids, want_distance=True)[3]
        res = simulate_batch(p, dc.x_star, cfg.stoch_config(eps), list(ids))
    lams = _lams(det, res, cfg, eps)
    ref = [skorokhod_upper_bound(det, res.path(b), lam).bound for b, lam in enumerate(lams)]
    assert np.array_equal(_bits(d), _bits(ref)), (d, ref)
    return res, len(walked), sum(len(lam.knots_t) == 2 for lam in lams)


@settings(max_examples=30, deadline=None)
@given(eps=st.floats(0.005, 0.3), dt=st.sampled_from([1e-3, 1e-2, 0.1]),
       horizon=st.integers(1, 30), seed=st.integers(0, 2 ** 16),
       params=st.integers(0, 3), window=st.one_of(st.none(), st.floats(0.05, 1.0)))
def test_sweep_distance_is_the_walks_bit_for_bit(eps, dt, horizon, seed, params, window):
    # Parameter sets other than P0 change the orbit's curvature and span; a
    # window fraction forces spills.
    p = P0 if params == 0 else random_valid_params(np.random.default_rng(params), 1)[0]
    spu = round(1.0 / dt)
    W = None if window is None else max(1, min(spu, int(window * spu)))
    _check_sweep_against_walk(p, eps, dt, horizon, seed, window=W)


@pytest.mark.parametrize("case", ["spills", "slow-passages", "coarse-nodes", "fine"])
def test_sweep_distance_cases(case):
    # Named cases that the sweep must also meet: every phase spills (aligned
    # replicas take the walk too), ON phases that span a clock pulse and final ON
    # phases cut by the horizon, nodes coarser than the distance grid.
    if case == "spills":
        res, walked, identity = _check_sweep_against_walk(P0, 0.02, 1e-3, 4, 3, replicas=12,
                                                          window=300)
        assert all(res.spills) and walked > identity
    elif case == "slow-passages":
        res, walked, identity = _check_sweep_against_walk(P0, 0.3, 0.1, 6, 17, replicas=40)
        assert any(s.anomaly for s in res.schedules)
        assert any(s.partial_final_on for s in res.schedules)
    elif case == "coarse-nodes":
        res, walked, identity = _check_sweep_against_walk(P0, 0.05, 0.1, 8, 5, replicas=16)
        assert walked < 16
    else:
        res, walked, identity = _check_sweep_against_walk(P0, 0.02, 1e-3, 10, 7, replicas=32)
        assert walked == identity < 32


def _small_batch(eps=0.02, horizon=3, replicas=16, seed=11, mixed=True, dt=1e-3):
    dc = derive_constants(P0)
    cfg = McConfig(epsilons=(eps,), frak_t=horizon, replicas=replicas, dt=dt, seed=seed)
    det = simulate_det(P0, (dc.x_star, 1), horizon)
    res = simulate_batch(P0, dc.x_star, cfg.stoch_config(eps), list(range(replicas)))
    lams = _lams(det, res, cfg, eps)
    aligned = [b for b, lam in enumerate(lams) if len(lam.knots_t) > 2]
    assert aligned and (len(aligned) < replicas or not mixed)
    return det, res, lams, aligned


def test_decided_bounds_are_the_walks():
    det, res, lams, aligned = _small_batch()
    got = skorokhod._batch_bounds(det, res, lams)
    identity = np.delete(np.arange(len(lams)), aligned)
    assert np.isnan(got[identity]).all() and not np.isnan(got[aligned]).any()
    ref = [skorokhod_upper_bound(det, res.path(b), lams[b]) for b in aligned]
    assert np.array_equal(_bits(got[aligned]), _bits([r.bound for r in ref]))
    # Each reports its distortion, which the grid sup stays below.
    assert all(got[b] == r.gamma > r.sup_r for b, r in zip(aligned, ref))


def test_nodes_astray_take_the_walk():
    # A hand-built batch.  The last ON node of period 1 of an aligned
    # replica moves by twice its distortion: the certificate sees the gap
    # and leaves the replica to the walk, whose bound is then that gap, not
    # the distortion.
    det, res, lams, aligned = _small_batch()
    b = aligned[0]
    gamma = lams[b].distortion()
    J = int(res.passage_steps[b][1]) - 1000     # ON nodes 1 .. J of period 1
    res.window[b, 1, J - 1] += 2.0 * gamma
    got = skorokhod._batch_bounds(det, res, lams)
    assert np.isnan(got[b]) and not np.isnan(got[aligned[1:]]).any()
    assert skorokhod_upper_bound(det, res.path(b), lams[b]).bound > gamma


def test_distortion_above_one_takes_the_walk():
    # The knot guard relies on lam's slopes of at least 1/e.  A deformation
    # with the level's knots but a first piece of slope e^-1.5 leaves its
    # replica to the walk, however small the certified mismatch.
    det, res, lams, aligned = _small_batch()
    b = aligned[1]
    kv = lams[b].knots_t.copy()
    kv[1] *= np.exp(-1.5)
    lams[b] = TimeDeformation(lams[b].knots_t, kv)
    assert lams[b].distortion() == pytest.approx(1.5)
    assert skorokhod._aligned_mismatch(det, res, [b])[0] < 1.0
    got = skorokhod._batch_bounds(det, res, lams)
    assert np.isnan(got[b]) and not np.isnan(np.delete(got[aligned], 1)).any()


def test_certified_mismatch_covers_a_dense_sup():
    # U bounds |x1(t) - x2(lam(t))| everywhere, not only on the distance grid:
    # here on a grid 200 times finer, over one and two periods, where the
    # last OFF phase often carries the largest mismatch.  With nodes 0.1
    # apart and little noise the chord errors between nodes carry it.
    for horizon, eps, dt in ((1, 0.01, 1e-3), (1, 0.05, 1e-3), (2, 0.02, 1e-3),
                             (1, 0.001, 0.1)):
        det, res, lams, aligned = _small_batch(eps, horizon, replicas=48, seed=horizon,
                                               mixed=False, dt=dt)
        U = skorokhod._aligned_mismatch(det, res, aligned)
        assert not np.isnan(U).any()
        t = np.linspace(0.0, horizon, 200_000 * horizon + 1)
        x1 = det.eval(t)[0]
        for b, u in zip(aligned, U):
            dense = np.abs(x1 - res.path(b).eval(lams[b](t))[0]).max()
            assert dense <= u, (horizon, eps, b, dense, u)


def test_slack_enters_every_aligned_decision(monkeypatch):
    # With a slack above every distortion, and the knot guard passed, no
    # aligned replica is decided.
    det, res, lams, aligned = _small_batch()
    monkeypatch.setattr(skorokhod, "_clear_of_knots", lambda grid, knots: True)
    monkeypatch.setattr(skorokhod, "_SLACK", 10.0)
    got = skorokhod._batch_bounds(det, res, lams)
    assert np.isnan(got[aligned]).all()


def test_orbit_knot_near_a_grid_point_skips_the_level():
    # An orbit whose first passage lies 1e-12 past a grid point: lam of that
    # grid point could round onto the noisy passage, so no aligned replica
    # of the level is decided.
    det, res, lams, aligned = _small_batch()
    T = det.horizon
    grid = np.linspace(0.0, T, skorokhod.distance_grid_nodes(T))
    t1 = grid[np.searchsorted(grid, det.schedule.taus[0])] + 1e-12
    taus = det.schedule.taus.copy()
    taus[0] = t1
    boundaries = det.boundaries.copy()
    boundaries[1] = t1
    near = dataclasses.replace(det, schedule=Schedule(taus=taus, partial_final_on=False),
                               boundaries=boundaries)
    near_lams = [align_schedules(near.schedule, s, T) if b in aligned else lams[b]
                 for b, s in enumerate(res.schedules)]
    assert all(lam is not None for lam in near_lams)
    assert not skorokhod._clear_of_knots(grid, near_lams[aligned[0]].knots_t)
    assert np.isnan(skorokhod._batch_bounds(near, res, near_lams)).all()
    assert not np.isnan(skorokhod._batch_bounds(det, res, lams)[aligned]).any()
