import math

import numpy as np
import pytest

from bucksim import (DomainError, StochConfig, TimeDeformation, WarpedPath,
                     align_schedules, hybrid_distance, simulate_det,
                     simulate_stoch, skorokhod_bruteforce, skorokhod_uniform,
                     skorokhod_upper_bound)
from bucksim.deterministic import DetSchedule
from bucksim.stochastic import ReplicaSchedule


def _det_schedule(dc0, T):
    t = np.arange(T) + dc0.t_star
    s = np.arange(1, T + 1, dtype=float)
    return DetSchedule(on_to_off=t, off_to_on=s, horizon=float(T), start_on=0.0)


def _stoch_schedule(taus, T):
    taus = np.asarray(taus, dtype=float)
    return ReplicaSchedule(taus=taus, sigmas=np.floor(taus) + 1.0,
                           partial_final_on=False)


def test_state_metric_examples():
    assert hybrid_distance((0.4, 1), (0.4, 1)) == 0.0
    assert hybrid_distance((0.4, 1), (0.4, 0)) == 1.0
    assert hybrid_distance((0.3, 1), (0.7, 0)) == pytest.approx(math.sqrt(1.16), abs=1e-12)


def test_state_metric_properties():
    rng = np.random.default_rng(8)
    for _ in range(200):
        z = [(rng.uniform(-2, 2), rng.integers(0, 2)) for _ in range(3)]
        assert hybrid_distance(z[0], z[1]) == hybrid_distance(z[1], z[0])
        assert hybrid_distance(z[0], z[2]) <= (hybrid_distance(z[0], z[1])
                                               + hybrid_distance(z[1], z[2]) + 1e-12)


def test_identity_deformation_zero_distortion():
    lam = TimeDeformation.identity(10.0)
    assert lam.distortion() == 0.0
    assert lam(3.7) == 3.7


def test_deformation_rejects_bad_knots():
    with pytest.raises(DomainError):
        TimeDeformation(np.array([0.0, 1.0, 1.0, 2.0]), np.array([0.0, 0.5, 1.5, 2.0]))
    with pytest.raises(DomainError):
        TimeDeformation(np.array([0.0, 1.0]), np.array([0.0, 2.0]))  # not onto [0, T]
    with pytest.raises(DomainError):
        TimeDeformation(np.array([0.0, 0.6, 1.0]), np.array([0.0, 0.7, 0.65]))


def test_distortion_two_pieces():
    lam = TimeDeformation(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.45, 1.0]))
    assert lam.distortion() == pytest.approx(max(abs(math.log(0.9)),
                                                 abs(math.log(1.1))), abs=1e-12)


def test_distortion_dominates_two_point_quotients():
    # max |log slope| over pieces equals the sup over all chords: chords are
    # convex combinations of piece slopes.
    rng = np.random.default_rng(9)
    for _ in range(50):
        kt = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 9.9, 4)), [10.0]])
        kv = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 9.9, 4)), [10.0]])
        lam = TimeDeformation(kt, kv)
        g = lam.distortion()
        ts = rng.uniform(0.0, 10.0, (100, 2))
        s, t = ts.min(axis=1), ts.max(axis=1)
        keep = t - s > 1e-3  # avoid cancellation noise in the quotient itself
        s, t = s[keep], t[keep]
        chord = np.abs(np.log((lam(t) - lam(s)) / (t - s)))
        assert chord.max() <= g + 1e-9


def test_inverse_round_trip():
    lam = TimeDeformation(np.array([0.0, 0.4, 1.0]), np.array([0.0, 0.45, 1.0]))
    q = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(lam.inverse()(lam(q)), q, atol=1e-12)


def test_align_exact_schedules_gives_identity_distortion(dc0):
    det = _det_schedule(dc0, 5)
    stoch = _stoch_schedule(det.on_to_off, 5)
    lam = align_schedules(det, stoch, 5.0)
    assert lam is not None
    assert lam.distortion() == pytest.approx(0.0, abs=1e-12)


def test_align_single_cycle_distortion_formula(dc0):
    d = 0.05
    det = _det_schedule(dc0, 1)
    stoch = _stoch_schedule([dc0.t_star + d], 1)
    lam = align_schedules(det, stoch, 1.0)
    expect = max(abs(math.log(1.0 + d / dc0.t_on)),
                 abs(math.log(1.0 - d / dc0.t_off)))
    assert lam.distortion() == pytest.approx(expect, abs=1e-12)


def test_align_rejects_mismatches(dc0):
    det = _det_schedule(dc0, 3)
    # fewer stochastic cycles
    assert align_schedules(det, _stoch_schedule([dc0.t_star], 3), 3.0) is None
    # slow passage: sigma_2 == 3 != s_2 == 2
    bad = _stoch_schedule([dc0.t_star, 2.4, 2.7], 3)
    assert align_schedules(det, bad, 3.0) is None
    # partial final cycle
    part = ReplicaSchedule(taus=np.array([dc0.t_star, 1.0 + dc0.t_star]),
                           sigmas=np.array([1.0, 2.0]), partial_final_on=True)
    assert align_schedules(det, part, 3.0) is None


def test_align_distortion_lemma_bound(dc0):
    # |tau_n - t_n| <= delta = t_min / (4T) forces distortion <= 4 T delta / t_min.
    T = 10
    delta = dc0.t_min / (4.0 * T)
    det = _det_schedule(dc0, T)
    rng = np.random.default_rng(12)
    cap = 4.0 * T * delta / dc0.t_min
    for _ in range(1000):
        taus = det.on_to_off + rng.uniform(-delta, delta, T)
        lam = align_schedules(det, _stoch_schedule(taus, T), float(T))
        assert lam is not None
        assert lam.distortion() <= cap


def test_mode_alignment_on_good_event(p0, dc0):
    det = simulate_det(p0, (dc0.x_star, 1), 10)
    cfg = StochConfig(epsilon=0.02, dt=1e-3, horizon=10, seed=2)
    sp = simulate_stoch(p0, (dc0.x_star, 1), cfg)
    lam = align_schedules(det.schedule, sp.schedule, 10.0)
    assert lam is not None
    t = np.arange(0.0, 10.0 + 1e-12, 1e-3)
    _, y1 = det.eval(t)
    _, y2 = sp.eval(np.clip(lam(t), 0.0, 10.0))
    assert np.array_equal(y1, y2)


def test_upper_bound_identical_paths_is_zero(p0, dc0):
    det = simulate_det(p0, (dc0.x_star, 1), 2)
    bnd = skorokhod_upper_bound(det, det, TimeDeformation.identity(2.0))
    assert bnd.bound == 0.0 and bnd.gamma == 0.0 and bnd.sup_r == 0.0


def test_upper_bound_horizon_mismatch(p0, dc0):
    a = simulate_det(p0, (dc0.x_star, 1), 2)
    b = simulate_det(p0, (dc0.x_star, 1), 3)
    with pytest.raises(DomainError):
        skorokhod_upper_bound(a, b, TimeDeformation.identity(2.0))


def test_warped_copy_bound_equals_distortion(p0, dc0):
    # z2 is z1 with its jumps moved; the aligning deformation wipes out the
    # state mismatch, leaving exactly the distortion.
    z1 = simulate_det(p0, (dc0.x_star, 1), 2)
    lam0 = TimeDeformation(np.array([0.0, dc0.t_star, 1.0, 1.0 + dc0.t_star, 2.0]),
                           np.array([0.0, dc0.t_star + 0.05, 1.0,
                                     1.0 + dc0.t_star - 0.02, 2.0]))
    z2 = WarpedPath(z1, lam0.inverse())
    np.testing.assert_allclose(np.sort(z2.jump_times),
                               lam0(np.sort(z1.jump_times)), atol=1e-12)
    bnd = skorokhod_upper_bound(z1, z2, lam0)
    assert bnd.sup_r <= 1e-9
    assert bnd.bound == pytest.approx(lam0.distortion(), abs=1e-9)
    # identity pays the full mode mismatch
    ident = skorokhod_uniform(z1, z2)
    assert ident.bound >= 1.0


def test_uniform_bound_is_sup_of_state_metric(p0, dc0):
    z1 = simulate_det(p0, (dc0.x_star, 1), 2)
    z2 = simulate_det(p0, (0.5, 1), 2)
    bnd = skorokhod_uniform(z1, z2)
    t = np.arange(0.0, 2.0 + 1e-12, 1e-3)
    x1, y1 = z1.eval(t)
    x2, y2 = z2.eval(t)
    direct = np.hypot(x1 - x2, (y1 - y2).astype(float)).max()
    assert bnd.bound >= direct - 1e-12


class _ConstPath:
    """Constant-state toy path used by the brute-force oracle tests."""

    def __init__(self, value, horizon=1.0):
        self.value = value
        self.horizon = horizon
        self.jump_times = np.empty(0)

    def eval(self, q):
        qa = np.atleast_1d(np.asarray(q, dtype=float))
        return (np.full(qa.shape, self.value),
                np.ones(qa.shape, dtype=np.int8))


def test_bruteforce_identical_paths_zero(p0, dc0):
    z1 = simulate_det(p0, (dc0.x_star, 1), 2)
    bnd = skorokhod_bruteforce(z1, z1)
    assert bnd.bound == 0.0


def test_bruteforce_constant_offset():
    # No jumps: no deformation helps, the offset is the answer.
    z1 = _ConstPath(0.2)
    z2 = _ConstPath(0.25)
    bnd = skorokhod_bruteforce(z1, z2)
    assert bnd.bound == pytest.approx(0.05, abs=1e-12)


def test_bruteforce_one_jump_close_to_alignment(p0, dc0):
    # Single interior jump, shifted by 0.05.
    z1 = simulate_det(p0, (dc0.x_star, 1), 1)
    lam0 = TimeDeformation(np.array([0.0, dc0.t_star, 1.0]),
                           np.array([0.0, dc0.t_star + 0.05, 1.0]))
    z2 = WarpedPath(z1, lam0.inverse())
    aligned = skorokhod_upper_bound(z1, z2, lam0)
    bf = skorokhod_bruteforce(z1, z2)
    assert bf.bound <= aligned.bound + 1e-9
    assert aligned.bound <= 1.05 * bf.bound + 1e-9
    assert bf.bound <= skorokhod_uniform(z1, z2).bound


def test_bruteforce_refuses_large_instances(p0, dc0):
    z1 = simulate_det(p0, (dc0.x_star, 1), 10)
    with pytest.raises(DomainError):
        skorokhod_bruteforce(z1, z1)


def test_bruteforce_mismatched_jump_counts_falls_back(p0, dc0):
    z1 = simulate_det(p0, (dc0.x_star, 1), 2)
    z2 = _ConstPath(dc0.x_star, horizon=2.0)
    bnd = skorokhod_bruteforce(z1, z2)
    assert bnd.method == "identity"
    assert bnd.bound >= 1.0
