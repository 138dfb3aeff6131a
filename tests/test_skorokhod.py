import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from bucksim import (DomainError, StochConfig, TimeDeformation,
                     align_schedules, simulate_batch, simulate_det,
                     skorokhod_upper_bound)
from bucksim import parallel, skorokhod
from bucksim.deterministic import Schedule
from oracles import WarpedPath, skorokhod_bruteforce, skorokhod_uniform


def _det_schedule(dc0, T):
    return Schedule(taus=np.arange(T) + dc0.t_star, partial_final_on=False)


def _stoch_schedule(taus, T):
    taus = np.asarray(taus, dtype=float)
    return Schedule(taus=taus, partial_final_on=False)


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
    stoch = _stoch_schedule(det.taus, 5)
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
    part = Schedule(taus=np.array([dc0.t_star, 1.0 + dc0.t_star]), partial_final_on=True)
    assert align_schedules(det, part, 3.0) is None


def test_align_distortion_lemma_bound(dc0):
    # |tau_n - t_n| <= delta = t_min / (4T) forces distortion <= 4 T delta / t_min.
    T = 10
    delta = dc0.t_min / (4.0 * T)
    det = _det_schedule(dc0, T)
    rng = np.random.default_rng(12)
    cap = 4.0 * T * delta / dc0.t_min
    for _ in range(1000):
        taus = det.taus + rng.uniform(-delta, delta, T)
        lam = align_schedules(det, _stoch_schedule(taus, T), float(T))
        assert lam is not None
        assert lam.distortion() <= cap


def test_mode_alignment_on_good_event(p0, dc0):
    det = simulate_det(p0, (dc0.x_star, 1), 10)
    cfg = StochConfig(epsilon=0.02, dt=1e-3, horizon=10, seed=2)
    sp = simulate_batch(p0, dc0.x_star, cfg, [0]).path(0)
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
    assert bnd == skorokhod_uniform(z1, z2)
    assert bnd.bound >= 1.0


def _bound_digest(bounds) -> str:
    """sha256 of (gamma, sup_r, bound) of every bound, in order."""
    h = hashlib.sha256()
    for b in bounds:
        h.update(np.array([b.gamma, b.sup_r, b.bound]).tobytes())
    return h.hexdigest()


# z1 and z2 per case: "det" bounds the orbit against each replica under the
# identity and, where it exists, the aligning deformation; "stoch" bounds
# replica b against replica b + 1 (a StochPath as z1, so no grid memo) and
# "warped" the orbit against a warped view of each replica, both under the
# identity and a fixed three-knot deformation.  "slow-passages" bounds a
# dt = 0.1 path on the finer distance grid.  The digests of "det-dt",
# "stoch-z1" and "horizon-1" were recorded with the bound that evaluated
# both paths at one concatenated array of grid and jump points; those of
# "warped-z2" and "slow-passages" with the chunked bound, when it still took
# a grid step, called at step 1e-3 = GRID_STEP.
BOUND_PINS = {
    "det-dt": ("det", dict(epsilon=0.05, horizon=5, seed=7), 16,
               "917b63e7018fe488fdfa627aabc357ba83c384279823f3e3911ce42f9e89b639"),
    "stoch-z1": ("stoch", dict(epsilon=0.05, horizon=3, seed=5), 8,
                 "87af24670860ee56aa15b5edd44420cfeb4a0558b53ccf5d5b9cf4525d3795df"),
    "warped-z2": ("warped", dict(epsilon=0.05, horizon=3, seed=5), 8,
                  "a75176b2aedeb9c2adfd8cd8e262c420f7d0eba86ecec88d37c7365cb12ebb41"),
    "slow-passages": ("det", dict(dt=0.1, epsilon=0.3, horizon=6, seed=12), 40,
                      "fa612eccd04165367f2145d20e17f7bee3d2bc6c9450b71159687e722cb43bce"),
    "horizon-1": ("det", dict(epsilon=0.05, horizon=1, seed=4), 16,
                  "fc4c4dcc98e1ae85304e95d0cc0ea05f1af44dd8a16c4f72d18807fb2fb4b7ed"),
}


@pytest.mark.parametrize("case", sorted(BOUND_PINS))
def test_distance_bounds_pinned(p0, dc0, case):
    _check_bound_pin(p0, dc0, case)


@pytest.mark.parametrize("chunk", [97, skorokhod.CHUNK_POINTS])
def test_bound_bytes_at_any_chunk_size(p0, dc0, monkeypatch, chunk):
    # With chunks of 97 points chunk edges fall inside every grid of the
    # pins; with the default the shorter grids are one chunk.
    monkeypatch.setattr(skorokhod, "CHUNK_POINTS", chunk)
    for case in BOUND_PINS:
        _check_bound_pin(p0, dc0, case)


def test_long_grid_bound_runs_on_the_calling_thread(p0, dc0, monkeypatch):
    # A 40 001-point grid on two threads is walked by the calling thread
    # alone, and gives the bound of one thread.
    T = 40
    cfg = StochConfig(epsilon=0.05, dt=1e-3, horizon=T, seed=7)
    det = simulate_det(p0, (dc0.x_star, 1), T)
    z2 = simulate_batch(p0, dc0.x_star, cfg, range(1)).path(0)
    lams = (TimeDeformation.identity(T),
            TimeDeformation(np.array([0.0, T / 3, T]), np.array([0.0, T / 2, T])))
    monkeypatch.setattr(parallel, "thread_count", lambda: 1)
    one = [skorokhod_upper_bound(det, z2, lam) for lam in lams]

    def no_split(*args, **kwargs):
        raise AssertionError("the bound split its grid")

    monkeypatch.setattr(parallel, "thread_count", lambda: 2)
    monkeypatch.setattr(parallel, "split", no_split)
    assert [skorokhod_upper_bound(det, z2, lam) for lam in lams] == one


def test_nan_gap_in_any_part_gives_nan_sup(monkeypatch):
    # The chunks' maxima are combined with np.maximum, which keeps a NaN
    # wherever it lies; Python's max would drop one after the first chunk.
    monkeypatch.setattr(skorokhod, "CHUNK_POINTS", 7)

    class _NanAt(_ConstPath):
        def __init__(self, value, at):
            super().__init__(value)
            self.at = at

        def eval(self, q):
            x, y = super().eval(q)
            x[np.asarray(q) == self.at] = np.nan
            return x, y

    # The bound is NaN too: Python's max(0.0, nan) is 0.0.
    grid = np.linspace(0.0, 1.0, skorokhod.distance_grid_nodes(1.0))
    for at in grid[[0, 400, 550, 1000]]:  # the first chunk, middle chunks, the last one
        bnd = skorokhod_uniform(_ConstPath(0.2), _NanAt(0.25, at))
        assert math.isnan(bnd.sup_r) and math.isnan(bnd.bound)
    assert skorokhod_uniform(_ConstPath(0.2), _ConstPath(0.25)).sup_r == pytest.approx(0.05)


def _traced_peak(fn) -> int:
    """Peak bytes traced while fn() runs, above what was allocated before."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("aligned", [True, False], ids=["aligned", "identity"])
def test_bound_scratch_does_not_grow_with_the_horizon(p0, dc0, aligned):
    # Once the orbit's memo is built, reading a path and bounding it holds
    # the path's x plus scratch of about CHUNK_POINTS points, at any horizon.
    scratch = []
    for T in (50, 200):
        cfg = StochConfig(epsilon=0.01, dt=1e-3, horizon=T, seed=3)
        res = simulate_batch(p0, dc0.x_star, cfg, range(4))
        det = simulate_det(p0, (dc0.x_star, 1), T)
        lams = [align_schedules(det.schedule, s, float(T)) for s in res.schedules]
        b = next(b for b, lam in enumerate(lams) if lam is not None)
        lam = lams[b] if aligned else TimeDeformation.identity(float(T))
        skorokhod_upper_bound(det, res.path(b), lam)  # builds the memo
        peak = _traced_peak(lambda: skorokhod_upper_bound(det, res.path(b), lam))
        scratch.append(peak - 8 * cfg.grid_nodes())  # less the path's x
    assert abs(scratch[1] - scratch[0]) <= 0.1 * scratch[0], scratch
    assert scratch[0] < 8 * 8 * skorokhod.CHUNK_POINTS, scratch


def test_orbit_memo_peaks_at_its_arrays_plus_one_chunk(p0, dc0):
    # The memo evaluates the orbit CHUNK_POINTS grid points at a time into
    # its own arrays.
    for T in (50, 200):
        det = simulate_det(p0, (dc0.x_star, 1), T)
        chunk = np.linspace(0.0, 1.0, skorokhod.CHUNK_POINTS)
        one_chunk = _traced_peak(lambda: det.eval(chunk))
        memo = []
        peak = _traced_peak(lambda: memo.extend(skorokhod._on_uniform_grid(det)))
        own = sum(a.nbytes for a in memo)
        assert own < peak <= own + one_chunk + 4096, (T, own, peak, one_chunk)


def _check_bound_pin(p0, dc0, case):
    pair, kw, replicas, digest = BOUND_PINS[case]
    cfg = StochConfig(**{"dt": 1e-3, **kw})
    T = float(cfg.horizon)
    det = simulate_det(p0, (dc0.x_star, 1), cfg.horizon)
    res = simulate_batch(p0, dc0.x_star, cfg, range(replicas))
    paths = [res.path(b) for b in range(replicas)]
    warp = TimeDeformation(np.array([0.0, T / 3, T]), np.array([0.0, T / 2, T]))
    bounds = []
    aligned = 0
    for b, z2 in enumerate(paths):
        lams = [TimeDeformation.identity(T)]
        if pair == "det":
            z1 = det
            lam = align_schedules(det.schedule, z2.schedule, T)
            if lam is not None:
                lams.append(lam)
                aligned += 1
        else:
            lams.append(warp)
            if pair == "stoch":
                z1, z2 = z2, paths[(b + 1) % replicas]
            else:
                z1, z2 = det, WarpedPath(z2, warp)
        bounds += [skorokhod_upper_bound(z1, z2, lam) for lam in lams]
    assert _bound_digest(bounds) == digest
    if pair == "det":
        assert aligned  # the aligning deformation is bounded next to the identity
    if case == "slow-passages":
        # The case keeps its point: some ON phase spans a clock pulse.
        assert any(np.any(s.taus - np.concatenate([[0.0], s.sigmas[:-1]]) >= 1.0)
                   for s in res.schedules if len(s.taus))


def _special_values(rng) -> np.ndarray:
    tiny = np.finfo(float).smallest_subnormal
    x = np.concatenate([rng.normal(0.0, 1.0, 200), rng.uniform(-1e-3, 1e-3, 50),
                        [0.0, -0.0, tiny, 3 * tiny, np.finfo(float).tiny / 2, 1e308,
                         np.finfo(float).max, np.inf, np.nan]])
    return np.concatenate([x, -x])


def _same_bits(a, b) -> bool:
    """Bitwise equal, or NaN in both (a NaN's sign bit survives hypot but not fabs)."""
    same = a.view(np.uint64) == b.view(np.uint64)
    return bool(np.all(same | (np.isnan(a) & np.isnan(b))))


def test_hypot_facts_the_bound_rests_on():
    # The sup takes |dx| where the modes agree and hypot(|dx|, 1) where they
    # differ; that is np.hypot(dx, dy) bit for bit for dy in {0, +-1}.
    from bucksim.skorokhod import _state_gaps
    rng = np.random.default_rng(21)
    x = _special_values(rng)
    ax = np.abs(x)
    assert _same_bits(np.hypot(x, 0.0), ax)
    assert _same_bits(np.hypot(-x, 1.0), np.hypot(x, 1.0))
    assert _same_bits(np.hypot(x, -1.0), np.hypot(ax, 1.0))
    x2 = rng.permutation(x)
    y1, y2 = rng.integers(0, 2, (2, x.size)).astype(np.int8)
    ref = np.hypot(x - x2, y1.astype(float) - y2.astype(float))
    assert _same_bits(_state_gaps(x, y1, x2, y2), ref)


def test_identity_deformation_maps_the_grid_onto_itself():
    # A two-knot deformation is the identity, so the bound skips lam(grid).
    from bucksim.skorokhod import distance_grid_nodes
    for T in range(1, 101):
        lam = TimeDeformation.identity(float(T))
        grid = np.linspace(0.0, float(T), distance_grid_nodes(float(T)))
        image = np.clip(lam(grid), 0.0, float(T))
        assert np.array_equal(image.view(np.uint64), grid.view(np.uint64))
