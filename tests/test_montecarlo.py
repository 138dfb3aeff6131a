import concurrent.futures
import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc
from scipy.stats import norm

from bucksim import (ConfigError, DomainError, McConfig, bad_event_probs,
                     distance_moment, gaussian_tail, gaussian_tail_bound,
                     errors, montecarlo, parallel, sweep)
from bucksim.errors import MAX_GRID_POINTS
from bucksim.montecarlo import wilson_interval
from bucksim.montecarlo import CSV_COLUMNS


def test_gaussian_tail_examples():
    assert gaussian_tail(0.0) == 0.5
    assert abs(gaussian_tail(1.959964) - 0.025) <= 1e-6
    with pytest.raises(DomainError):
        gaussian_tail(-0.1)


def test_gaussian_tail_relative_accuracy():
    # Independent route: scipy.stats.norm.sf uses ndtr, not erfc.
    xs = np.linspace(0.0, 8.0, 81)
    ours = gaussian_tail(xs)
    ref = norm.sf(xs)
    rel = np.abs(ours - ref) / ref
    assert rel.max() <= 1e-12


def test_gaussian_tail_matches_scipy_erfc_bit_for_bit():
    # The tail ports the Cephes erfc that scipy runs, so every double agrees:
    # on seeded points, and on windows of floats around each branch edge of
    # erfc (1, 8 and the underflow edge sqrt(MAXLOG), near 26.64) that hold
    # the edge and the float just below it.
    rng = np.random.default_rng(20240611)
    parts = [rng.uniform(0.0, 40.0, 100_000),
             # where the tail turns subnormal, x / sqrt(2) near 26.55
             montecarlo.SQRT2 * rng.uniform(26.4, 26.7, 2_000)]
    for edge in (1.0, 8.0, math.sqrt(montecarlo._ERFC_MAXLOG)):
        x0 = edge * montecarlo.SQRT2
        window = x0 + np.arange(-16, 17) * np.spacing(x0)
        scaled = window / montecarlo.SQRT2
        assert np.any(scaled == edge) and np.any(scaled == np.nextafter(edge, 0.0))
        parts.append(window)
    parts.append(np.array([0.0, -0.0, 5e-324, math.inf, math.nan]))
    xs = np.concatenate(parts)
    ours = gaussian_tail(xs)
    ref = 0.5 * erfc(xs / math.sqrt(2.0))
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(ours), nan) and nan.sum() == 1
    assert np.array_equal(ours[~nan].view(np.int64), ref[~nan].view(np.int64))


@pytest.mark.parametrize("x, shape", [(1.5, None), (np.float64(1.5), None),
                                      (np.array(1.5), None), (np.full(3, 1.5), (3,)),
                                      (np.full((2, 3), 1.5), (2, 3))],
                         ids=["float", "float64", "0-d", "1-d", "2-d"])
def test_gaussian_tail_return_types(x, shape):
    out = gaussian_tail(x)
    if shape is None:
        assert type(out) is float
    else:
        assert isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == shape
    assert np.all(out == 0.5 * erfc(1.5 / math.sqrt(2.0)))


def test_gaussian_tail_bound_dominates_on_grid():
    xs = np.arange(1.0, 6.0 + 1e-9, 0.5)
    assert np.all(gaussian_tail(xs) <= gaussian_tail_bound(xs))


def test_gaussian_tail_decreasing():
    xs = np.linspace(0.0, 6.0, 61)
    assert np.all(np.diff(gaussian_tail(xs)) < 0.0)


def test_wilson_interval_edges():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and 0.95 < lo < 1.0
    lo, hi = wilson_interval(5, 10)
    assert lo < 0.5 < hi


def test_mcconfig_validation():
    ok = McConfig(epsilons=(0.1,), nu=0.0, varsigma=0.8)
    ok.validate()
    with pytest.raises(ConfigError):
        McConfig(epsilons=(0.1,), nu=0.7).validate()
    with pytest.raises(ConfigError):
        McConfig(epsilons=(0.1,), nu=0.3, varsigma=0.2).validate()
    with pytest.raises(ConfigError):
        McConfig(epsilons=(0.1,), varsigma=1.0).validate()
    with pytest.raises(ConfigError):
        McConfig(epsilons=(-0.1,)).validate()
    with pytest.raises(ConfigError):
        McConfig(epsilons=(0.1,), dt=3e-4).validate()
    with pytest.raises(ConfigError):
        McConfig(epsilons=(0.1,), frak_t=0).validate()
    for bad in (dict(epsilons=()), dict(p=math.nan), dict(dt=math.nan),
                dict(seed=-1), dict(seed=1.5), dict(epsilons=(0.1, 0.1)),
                dict(epsilons=(0.0, 0.05, -0.0)), dict(frak_t=MAX_GRID_POINTS + 1),
                dict(frak_t=10 ** 320, nu=0.3), dict(replicas=4.0), dict(replicas=0),
                dict(workers=2.5), dict(workers=0), dict(batch_size=8.0),
                dict(batch_size=0)):
        with pytest.raises(ConfigError):
            McConfig(**{"epsilons": (0.1,), **bad}).validate()
    # T_eps = floor(2**25 / 1e9**0.6) = 133: frak_t itself is at the cap.
    McConfig(epsilons=(1e9,), nu=0.6, frak_t=MAX_GRID_POINTS).validate()


def _no_batch(*args, **kwargs):
    raise AssertionError("a batch was simulated")


def test_distance_grid_checked_before_any_batch(p0, dc0, monkeypatch):
    # At a cap of 2500 points and dt 0.01, T_eps = 3 has a 301-node replica
    # grid but a 3001-node distance grid.
    monkeypatch.setattr(errors, "MAX_GRID_POINTS", 2500)
    cfg = McConfig(epsilons=(0.1,), frak_t=3, replicas=600, dt=0.01)
    bad_event_probs(p0, dc0, dataclasses.replace(cfg, replicas=4), 0.1)  # no distance grid
    monkeypatch.setattr(montecarlo, "simulate_batch", _no_batch)
    for run in (sweep, lambda *a: distance_moment(*a, 0.1)):
        with pytest.raises(ConfigError, match="distance evaluation grid"):
            run(p0, dc0, cfg)
    # Only the second noise level's grid (T_eps = 3) is over the cap; the
    # first one's (T_eps = 1) is not.
    later = McConfig(epsilons=(0.5, 0.1), nu=0.5, frak_t=1, replicas=2, dt=0.01)
    assert [later.horizon_for(e) for e in later.epsilons] == [1, 3]
    with pytest.raises(ConfigError, match="distance evaluation grid"):
        sweep(p0, dc0, later)


@pytest.mark.parametrize("run", [bad_event_probs, distance_moment], ids=lambda f: f.__name__)
def test_unlisted_noise_level_is_refused(p0, dc0, monkeypatch, run):
    # Only the levels of cfg.epsilons have streams of their own; any two
    # other levels would draw the same normals.
    monkeypatch.setattr(montecarlo, "simulate_batch", _no_batch)
    cfg = _small_cfg(epsilons=(0.1,))
    for eps in (0.3, 0.4, 0.0):
        with pytest.raises(ConfigError, match="not in epsilons"):
            run(p0, dc0, cfg, eps)


def test_horizon_scaling_rule():
    cfg = McConfig(epsilons=(0.04,), nu=0.5, varsigma=0.8, frak_t=10)
    assert cfg.horizon_for(0.04) == 50
    assert cfg.horizon_for(0.0) == 10
    flat = McConfig(epsilons=(0.1,), nu=0.0, varsigma=0.8, frak_t=7)
    assert flat.horizon_for(0.1) == 7
    assert flat.delta_for(0.1) == pytest.approx(0.1 ** 0.8, abs=1e-15)
    assert flat.delta_for(0.0) == 0.0


def _small_cfg(**kw):
    base = dict(epsilons=(0.1,), nu=0.0, varsigma=0.8, frak_t=3, p=1.0,
                replicas=200, dt=1e-2, seed=7, batch_size=64)
    base.update(kw)
    return McConfig(**base)


def test_bad_events_zero_noise(p0, dc0):
    cfg = _small_cfg(epsilons=(0.0,))
    tab = bad_event_probs(p0, dc0, cfg, 0.0)
    assert np.all(tab.emp_prob == 0.0)
    assert tab.good_freq == 1.0
    assert tab.bound == 0.0


def test_bad_events_structure(p0, dc0):
    cfg = _small_cfg()
    tab = bad_event_probs(p0, dc0, cfg, 0.1)
    assert tab.t_eps == 3
    assert tab.delta == pytest.approx(0.1 ** 0.8)
    # decomposition: good + sum of disjoint first-bad counts == replicas
    total_bad = tab.emp_prob.sum() * tab.replicas
    assert tab.good_freq * tab.replicas + total_bad == tab.replicas
    assert tab.union_prob == pytest.approx(tab.emp_prob.sum(), abs=1e-12)
    # split is a partition of each first-bad count
    np.testing.assert_allclose(tab.emp_minus + tab.emp_plus, tab.emp_prob, atol=1e-15)
    # bound is definitional
    assert tab.bound == pytest.approx(3.0 * gaussian_tail(dc0.k * tab.delta / 0.1))
    assert tab.bound_minus == pytest.approx(2.0 * gaussian_tail(dc0.k_minus * tab.delta / 0.1))
    assert tab.bound_plus == pytest.approx(gaussian_tail(dc0.k_plus * tab.delta / 0.1))
    assert np.all(tab.wilson_lo <= tab.emp_prob + 1e-12)
    assert np.all(tab.emp_prob <= tab.wilson_hi + 1e-12)
    assert tab.delta_within_dplus == (tab.delta < dc0.delta_plus)


def test_bad_event_first_cycle_monotone_in_eps(p0, dc0):
    cfg = McConfig(epsilons=(0.1, 0.05, 0.02), nu=0.0, varsigma=0.8, frak_t=1,
                   p=1.0, replicas=2000, dt=1e-2, seed=11, batch_size=512)
    p_first = [bad_event_probs(p0, dc0, cfg, e).emp_prob[0] for e in cfg.epsilons]
    assert p_first[0] > p_first[1] > p_first[2]


def test_distance_moment_zero_noise_is_exactly_zero(p0, dc0):
    cfg = _small_cfg(epsilons=(0.0,))
    mom = distance_moment(p0, dc0, cfg, 0.0)
    assert mom.moment == 0.0 and mom.se == 0.0 and mom.mean_d == 0.0
    assert bad_event_probs(p0, dc0, cfg, 0.0).good_freq == 1.0


def test_distance_moment_basic(p0, dc0):
    cfg = _small_cfg(replicas=100)
    mom = distance_moment(p0, dc0, cfg, 0.1)
    assert mom.moment > 0.0
    assert mom.se > 0.0
    assert 0.0 <= bad_event_probs(p0, dc0, cfg, 0.1).good_freq <= 1.0
    assert mom.q90 <= mom.q99 + 1e-15


def test_sweep_report_rows_and_csv(p0, dc0):
    cfg = _small_cfg(epsilons=(0.1, 0.0), replicas=50)
    rep = sweep(p0, dc0, cfg)
    assert len(rep.rows) == 2 * 3  # two eps rows, T_eps = 3 cycles each
    text = rep.to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(rep.rows)
    summary = rep.summary()
    assert len(summary["per_epsilon"]) == 2
    assert summary["all_bounds_ok"] in (True, False)


def test_sweep_deterministic_and_worker_independent(p0, dc0):
    base = dict(epsilons=(0.05,), nu=0.0, varsigma=0.8, frak_t=2, p=1.0,
                replicas=64, dt=1e-2, seed=13, batch_size=16)
    a = sweep(p0, dc0, McConfig(workers=1, **base)).to_csv_text()
    b = sweep(p0, dc0, McConfig(workers=1, **base)).to_csv_text()
    c = sweep(p0, dc0, McConfig(workers=2, **base)).to_csv_text()
    assert a == b == c


def test_one_orbit_per_noise_level(p0, dc0, monkeypatch):
    # Every batch of a level is bounded against the same orbit, by the
    # closed-form decisions and by the grid walk, so its grid memo is built
    # once per level; eps = 0 simulates nothing.
    dets, orbits = [], {}
    real_det, real_bound = montecarlo.simulate_det, montecarlo.skorokhod_upper_bound
    real_batch = montecarlo._batch_bounds

    def bound(z1, z2, lam, *args, **kwargs):
        orbits.setdefault(z1.horizon, set()).add(id(z1))
        return real_bound(z1, z2, lam, *args, **kwargs)

    def batch_bounds(det, res, lams):
        orbits.setdefault(det.horizon, set()).add(id(det))
        return real_batch(det, res, lams)

    monkeypatch.setattr(montecarlo, "simulate_det",
                        lambda *args: dets.append(args[-1]) or real_det(*args))
    monkeypatch.setattr(montecarlo, "skorokhod_upper_bound", bound)
    monkeypatch.setattr(montecarlo, "_batch_bounds", batch_bounds)
    cfg = _small_cfg(epsilons=(0.1, 0.05, 0.0), nu=0.5, frak_t=1, replicas=12, batch_size=4)
    sweep(p0, dc0, cfg)
    assert dets == [cfg.horizon_for(0.1), cfg.horizon_for(0.05)] == [3, 4]
    assert {T: len(ids) for T, ids in orbits.items()} == {3: 1, 4: 1}


def test_pool_sized_to_batches(p0, dc0, monkeypatch):
    # Serial stand-in for the process pool: records its size, starts no
    # process.  The pool is capped by the batches and by the CPUs this
    # process may use (its affinity mask, else the CPU count); each worker
    # process takes its share of the CPUs for its threads.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs):
            assert initializer is parallel.share_cpus and initargs == (max_workers,)
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)  # the affinity mask wins
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(parallel, "_processes", 2)
    assert parallel.thread_count() == 4
    monkeypatch.setattr(parallel, "_processes", 1)
    monkeypatch.setattr(parallel, "thread_count", lambda: 1)  # this test starts no thread
    bad_event_probs(p0, dc0, _small_cfg(replicas=20, batch_size=10, workers=64), 0.1)
    assert sizes == [2]
    many_batches = _small_cfg(replicas=40, batch_size=1, workers=100000)
    bad_event_probs(p0, dc0, many_batches, 0.1)
    assert sizes == [2, 8]
    for cpus in (1, None):
        # One usable CPU, or an unknown count: the batches run in this process.
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity")
            monkeypatch.setattr(os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        bad_event_probs(p0, dc0, many_batches, 0.1)
    assert sizes == [2, 8]


def test_good_event_constructive_pieces(p0, dc0):
    # On good replicas with delta <= t_min / (4 T): the aligning deformation
    # obeys the distortion cap and matches the mode components everywhere.
    from bucksim import StochConfig, align_schedules, simulate_batch, simulate_det
    T = 10
    eps = 0.003
    delta = eps ** 0.8
    assert delta <= dc0.t_min / (4.0 * T)
    cap = 4.0 * T * delta / dc0.t_min
    det = simulate_det(p0, (dc0.x_star, 1), T)
    det_t = det.schedule.taus
    cfg = StochConfig(epsilon=eps, dt=1e-3, horizon=T, seed=31)
    res = simulate_batch(p0, dc0.x_star, cfg, range(50), record_paths=True)
    grid = np.arange(0.0, float(T) + 1e-12, 1e-2)
    _, y_det = det.eval(grid)
    good = 0
    for b, sched in enumerate(res.schedules):
        if len(sched.taus) != T or np.abs(sched.taus - det_t).max() > delta:
            continue
        good += 1
        lam = align_schedules(det.schedule, sched, float(T))
        assert lam is not None
        assert lam.distortion() <= cap
        z2 = res.path(b)
        _, y_st = z2.eval(np.clip(lam(grid), 0.0, float(T)))
        assert np.array_equal(y_det, y_st)
    assert good >= 45  # nearly all replicas are good at this noise level


def test_growing_horizon_moment_decay(p0, dc0):
    # Horizons grow like 1/eps^0.3 while the estimates still collapse.
    cfg = McConfig(epsilons=(0.1, 0.05, 0.02), nu=0.3, varsigma=0.6, frak_t=4,
                   p=1.0, replicas=1000, dt=1e-3, seed=19, batch_size=512)
    assert cfg.horizon_for(0.1) == 7
    assert cfg.horizon_for(0.02) == 12
    m_big = distance_moment(p0, dc0, cfg, 0.1)
    m_small = distance_moment(p0, dc0, cfg, 0.02)
    assert m_small.moment <= 0.5 * m_big.moment


def test_good_event_requires_all_cycles(p0, dc0):
    # Missing cycles count as late violations at the first absent index.
    from bucksim.montecarlo import _first_bad_cycle
    det_t = np.array([0.4, 1.4, 2.4])
    n, sign = _first_bad_cycle(det_t, np.array([0.41]), 0.05, 3)
    assert (n, sign) == (2, +1)
    n, sign = _first_bad_cycle(det_t, np.array([0.3, 1.38, 2.41]), 0.05, 3)
    assert (n, sign) == (1, -1)
    n, sign = _first_bad_cycle(det_t, np.array([0.41, 1.38, 2.41]), 0.05, 3)
    assert (n, sign) == (0, 0)


# Values with ties, signed zeros and wide magnitudes.
_QUANTILE_POOL = [0.0, -0.0, 1.0, 1.0 + 2 ** -52, 2.5, 1e-300, 3e7, 1e300]


@settings(max_examples=400, deadline=None)
@given(d=st.lists(st.sampled_from(_QUANTILE_POOL) | st.floats(0.0, 1e6), min_size=1,
                  max_size=40),
       q=st.sampled_from([0.9, 0.99, 0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
def test_quantile_is_np_quantile_bit_for_bit(d, q):
    # The report's q90 and q99 without np.quantile, which imports numpy.ma:
    # the same doubles for ties, one or two values and constant arrays.
    for a in (np.array(d), np.full(len(d), d[0])):
        want = np.quantile(a, q)
        got = montecarlo._quantile(a, q)
        assert type(got) is float
        assert np.float64(got).view(np.uint64) == want.view(np.uint64), (a, q)
