import hashlib
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bucksim import (ConfigError, DomainError, StochConfig, StochPath, border_point,
                     crossing_probability, on_flow, on_hit_time, ou_step, parallel,
                     replica_generator, simulate_batch, simulate_det, simulate_stoch,
                     stochastic)
from bucksim.deterministic import MODE_OFF, MODE_ON, Schedule
from bucksim.params import mistiming_sd
from bucksim.stochastic import (BLOCK_ELEMENTS, BLOCK_STEPS_MAX, WINDOW_SDS, ou_step_sd,
                                schedule_modes, window_steps)


def test_ou_step_zero_noise_is_deterministic_flow(p0, dc0):
    for h in (1e-3, 0.1, 1.0):
        assert ou_step(p0, dc0.x_star, h, 0.0, 1.7) == on_flow(p0, dc0.x_star, h)


def test_ou_step_zero_gauss_is_conditional_mean(p0, dc0):
    x = dc0.x_star
    h = 0.2
    mean = on_flow(p0, x, h)
    assert ou_step(p0, x, h, 0.5, 0.0) == mean


def test_ou_moments_match_exact_law(p0, dc0):
    # Monte Carlo moment oracle against the closed-form transition law.
    rng = np.random.default_rng(99)
    n = 100_000
    for h, eps in ((0.1, 0.05), (0.01, 0.05), (0.1, 0.2)):
        draws = rng.standard_normal(n)
        vals = np.fromiter((ou_step(p0, dc0.x_star, h, eps, g) for g in draws),
                           dtype=float, count=n)
        sd = ou_step_sd(p0, h, eps)
        mean_th = on_flow(p0, dc0.x_star, h)
        assert abs(vals.mean() - mean_th) <= 3.0 * sd / math.sqrt(n)
        assert abs(vals.var(ddof=1) / (sd * sd) - 1.0) <= 0.05


def test_crossing_probability_examples():
    assert crossing_probability(1.0, 1.0, 1.0, 0.01, 0.05) == 1.0
    assert crossing_probability(0.2, 0.2, 1.0, 0.01, 0.05) < 1e-10
    eps, h = 0.05, 0.01
    x = 1.0 - eps * math.sqrt(h)
    assert crossing_probability(x, x, 1.0, h, eps) == pytest.approx(math.exp(-2.0), abs=1e-12)
    # Unequal gaps 0.002 and 0.005 pair into the exponent -2 (0.002)(0.005) / (eps^2 h).
    assert crossing_probability(0.998, 0.995, 1.0, h, eps) == pytest.approx(math.exp(-0.8))
    # An endpoint at the level gives 1 also where -2 / (eps^2 h) overflows.
    assert crossing_probability(1.0, 0.5, 1.0, 1e-3, 1e-160) == 1.0
    with pytest.raises(DomainError):
        crossing_probability(1.1, 0.5, 1.0, 0.01, 0.05)
    assert crossing_probability(0.5, 0.6, 1.0, 0.01, 0.0) == 0.0


def test_config_validation(p0):
    with pytest.raises(ConfigError):
        StochConfig(epsilon=0.05, dt=3e-4).validate()  # 1/dt not an integer
    with pytest.raises(ConfigError):
        StochConfig(epsilon=-0.1).validate()
    with pytest.raises(ConfigError):
        StochConfig(epsilon=0.1, horizon=-1).validate()
    for bad in (dict(dt=math.nan), dict(dt=math.inf), dict(seed=-1), dict(seed=1.5)):
        with pytest.raises(ConfigError):
            StochConfig(epsilon=0.1, **bad).validate()
    StochConfig(epsilon=0.0, dt=1e-3, horizon=5).validate()


def test_zero_noise_schedule_matches_deterministic(p0, dc0):
    T = 20
    det = simulate_det(p0, (dc0.x_star, 1), T)
    cfg = StochConfig(epsilon=0.0, dt=1e-3, horizon=T, seed=1)
    path = simulate_stoch(p0, (dc0.x_star, 1), cfg)
    assert len(path.schedule.taus) == T
    dev = np.abs(path.schedule.taus - det.schedule.taus)
    assert dev.max() <= 1e-3
    assert np.array_equal(path.schedule.sigmas, det.schedule.sigmas)


def test_zero_noise_pointwise_degeneration(p0, dc0):
    T = 5
    det = simulate_det(p0, (dc0.x_star, 1), T)
    cfg = StochConfig(epsilon=0.0, dt=1e-3, horizon=T, seed=1)
    path = simulate_stoch(p0, (dc0.x_star, 1), cfg)
    xd, _ = det.eval(path.t)
    slope = max(p0.beta, p0.alpha_off * p0.x_ref)
    assert np.abs(path.x - xd).max() <= slope * cfg.dt


def test_reproducibility_bit_identical(p0, dc0):
    cfg = StochConfig(epsilon=0.05, dt=1e-3, horizon=5, seed=42)
    a = simulate_stoch(p0, (dc0.x_star, 1), cfg)
    b = simulate_stoch(p0, (dc0.x_star, 1), cfg)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.schedule.taus, b.schedule.taus)
    assert np.array_equal(a.schedule.sigmas, b.schedule.sigmas)


def test_replica_and_stream_separation(p0, dc0):
    cfg0 = StochConfig(epsilon=0.05, dt=1e-3, horizon=2, seed=42)
    a = simulate_stoch(p0, (dc0.x_star, 1), cfg0, replica=0)
    b = simulate_stoch(p0, (dc0.x_star, 1), cfg0, replica=1)
    assert not np.array_equal(a.x, b.x)
    cfg1 = StochConfig(epsilon=0.05, dt=1e-3, horizon=2, seed=42, stream=1)
    c = simulate_stoch(p0, (dc0.x_star, 1), cfg1, replica=0)
    assert not np.array_equal(a.x, c.x)


def test_batch_matches_single_runs(p0, dc0):
    cfg = StochConfig(epsilon=0.05, dt=1e-3, horizon=3, seed=7)
    res = simulate_batch(p0, dc0.x_star, cfg, [0, 1, 2], record_paths=True)
    for k in range(3):
        single = simulate_stoch(p0, (dc0.x_star, 1), cfg, replica=k)
        assert np.array_equal(res.path(k).x, single.x)
        assert np.array_equal(res.schedules[k].taus, single.schedule.taus)


def test_schedule_sanity_per_replica(p0, dc0):
    cfg = StochConfig(epsilon=0.05, dt=1e-3, horizon=10, seed=3)
    for k in range(20):
        path = simulate_stoch(p0, (dc0.x_star, 1), cfg, replica=k)
        s = path.schedule
        prev_sigma = 0.0
        for n in range(len(s.taus)):
            assert s.taus[n] > prev_sigma
            assert s.sigmas[n] == math.floor(s.taus[n]) + 1.0
            prev_sigma = s.sigmas[n]
        if len(s.taus):
            x_at_tau, y_at_tau = path.eval(float(s.taus[0]))
            assert x_at_tau == p0.x_ref
            assert y_at_tau == 0


def test_paths_respect_mode_semantics(p0, dc0):
    cfg = StochConfig(epsilon=0.05, dt=1e-3, horizon=3, seed=11)
    path = simulate_stoch(p0, (dc0.x_star, 1), cfg)
    # x continuous at sigma: grid sample at integer restart equals OFF decay value
    s = path.schedule
    spu = cfg.steps_per_unit()
    for n in range(len(s.taus)):
        sig = s.sigmas[n]
        if sig <= cfg.horizon:
            i = int(round(sig)) * spu
            expect = p0.x_ref * math.exp(-p0.alpha_off * (sig - s.taus[n]))
            assert path.x[i] == pytest.approx(expect, abs=1e-12)
            assert path.y[i] == 1


def test_partial_final_cycle_truncation(p0):
    # Starting far below the border, the ON phase outlives a 1-unit horizon.
    x0 = 0.5 * border_point(p0)
    cfg = StochConfig(epsilon=0.0, dt=1e-3, horizon=1, seed=0)
    path = simulate_stoch(p0, (x0, 1), cfg)
    assert len(path.schedule.taus) == 0
    assert path.schedule.partial_final_on


def test_partial_final_on_follows_the_last_restart(p0, dc0):
    # No phase begins before a horizon of 0.
    cfg = StochConfig(epsilon=0.1, horizon=0)
    res = simulate_batch(p0, dc0.x_star, cfg, [0])
    assert not res.schedules[0].partial_final_on
    # Its passage steps are int64, as in every other batch.
    assert res.passage_steps[0].dtype == np.int64
    # A slow first passage restarts exactly at the horizon: that phase
    # begins at the horizon, not before it.
    cfg = StochConfig(epsilon=0.0, horizon=2)
    s = simulate_batch(p0, 0.5 * border_point(p0), cfg, [0]).schedules[0]
    assert s.cycles == 1 and s.sigmas[-1] == 2.0 and not s.partial_final_on
    # Noisy phases begun at a restart before the horizon that never pass.
    cfg = StochConfig(epsilon=0.4, dt=1e-2, horizon=4, seed=3)
    res = simulate_batch(p0, dc0.x_star, cfg, range(40))
    spu = cfg.steps_per_unit()
    partial = 0
    for b, s in enumerate(res.schedules):
        last_restart = s.sigmas[-1] if s.cycles else 0.0
        assert s.partial_final_on == (last_restart < cfg.horizon)
        if s.partial_final_on:
            partial += s.cycles > 0
            assert np.all(res.path(b).x[int(last_restart) * spu:] < p0.x_ref)
    assert partial


def test_slow_passage_is_supported(p0):
    # Zero noise from below the border: tau_1 > 1, sigma_1 = ceil(tau_1) = 2.
    x0 = 0.5 * border_point(p0)
    cfg = StochConfig(epsilon=0.0, dt=1e-3, horizon=3, seed=0)
    path = simulate_stoch(p0, (x0, 1), cfg)
    s = path.schedule
    assert s.taus[0] > 1.0
    assert s.sigmas[0] == 2.0


def test_dt_refinement_bias_below_noise(p0, dc0):
    # Passage-time discretization bias is below the sampling noise: the
    # difference of two independent mean estimates at dt and dt/2 stays
    # within 3 standard errors of the difference.
    def mean_tau1(dt):
        cfg = StochConfig(epsilon=0.05, dt=dt, horizon=1, seed=123)
        res = simulate_batch(p0, dc0.x_star, cfg, range(10_000), record_paths=False)
        t1 = np.array([s.taus[0] for s in res.schedules if len(s.taus)])
        assert len(t1) == 10_000  # crossing within the first period is certain here
        return t1.mean(), t1.std(ddof=1) / math.sqrt(len(t1))

    m1, se1 = mean_tau1(1e-3)
    m2, se2 = mean_tau1(5e-4)
    assert abs(m1 - m2) <= 3.0 * math.hypot(se1, se2)


def test_bridge_correction_lowers_mean_passage_time(p0, dc0):
    # The bridge test can only add earlier crossings.
    def mean_tau1(bridge):
        cfg = StochConfig(epsilon=0.2, dt=1e-2, horizon=1, seed=5,
                          bridge_correction=bridge)
        res = simulate_batch(p0, dc0.x_star, cfg, range(4000), record_paths=False)
        t1 = np.array([s.taus[0] for s in res.schedules if len(s.taus)])
        return t1.mean()

    assert mean_tau1(True) < mean_tau1(False)


def test_small_noise_passage_concentration(p0, dc0):
    # At eps = 0.01 nearly every replica keeps all ten passages within 0.05
    # of the deterministic ones (the tail bound makes the failure rate tiny).
    det = simulate_det(p0, (dc0.x_star, 1), 10)
    det_t = det.schedule.taus
    cfg = StochConfig(epsilon=0.01, dt=1e-3, horizon=10, seed=2024)
    res = simulate_batch(p0, dc0.x_star, cfg, range(1000), record_paths=False)
    ok = 0
    for s in res.schedules:
        if len(s.taus) == 10 and np.abs(s.taus - det_t).max() <= 0.05:
            ok += 1
    assert ok / 1000 >= 0.99


def test_replica_generator_is_philox_counter_based():
    g = replica_generator(0, 0)
    assert type(g.bit_generator).__name__ == "Philox"
    a = replica_generator(0, 1).standard_normal(4)
    b = replica_generator(0, 1).standard_normal(4)
    assert np.array_equal(a, b)


def _batch_digest(res) -> str:
    """sha256 of every schedule (taus, sigmas, partial_final_on), then each path's x and ys.

    The x of the paths in replica order are the bytes of the replicas x grid
    nodes array that the digests were recorded from.
    """
    h = hashlib.sha256()
    for s in res.schedules:
        h.update(s.taus.tobytes())
        h.update(s.sigmas.tobytes())
        h.update(bytes([s.partial_final_on]))
    if res.window is not None:
        for b in range(len(res.schedules)):
            h.update(res.path(b).x.tobytes())
        h.update(res.ys.tobytes())
    return h.hexdigest()


# Digests recorded with the step-by-step engine that visited every grid step
# of every replica (the block-edge cases with the period-by-period engine
# that stepped its ON replicas one step at a time); the time-blocked engine
# must reproduce them bit for bit.  (config (dt 1e-3 unless given), replica
# ids, start below the border, digest with paths, digest without paths)
ENGINE_PINS = {
    "bridge": (dict(epsilon=0.05, horizon=3, seed=7), [5, 0, 17], False,
               "99b3145ab8c94d70cef0f7a95d4de0a5e3b11e63ed9e0b960216c9c73fd88aed",
               "2850add979767cc82d0c1ea3c310e01c7d942b2b35f79a1831ac64a909240b17"),
    "no-bridge": (dict(epsilon=0.05, horizon=3, seed=7, bridge_correction=False),
                  [5, 0, 17], False,
                  "22c062875e67c61ce1a35415ea75db083eb624616167043efd02d2d139884ba4",
                  "d7ff6393873f75b9c5c45919e53c8a19e999525ae1ae24e09d08f903075131cd"),
    "eps-0": (dict(epsilon=0.0, horizon=3, seed=7), [0, 1], False,
              "8f9ba1f1a190c9ecca099d2fa8d170a8310fa7ea87f36894912a530e6fd0b345",
              "47fa2660001dbf2e6d2bd2fde8e12e5cc4cf0fb5dff94b840439b10e5bf6be92"),
    "slow-passages": (dict(epsilon=0.3, horizon=8, seed=11), list(range(40)), False,
                      "5735ba8d2bb958dc9f45b384e52238edfb61fee2abbcfe12d174d07b0bc25526",
                      "5aacf1a2b48193761ffdcc23e37a872f1238185fab1794d23ca4a0ee31c016f9"),
    "slow-start": (dict(epsilon=0.3, horizon=4, seed=2), [3, 1], True,
                   "ed5b2b295453e04dfec5b28b5788174c212fafcd88997058e0ac31198ffb8843",
                   "9f832c7e363d9c2cba9af9548fc1a58f4f3bfced6c63de5532211964d934f93d"),
    "partial-final-on": (dict(epsilon=0.05, horizon=1, seed=4), [2, 9, 4], True,
                         "57f2e78ebed69f21ae8cd270bb5bb4e0ddf9bb58778744796b1abbde4bd0e5c5",
                         "75c8fd04ad916aec3e3d5cb76a452b116b3d4d0912a0a485e9fb8e3d240e210c"),
    "horizon-0": (dict(epsilon=0.05, horizon=0, seed=7), [5, 0, 17], False,
                  "b52d8d04c2b36f202000d202f8aeb80fc909bd5d91d769cc3d67eca450ad1530",
                  "709e80c88487a2411e1ee4dfb9f22a861492d20c4765150c0c794abd70f8147c"),
    "horizon-1": (dict(epsilon=0.05, horizon=1, seed=7), [5, 0, 17], False,
                  "9d2b2f7fc42fab2dbbba3431e7682373116dc805020f019594f13927ae7db46b",
                  "da69774dc742ab71af7b12e3d8bdfb481147ba84a4d01764e86c03cc4f8c7b89"),
    # Block edges: a period shorter than one block, blocks shortened by the
    # element budget, and many passages per block, some on a period's last step.
    "short-period": (dict(dt=1 / 7, epsilon=0.1, horizon=6, seed=3), [5, 0, 17, 3], False,
                     "6d6bee53c8f7eb193e20274e00c23b2730c6ab23af8bdc0f4caa014253a83fdf",
                     "8c2b3ca1c38975f078d981f610188923f9e24cf0933294bd524749345a23d851"),
    "budget-shortened": (dict(epsilon=0.05, horizon=2, seed=8), list(range(600)), False,
                         "73389857ecca4abc124069c62c23f509dac0759ec5fa1b8ea09834da46cbc1cc",
                         "439cbb62020b92d80719f6717ef5839a88c651d68e25b38e76717053710d1de9"),
    "crowded-blocks": (dict(dt=0.1, epsilon=0.3, horizon=6, seed=12), list(range(200)), False,
                       "000317e42f036a0541508eb4757546aa4b8aab303610728ca8f55f4077f68699",
                       "1919369a5c6a4cdeddda970867f6d1193117f80229642397abfc44a0f8ed2260"),
    "crowded-no-bridge": (dict(dt=0.1, epsilon=0.3, horizon=6, seed=12,
                               bridge_correction=False), list(range(200)), False,
                          "bb1e02c18e0b3baae4403745d751ea960507760c29851f17cdde72f10a232ec0",
                          "10f9977ba600451186204a1c19b76a25f3b2d68500b53460b53abf50883292c4"),
}


@pytest.mark.parametrize("record_paths", [True, False], ids=["paths", "no-paths"])
@pytest.mark.parametrize("case", sorted(ENGINE_PINS))
def test_engine_bytes_pinned(p0, dc0, case, record_paths):
    kw, ids, below_border, with_paths, without_paths = ENGINE_PINS[case]
    x0 = 0.5 * border_point(p0) if below_border else dc0.x_star
    cfg = StochConfig(**{"dt": 1e-3, **kw})
    res = simulate_batch(p0, x0, cfg, ids, record_paths=record_paths)
    assert "ys" not in vars(res)  # the modes are derived from the schedules when read
    assert _batch_digest(res) == (with_paths if record_paths else without_paths)
    if case.startswith("slow"):
        # The case keeps its point: some ON phase spans a clock pulse.
        assert any(np.any(s.taus - np.concatenate([[0.0], s.sigmas[:-1]]) >= 1.0)
                   for s in res.schedules if len(s.taus))
    if case == "partial-final-on":
        assert all(s.partial_final_on for s in res.schedules)
    spu = cfg.steps_per_unit()
    if case == "short-period":
        assert spu < BLOCK_STEPS_MAX
    if case == "budget-shortened":
        assert BLOCK_ELEMENTS // len(ids) < BLOCK_STEPS_MAX
    if case.startswith("crowded"):
        # Some passage lies strictly inside the last step of a period.
        assert any(np.any(s.taus % 1.0 > 1.0 - 1.0 / spu + 1e-9) for s in res.schedules)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_engine_bytes_under_any_thread_count(p0, dc0, monkeypatch, threads):
    # The draws of a batch are filled by row ranges on several threads; each
    # replica's stream is still drawn by one thread, in order.
    monkeypatch.setattr(parallel, "thread_count", lambda: threads)
    for case, (kw, ids, below_border, with_paths, without_paths) in ENGINE_PINS.items():
        x0 = 0.5 * border_point(p0) if below_border else dc0.x_star
        cfg = StochConfig(**{"dt": 1e-3, **kw})
        for record_paths, digest in ((True, with_paths), (False, without_paths)):
            res = simulate_batch(p0, x0, cfg, ids, record_paths=record_paths)
            assert _batch_digest(res) == digest, (case, record_paths)


def _store_bytes(p, x0, cfg, B) -> int:
    """Bytes of a batch's one store, B (T W + spu) doubles (_simulate_windows)."""
    spu = cfg.steps_per_unit()
    return B * (cfg.horizon * window_steps(p, x0, cfg) + spu) * 8


def _traced_peak(p, x0, cfg, B, record_paths):
    """tracemalloc peak of one batch, and the batch.

    A small batch first makes the one-time allocations.
    """
    simulate_batch(p, x0, replace(cfg, horizon=1), range(2), record_paths=record_paths)
    tracemalloc.start()
    try:
        res = simulate_batch(p, x0, cfg, range(B), record_paths=record_paths)
        return tracemalloc.get_traced_memory()[1], res
    finally:
        tracemalloc.stop()


# A block's scratch is bounded, and the grid times grow with T, not with B:
# B large enough that they stay small next to the store.  The passage record
# grows with B T, at 16 B per replica-period beside the store's 8 W.
MEMORY_B, MEMORY_T = 256, 20


@pytest.mark.parametrize("record_paths", [False, True], ids=["no-paths", "paths"])
def test_batch_peak_is_its_store(p0, dc0, record_paths):
    # A batch holds one store: each period's first W normals and one period
    # of bridge uniforms, B (T W + spu) doubles; with paths it writes x over
    # the normals it was stepped with.  Either way its traced peak is that
    # store within 5 %.
    for eps in (0.1, 0.05):
        cfg = StochConfig(epsilon=eps, dt=1e-3, horizon=MEMORY_T, seed=3)
        store = _store_bytes(p0, dc0.x_star, cfg, MEMORY_B)
        peak, _ = _traced_peak(p0, dc0.x_star, cfg, MEMORY_B, record_paths=record_paths)
        assert store <= peak < 1.05 * store, (eps, peak / store)
    if not record_paths:
        # At eps = 0 without paths it holds nothing of size B n.
        B, cfg = 64, StochConfig(epsilon=0.0, dt=1e-3, horizon=10, seed=3)
        n = cfg.horizon * cfg.steps_per_unit()
        assert _traced_peak(p0, dc0.x_star, cfg, B, record_paths=False)[0] < 0.25 * B * n * 8


@pytest.mark.parametrize("record_paths", [False, True], ids=["no-paths", "paths"])
def test_long_horizon_batch_holds_its_store_and_passage_record(p0, dc0, record_paths):
    # The long-horizon workload's batch shape: each passage is written once,
    # into the passage record, so the traced peak is the store plus about
    # 16 B per replica-period and a block's scratch.  The batch keeps only
    # each period's window of normals and x values (at eps 0.01 on the orbit
    # the first 424 of a period's 1000 steps).
    B, cfg = 128, StochConfig(epsilon=0.01, dt=1e-3, horizon=100, seed=3)
    store = _store_bytes(p0, dc0.x_star, cfg, B)
    peak, res = _traced_peak(p0, dc0.x_star, cfg, B, record_paths=record_paths)
    assert store <= peak < 1.04 * store, peak / store
    if record_paths:
        assert res.window.shape == (B, cfg.horizon, window_steps(p0, dc0.x_star, cfg))


def test_window_steps_rule(p0, dc0):
    # W = min(spu, ceil(spu (d_max + WINDOW_SDS eps s_inf)) + 1), d_max the
    # longest deterministic ON phase from x0; W = spu once a deterministic
    # phase spans a clock pulse.
    s_inf = mistiming_sd(p0, dc0)
    for eps, dt in ((0.01, 1e-3), (0.05, 1e-3), (0.1, 1e-3), (0.0, 1e-2), (0.002, 1 / 7)):
        cfg = StochConfig(epsilon=eps, dt=dt, horizon=20)
        spu = cfg.steps_per_unit()
        expect = min(spu, math.ceil(spu * (dc0.t_star + WINDOW_SDS * eps * s_inf)) + 1)
        assert window_steps(p0, dc0.x_star, cfg) == expect < spu
    for eps, W in ((0.01, 424), (0.05, 536), (0.1, 676)):
        assert window_steps(p0, dc0.x_star, StochConfig(epsilon=eps, horizon=50)) == W
    for eps in (0.25, 1e300):
        assert window_steps(p0, dc0.x_star, StochConfig(epsilon=eps, horizon=10)) == 1000
    slow = StochConfig(epsilon=0.0, horizon=3)
    assert window_steps(p0, 0.5 * border_point(p0), slow) == slow.steps_per_unit()
    # Off the orbit the first phase is the longest: from 1.5 x_border it
    # lasts 0.96 of a period, and the window covers it.
    x0 = 1.5 * border_point(p0)
    assert window_steps(p0, x0, slow) == math.ceil(1000 * on_hit_time(p0, x0)) + 1 < 1000


def _spy_windows(monkeypatch) -> list[int]:
    """The window W of every pass simulate_batch makes over the periods."""
    runs = []
    real = stochastic._simulate_windows

    def spy(*args):
        runs.append(args[-1])
        return real(*args)

    monkeypatch.setattr(stochastic, "_simulate_windows", spy)
    return runs


def _spy_generators(monkeypatch) -> list[int]:
    """The replica id of every stream the engine builds, in call order."""
    calls = []
    real = stochastic.replica_generator

    def spy(seed, replica, stream=0):
        calls.append(replica)
        return real(seed, replica, stream)

    monkeypatch.setattr(stochastic, "replica_generator", spy)
    return calls


def _check_spills(res, ids, gens, noisy) -> set[int]:
    """The rows of a batch's spilled replicas, checked against the streams it built.

    Each replica's stream is built once for the fill and at most once more
    for its spills.  With paths the rows with a spill record are the ones
    (with noise) whose stream was built a second time.
    """
    spill_ids = gens[len(ids):] if noisy else []
    assert sorted(gens[:len(ids)]) == (sorted(ids) if noisy else [])
    assert len(set(spill_ids)) == len(spill_ids) <= len(ids)
    rows = {list(ids).index(r) for r in spill_ids}
    if res.spills is not None:
        recorded = {b for b, s in enumerate(res.spills) if s}
        assert not noisy or recorded == rows
        rows = recorded
    return rows


@pytest.mark.parametrize("window", ["one-step", "below-passage"])
def test_window_overflow_spills_to_the_periods_end(p0, dc0, monkeypatch, window):
    # A phase still ON at its window's edge steps on to the period's end in
    # the same pass, with normals re-drawn from its own stream, and the
    # batch keeps the pinned bytes.  A window a few steps below the orbit's
    # passage lets some replicas pass inside it before the others spill.
    runs = _spy_windows(monkeypatch)
    gens = _spy_generators(monkeypatch)
    spilled = 0
    for case, (kw, ids, below_border, with_paths, without_paths) in ENGINE_PINS.items():
        x0 = 0.5 * border_point(p0) if below_border else dc0.x_star
        cfg = StochConfig(**{"dt": 1e-3, **kw})
        spu = cfg.steps_per_unit()
        W = 1 if window == "one-step" else max(1, math.floor(spu * dc0.t_star) - 3)
        monkeypatch.setattr(stochastic, "window_steps", lambda p, x0, cfg: W)
        for record_paths, digest in ((True, with_paths), (False, without_paths)):
            runs.clear()
            gens.clear()
            res = simulate_batch(p0, x0, cfg, ids, record_paths=record_paths)
            assert _batch_digest(res) == digest, (case, record_paths)
            assert runs == [W], (case, record_paths)
            rows = _check_spills(res, ids, gens, cfg.epsilon > 0.0)
            if not cfg.horizon:
                assert not rows
            elif window == "one-step" and (record_paths or cfg.epsilon > 0.0):
                # No replica passes in its first step, so every one spills.
                assert rows == set(range(len(ids))), (case, record_paths)
            spilled += len(rows)
    assert spilled


def test_clock_spanning_phase_alone_spills(p0, dc0, monkeypatch):
    # A window that holds every in-period passage of the batch: the ON
    # phases that span a clock pulse still spill, and only theirs, bytes
    # unchanged.  Replicas ON at the horizon would spill too, so they are
    # left out.
    cfg = StochConfig(epsilon=0.3, dt=1e-2, horizon=8, seed=11)
    spu = cfg.steps_per_unit()
    ids = [k for k, s in enumerate(simulate_batch(p0, dc0.x_star, cfg, range(40)).schedules)
           if not s.partial_final_on]
    ref = simulate_batch(p0, dc0.x_star, cfg, ids)
    in_period, spanning = [], set()
    for b, (s, steps) in enumerate(zip(ref.schedules, ref.passage_steps)):
        assert not s.partial_final_on
        starts = np.concatenate([[0.0], s.sigmas[:-1]])
        inside = s.taus - starts < 1.0
        if not inside.all():
            spanning.add(b)
        in_period.append(steps[inside] - np.rint(starts[inside] * spu).astype(np.int64))
    W = int(np.concatenate(in_period).max()) + 1
    assert spanning and W < spu
    runs = _spy_windows(monkeypatch)
    gens = _spy_generators(monkeypatch)
    monkeypatch.setattr(stochastic, "window_steps", lambda p, x0, cfg: W)
    res = simulate_batch(p0, dc0.x_star, cfg, ids)
    assert runs == [W]
    assert _check_spills(res, ids, gens, noisy=True) == spanning
    assert _batch_digest(res) == _batch_digest(ref)


def test_spills_build_each_stream_at_most_twice(p0, dc0, monkeypatch):
    # With a one-step window every replica spills in every period of a
    # 20-period batch; each builds one spill stream for all of them, which
    # moves on from where its last spill stopped.
    ids = [3, 0, 8, 5]
    for bridge in (True, False):
        cfg = StochConfig(epsilon=0.05, dt=1e-2, horizon=20, seed=5, bridge_correction=bridge)
        ref = simulate_batch(p0, dc0.x_star, cfg, ids)
        with monkeypatch.context() as mp:
            gens = _spy_generators(mp)
            mp.setattr(stochastic, "window_steps", lambda p, x0, cfg: 1)
            res = simulate_batch(p0, dc0.x_star, cfg, ids)
        assert len(gens) <= 2 * len(ids)
        assert _check_spills(res, ids, gens, noisy=True) == set(range(len(ids)))
        assert [len(s) for s in res.spills] == [cfg.horizon] * len(ids)
        assert _batch_digest(res) == _batch_digest(ref)


@settings(max_examples=40, deadline=None)
@given(W=st.integers(1, 100), bridge=st.booleans(), record_paths=st.booleans(),
       slow_start=st.booleans())
def test_any_window_gives_the_bytes_of_whole_periods(p0, dc0, W, bridge, record_paths,
                                                     slow_start):
    # The window sets only the batch's memory: any W in [1, spu] gives the
    # bytes of W = spu, with passages inside and past it and phases that
    # span a clock pulse.
    x0 = 0.5 * border_point(p0) if slow_start else dc0.x_star
    cfg = StochConfig(epsilon=0.3, dt=1e-2, horizon=5, seed=11, bridge_correction=bridge)
    spu = cfg.steps_per_unit()
    ids = [6, 1, 4, 9, 2, 7]
    got = stochastic._simulate_windows(p0, x0, cfg, ids, record_paths, W)
    ref = stochastic._simulate_windows(p0, x0, cfg, ids, record_paths, spu)
    assert _batch_digest(got) == _batch_digest(ref)


def test_path_accessor_needs_paths(p0, dc0):
    res = simulate_batch(p0, dc0.x_star, StochConfig(epsilon=0.05, horizon=2), range(2),
                         record_paths=False)
    assert res.window is None and res.ys is None
    with pytest.raises(DomainError):
        res.path(0)


def test_bridge_test_emits_no_float_warnings(p0, dc0):
    # At an endpoint crossing the bridge exponent is positive, of order
    # (drift step)^2 / (eps^2 dt): about 1e4 at eps 1e-4.  It is clamped at
    # 0, so exp never overflows.  At eps 1e-160, eps^2 dt is subnormal and
    # the exponent's constant is -inf; at eps 0.3 many replicas cross early
    # in a block and the steps after their passages run to its end.
    for eps in (1e-4, 1e-160, 0.3):
        cfg = StochConfig(epsilon=eps, dt=1e-3, horizon=3, seed=9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = simulate_batch(p0, dc0.x_star, cfg, range(32), record_paths=True)
        assert all(len(s.taus) for s in res.schedules)


def _replay(p, x0, cfg, res, b, replica) -> tuple[int, int]:
    """Replay replica b of a batch with the scalar rules; (endpoint, bridge-only) passages.

    The normal of step i is element i of the replica's stream and the
    uniform of step i element n + i.  Each recorded ON step before a
    passage is ou_step with its normal; the passage is the first step whose
    end, recomputed with ou_step, reaches x_ref or whose uniform falls below
    crossing_probability; tau is the interpolated crossing or the step's
    midpoint; the next phase starts at node (floor(tau) + 1) spu from the
    closed-form OFF decay.  Every comparison is exact.
    """
    spu = cfg.steps_per_unit()
    n, h, eps, level = cfg.horizon * spu, 1.0 / spu, cfg.epsilon, p.x_ref
    gen = replica_generator(cfg.seed, replica, cfg.stream)
    z = gen.standard_normal(n) if eps > 0.0 else np.zeros(n)
    u = gen.random(n) if cfg.bridge_correction and eps * eps * h > 0.0 else None
    x, s, steps = res.path(b).x, res.schedules[b], res.passage_steps[b]
    assert x[0] == x0
    kinds = [0, 0]
    start = m = 0
    while start < n:
        for i in range(start, n):
            x_next = ou_step(p, x[i], h, eps, z[i])
            if x_next >= level:
                tau = i / spu + h * ((level - x[i]) / max(x_next - x[i], 1e-300))
                kinds[0] += 1
                break
            if u is not None and u[i] < crossing_probability(x[i], x_next, level, h, eps):
                tau = i / spu + 0.5 * h
                kinds[1] += 1
                break
            assert x[i + 1] == x_next, (b, i)
        else:
            # An ON phase begun before the horizon, still ON there.
            assert s.partial_final_on and len(s.taus) == m, b
            return kinds
        assert s.taus[m] == tau and steps[m] == i, (b, m)
        sigma = math.floor(tau) + 1.0
        assert s.sigmas[m] == sigma
        start, m = int(sigma) * spu, m + 1
        if start <= n:
            assert x[start] == level * np.exp(-p.alpha_off * (sigma - tau)), (b, m)
    assert not s.partial_final_on and len(s.taus) == m, b
    return kinds


@pytest.mark.parametrize("kw, ids", [
    pytest.param(dict(epsilon=0.05, dt=1e-3), [4, 0, 9], id="0.05-0.001"),
    pytest.param(dict(epsilon=0.3, dt=0.1), [4, 0, 9], id="0.3-0.1"),
    pytest.param(dict(epsilon=1e-6, dt=1 / 7), [4, 0, 9], id="1e-06-0.14285714285714285"),
    pytest.param(dict(epsilon=0.0, dt=1e-2), [4, 0, 9], id="0.0-0.01"),
    # Bridge-heavy: the batch of test_clock_spanning_phase_alone_spills.
    pytest.param(dict(epsilon=0.3, dt=1e-2, horizon=8, seed=11, stream=0), range(40),
                 id="bridge-heavy"),
])
def test_engine_replays_every_on_step(p0, dc0, kw, ids):
    # Every ON step, passage, tau and restart of whole batches, with the
    # bridge test on and off, follows the scalar rules bit for bit (_replay).
    for bridge in (True, False):
        cfg = StochConfig(**{"horizon": 3, "seed": 13, "stream": 2, **kw,
                             "bridge_correction": bridge})
        res = simulate_batch(p0, dc0.x_star, cfg, ids, record_paths=True)
        endpoint, bridge_only = np.sum([_replay(p0, dc0.x_star, cfg, res, b, k)
                                        for b, k in enumerate(ids)], axis=0)
        assert endpoint > 0
        if not bridge:
            assert bridge_only == 0
        elif cfg.epsilon >= 0.05:
            assert bridge_only > 0


def test_schedule_modes_match_the_where_formula():
    # The parity form equals np.where(idx % 2 == 0, MODE_ON, MODE_OFF) as int8,
    # also at queries exactly on a switch time (right-continuous: OFF at tau),
    # for unsorted queries (counted one by one) and sorted ones (run fill).
    rng = np.random.default_rng(23)
    for k in (0, 1, 2, 5, 40):
        taus = np.sort(rng.uniform(0.0, 1.0, k)) + np.arange(k)
        sigmas = np.floor(taus) + 1.0
        q = np.concatenate([rng.uniform(0.0, k + 1.0, 500), taus, sigmas,
                            np.nextafter(taus, -np.inf), np.nextafter(sigmas, -np.inf),
                            np.nextafter(taus, np.inf), np.nextafter(sigmas, np.inf),
                            [0.0, k + 1.0]])
        bnds = np.empty(2 * k)
        bnds[0::2], bnds[1::2] = taus, sigmas
        for qs in (q, np.sort(q), np.linspace(0.0, k + 1.0, 7 * k + 2)):
            idx = np.searchsorted(bnds, qs, side="right")
            old = np.where(idx % 2 == 0, MODE_ON, MODE_OFF).astype(np.int8)
            new = schedule_modes(taus, sigmas, qs)
            assert new.dtype == np.int8 and np.array_equal(new, old)
        assert np.all(schedule_modes(taus, sigmas, taus) == MODE_OFF)
        assert np.all(schedule_modes(taus, sigmas, sigmas) == MODE_ON)


def _interp_on_inserted_knots(path: StochPath, q: np.ndarray) -> np.ndarray:
    """np.interp on the whole grid with each passage inserted before the first node not below it."""
    ins = np.searchsorted(path.t, path.schedule.taus)
    return np.interp(q, np.insert(path.t, ins, path.schedule.taus),
                     np.insert(path.x, ins, path.level))


def _check_eval_queries(path: StochPath, rng) -> None:
    # Dense queries (the grid and more) and sparse ones (around the passages),
    # each sorted and shuffled, plus a stretch of the grid.
    taus = path.schedule.taus
    sparse = np.concatenate([taus, np.nextafter(taus, -np.inf), np.nextafter(taus, np.inf),
                             rng.uniform(0.0, path.horizon, 5), [0.0, path.horizon]])
    sparse = np.sort(np.clip(sparse, 0.0, path.horizon))
    dense = np.sort(np.concatenate([path.t, sparse]))
    stretch = path.t[len(path.t) // 3:len(path.t) // 2 + 1]
    for q in (dense, rng.permutation(dense), sparse, rng.permutation(sparse), stretch):
        x, y = path.eval(q)
        assert np.array_equal(x.view(np.uint64), _interp_on_inserted_knots(path, q).view(np.uint64))
        assert np.array_equal(y, schedule_modes(taus, path.schedule.sigmas, q))


@pytest.mark.parametrize("kw", [dict(epsilon=0.05, horizon=3, seed=7),
                                dict(dt=0.1, epsilon=0.3, horizon=6, seed=12),
                                dict(epsilon=0.05, horizon=0, seed=7)])
def test_path_eval_matches_np_interp_on_inserted_knots(p0, dc0, kw):
    # eval interpolates on knots around its queries only; the doubles must
    # be those of np.interp on the whole knot array.
    cfg = StochConfig(**{"dt": 1e-3, **kw})
    spu = cfg.steps_per_unit()
    res = simulate_batch(p0, dc0.x_star, cfg, range(40))
    rng = np.random.default_rng(31)
    mid_step = 0
    for b, s in enumerate(res.schedules):
        mid_step += int(np.count_nonzero(s.taus * spu % 1.0 == 0.5))
        _check_eval_queries(res.path(b), rng)
    if cfg.horizon:
        assert mid_step  # bridge passages, half a step after a node


def test_path_eval_with_a_passage_on_a_node(p0):
    # A passage exactly on a node is a knot just before that node's own knot.
    t = np.arange(31) / 10.0
    x = np.linspace(0.2, 0.9, 31)
    taus = np.array([t[3], t[6] + 0.05, t[12], t[29], t[30]])
    for at in ([0], [1], [2, 3], [4], []):
        s = Schedule(taus=taus[at], partial_final_on=False)
        path = StochPath(t=t, x=x, schedule=s, level=p0.x_ref)
        _check_eval_queries(path, np.random.default_rng(len(at)))
