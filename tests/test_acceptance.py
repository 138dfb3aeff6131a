"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here exactly as specified.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from bucksim import (ConverterParams, McConfig, StochConfig, TimeDeformation,
                     align_schedules, bad_event_probs, border_point,
                     derive_constants, distance_moment, find_fixed_point,
                     gaussian_tail, gaussian_tail_bound, on_flow, ou_step,
                     simulate_batch, simulate_det, skorokhod_upper_bound,
                     strobe_map, sweep, validate_params)
from bucksim.deterministic import DetSchedule
from bucksim.stochastic import ReplicaSchedule, ou_step_sd
from conftest import P0
from oracles import WarpedPath, skorokhod_bruteforce, skorokhod_uniform


@contextmanager
def criterion(num, label):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:2d}: {label}")
        raise
    print(f"[PASS] criterion {num:2d}: {label} ({time.time() - start:.1f}s)")


def test_criterion_1_parameter_gate():
    with criterion(1, "parameter gate"):
        assert validate_params(P0).ok
        cases = [
            (ConverterParams(0.5, 0.6, 0.9, 1.0), "beta lower bound"),
            (ConverterParams(0.5, 0.6, 1.3, 1.0), "beta upper bound"),
            (ConverterParams(0.5, 0.45, 1.2, 1.0), "alpha_off lower bound"),
            (ConverterParams(0.5, 0.75, 1.2, 1.0), "alpha_off upper bound"),
            (ConverterParams(0.8, 0.6, 1.2, 1.0), "alpha_on < log 2"),
            (ConverterParams(0.5, 0.6, 1.2, 2.4), "x_ref < beta/alpha_on"),
        ]
        for p, name in cases:
            check = validate_params(p)
            assert not check.ok
            assert name in check.violation_names(), (name, check.violation_names())


def test_criterion_2_fixed_point_and_stability():
    with criterion(2, "fixed point and stability"):
        dc = derive_constants(P0)
        x_star, fp = find_fixed_point(P0)
        x = 0.1
        for _ in range(200):
            x = strobe_map(P0, x)
        assert abs(x - x_star) <= 1e-9
        assert border_point(P0) < x_star < P0.x_ref
        assert abs(fp) < 1.0
        assert abs(x_star - 0.695) <= 1e-3
        assert abs(abs(fp) - 0.489) <= 2e-3
        assert dc.x_star == x_star


def test_criterion_3_periodic_orbit():
    with criterion(3, "periodic orbit"):
        dc = derive_constants(P0)
        path = simulate_det(P0, (dc.x_star, 1), 100)
        s = path.schedule
        assert len(s.on_to_off) == 100
        n = np.arange(1, 101)
        assert np.abs(s.on_to_off - (n - 1) - dc.t_star).max() <= 1e-9
        assert np.array_equal(s.off_to_on, n.astype(float))
        t = np.arange(0.0, 99.0 + 1e-12, 1e-3)
        x1, _ = path.eval(t)
        x2, _ = path.eval(t + 1.0)
        assert np.abs(x2 - x1).max() <= 1e-9


def test_criterion_4_exact_ou_marginals():
    with criterion(4, "exact OU marginals"):
        dc = derive_constants(P0)
        rng = np.random.default_rng(2024)
        n = 100_000
        for h, eps in ((0.1, 0.05), (0.01, 0.05), (0.1, 0.2)):
            draws = rng.standard_normal(n)
            vals = np.fromiter(
                (ou_step(P0, dc.x_star, h, eps, g) for g in draws),
                dtype=float, count=n)
            sd = ou_step_sd(P0, h, eps)
            mean_th = on_flow(P0, dc.x_star, h)
            assert abs(vals.mean() - mean_th) <= 3.0 * sd / math.sqrt(n)
            assert abs(vals.var(ddof=1) / (sd * sd) - 1.0) <= 0.05


def test_criterion_5_zero_noise_degeneration():
    with criterion(5, "zero-noise degeneration"):
        dc = derive_constants(P0)
        T, dt = 20, 1e-3
        det = simulate_det(P0, (dc.x_star, 1), T)
        cfg = StochConfig(epsilon=0.0, dt=dt, horizon=T, seed=0)
        res = simulate_batch(P0, dc.x_star, cfg, [0], record_paths=False)
        taus = res.schedules[0].taus
        assert len(taus) == T
        assert np.abs(taus - det.schedule.on_to_off).max() <= dt


def test_criterion_6_gaussian_tail_bound():
    with criterion(6, "gaussian tail bound"):
        xs = np.arange(1.0, 6.0 + 1e-9, 0.5)
        assert np.all(gaussian_tail(xs) <= gaussian_tail_bound(xs))
        assert abs(gaussian_tail(1.959964) - 0.025) <= 1e-6


def test_criterion_7_time_deformation_distortion_cap():
    with criterion(7, "time-deformation distortion bound"):
        dc = derive_constants(P0)
        T = 10
        delta = dc.t_min / (4.0 * T)
        cap = 4.0 * T * delta / dc.t_min
        det = DetSchedule(on_to_off=np.arange(T) + dc.t_star,
                          off_to_on=np.arange(1, T + 1, dtype=float),
                          horizon=float(T), start_on=0.0)
        rng = np.random.default_rng(7)
        for _ in range(1000):
            taus = det.on_to_off + rng.uniform(-delta, delta, T)
            stoch = ReplicaSchedule(taus=taus, partial_final_on=False)
            lam = align_schedules(det, stoch, float(T))
            assert lam is not None
            assert lam.distortion() <= cap


def test_criterion_8_bad_event_bound():
    with criterion(8, "bad-event probability bound"):
        dc = derive_constants(P0)
        cfg = McConfig(epsilons=(0.05, 0.01, 0.002), nu=0.0, varsigma=0.8,
                       frak_t=10, p=1.0, replicas=10_000, dt=1e-3, seed=42,
                       batch_size=1024, workers=1)
        for eps in cfg.epsilons:
            tab = bad_event_probs(P0, dc, cfg, eps)
            assert tab.delta_within_dplus  # delta = eps^0.8 < delta_plus here
            se = np.sqrt(tab.emp_prob * (1.0 - tab.emp_prob) / tab.replicas)
            assert np.all(tab.emp_prob <= tab.bound + 3.0 * se), eps
            assert tab.dominance_ok()


def test_criterion_9_flln_decay():
    with criterion(9, "noise-to-zero distance decay"):
        dc = derive_constants(P0)
        cfg = McConfig(epsilons=(0.1, 0.05, 0.02), nu=0.0, varsigma=0.8,
                       frak_t=10, p=1.0, replicas=1000, dt=1e-3, seed=42,
                       batch_size=512, workers=1)
        moments = [distance_moment(P0, dc, cfg, eps).moment for eps in cfg.epsilons]
        assert moments[0] > moments[1] > moments[2]
        assert moments[2] <= 0.5 * moments[0]


def test_criterion_10_skorokhod_oracle_agreement():
    with criterion(10, "distance oracle agreement"):
        dc = derive_constants(P0)
        z1 = simulate_det(P0, (dc.x_star, 1), 2)
        t1, t2 = dc.t_star, 1.0 + dc.t_star
        shift_pairs = [None, (0.02, 0.0), (0.05, -0.05), (-0.02, -0.02),
                       (0.05, 0.02)]
        for shifts in shift_pairs:
            if shifts is None:
                aligned = skorokhod_upper_bound(z1, z1, TimeDeformation.identity(2.0))
                bf = skorokhod_bruteforce(z1, z1)
                uni = skorokhod_uniform(z1, z1)
                assert aligned.bound <= 1e-12
                assert bf.bound <= 1e-12
                assert uni.bound <= 1e-12
                continue
            s1, s2 = shifts
            lam0 = TimeDeformation(np.array([0.0, t1, 1.0, t2, 2.0]),
                                   np.array([0.0, t1 + s1, 1.0, t2 + s2, 2.0]))
            z2 = WarpedPath(z1, lam0.inverse())
            aligned = skorokhod_upper_bound(z1, z2, lam0)
            bf = skorokhod_bruteforce(z1, z2)
            uni = skorokhod_uniform(z1, z2)
            assert bf.bound <= aligned.bound + 1e-9
            assert aligned.bound <= 1.05 * bf.bound + 1e-9, (shifts, aligned, bf)
            assert aligned.bound <= uni.bound + 1e-12
            assert bf.bound <= uni.bound + 1e-12


def test_criterion_11_sweep_determinism():
    with criterion(11, "sweep determinism across worker counts"):
        dc = derive_constants(P0)
        base = dict(epsilons=(0.1, 0.05, 0.02), nu=0.0, varsigma=0.8,
                    frak_t=10, p=1.0, replicas=300, dt=1e-3, seed=42,
                    batch_size=100)
        rep1 = sweep(P0, dc, McConfig(workers=1, **base))
        rep2 = sweep(P0, dc, McConfig(workers=2, **base))
        csv1, csv2 = rep1.to_csv_text(), rep2.to_csv_text()
        assert csv1.encode() == csv2.encode()
        import json
        assert (json.dumps(rep1.summary(), sort_keys=True)
                == json.dumps(rep2.summary(), sort_keys=True))
