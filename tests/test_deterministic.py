import math

import numpy as np
import pytest

from bucksim import (DomainError, border_point, off_flow, on_flow,
                     on_hit_time, sample_path, simulate_det, strobe_map)
from conftest import T_STAR_P0, random_valid_params


def test_on_flow_identity_at_zero(p0, dc0):
    assert on_flow(p0, dc0.x_star, 0.0) == dc0.x_star


def test_on_flow_equilibrium_limit(p0, dc0):
    assert on_flow(p0, dc0.x_star, 1e6) == pytest.approx(2.4, abs=1e-12)


def test_on_flow_reaches_threshold_at_t_star(p0, dc0):
    assert on_flow(p0, dc0.x_star, dc0.t_star) == pytest.approx(1.0, abs=1e-9)


def test_off_flow_examples(p0, dc0):
    assert off_flow(p0, 0.0) == p0.x_ref
    assert off_flow(p0, 1.0 - dc0.t_star) == pytest.approx(dc0.x_star, abs=1e-9)
    assert off_flow(p0, math.log(2.0) / p0.alpha_off) == pytest.approx(0.5, abs=1e-12)


def test_flows_reject_negative_dt(p0):
    with pytest.raises(DomainError):
        on_flow(p0, 0.5, -1e-9)
    with pytest.raises(DomainError):
        off_flow(p0, -1e-9)


def test_on_hit_time_examples(p0, dc0):
    assert on_hit_time(p0, dc0.x_star) == pytest.approx(T_STAR_P0, abs=1e-9)
    assert on_hit_time(p0, p0.x_ref) == 0.0
    assert on_hit_time(p0, border_point(p0)) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(DomainError):
        on_hit_time(p0, 2.4)


def test_periodic_schedule(p0, dc0):
    path = simulate_det(p0, (dc0.x_star, 1), 5)
    s = path.schedule
    assert len(s.on_to_off) == 5 and len(s.off_to_on) == 5
    for n in range(1, 6):
        assert s.on_to_off[n - 1] == pytest.approx(n - 1 + dc0.t_star, abs=1e-9)
        assert s.off_to_on[n - 1] == float(n)


def test_boundary_orbit_spans_full_period(p0):
    path = simulate_det(p0, (border_point(p0), 1), 2)
    s = path.schedule
    assert s.on_to_off[0] == pytest.approx(1.0, abs=1e-9)
    assert s.off_to_on[0] == 2.0


def test_zero_horizon(p0, dc0):
    path = simulate_det(p0, (dc0.x_star, 1), 0)
    assert path.schedule.cycles == 0
    assert path.horizon == 0.0
    assert path.eval(0.0) == (dc0.x_star, 1)


def test_simulate_rejects_bad_inputs(p0):
    with pytest.raises(DomainError):
        simulate_det(p0, (0.0, 1), 5)
    with pytest.raises(DomainError):
        simulate_det(p0, (1.0, 1), 5)
    with pytest.raises(DomainError):
        simulate_det(p0, (0.5, 1), -1)
    with pytest.raises(DomainError):
        simulate_det(p0, (0.5, 2), 5)


def test_eval_basics(p0, dc0):
    path = simulate_det(p0, (dc0.x_star, 1), 5)
    assert path.eval(0.0) == (dc0.x_star, 1)
    for k in range(6):
        x, y = path.eval(float(k))
        assert x == pytest.approx(dc0.x_star, abs=1e-9)
        assert y == 1
    t1 = float(path.schedule.on_to_off[0])
    x, y = path.eval(t1)
    assert x == p0.x_ref and y == 0
    with pytest.raises(DomainError):
        path.eval(5.0 + 1e-9)
    with pytest.raises(DomainError):
        path.eval(-1e-9)


def test_periodicity_on_dense_grid(p0, dc0):
    path = simulate_det(p0, (dc0.x_star, 1), 100)
    t = np.arange(0.0, 99.0 + 1e-12, 1e-3)
    x1, _ = path.eval(t)
    x2, _ = path.eval(t + 1.0)
    assert np.abs(x2 - x1).max() <= 1e-9


def test_strobe_consistency_random_starts(p0):
    rng = np.random.default_rng(17)
    for x0 in rng.uniform(1e-3, p0.x_ref - 1e-3, size=50):
        path = simulate_det(p0, (float(x0), 1), 10)
        x = float(x0)
        for k in range(11):
            xe, _ = path.eval(float(k))
            assert abs(xe - x) <= 1e-10
            x = strobe_map(p0, x)


def test_continuity_at_switches(p0):
    # Left limit from the segment formulas vs the value after the switch.
    rng = np.random.default_rng(3)
    for p in [p0] + random_valid_params(rng, 10):
        path = simulate_det(p, (0.3 * p.x_ref, 1), 10)
        m = p.beta / p.alpha_on
        for i in range(len(path.seg_mode) - 1):
            t_end = path.boundaries[i + 1]
            at, ax = path.boundaries[i], path.seg_anchor_x[i]
            if path.seg_mode[i] == 1:
                left = m + (ax - m) * math.exp(-p.alpha_on * (t_end - at))
            else:
                left = ax * math.exp(-p.alpha_off * (t_end - at))
            right, _ = path.eval(float(t_end))
            assert abs(left - right) <= 1e-12 * max(1.0, p.x_ref)


def test_mode_occupancy_measure(p0, dc0):
    path = simulate_det(p0, (dc0.x_star, 1), 20)
    s = path.schedule
    starts = np.concatenate([[s.start_on], s.off_to_on[:-1]])
    on_total = float(np.sum(s.on_to_off - starts))
    seg_on = 0.0
    for i in range(len(path.seg_mode)):
        if path.seg_mode[i] == 1:
            seg_on += path.boundaries[i + 1] - path.boundaries[i]
    assert seg_on == pytest.approx(on_total, abs=1e-12)


def test_off_initial_mode(p0):
    path = simulate_det(p0, (0.8, 0), 3)
    assert path.schedule.start_on == 1.0
    x, y = path.eval(0.5)
    assert y == 0
    assert x == pytest.approx(0.8 * math.exp(-0.6 * 0.5), abs=1e-12)
    x1, y1 = path.eval(1.0)
    assert y1 == 1
    assert x1 == pytest.approx(0.8 * math.exp(-0.6), abs=1e-12)


def test_on_phase_spanning_clock_pulse(p0):
    # Starting below the border, the first ON phase ignores the clock at t=1.
    x0 = 0.5 * border_point(p0)
    path = simulate_det(p0, (x0, 1), 3)
    s = path.schedule
    assert s.on_to_off[0] > 1.0
    assert s.off_to_on[0] == math.floor(s.on_to_off[0]) + 1.0
    x, y = path.eval(1.0)
    assert y == 1  # still ON across the ignored pulse


def test_truncated_on_phase_at_horizon(p0):
    x0 = 0.5 * border_point(p0)
    path = simulate_det(p0, (x0, 1), 1)
    assert path.schedule.cycles == 0
    x, y = path.eval(1.0)
    assert y == 1
    assert x == pytest.approx(on_flow(p0, x0, 1.0), abs=1e-12)


def test_sample_path_grid(p0, dc0):
    path = simulate_det(p0, (dc0.x_star, 1), 2)
    t, x, y = sample_path(path, 1e-2)
    assert t[0] == 0.0 and t[-1] == 2.0
    assert len(t) == len(x) == len(y)
    assert set(np.unique(y)) <= {0, 1}
