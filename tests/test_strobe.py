import math

import numpy as np
import pytest

from bucksim import (DomainError, border_point, find_fixed_point, iterate_map,
                     strobe_map, strobe_map_derivative)
from conftest import F_PRIME_P0, X_STAR_P0, P0, random_valid_params


def _map_vectorized(p, x):
    """Independent vectorized mirror of the map for large grid scans."""
    m = p.beta / p.alpha_on
    xb = border_point(p)
    left = m + (x - m) * math.exp(-p.alpha_on)
    right = p.x_ref * math.exp(-p.alpha_off) * (
        (m - x) / (m - p.x_ref)) ** (p.alpha_off / p.alpha_on)
    return np.where(x <= xb, left, right)


def test_branch_continuity_at_border(p0):
    xb = border_point(p0)
    m = p0.beta / p0.alpha_on
    left = m + (xb - m) * math.exp(-p0.alpha_on)
    right = p0.x_ref * math.exp(-p0.alpha_off) * (
        (m - xb) / (m - p0.x_ref)) ** (p0.alpha_off / p0.alpha_on)
    assert abs(left - right) <= 1e-12
    # Starting at the border, the ON phase lasts exactly one period.
    assert abs(strobe_map(p0, xb) - p0.x_ref) <= 1e-12


def test_right_branch_at_threshold(p0):
    assert strobe_map(p0, 1.0) == pytest.approx(math.exp(-0.6), abs=1e-12)


def test_left_branch_at_zero(p0):
    assert strobe_map(p0, 0.0) == pytest.approx(2.4 * (1.0 - math.exp(-0.5)), abs=1e-12)


def test_map_domain_errors(p0):
    with pytest.raises(DomainError):
        strobe_map(p0, -0.1)
    with pytest.raises(DomainError):
        strobe_map(p0, p0.x_ref + 0.1)


def test_derivative_left_branch_constant(p0):
    # x_border is about 0.0918 for the reference set; 0.05 and 0.08 are both
    # on the smooth branch, where the derivative is the constant e^{-alpha_on}.
    assert strobe_map_derivative(p0, 0.05) == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert strobe_map_derivative(p0, 0.05) == strobe_map_derivative(p0, 0.08)


def test_derivative_refuses_border(p0):
    with pytest.raises(DomainError):
        strobe_map_derivative(p0, border_point(p0))


def test_derivative_negative_on_switching_branch():
    rng = np.random.default_rng(5)
    for p in random_valid_params(rng, 20):
        xb = border_point(p)
        for u in (0.1, 0.5, 0.9):
            x = xb + (p.x_ref - xb) * u
            assert strobe_map_derivative(p, x) < 0.0


def test_derivative_at_fixed_point(p0):
    x_star, fp = find_fixed_point(p0)
    assert fp == pytest.approx(F_PRIME_P0, abs=1e-9)
    assert strobe_map_derivative(p0, x_star) == pytest.approx(fp, abs=1e-12)


def test_fixed_point_reference_value(p0):
    x_star, fp = find_fixed_point(p0)
    assert x_star == pytest.approx(X_STAR_P0, abs=1e-9)
    assert border_point(p0) < x_star < p0.x_ref
    assert abs(fp) < 1.0


def test_fixed_point_is_a_fixed_point(p0):
    x_star, _ = find_fixed_point(p0)
    assert abs(strobe_map(p0, x_star) - x_star) <= 1e-11


def test_bisection_agrees_with_map_iteration(p0):
    x_star, _ = find_fixed_point(p0)
    x = 0.1
    for _ in range(200):
        x = strobe_map(p0, x)
    assert abs(x - x_star) <= 1e-9


def test_vectorized_mirror_matches_map():
    rng = np.random.default_rng(11)
    for p in random_valid_params(rng, 20):
        xs = rng.uniform(0.0, p.x_ref, size=100)
        mirror = _map_vectorized(p, xs)
        direct = np.array([strobe_map(p, float(x)) for x in xs])
        np.testing.assert_allclose(mirror, direct, rtol=0, atol=1e-14)


def test_uniqueness_of_sign_change_on_grid():
    # h(x) = f(x) - x changes sign exactly once on a dense grid.
    rng = np.random.default_rng(21)
    for p in random_valid_params(rng, 1000):
        grid = np.linspace(0.0, p.x_ref, 10_000)
        h = _map_vectorized(p, grid) - grid
        signs = np.sign(h)
        changes = np.count_nonzero(np.diff(signs[signs != 0.0]) != 0.0)
        assert changes == 1


def test_map_above_identity_left_of_border_and_decreasing_right():
    rng = np.random.default_rng(31)
    for p in random_valid_params(rng, 100):
        xb = border_point(p)
        left = np.linspace(0.0, xb, 200)
        assert np.all(_map_vectorized(p, left) > left)
        right = np.linspace(np.nextafter(xb, p.x_ref), p.x_ref, 200)
        fr = _map_vectorized(p, right)
        assert np.all(np.diff(fr) < 0.0)


def test_map_stays_in_range():
    rng = np.random.default_rng(41)
    for p in random_valid_params(rng, 100):
        grid = np.linspace(0.0, p.x_ref, 500)
        f = _map_vectorized(p, grid)
        assert np.all((f >= 0.0) & (f <= p.x_ref + 1e-12))


def test_iterate_map_includes_start(p0):
    xs = iterate_map(p0, 0.3, 5)
    assert len(xs) == 6
    assert xs[0] == 0.3
    assert xs[1] == strobe_map(p0, 0.3)


@pytest.mark.parametrize("x0", [-1.0, math.nan, 5.0, -1e-300])
@pytest.mark.parametrize("n", [0, 1])
def test_iterate_map_refuses_start_outside_domain(p0, x0, n):
    # Also with no iterate to take: the start is entry 0 of the cobweb.
    with pytest.raises(DomainError, match=r"^strobe_map: x="):
        iterate_map(p0, x0, n)

