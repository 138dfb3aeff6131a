import math

import numpy as np
import pytest

from bucksim import (ConverterParams, DomainError, InvalidParamsError, StochConfig,
                     border_point, derive_constants, simulate_batch, simulate_det,
                     validate_params)
from bucksim.params import mistiming_sd
from conftest import (DELTA_PLUS_P0, F_PRIME_P0, K_MINUS_P0, K_PLUS_P0,
                      MU_P0, T_STAR_P0, X_BORDER_P0, X_STAR_P0, P0,
                      random_valid_params)


def test_reference_set_is_valid():
    check = validate_params(P0)
    assert check.ok
    assert check.violations == ()
    assert check.input_errors == ()


def test_beta_lower_bound_violation():
    check = validate_params(ConverterParams(0.5, 0.6, 0.9, 1.0))
    assert not check.ok
    assert "beta lower bound" in check.violation_names()


def test_alpha_on_log2_violation():
    check = validate_params(ConverterParams(0.8, 0.9, 2.0, 1.0))
    assert not check.ok
    assert "alpha_on < log 2" in check.violation_names()


def test_precision_loss_is_domain_error():
    # Admissible in exact arithmetic, but rounding defeats the closed forms:
    # alpha_off one ulp below its upper bound 0.7, or alpha_on so small that
    # beta / alpha_on swamps x_ref.  A DomainError, never an internal error.
    for p in (ConverterParams(0.5, math.nextafter(0.7, 0.0), 1.2, 1.0),
              ConverterParams(1e-17, 0.6, 1.2, 1.5),
              ConverterParams(1e-300, 0.6, 1.2, 1.5),
              ConverterParams(5e-324, 0.6, 1.2, 1.5)):
        assert validate_params(p).ok
        with pytest.raises(DomainError):
            derive_constants(p)
    # Small alpha_on with digits to spare: the constants approach their
    # alpha_on -> 0 limits.
    x_stars = [derive_constants(ConverterParams(a, 0.6, 1.2, 1.5)).x_star
               for a in (1e-6, 1e-9, 1e-12)]
    assert x_stars == pytest.approx([x_stars[0]] * 3, rel=1e-5)


def test_boundary_equality_is_a_violation():
    # beta exactly at the lower bound must fail (strict inequalities).
    check = validate_params(ConverterParams(0.5, 0.6, 1.0, 1.0))
    assert "beta lower bound" in check.violation_names()


def test_nonpositive_input_distinct_diagnostic():
    check = validate_params(ConverterParams(0.0, 0.6, 1.2, 1.0))
    assert not check.ok
    assert check.input_errors and not check.violations


def test_nonfinite_input_distinct_diagnostic():
    check = validate_params(ConverterParams(0.5, math.nan, 1.2, 1.0))
    assert not check.ok
    assert check.input_errors and not check.violations
    check = validate_params(ConverterParams(0.5, 0.6, math.inf, 1.0))
    assert check.input_errors and not check.violations


def test_derive_constants_rejects_invalid():
    with pytest.raises(InvalidParamsError):
        derive_constants(ConverterParams(0.5, 0.6, 0.9, 1.0))


def test_derived_constants_reference_values(dc0):
    assert dc0.x_border == pytest.approx(X_BORDER_P0, abs=1e-12)
    assert dc0.mu == pytest.approx(MU_P0, abs=1e-12)
    assert dc0.k_plus == pytest.approx(K_PLUS_P0, abs=1e-12)
    assert dc0.delta_plus == pytest.approx(DELTA_PLUS_P0, abs=1e-12)
    assert dc0.x_star == pytest.approx(X_STAR_P0, abs=1e-9)
    assert dc0.t_star == pytest.approx(T_STAR_P0, abs=1e-9)
    assert dc0.k_minus == pytest.approx(K_MINUS_P0, abs=1e-9)
    assert dc0.f_prime_at_star == pytest.approx(F_PRIME_P0, abs=1e-9)
    assert dc0.k == min(dc0.k_minus, dc0.k_plus)
    assert dc0.t_on == dc0.t_star
    assert dc0.t_off == 1.0 - dc0.t_star
    assert dc0.t_min == min(dc0.t_on, dc0.t_off)


def test_mistiming_sd_reference_values(p0, dc0):
    # The linear-response law's sds at P0, to the four places they are quoted in.
    assert round(mistiming_sd(p0, dc0, 1), 4) == 0.8152
    assert round(mistiming_sd(p0, dc0), 4) == 0.9348
    assert round(dc0.f_prime_at_star, 4) == -0.4893
    # s_n^2 = s_1^2 + f'^2 s_(n-1)^2, increasing to s_inf.
    s1, f2 = mistiming_sd(p0, dc0, 1), dc0.f_prime_at_star ** 2
    prev = s1
    for n in range(2, 12):
        sn = mistiming_sd(p0, dc0, n)
        assert sn == pytest.approx(math.sqrt(s1 * s1 + f2 * prev * prev), rel=1e-13)
        assert prev < sn < mistiming_sd(p0, dc0)
        prev = sn
    assert mistiming_sd(p0, dc0, 60) == pytest.approx(mistiming_sd(p0, dc0), rel=1e-15)


def test_mistiming_sd_matches_the_engine(p0, dc0):
    # Empirical sd of (tau_n - t_n) / eps over 4000 replicas at eps 0.01,
    # within 4 standard errors (sd / sqrt(2 N)) of s_1 and s_2.
    eps, N = 0.01, 4000
    det_t = simulate_det(p0, (dc0.x_star, 1), 2).schedule.taus
    res = simulate_batch(p0, dc0.x_star, StochConfig(epsilon=eps, horizon=2, seed=31),
                         range(N), record_paths=False)
    dev = np.array([s.taus for s in res.schedules]) - det_t
    for n in (1, 2):
        sn = mistiming_sd(p0, dc0, n)
        assert abs(dev[:, n - 1].std(ddof=1) / eps - sn) <= 4.0 * sn / math.sqrt(2 * N)


def test_orbit_closure(p0, dc0):
    # The OFF decay over the rest of the period returns exactly to x_star.
    closure = p0.x_ref * math.exp(-p0.alpha_off * (1.0 - dc0.t_star))
    assert abs(closure - dc0.x_star) <= 1e-9


def test_random_params_closed_form_invariants():
    # mu > 0, delta_plus > 0 and x_border in (0, x_ref) via direct formulas.
    rng = np.random.default_rng(1234)
    for p in random_valid_params(rng, 10_000):
        mu = p.beta - (p.alpha_on + p.alpha_off) * p.x_ref
        assert mu > 0.0
        dplus = (1.0 / p.alpha_on) * math.log(
            (2.0 * p.beta - 2.0 * p.alpha_on * p.x_ref)
            / (p.beta - p.alpha_on * p.x_ref + p.alpha_off * p.x_ref))
        assert dplus > 0.0
        xb = border_point(p)
        assert 0.0 < xb < p.x_ref


def test_random_params_derived_invariants():
    # Full derivation (with the fixed-point search) on a smaller sample.
    rng = np.random.default_rng(77)
    for p in random_valid_params(rng, 300):
        dc = derive_constants(p)
        assert 0.0 < dc.x_border < dc.x_star < p.x_ref
        assert 0.0 < dc.t_star < 1.0
        assert dc.t_min > 0.0
        assert abs(dc.f_prime_at_star) < 1.0
        closure = p.x_ref * math.exp(-p.alpha_off * (1.0 - dc.t_star))
        assert abs(closure - dc.x_star) <= 1e-9

