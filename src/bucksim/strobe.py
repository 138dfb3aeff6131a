"""Stroboscopic map of the switching system: clock-time state to clock-time state.

The map f sends the current at one clock instant to the current at the next,
assuming the ON configuration at the start of the period.  It is piecewise
smooth with a kink at x_border:

  x <= x_border : the ON phase spans the whole period (pure exponential pull
                  toward beta/alpha_on),
  x >  x_border : the threshold is hit inside the period, followed by OFF
                  decay until the clock.

Under valid parameters f has a unique fixed point x_star in
(x_border, x_ref) with |f'(x_star)| < 1, found here by bisection.
"""

from __future__ import annotations

import math

from .errors import DomainError, check_grid_size
from .params import PRECISION_LOSS, ConverterParams, border_point, require_valid

BISECT_TOL = 1e-12
BISECT_MAX_ITER = 200


def _require_domain(p: ConverterParams, x: float, caller: str) -> None:
    if not 0.0 <= x <= p.x_ref:
        raise DomainError(f"{caller}: x={x!r} outside [0, {p.x_ref}]")


def strobe_map(p: ConverterParams, x: float) -> float:
    """One application of the stroboscopic map to x in [0, x_ref].

    At x == x_border the smooth-branch formula is used; both branches agree
    there (the value is exactly x_ref).
    """
    _require_domain(p, x, "strobe_map")
    m = p.equilibrium
    if x <= border_point(p):
        return m + (x - m) * math.exp(-p.alpha_on)
    return p.x_ref * math.exp(-p.alpha_off) * ((m - x) / (m - p.x_ref)) ** (p.alpha_off / p.alpha_on)


def strobe_map_derivative(p: ConverterParams, x: float) -> float:
    """f'(x); refuses x == x_border where the derivative jumps.

    Smooth branch: constant e^{-alpha_on}.  Switching branch:
    -alpha_off * f(x) / (beta - alpha_on * x), negative throughout.
    """
    _require_domain(p, x, "strobe_map_derivative")
    xb = border_point(p)
    if x == xb:
        raise DomainError("strobe_map_derivative: derivative is discontinuous at x_border")
    if x < xb:
        return math.exp(-p.alpha_on)
    return -p.alpha_off * strobe_map(p, x) / (p.beta - p.alpha_on * x)


def find_fixed_point(p: ConverterParams) -> tuple[float, float]:
    """Locate the unique fixed point x_star and return (x_star, f'(x_star)).

    Bisection on h(x) = f(x) - x over [x_border, x_ref]: h > 0 at the left
    end (f(x_border) = x_ref), h < 0 at the right end, and f is decreasing
    on the switching branch, so in exact arithmetic the bracket is guaranteed
    and the root unique.  Absolute tolerance 1e-12 in x.
    """
    require_valid(p)
    lo = border_point(p)
    hi = p.x_ref
    h_lo = strobe_map(p, lo) - lo
    h_hi = strobe_map(p, hi) - hi
    if not (h_lo > 0.0 and h_hi < 0.0):
        raise DomainError(
            f"fixed-point bracket failed ({PRECISION_LOSS}): h({lo})={h_lo}, h({hi})={h_hi}"
        )
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if strobe_map(p, mid) - mid > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= BISECT_TOL:
            break
    x_star = 0.5 * (lo + hi)
    # f(x_star) = x_star makes the quotient form of f' exact at the root.
    f_prime = -p.alpha_off * x_star / (p.beta - p.alpha_on * x_star)
    return x_star, f_prime


def iterate_map(p: ConverterParams, x0: float, n: int) -> list[float]:
    """n forward iterates of the map from x0 (x0 included as entry 0).

    x0 outside [0, x_ref] is refused as strobe_map refuses it, also for n = 0.
    """
    check_grid_size(n + 1, "iterate_map: iterates", "use fewer iterates")
    _require_domain(p, x0, "strobe_map")
    xs = [x0]
    x = x0
    for _ in range(n):
        x = strobe_map(p, x)
        xs.append(x)
    return xs
