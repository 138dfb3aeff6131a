"""Converter model constants, their admissibility checks, and derived quantities.

The model is a first-order buck converter switching between two linear ODEs:
ON state  dx/dt = -alpha_on * x + beta   (clock-armed, leaves when x hits x_ref),
OFF state dx/dt = -alpha_off * x         (leaves at the next integer clock time).

A stable period-1 orbit exists when the four constants satisfy a chain of
strict inequalities (enforced by :func:`validate_params`):

    0 < alpha_on < log 2
    2 * x_ref * alpha_on  <  beta  <  x_ref * alpha_on * e^a / (e^a - 1),   a = alpha_on
    alpha_on < alpha_off < alpha_on * (beta / alpha_on - x_ref) / x_ref

:func:`derive_constants` evaluates every closed-form quantity the rest of the
package needs: the border point of the stroboscopic map, the fixed point and
its ON-phase duration, the drift margin mu at the threshold, and the tail-rate
factors that control how unlikely a badly-timed switching cycle is.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import DomainError, InvalidParamsError

LOG2 = math.log(2.0)
# Why admissible parameters can defeat the closed forms: rounding crosses a
# tight inequality, or m = beta / alpha_on cancels every digit of m + (x - m) e^-at.
PRECISION_LOSS = ("parameters within rounding of an admissibility boundary, or "
                  "alpha_on too small for double precision")


@dataclass(frozen=True)
class ConverterParams:
    """The four model constants.

    alpha_on:  decay rate in the ON state (1/time, > 0)
    alpha_off: decay rate in the OFF state (1/time, > 0)
    beta:      forcing in the ON state (state/time, > 0)
    x_ref:     threshold current triggering ON -> OFF (state, > 0)
    """

    alpha_on: float
    alpha_off: float
    beta: float
    x_ref: float

    @property
    def equilibrium(self) -> float:
        """ON-state equilibrium beta / alpha_on (never reached from below x_ref)."""
        return self.beta / self.alpha_on


@dataclass(frozen=True)
class Violation:
    """One violated admissibility inequality, with both sides evaluated."""

    name: str
    lhs: float
    rhs: float  # the inequality that should have held is lhs < rhs

    def __str__(self) -> str:
        return f"{self.name}: requires {self.lhs:.6g} < {self.rhs:.6g}"


@dataclass(frozen=True)
class ParamCheck:
    """Result of validate_params: ok, or the full list of failures.

    input_errors flags non-finite / non-positive fields; these are distinct
    from inequality violations (the inequalities are not evaluated in a way
    that would be meaningful for such inputs).
    """

    ok: bool
    violations: tuple[Violation, ...]
    input_errors: tuple[str, ...]

    def violation_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.violations)

    def describe(self) -> str:
        if self.ok:
            return "ok"
        parts = list(self.input_errors) + [str(v) for v in self.violations]
        return "; ".join(parts)


def validate_params(p: ConverterParams) -> ParamCheck:
    """Check every admissibility inequality, strictly (equality is a violation)."""
    input_errors = []
    for field in ("alpha_on", "alpha_off", "beta", "x_ref"):
        v = getattr(p, field)
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            input_errors.append(f"{field} must be finite (got {v!r})")
        elif v <= 0:
            input_errors.append(f"{field} must be strictly positive (got {v!r})")
    if input_errors:
        return ParamCheck(False, (), tuple(input_errors))

    violations = []
    if not p.alpha_on < LOG2:
        violations.append(Violation("alpha_on < log 2", p.alpha_on, LOG2))
    beta_lo = 2.0 * p.x_ref * p.alpha_on
    if not beta_lo < p.beta:
        violations.append(Violation("beta lower bound", beta_lo, p.beta))
    # a e^a / (e^a - 1) through expm1, so a tiny alpha_on gives x_ref, not 0 / 0.
    beta_hi = p.x_ref * math.exp(p.alpha_on) * (p.alpha_on / math.expm1(p.alpha_on))
    if not p.beta < beta_hi:
        violations.append(Violation("beta upper bound", p.beta, beta_hi))
    if not p.alpha_on < p.alpha_off:
        violations.append(Violation("alpha_off lower bound", p.alpha_on, p.alpha_off))
    off_hi = ((p.beta / p.alpha_on - p.x_ref) / p.x_ref) * p.alpha_on
    if not p.alpha_off < off_hi:
        violations.append(Violation("alpha_off upper bound", p.alpha_off, off_hi))
    # Implied by the beta lower bound; checked independently.
    if not p.x_ref < p.beta / p.alpha_on:
        violations.append(Violation("x_ref < beta/alpha_on", p.x_ref, p.beta / p.alpha_on))

    return ParamCheck(not violations, tuple(violations), ())


def require_valid(p: ConverterParams) -> None:
    """Raise InvalidParamsError unless validate_params(p) is ok."""
    check = validate_params(p)
    if not check.ok:
        raise InvalidParamsError(f"invalid converter parameters: {check.describe()}")


@dataclass(frozen=True)
class DerivedConstants:
    """All closed-form quantities derived from a valid parameter set.

    x_border:  initial state whose ON phase lasts exactly one clock period;
               the kink of the stroboscopic map.
    x_star:    unique fixed point of the stroboscopic map (period-1 orbit).
    t_star:    ON-phase duration on the periodic orbit; t_on == t_star,
               t_off == 1 - t_star, t_min == min(t_on, t_off).
    mu:        drift margin beta - (alpha_on + alpha_off) * x_ref > 0.
    k_minus, k_plus, k: rate factors of the Gaussian tail bounds on early /
               late threshold passages; k = min(k_minus, k_plus).
    delta_plus: largest timing tolerance for which the late-passage bound
               is guaranteed.
    f_prime_at_star: stroboscopic-map derivative at the fixed point
               (|.| < 1: the orbit is stable).
    """

    x_border: float
    x_star: float
    t_star: float
    t_on: float
    t_off: float
    t_min: float
    mu: float
    k_minus: float
    k_plus: float
    k: float
    delta_plus: float
    f_prime_at_star: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def border_point(p: ConverterParams) -> float:
    """Initial state whose ON flow reaches x_ref exactly one period later."""
    m = p.equilibrium
    return m + (p.x_ref - m) * math.exp(p.alpha_on)


def derive_constants(p: ConverterParams) -> DerivedConstants:
    """Evaluate every derived constant for a valid parameter set."""
    require_valid(p)
    # Imported here: strobe_map depends on border_point above.
    from .strobe import find_fixed_point

    x_border = border_point(p)
    x_star, f_prime_at_star = find_fixed_point(p)
    m = p.equilibrium
    t_star = (1.0 / p.alpha_on) * math.log((m - x_star) / (m - p.x_ref))
    t_on = t_star
    t_off = 1.0 - t_star
    mu = p.beta - (p.alpha_on + p.alpha_off) * p.x_ref
    k_minus = math.sqrt(2.0 * p.alpha_on) * math.exp(-p.alpha_on * t_star) * mu
    k_plus = mu * math.sqrt(p.alpha_on / 2.0)
    delta_plus = (1.0 / p.alpha_on) * math.log(
        (2.0 * p.beta - 2.0 * p.alpha_on * p.x_ref)
        / (p.beta - p.alpha_on * p.x_ref + p.alpha_off * p.x_ref)
    )
    dc = DerivedConstants(
        x_border=x_border,
        x_star=x_star,
        t_star=t_star,
        t_on=t_on,
        t_off=t_off,
        t_min=min(t_on, t_off),
        mu=mu,
        k_minus=k_minus,
        k_plus=k_plus,
        k=min(k_minus, k_plus),
        delta_plus=delta_plus,
        f_prime_at_star=f_prime_at_star,
    )
    _check_derived(p, dc)
    return dc


def mistiming_sd(p: ConverterParams, dc: DerivedConstants, n: int | None = None) -> float:
    """Linear-response sd s_n of the n-th passage's mistiming (tau_n - t_n) / eps.

    Linearised around the periodic orbit, cycle n's deviation is the ON
    phase's OU noise over the ON slope beta - alpha_on x_ref, plus the
    previous cycle's carried over by f'(x_star):
    s_n^2 = v (1 + f'^2 + ... + f'^(2(n - 1))) with
    v = (1 - e^(-2 alpha_on t_star)) / (2 alpha_on (beta - alpha_on x_ref)^2).
    n None gives the limit s_inf^2 = v / (1 - f'^2).
    """
    a = p.alpha_on
    v = -math.expm1(-2.0 * a * dc.t_star) / (2.0 * a * (p.beta - a * p.x_ref) ** 2)
    f2 = dc.f_prime_at_star ** 2
    return math.sqrt(v * (1.0 - (0.0 if n is None else f2 ** n)) / (1.0 - f2))


def _check_derived(p: ConverterParams, dc: DerivedConstants) -> None:
    # Exact under valid params; in double precision the closed forms fail only
    # for parameters that the inequalities admit but rounding does not.
    ok = (
        0.0 < dc.x_border < dc.x_star < p.x_ref
        and 0.0 < dc.t_star < 1.0
        and dc.t_min > 0.0
        and dc.mu > 0.0
        and abs(dc.f_prime_at_star) < 1.0
        and dc.delta_plus > 0.0
    )
    if not ok:
        raise DomainError(f"derived constants violate their invariants ({PRECISION_LOSS}): {dc}")

