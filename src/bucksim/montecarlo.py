"""Monte Carlo verification of the small-noise convergence behaviour.

Three layers of checks over a grid of noise amplitudes eps, each with a
timing tolerance delta = eps^varsigma and a horizon T_eps of order
1/eps^nu (nu < 2/3 < varsigma < 1 keeps every error term vanishing):

  * Gaussian tail numerics: the upper tail of the standard normal and the
    elementary bound (3/sqrt(2 pi)) x^2 e^{-x^2/2} that controls it.
  * Bad-event probabilities: the first cycle n whose threshold passage
    deviates from the deterministic one by more than delta; the empirical
    frequencies are compared against 3 * tail(K delta / eps) per cycle,
    with the early/late split checked against its own two bounds.
  * Distance moments: certified per-replica upper bounds on the path
    distance between the stochastic and deterministic trajectories, via
    the schedule-aligning deformation on good replicas and the identity
    elsewhere, averaged to an estimate of E[d^p] that must decay as eps
    shrinks.

Replicas are embarrassingly parallel (counter-based per-replica streams
keyed by (seed, eps-index, replica)), and every aggregation is a
deterministic fold in replica order, so report bytes are independent of
the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .deterministic import simulate_det
from .errors import ConfigError, DomainError
from .output import csv_text
from .params import ConverterParams, DerivedConstants
from .skorokhod import TimeDeformation, align_schedules, skorokhod_upper_bound
from .stochastic import StochConfig, StochPath, simulate_batch

SQRT2 = math.sqrt(2.0)
TAIL_BOUND_COEFF = 3.0 / math.sqrt(2.0 * math.pi)


def gaussian_tail(x):
    """Upper tail of the standard normal, 0.5 * erfc(x / sqrt(2)), for x >= 0."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError("gaussian_tail: argument must be >= 0")
    out = 0.5 * erfc(arr / SQRT2)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def gaussian_tail_bound(x):
    """(3 / sqrt(2 pi)) x^2 e^{-x^2 / 2}; dominates gaussian_tail for x >= 1."""
    arr = np.asarray(x, dtype=float)
    out = TAIL_BOUND_COEFF * arr * arr * np.exp(-arr * arr / 2.0)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def wilson_interval(k: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (robust near 0)."""
    if n <= 0:
        return 0.0, 1.0
    ph = k / n
    denom = 1.0 + z * z / n
    center = (ph + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(ph * (1.0 - ph) / n + z * z / (4.0 * n * n)) / denom
    # The endpoints are exactly 0 / 1 at k = 0 / k = n; avoid rounding drift.
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class McConfig:
    """Sweep configuration; epsilons are processed in the given order."""

    epsilons: tuple[float, ...]
    nu: float = 0.0
    varsigma: float = 0.8
    frak_t: int = 10
    p: float = 1.0
    replicas: int = 1000
    dt: float = 1e-3
    seed: int = 0
    bridge_correction: bool = True
    workers: int = 1
    batch_size: int = 512
    grid_step: float = 1e-3
    t_cap: int | None = None

    def validate(self) -> None:
        if not self.epsilons:
            raise ConfigError("epsilons must not be empty")
        for e in self.epsilons:
            if not (math.isfinite(e) and e >= 0.0):
                raise ConfigError(f"epsilon={e!r} must be finite and >= 0")
        if not 0.0 <= self.nu < 2.0 / 3.0:
            raise ConfigError(f"nu={self.nu!r} must lie in [0, 2/3)")
        if not self.nu < self.varsigma < 1.0:
            raise ConfigError(f"varsigma={self.varsigma!r} must lie in (nu, 1)")
        if not (isinstance(self.frak_t, (int, np.integer)) and self.frak_t >= 1):
            raise ConfigError(f"frak_t={self.frak_t!r} must be an integer >= 1")
        if not (math.isfinite(self.p) and self.p >= 1.0):
            raise ConfigError(f"p={self.p!r} must be finite and >= 1")
        if self.replicas < 1:
            raise ConfigError(f"replicas={self.replicas!r} must be >= 1")
        if self.workers < 1:
            raise ConfigError(f"workers={self.workers!r} must be >= 1")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size={self.batch_size!r} must be >= 1")
        if not (math.isfinite(self.grid_step) and self.grid_step > 0.0):
            raise ConfigError(f"grid_step={self.grid_step!r} must be finite and > 0")
        if self.t_cap is not None and not (isinstance(self.t_cap, (int, np.integer))
                                           and self.t_cap >= 1):
            raise ConfigError(f"t_cap={self.t_cap!r} must be None or an integer >= 1")
        # Delegate the dt and seed checks.
        StochConfig(epsilon=0.0, dt=self.dt, horizon=1, seed=self.seed).validate()

    def horizon_for(self, eps: float) -> int:
        """T_eps = floor(frak_t / eps^nu), at least 1, optionally capped."""
        if eps == 0.0 or self.nu == 0.0:
            t = self.frak_t
        else:
            t = int(math.floor(self.frak_t / eps ** self.nu))
        if self.t_cap is not None:
            t = min(t, self.t_cap)
        return max(1, t)

    def delta_for(self, eps: float) -> float:
        return 0.0 if eps == 0.0 else eps ** self.varsigma

    def stream_for(self, eps: float) -> int:
        """Sub-ensemble index: position of eps in the configured grid."""
        for i, e in enumerate(self.epsilons):
            if e == eps:
                return i
        return len(self.epsilons)


@dataclass
class EpsilonStats:
    """Raw per-noise-level ensemble tallies (deterministic given the config)."""

    epsilon: float
    t_eps: int
    delta: float
    replicas: int
    bad_by_n: np.ndarray      # count of replicas whose first bad cycle is n (1-based)
    bminus_by_n: np.ndarray   # ... with an early passage (tau < t_n - delta)
    bplus_by_n: np.ndarray    # ... with a late passage (tau > t_n + delta)
    anomaly_count: int        # replicas with any ON phase spanning a clock pulse
    good_count: int
    d_bounds: np.ndarray | None  # per-replica certified distance bounds

    @property
    def good_freq(self) -> float:
        return self.good_count / self.replicas

    @property
    def union_prob(self) -> float:
        return float(self.bad_by_n.sum()) / self.replicas


def _first_bad_cycle(det_t: np.ndarray, taus: np.ndarray, delta: float,
                     t_eps: int) -> tuple[int, int]:
    """First cycle violating |tau_n - t_n| <= delta; (0, 0) when none.

    A missing cycle (the replica produced fewer passages than the horizon
    has cycles) counts as a late violation at the first absent index.
    """
    for n in range(1, t_eps + 1):
        if n > len(taus):
            return n, +1
        dev = taus[n - 1] - det_t[n - 1]
        if dev < -delta:
            return n, -1
        if dev > delta:
            return n, +1
    return 0, 0


def _has_anomaly(taus: np.ndarray, sigmas: np.ndarray) -> bool:
    """True when any ON phase spans a clock pulse (slow passage)."""
    if len(taus) == 0:
        return False
    starts = np.concatenate([[0.0], sigmas[:-1]])
    return bool(np.any(taus - starts >= 1.0))


def _ensemble_batch(p: ConverterParams, dc: DerivedConstants, cfg: McConfig,
                    eps: float, t_eps: int, delta: float, ids: range,
                    want_distance: bool) -> dict:
    """Simulate one replica batch and reduce it to small per-replica tallies."""
    scfg = StochConfig(epsilon=eps, dt=cfg.dt, horizon=t_eps, seed=cfg.seed,
                       bridge_correction=cfg.bridge_correction,
                       stream=cfg.stream_for(eps))
    res = simulate_batch(p, dc.x_star, scfg, list(ids), record_paths=want_distance)
    det = simulate_det(p, (dc.x_star, 1), t_eps)
    det_t = det.schedule.on_to_off
    B = len(res.schedules)
    first_bad = np.zeros(B, dtype=int)
    bad_sign = np.zeros(B, dtype=int)
    anomaly = np.zeros(B, dtype=bool)
    d_bound = np.zeros(B) if want_distance else None
    for b, sched in enumerate(res.schedules):
        first_bad[b], bad_sign[b] = _first_bad_cycle(det_t, sched.taus, delta, t_eps)
        anomaly[b] = _has_anomaly(sched.taus, sched.sigmas)
        if want_distance:
            z2 = StochPath(t=res.grid_t, x=res.xs[b], y=res.ys[b], schedule=sched,
                           config=scfg, replica=ids[b], level=p.x_ref)
            lam = None
            if first_bad[b] == 0:
                lam = align_schedules(det.schedule, sched, float(t_eps))
            if lam is None:
                lam = TimeDeformation.identity(float(t_eps))
            d_bound[b] = skorokhod_upper_bound(det, z2, lam,
                                               grid_step=cfg.grid_step).bound
    return {
        "first_bad": first_bad,
        "bad_sign": bad_sign,
        "anomaly": anomaly,
        "d_bound": d_bound,
    }


def _ensemble_batch_star(args):
    return _ensemble_batch(*args)


def _run_epsilon(p: ConverterParams, dc: DerivedConstants, cfg: McConfig,
                 eps: float, want_distance: bool) -> EpsilonStats:
    cfg.validate()
    t_eps = cfg.horizon_for(eps)
    delta = cfg.delta_for(eps)
    N = cfg.replicas
    if eps == 0.0:
        # Deterministic degeneration: no draws, no deviations, zero distance.
        return EpsilonStats(
            epsilon=0.0, t_eps=t_eps, delta=0.0, replicas=N,
            bad_by_n=np.zeros(t_eps, dtype=int),
            bminus_by_n=np.zeros(t_eps, dtype=int),
            bplus_by_n=np.zeros(t_eps, dtype=int),
            anomaly_count=0, good_count=N,
            d_bounds=np.zeros(N) if want_distance else None,
        )
    batches = [range(i, min(i + cfg.batch_size, N)) for i in range(0, N, cfg.batch_size)]
    arg_list = [(p, dc, cfg, eps, t_eps, delta, ids, want_distance) for ids in batches]
    if cfg.workers > 1 and len(arg_list) > 1:
        with ProcessPoolExecutor(max_workers=min(cfg.workers, len(arg_list))) as pool:
            results = list(pool.map(_ensemble_batch_star, arg_list))
    else:
        results = [_ensemble_batch(*a) for a in arg_list]

    bad_by_n = np.zeros(t_eps, dtype=int)
    bminus_by_n = np.zeros(t_eps, dtype=int)
    bplus_by_n = np.zeros(t_eps, dtype=int)
    anomaly_count = 0
    good_count = 0
    d_parts = []
    for r in results:
        fb, sg = r["first_bad"], r["bad_sign"]
        for n in range(1, t_eps + 1):
            at_n = fb == n
            bad_by_n[n - 1] += int(at_n.sum())
            bminus_by_n[n - 1] += int((at_n & (sg < 0)).sum())
            bplus_by_n[n - 1] += int((at_n & (sg > 0)).sum())
        good_count += int((fb == 0).sum())
        anomaly_count += int(r["anomaly"].sum())
        if want_distance:
            d_parts.append(r["d_bound"])
    d_bounds = np.concatenate(d_parts) if want_distance else None
    return EpsilonStats(epsilon=eps, t_eps=t_eps, delta=delta, replicas=N,
                        bad_by_n=bad_by_n, bminus_by_n=bminus_by_n,
                        bplus_by_n=bplus_by_n, anomaly_count=anomaly_count,
                        good_count=good_count, d_bounds=d_bounds)


@dataclass(frozen=True)
class BadEventTable:
    """Per-cycle bad-event frequencies for one noise level, with bounds."""

    epsilon: float
    t_eps: int
    delta: float
    replicas: int
    emp_prob: np.ndarray
    wilson_lo: np.ndarray
    wilson_hi: np.ndarray
    bound: float              # 3 * tail(K delta / eps), same for every cycle
    emp_minus: np.ndarray
    bound_minus: float        # 2 * tail(K_minus delta / eps)
    emp_plus: np.ndarray
    bound_plus: float         # tail(K_plus delta / eps)
    good_freq: float
    union_prob: float
    anomaly_count: int
    delta_within_dplus: bool  # the late-passage bound is only guaranteed below delta_plus

    def dominance_ok(self) -> bool:
        """emp <= bound + 3 SE for every cycle (SE from the binomial count)."""
        se = np.sqrt(self.emp_prob * (1.0 - self.emp_prob) / self.replicas)
        return bool(np.all(self.emp_prob <= self.bound + 3.0 * se))

    def split_dominance_ok(self) -> tuple[bool, bool]:
        se_m = np.sqrt(self.emp_minus * (1.0 - self.emp_minus) / self.replicas)
        se_p = np.sqrt(self.emp_plus * (1.0 - self.emp_plus) / self.replicas)
        return (bool(np.all(self.emp_minus <= self.bound_minus + 3.0 * se_m)),
                bool(np.all(self.emp_plus <= self.bound_plus + 3.0 * se_p)))


def _table_from_stats(stats: EpsilonStats, dc: DerivedConstants) -> BadEventTable:
    N = stats.replicas
    emp = stats.bad_by_n / N
    lo = np.empty_like(emp)
    hi = np.empty_like(emp)
    for i, k in enumerate(stats.bad_by_n):
        lo[i], hi[i] = wilson_interval(int(k), N)
    if stats.epsilon > 0.0:
        ratio = stats.delta / stats.epsilon
        bound = 3.0 * gaussian_tail(dc.k * ratio)
        bound_minus = 2.0 * gaussian_tail(dc.k_minus * ratio)
        bound_plus = gaussian_tail(dc.k_plus * ratio)
    else:
        bound = bound_minus = bound_plus = 0.0
    return BadEventTable(
        epsilon=stats.epsilon, t_eps=stats.t_eps, delta=stats.delta, replicas=N,
        emp_prob=emp, wilson_lo=lo, wilson_hi=hi, bound=bound,
        emp_minus=stats.bminus_by_n / N, bound_minus=bound_minus,
        emp_plus=stats.bplus_by_n / N, bound_plus=bound_plus,
        good_freq=stats.good_freq, union_prob=stats.union_prob,
        anomaly_count=stats.anomaly_count,
        delta_within_dplus=bool(stats.delta < dc.delta_plus),
    )


def bad_event_probs(p: ConverterParams, dc: DerivedConstants, cfg: McConfig,
                    eps: float) -> BadEventTable:
    """Empirical first-bad-cycle frequencies against the Gaussian tail bounds."""
    stats = _run_epsilon(p, dc, cfg, eps, want_distance=False)
    return _table_from_stats(stats, dc)


@dataclass(frozen=True)
class MomentEstimate:
    """Certified-upper-bound estimate of E[d^p] for one noise level."""

    epsilon: float
    t_eps: int
    delta: float
    replicas: int
    p: float
    moment: float
    se: float
    mean_d: float
    q90: float
    q99: float
    good_freq: float
    anomaly_count: int


def _moment_from_stats(stats: EpsilonStats, p_order: float) -> MomentEstimate:
    d = stats.d_bounds
    dp = d ** p_order
    se = float(dp.std(ddof=1) / math.sqrt(len(dp))) if len(dp) > 1 else 0.0
    return MomentEstimate(
        epsilon=stats.epsilon, t_eps=stats.t_eps, delta=stats.delta,
        replicas=stats.replicas, p=p_order,
        moment=float(dp.mean()), se=se, mean_d=float(d.mean()),
        q90=float(np.quantile(d, 0.9)), q99=float(np.quantile(d, 0.99)),
        good_freq=stats.good_freq, anomaly_count=stats.anomaly_count,
    )


def distance_moment(p: ConverterParams, dc: DerivedConstants, cfg: McConfig,
                    eps: float) -> MomentEstimate:
    """Estimate E[d^p] through certified per-replica distance bounds."""
    stats = _run_epsilon(p, dc, cfg, eps, want_distance=True)
    return _moment_from_stats(stats, cfg.p)


CSV_COLUMNS = ("epsilon", "T_eps", "delta", "n", "emp_prob", "wilson_lo",
               "wilson_hi", "bound", "emp_d_mean", "emp_dp_moment", "dp_se",
               "good_freq", "anomalies")


@dataclass
class McReport:
    """Full sweep output: per-(eps, n) rows plus bound-check summary."""

    config: McConfig
    tables: list[BadEventTable]
    moments: list[MomentEstimate]

    @property
    def rows(self) -> list[tuple]:
        """One report.csv row per (eps, cycle n), in CSV_COLUMNS order."""
        return [(tab.epsilon, tab.t_eps, tab.delta, n,
                 tab.emp_prob[n - 1], tab.wilson_lo[n - 1], tab.wilson_hi[n - 1],
                 tab.bound, mom.mean_d, mom.moment, mom.se,
                 tab.good_freq, tab.anomaly_count)
                for tab, mom in zip(self.tables, self.moments)
                for n in range(1, tab.t_eps + 1)]

    def to_csv_text(self) -> str:
        return csv_text(CSV_COLUMNS, self.rows)

    def summary(self) -> dict:
        per_eps = []
        for tab, mom in zip(self.tables, self.moments):
            minus_ok, plus_ok = tab.split_dominance_ok()
            per_eps.append({
                "epsilon": tab.epsilon,
                "t_eps": tab.t_eps,
                "delta": tab.delta,
                "delta_within_dplus": tab.delta_within_dplus,
                "bound_dominance_ok": tab.dominance_ok(),
                "bminus_dominance_ok": minus_ok,
                "bplus_dominance_ok": plus_ok,
                "union_prob": tab.union_prob,
                "good_freq": tab.good_freq,
                "anomalies": tab.anomaly_count,
                "d_mean": mom.mean_d,
                "dp_moment": mom.moment,
                "dp_se": mom.se,
                "d_q90": mom.q90,
                "d_q99": mom.q99,
            })
        moments = [m.moment for m in self.moments]
        by_eps = sorted(zip([m.epsilon for m in self.moments], moments),
                        key=lambda t: -t[0])
        ordered = [v for _, v in by_eps]
        decreasing = all(a > b for a, b in zip(ordered, ordered[1:]))
        summary = {
            "p": self.config.p,
            "nu": self.config.nu,
            "varsigma": self.config.varsigma,
            "replicas": self.config.replicas,
            "seed": self.config.seed,
            "per_epsilon": per_eps,
            "moment_strictly_decreasing": bool(decreasing) if len(ordered) > 1 else None,
            "moment_ratio_last_to_first": (ordered[-1] / ordered[0])
            if len(ordered) > 1 and ordered[0] > 0 else None,
            "all_bounds_ok": all(r["bound_dominance_ok"] for r in per_eps),
        }
        return summary


def sweep(p: ConverterParams, dc: DerivedConstants, cfg: McConfig) -> McReport:
    """Run the full verification sweep over the configured noise grid."""
    cfg.validate()
    tables = []
    moments = []
    for eps in cfg.epsilons:
        stats = _run_epsilon(p, dc, cfg, eps, want_distance=True)
        tables.append(_table_from_stats(stats, dc))
        moments.append(_moment_from_stats(stats, cfg.p))
    return McReport(config=cfg, tables=tables, moments=moments)
