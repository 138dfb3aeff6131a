"""Monte Carlo verification of the small-noise convergence behaviour.

Three layers of checks over a grid of noise amplitudes eps, each with a
timing tolerance delta = eps^varsigma and a horizon T_eps of order
1/eps^nu (nu < 2/3 < varsigma < 1 keeps every error term vanishing):

  * Gaussian tail numerics: the upper tail of the standard normal and the
    elementary bound (3/sqrt(2 pi)) x^2 e^{-x^2/2} that controls it.  The
    tail uses Cephes' erfc, reproduced in Python, so it needs no scipy.
  * Bad-event probabilities: the first cycle n whose threshold passage
    deviates from the deterministic one by more than delta; the empirical
    frequencies are compared against 3 * tail(K delta / eps) per cycle,
    with the early/late split checked against its own two bounds.
  * Distance moments: per-replica grid-resolved bounds on the path
    distance between the stochastic and deterministic trajectories, via
    the schedule-aligning deformation on good replicas and the identity
    elsewhere, averaged to an estimate of E[d^p] that must decay as eps
    shrinks.

Replicas are embarrassingly parallel (counter-based per-replica streams
keyed by (seed, eps-index, replica)).  Each batch returns per-replica
tallies; they are concatenated in replica order before any reduction, so
report bytes are independent of the worker count and the batch size.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import parallel
from .deterministic import DetPath, simulate_det
from .errors import ConfigError, DomainError, batch_ranges, check_grid_size
from .output import csv_text
from .params import ConverterParams, DerivedConstants
from .skorokhod import (TimeDeformation, align_schedules, distance_grid_nodes,
                        skorokhod_upper_bound)
from .stochastic import ReplicaSchedule, StochConfig, simulate_batch

SQRT2 = math.sqrt(2.0)
TAIL_BOUND_COEFF = 3.0 / math.sqrt(2.0 * math.pi)
# Normal quantile of the 95 % Wilson intervals in the report.
WILSON_Z = 1.96


# erfc from Cephes ndtr.c (S. L. Moshier), the algorithm scipy.special.erfc
# runs, copied operation for operation so that every tail is the same double.
# Q, S and U carry the leading 1.0 that Cephes' p1evl leaves implicit; the
# first step 1.0 * x + c is then x + c exactly, as in p1evl.
_ERFC_MAXLOG = 7.09782712893383996843e2
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
_ERFC_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
           2.23200534594684319226e3, 7.00332514112805075473e3,
           5.55923013010394962768e4)
_ERFC_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
           4.59432382970980127987e3, 2.26290000613890934246e4,
           4.92673942608635921086e4)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erfc(a: float) -> float:
    """Complementary error function for a >= 0 or NaN (Cephes' erfc)."""
    if a < 1.0:
        z = a * a
        return 1.0 - a * _polevl(z, _ERFC_T) / _polevl(z, _ERFC_U)
    if -a * a < -_ERFC_MAXLOG:
        return 0.0
    if a < 8.0:
        return math.exp(-a * a) * _polevl(a, _ERFC_P) / _polevl(a, _ERFC_Q)
    return math.exp(-a * a) * _polevl(a, _ERFC_R) / _polevl(a, _ERFC_S)


def gaussian_tail(x):
    """Upper tail of the standard normal, 0.5 * erfc(x / sqrt(2)), for x >= 0."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError("gaussian_tail: argument must be >= 0")
    tails = [0.5 * _erfc(a / SQRT2) for a in arr.ravel().tolist()]
    return tails[0] if arr.ndim == 0 else np.array(tails).reshape(arr.shape)


def gaussian_tail_bound(x):
    """(3 / sqrt(2 pi)) x^2 e^{-x^2 / 2}; dominates gaussian_tail for x >= 1."""
    arr = np.asarray(x, dtype=float)
    out = TAIL_BOUND_COEFF * arr * arr * np.exp(-arr * arr / 2.0)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """Wilson score interval at WILSON_Z for a binomial proportion (robust near 0)."""
    z = WILSON_Z
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
    """Sweep configuration; epsilons are processed in the given order.

    Only the listed levels have streams.  Distance bounds use skorokhod.GRID_STEP.
    """

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

    def validate(self) -> None:
        if not self.epsilons:
            raise ConfigError("epsilons must not be empty")
        for e in self.epsilons:
            if not (math.isfinite(e) and e >= 0.0):
                raise ConfigError(f"epsilon={e!r} must be finite and >= 0")
        if len(set(self.epsilons)) < len(self.epsilons):
            # stream_for maps a noise level to one stream, so a repeat would
            # reproduce the same sub-ensemble.
            raise ConfigError(f"epsilons={self.epsilons!r} must not repeat a value")
        if not 0.0 <= self.nu < 2.0 / 3.0:
            raise ConfigError(f"nu={self.nu!r} must lie in [0, 2/3)")
        if not self.nu < self.varsigma < 1.0:
            raise ConfigError(f"varsigma={self.varsigma!r} must lie in (nu, 1)")
        if not (isinstance(self.frak_t, (int, np.integer)) and self.frak_t >= 1):
            raise ConfigError(f"frak_t={self.frak_t!r} must be an integer >= 1")
        # Checked before horizon_for converts it to a float.  A larger frak_t
        # is over the cap anyway at eps <= 1 (T_eps >= frak_t).
        check_grid_size(self.frak_t, "frak_t")
        if not (math.isfinite(self.p) and self.p >= 1.0):
            raise ConfigError(f"p={self.p!r} must be finite and >= 1")
        if self.replicas < 1:
            raise ConfigError(f"replicas={self.replicas!r} must be >= 1")
        if self.workers < 1:
            raise ConfigError(f"workers={self.workers!r} must be >= 1")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size={self.batch_size!r} must be >= 1")
        # Delegate the dt and seed checks, and fail before any work when one
        # replica's grid at some eps exceeds the cap (larger batches are split
        # in _replica_tallies).  eps = 0 simulates nothing, but its per-cycle
        # table still has T_eps entries.
        for e in self.epsilons:
            scfg = self.stoch_config(e)
            scfg.validate()
            points = scfg.grid_nodes() if e > 0.0 else scfg.horizon + 1
            check_grid_size(points, f"one replica's grid at epsilon={e!r}")

    def horizon_for(self, eps: float) -> int:
        """T_eps = floor(frak_t / eps^nu), at least 1."""
        if eps == 0.0 or self.nu == 0.0:
            t = self.frak_t
        else:
            t = int(math.floor(self.frak_t / eps ** self.nu))
        return max(1, t)

    def delta_for(self, eps: float) -> float:
        return 0.0 if eps == 0.0 else eps ** self.varsigma

    def stoch_config(self, eps: float) -> StochConfig:
        """The engine config of the sub-ensemble at noise level eps."""
        return StochConfig(epsilon=eps, dt=self.dt, horizon=self.horizon_for(eps),
                           seed=self.seed, bridge_correction=self.bridge_correction,
                           stream=self.stream_for(eps))

    def stream_for(self, eps: float) -> int:
        """Sub-ensemble index: position of eps in the grid; no other level has a stream."""
        if eps not in self.epsilons:
            raise ConfigError(f"epsilon={eps!r} is not in epsilons={self.epsilons!r}")
        return self.epsilons.index(eps)


def _first_bad_cycle(det_t: np.ndarray, taus: np.ndarray, delta: float,
                     t_eps: int) -> tuple[int, int]:
    """First cycle violating |tau_n - t_n| <= delta; (0, 0) when none.

    A missing cycle (the replica produced fewer passages than the horizon
    has cycles) counts as a late violation at the first absent index.
    """
    k = min(len(taus), t_eps)
    dev = taus[:k] - det_t[:k]
    bad = np.flatnonzero(np.abs(dev) > delta)
    if bad.size:
        return int(bad[0]) + 1, (-1 if dev[bad[0]] < 0.0 else +1)
    if k < t_eps:
        return k + 1, +1
    return 0, 0


def _has_anomaly(taus: np.ndarray, sigmas: np.ndarray) -> bool:
    """True when any ON phase spans a clock pulse (slow passage)."""
    if len(taus) == 0:
        return False
    starts = np.concatenate([[0.0], sigmas[:-1]])
    return bool(np.any(taus - starts >= 1.0))


def deformation_for(det: DetPath, sched: ReplicaSchedule, horizon: float,
                    try_align: bool) -> tuple[TimeDeformation, str]:
    """The schedule-aligning deformation when asked for and it exists, else the identity.

    Returns the deformation and its method name, the label of the CLI's distance.csv.
    """
    lam = align_schedules(det.schedule, sched, horizon) if try_align else None
    if lam is None:
        return TimeDeformation.identity(horizon), "identity"
    return lam, "deformation"


def _ensemble_batch(p: ConverterParams, dc: DerivedConstants, cfg: McConfig,
                    eps: float, ids: range, want_distance: bool) -> tuple[np.ndarray, ...]:
    """Simulate one replica batch; per-replica (first_bad, bad_sign, anomaly, d_bound).

    d_bound stays 0 unless want_distance.
    """
    t_eps, delta = cfg.horizon_for(eps), cfg.delta_for(eps)
    scfg = cfg.stoch_config(eps)
    res = simulate_batch(p, dc.x_star, scfg, list(ids), record_paths=want_distance)
    det = simulate_det(p, (dc.x_star, 1), t_eps)
    det_t = det.schedule.on_to_off
    B = len(res.schedules)
    first_bad = np.zeros(B, dtype=int)
    bad_sign = np.zeros(B, dtype=int)
    anomaly = np.zeros(B, dtype=bool)
    d_bound = np.zeros(B)
    for b, sched in enumerate(res.schedules):
        first_bad[b], bad_sign[b] = _first_bad_cycle(det_t, sched.taus, delta, t_eps)
        anomaly[b] = _has_anomaly(sched.taus, sched.sigmas)
        if want_distance:
            lam, _ = deformation_for(det, sched, float(t_eps), first_bad[b] == 0)
            d_bound[b] = skorokhod_upper_bound(det, res.path(b), lam).bound
    return first_bad, bad_sign, anomaly, d_bound


def _replica_tallies(p: ConverterParams, dc: DerivedConstants, cfg: McConfig,
                     eps: float, want_distance: bool) -> tuple[np.ndarray, ...]:
    """(first_bad, bad_sign, anomaly, d_bound) of every replica, in replica order."""
    cfg.validate()
    scfg = cfg.stoch_config(eps)  # refuses a level outside cfg.epsilons
    N = cfg.replicas
    if eps == 0.0:
        # Deterministic degeneration: no draws, no deviations, zero distance.
        return (np.zeros(N, dtype=int), np.zeros(N, dtype=int), np.zeros(N, dtype=bool),
                np.zeros(N))
    if want_distance:
        # Fail before the first batch, not in the first distance bound.
        distance_grid_nodes(float(scfg.horizon))
    run = partial(_ensemble_batch, p, dc, cfg, eps, want_distance=want_distance)
    # Bytes depend on neither the batch size nor the worker count, so a batch
    # over the grid cap is split and the pool never outnumbers the CPUs; each
    # worker process splits its array work over its share of them.
    batches = batch_ranges(N, cfg.batch_size, scfg.grid_nodes(),
                           f"one replica's grid at epsilon={eps!r}")
    workers = min(cfg.workers, len(batches), parallel.usable_cpus())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=parallel.share_cpus,
                                 initargs=(workers,)) as pool:
            results = list(pool.map(run, batches))
    else:
        results = [run(ids) for ids in batches]
    return tuple(np.concatenate(parts) for parts in zip(*results))


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


def _bad_event_table(dc: DerivedConstants, cfg: McConfig, eps: float,
                     first_bad: np.ndarray, bad_sign: np.ndarray,
                     anomaly: np.ndarray) -> BadEventTable:
    t_eps, delta, N = cfg.horizon_for(eps), cfg.delta_for(eps), cfg.replicas

    def per_cycle(fb: np.ndarray) -> np.ndarray:
        """Replicas whose first bad cycle is n, for n = 1..t_eps."""
        return np.bincount(fb, minlength=t_eps + 1)[1:]

    bad = per_cycle(first_bad)
    lo = np.empty(t_eps)
    hi = np.empty(t_eps)
    for i, k in enumerate(bad):
        lo[i], hi[i] = wilson_interval(int(k), N)
    if eps > 0.0:
        ratio = delta / eps
        bound = 3.0 * gaussian_tail(dc.k * ratio)
        bound_minus = 2.0 * gaussian_tail(dc.k_minus * ratio)
        bound_plus = gaussian_tail(dc.k_plus * ratio)
    else:
        bound = bound_minus = bound_plus = 0.0
    return BadEventTable(
        epsilon=eps, t_eps=t_eps, delta=delta, replicas=N,
        emp_prob=bad / N, wilson_lo=lo, wilson_hi=hi, bound=bound,
        emp_minus=per_cycle(first_bad[bad_sign < 0]) / N, bound_minus=bound_minus,
        emp_plus=per_cycle(first_bad[bad_sign > 0]) / N, bound_plus=bound_plus,
        good_freq=int(np.count_nonzero(first_bad == 0)) / N,
        union_prob=float(bad.sum()) / N,
        anomaly_count=int(anomaly.sum()),
        delta_within_dplus=bool(delta < dc.delta_plus),
    )


@dataclass(frozen=True)
class MomentEstimate:
    """Estimate of E[d^p] for one noise level from per-replica distance bounds.

    Its level, horizon and replica count are those of the level's BadEventTable,
    and its order is McConfig.p.
    """

    moment: float
    se: float
    mean_d: float
    q90: float
    q99: float


def _moment_estimate(tab: BadEventTable, p_order: float, d: np.ndarray) -> MomentEstimate:
    """E[d^p] and its standard error; DomainError when either overflows double precision."""
    with np.errstate(over="ignore", invalid="ignore"):
        dp = d ** p_order
        moment = float(dp.mean())
        se = float(dp.std(ddof=1) / math.sqrt(len(dp))) if len(dp) > 1 else 0.0
    if not (math.isfinite(moment) and math.isfinite(se)):
        raise DomainError(f"E[d^p] or its standard error overflows at p={p_order!r} "
                          f"(epsilon={tab.epsilon!r}); use a smaller p")
    return MomentEstimate(moment=moment, se=se, mean_d=float(d.mean()),
                          q90=float(np.quantile(d, 0.9)), q99=float(np.quantile(d, 0.99)))


def _verdicts(p: ConverterParams, dc: DerivedConstants, cfg: McConfig, eps: float,
              want_distance: bool) -> tuple[BadEventTable, MomentEstimate | None]:
    first_bad, bad_sign, anomaly, d_bound = _replica_tallies(p, dc, cfg, eps, want_distance)
    tab = _bad_event_table(dc, cfg, eps, first_bad, bad_sign, anomaly)
    return tab, _moment_estimate(tab, cfg.p, d_bound) if want_distance else None


def bad_event_probs(p: ConverterParams, dc: DerivedConstants, cfg: McConfig,
                    eps: float) -> BadEventTable:
    """Empirical first-bad-cycle frequencies against the Gaussian tail bounds."""
    return _verdicts(p, dc, cfg, eps, want_distance=False)[0]


def distance_moment(p: ConverterParams, dc: DerivedConstants, cfg: McConfig,
                    eps: float) -> MomentEstimate:
    """Estimate E[d^p] through per-replica grid-resolved distance bounds."""
    return _verdicts(p, dc, cfg, eps, want_distance=True)[1]


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
        by_eps = sorted(((tab.epsilon, mom.moment)
                         for tab, mom in zip(self.tables, self.moments)),
                        key=lambda t: -t[0])
        ordered = [v for _, v in by_eps]
        decreasing = all(a > b for a, b in zip(ordered, ordered[1:]))
        ratio = ordered[-1] / ordered[0] if len(ordered) > 1 and ordered[0] > 0 else None
        if ratio is not None and not math.isfinite(ratio):
            raise DomainError(f"the moment ratio overflows at p={self.config.p!r}; "
                              "use a smaller p")
        summary = {
            "p": self.config.p,
            "nu": self.config.nu,
            "varsigma": self.config.varsigma,
            "replicas": self.config.replicas,
            "seed": self.config.seed,
            "per_epsilon": per_eps,
            "moment_strictly_decreasing": bool(decreasing) if len(ordered) > 1 else None,
            "moment_ratio_last_to_first": ratio,
            "all_bounds_ok": all(r["bound_dominance_ok"] for r in per_eps),
        }
        return summary


def sweep(p: ConverterParams, dc: DerivedConstants, cfg: McConfig) -> McReport:
    """Run the full verification sweep over the configured noise grid."""
    cfg.validate()
    for eps in cfg.epsilons:
        # Every noise level's distance grid, before the first one runs.
        if eps > 0.0:
            distance_grid_nodes(float(cfg.horizon_for(eps)))
    tables, moments = zip(*(_verdicts(p, dc, cfg, eps, want_distance=True)
                            for eps in cfg.epsilons))
    return McReport(config=cfg, tables=list(tables), moments=list(moments))
