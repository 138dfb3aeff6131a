"""Workloads of the bucksim benchmark, shared by the runner and its child processes.

Every workload uses the admissible parameter set P0, grid step 1e-3, the
Brownian-bridge passage correction and one worker.  The workload seed is
the only input that varies between runs; the program sees it only inside
the generated config file (mc-sweep) or McConfig (bad-events).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

P0 = {"alpha_on": 0.5, "alpha_off": 0.6, "beta": 1.2, "x_ref": 1.0}
DT = 1e-3
VARSIGMA = 0.8


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                   # "mc-sweep" (cli.main) or "bad-events" (bad_event_probs)
    epsilons: tuple[float, ...]
    replicas: int
    batch_size: int
    frak_t: int = 10
    nu: float = 0.0
    check_moment: bool = False  # criterion 9: moment strictly decreasing, last <= half of first

    @property
    def artifacts(self) -> tuple[str, ...]:
        if self.kind == "mc-sweep":
            return ("report.csv", "summary.json")
        return ("counts.csv",)

    def config_text(self, seed: int) -> str:
        """Config file of an mc-sweep run; eps and nu travel as flags."""
        lines = [f"{k} = {v!r}" for k, v in P0.items()]
        lines += [
            f"seed = {seed}",
            f"mc.dt = {DT!r}",
            f"mc.varsigma = {VARSIGMA!r}",
            f"mc.frak_t = {self.frak_t}",
            "mc.p = 1.0",
            f"mc.replicas = {self.replicas}",
            f"mc.batch_size = {self.batch_size}",
            "mc.workers = 1",
            "mc.bridge_correction = true",
        ]
        return "\n".join(lines) + "\n"

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        return ["mc-sweep", "--config", config_path, "--out", out_dir, "--quiet",
                "--epsilons", ",".join(repr(e) for e in self.epsilons),
                "--nu", repr(self.nu)]

    def mc_config_kwargs(self, seed: int) -> dict:
        """McConfig fields of a bad-events run."""
        return dict(epsilons=self.epsilons, nu=self.nu, varsigma=VARSIGMA,
                    frak_t=self.frak_t, p=1.0, replicas=self.replicas, dt=DT,
                    seed=seed, bridge_correction=True, workers=1,
                    batch_size=self.batch_size)


WORKLOADS = {
    w.name: w for w in (
        # Criterion-9 config end to end: stochastic engine and distance bound
        # each take about half of the run.
        Workload("sweep-distance", "mc-sweep", (0.1, 0.05, 0.02), replicas=1000,
                 batch_size=512, check_moment=True),
        # Criterion-8 config at a fifth of the replicas: no paths, no distance,
        # so RNG draws and stepping are nearly the whole run.
        Workload("bad-events", "bad-events", (0.05, 0.01, 0.002), replicas=2048,
                 batch_size=1024),
        # T_eps = 10 / 0.01^0.5 = 100: one small batch over 100k grid steps, where
        # the per-step fixed cost and the O(B T / dt) arrays dominate.
        Workload("long-horizon", "mc-sweep", (0.01,), replicas=128,
                 batch_size=128, nu=0.5),
    )
}

# Sizes for the self-test: same code paths, a fraction of a second each.
TINY = {
    "sweep-distance": dict(replicas=24, batch_size=16, frak_t=2),
    "bad-events": dict(replicas=32, batch_size=16, frak_t=2),
    "long-horizon": dict(replicas=8, batch_size=8, frak_t=1),
}


def get(name: str, tiny: bool = False) -> Workload:
    w = WORKLOADS[name]
    return replace(w, **TINY[name]) if tiny else w
