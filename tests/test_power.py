"""Power of the claim checks: a planted engine bug that a check must catch.

Each case runs a check on the clean engine, where it must pass, and on an
engine with one bug planted by monkeypatch, where it must fail.

The check here is the linear-response law of the first passage:
(tau_1 - t_star) / (eps s_1), with s_1 = params.mistiming_sd(p, dc, 1), is
close to N(0, 1) at small eps.  Its sd must lie within 3 standard errors of
1, and a KS test against N(0, 1) must not reject at 0.001.  At P0, eps 0.01
and 20 000 replicas the clean engine reads an sd of about 0.995 +- 0.005.
"""

import math

import numpy as np
from scipy import stats

from bucksim import StochConfig, derive_constants, simulate_batch, stochastic
from bucksim.params import mistiming_sd
from conftest import P0

REPLICAS = 20_000
# Replicas per engine call: keeps each batch's store of draws near 50 MB.
BATCH = 4_000


def _first_passage_law() -> tuple[bool, str]:
    """Whether the law holds, and the sd, its SE and the KS p-value."""
    dc = derive_constants(P0)
    cfg = StochConfig(epsilon=0.01, horizon=1, seed=42)
    taus = []
    for lo in range(0, REPLICAS, BATCH):
        res = simulate_batch(P0, dc.x_star, cfg, range(lo, lo + BATCH), record_paths=False)
        taus += [s.taus[0] for s in res.schedules]
    z = (np.array(taus) - dc.t_star) / (cfg.epsilon * mistiming_sd(P0, dc, 1))
    sd = float(z.std(ddof=1))
    se = sd / math.sqrt(2.0 * (len(z) - 1))
    ks_p = stats.kstest(z, "norm").pvalue
    holds = abs(sd - 1.0) <= 3.0 * se and ks_p >= 1e-3
    return holds, f"sd {sd:.4f} +- {se:.4f}, KS p {ks_p:.2g}"


def test_first_passage_law_holds_on_the_clean_engine():
    holds, numbers = _first_passage_law()
    assert holds, numbers


def test_first_passage_law_catches_step_sd_times_1_05(monkeypatch):
    step_sd = stochastic.ou_step_sd
    monkeypatch.setattr(stochastic, "ou_step_sd",
                        lambda p, h, eps: 1.05 * step_sd(p, h, eps))
    holds, numbers = _first_passage_law()
    assert not holds, numbers
