import math
import warnings

import numpy as np
import pytest

from bucksim import ConverterParams, derive_constants

# Hypothesis imports its patch writer when it reports a failing example, and
# with libcst installed that import emits a DeprecationWarning from
# mypy_extensions.  Under the error filter the report itself would fail and
# stop the session, so the module is imported here with DeprecationWarnings
# ignored for this import only.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

P0 = ConverterParams(alpha_on=0.5, alpha_off=0.6, beta=1.2, x_ref=1.0)

# Frozen oracle values for P0 (independent bisection to 1e-15 plus direct
# formula evaluation; see tests for the dual-route agreement checks).
X_BORDER_P0 = 0.0917902210198207
X_STAR_P0 = 0.6951656375168767
T_STAR_P0 = 0.3939914425826889
F_PRIME_P0 = -0.48931367373732765
MU_P0 = 0.1
K_MINUS_P0 = 0.08211941469556443
K_PLUS_P0 = 0.05
DELTA_PLUS_P0 = 0.1482159443074441


@pytest.fixture(scope="session")
def p0():
    return P0


@pytest.fixture(scope="session")
def dc0():
    return derive_constants(P0)


def random_valid_params(rng: np.random.Generator, n: int, margin: float = 0.05
                        ) -> list[ConverterParams]:
    """Sample parameter tuples strictly inside the admissible region.

    Each constrained quantity is placed at a uniform quantile of its
    admissible interval, at least `margin` away from both ends, so strict
    inequalities hold with slack.
    """
    out = []
    log2 = math.log(2.0)
    for _ in range(n):
        a_on = log2 * rng.uniform(margin, 1.0 - margin)
        x_ref = 10.0 ** rng.uniform(-0.7, 0.7)
        ea = math.exp(a_on)
        beta_lo = 2.0 * x_ref * a_on
        beta_hi = (ea / (ea - 1.0)) * x_ref * a_on
        beta = beta_lo + (beta_hi - beta_lo) * rng.uniform(margin, 1.0 - margin)
        off_hi = ((beta / a_on - x_ref) / x_ref) * a_on
        a_off = a_on + (off_hi - a_on) * rng.uniform(margin, 1.0 - margin)
        out.append(ConverterParams(alpha_on=a_on, alpha_off=a_off,
                                   beta=beta, x_ref=x_ref))
    return out
