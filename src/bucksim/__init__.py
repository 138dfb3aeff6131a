"""Randomly perturbed switching dynamics of a first-order dc/dc buck converter.

Simulation of the deterministic switching system and its small-noise
stochastic counterpart, Skorokhod-distance bounds between the two, and
Monte Carlo verification of the Gaussian-tail and convergence bounds.
"""

__version__ = "0.1.0"

from .deterministic import (DetPath, Schedule, off_flow, on_flow,
                            on_hit_time, sample_path, simulate_det)
from .errors import BucksimError, ConfigError, DomainError, InvalidParamsError
from .montecarlo import (McConfig, McReport, bad_event_probs, distance_moment,
                         gaussian_tail, gaussian_tail_bound, sweep)
from .params import (ConverterParams, DerivedConstants, ParamCheck, Violation,
                     border_point, derive_constants, validate_params)
from .skorokhod import (DistanceBound, TimeDeformation, align_schedules,
                        skorokhod_upper_bound)
from .stochastic import (StochConfig, StochPath, ou_step, replica_generator,
                         simulate_batch)
from .strobe import (find_fixed_point, iterate_map, strobe_map,
                     strobe_map_derivative)

__all__ = [
    "__version__",
    "BucksimError", "ConfigError", "DomainError", "InvalidParamsError",
    "ConverterParams", "DerivedConstants", "ParamCheck", "Violation",
    "validate_params", "derive_constants", "border_point",
    "strobe_map", "strobe_map_derivative", "find_fixed_point", "iterate_map",
    "DetPath", "Schedule", "on_flow", "off_flow", "on_hit_time",
    "simulate_det", "sample_path",
    "StochConfig", "StochPath",
    "ou_step", "simulate_batch", "replica_generator",
    "TimeDeformation", "DistanceBound", "align_schedules", "skorokhod_upper_bound",
    "McConfig", "McReport", "gaussian_tail", "gaussian_tail_bound",
    "bad_event_probs", "distance_moment", "sweep",
]
