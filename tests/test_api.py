import bucksim

# The public surface: what the CLI, the acceptance criteria and the paper's
# objects need (38 names), and the package version.
PUBLIC = [
    "BucksimError", "ConfigError", "ConverterParams", "DerivedConstants", "DetPath",
    "DistanceBound", "DomainError", "InvalidParamsError", "McConfig", "McReport",
    "ParamCheck", "Schedule", "StochConfig", "StochPath", "TimeDeformation", "Violation",
    "__version__", "align_schedules", "bad_event_probs", "border_point", "derive_constants",
    "distance_moment", "find_fixed_point", "gaussian_tail", "gaussian_tail_bound",
    "iterate_map", "off_flow", "on_flow", "on_hit_time", "ou_step", "replica_generator",
    "sample_path", "simulate_batch", "simulate_det", "skorokhod_upper_bound", "strobe_map",
    "strobe_map_derivative", "sweep", "validate_params",
]


def test_public_names_are_pinned_and_import():
    assert sorted(bucksim.__all__) == PUBLIC
    namespace = {}
    exec("from bucksim import *", namespace)  # raises on a listed name that is missing
    assert set(PUBLIC) <= namespace.keys()
