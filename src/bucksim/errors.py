"""Exception hierarchy shared across the package.

The three categories mirror the CLI exit codes: configuration problems (bad
config files, inconsistent run options), domain problems (inputs outside an
operation's mathematical domain), and internal inconsistencies that should
be impossible under validated inputs.  The one resource limit, the grid-size
cap, lives here too: exceeding it is a configuration problem.
"""

# Largest grid one array may span: replicas x nodes of a stochastic batch
# (8 B per replica-node, the normals, which x overwrites when paths are
# recorded, plus one period of bridge uniforms per replica, so about
# 0.27 GB at the cap; the stepping blocks add a fixed scratch budget
# independent of the node count; the 1 B mode array is built only when
# BatchResult.ys is read), or the sample/evaluation points of one path.
# Sweeps and simulate-sde split their replicas into batches under it.
MAX_GRID_POINTS = 2 ** 25


class BucksimError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(BucksimError):
    """Invalid or inconsistent run configuration."""


class DomainError(BucksimError, ValueError):
    """Input outside the mathematical domain of an operation."""


class InvalidParamsError(DomainError):
    """Converter parameters violate the stability assumptions."""


class InternalError(BucksimError, RuntimeError):
    """State that should be unreachable under validated inputs."""


def check_grid_size(points: float, what: str,
                    advice: str = "use a coarser step or a shorter horizon") -> None:
    """Raise ConfigError unless a grid of `points` nodes fits under MAX_GRID_POINTS."""
    if not points <= MAX_GRID_POINTS:
        raise ConfigError(f"{what} exceeds the grid-size cap of {MAX_GRID_POINTS} "
                          f"points; {advice}")


def batch_ranges(count: int, batch_size: int, points_each: int, what: str) -> list[range]:
    """Split range(count) into consecutive batches of at most batch_size items.

    A batch is smaller when its grids of `points_each` nodes would together
    exceed the cap.  Raises ConfigError when a single grid does not fit.
    """
    check_grid_size(points_each, what)
    size = min(batch_size, MAX_GRID_POINTS // points_each)
    return [range(i, min(i + size, count)) for i in range(0, count, size)]
