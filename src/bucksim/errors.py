"""Exception hierarchy shared across the package.

The two categories mirror the CLI exit codes 2 and 3: configuration
problems (bad config files, inconsistent run options) and domain problems
(inputs outside an operation's mathematical domain).  Any other exception
is a bug, exit 4.  The one resource limit, the grid-size cap, lives here
too: exceeding it is a configuration problem.
"""

# Largest grid one array may span: replicas x nodes of a stochastic batch,
# or the sample/evaluation points of one path.  A batch of B replicas over
# n = T spu nodes holds B (T W + spu) doubles (stochastic._simulate_windows),
# so with whole periods (W = spu) about 0.27 GB at the cap plus one period
# per replica; reading one replica's path builds n + 1 doubles more, and ys
# B (n + 1) bytes.  Sweeps and simulate-sde split their replicas into
# batches under it.
MAX_GRID_POINTS = 2 ** 25


class BucksimError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(BucksimError):
    """Invalid or inconsistent run configuration."""


class DomainError(BucksimError, ValueError):
    """Input outside the mathematical domain of an operation."""


class InvalidParamsError(DomainError):
    """Converter parameters violate the stability assumptions."""


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
