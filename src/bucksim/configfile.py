"""Run settings: one table of every setting, one resolver.

Config files are plain text, one `key = value` assignment per line, with
`#` comments and blank lines ignored.  Keys are namespaced with dotted
prefixes (`sde.epsilon`, `mc.replicas`); model parameters live at the top
level (`alpha_on`, `alpha_off`, `beta`, `x_ref`), as does `seed`.  Values
use decimal notation.

COMMAND_SETTINGS lists, per subcommand, one row per setting: its config key
(or none), its command-line flag, the parser from text to value, the
default, and a range check for the values that no library config object
validates.  `resolve` applies default < config file < `--set key=value` <
flag (later assignments win within a file) and turns every parse or check
failure into a ConfigError naming the setting and where its value came
from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

from .errors import ConfigError

_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: empty key or value in {raw!r}")
        values[key] = value
    return values


def load_config(path: str | Path) -> dict[str, str]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def parse_overrides(overrides: list[str]) -> dict[str, str]:
    """Repeatable `key=value` override strings as a map; later entries win."""
    out = {}
    for item in overrides:
        key, sep, value = item.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        out[key] = value
    return out


def parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValueError("not a boolean")


def _int(raw: str) -> int:
    return int(raw, 10)


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _at_least(lo: int) -> Callable[[int], None]:
    def check(v: int) -> None:
        if v < lo:
            raise ValueError(f"must be >= {lo}")
    return check


def _finite_positive(v: float) -> None:
    if not (math.isfinite(v) and v > 0.0):
        raise ValueError("must be finite and > 0")


def _mode(v: int) -> None:
    if v not in (0, 1):
        raise ValueError("must be 0 or 1")


@dataclass(frozen=True)
class Setting:
    """One settable value of a subcommand.

    A boolean setting takes no flag argument; one that also has a config
    key gets a `--no-...` flag as well, so a flag can undo the file.
    """

    name: str                    # attribute name of the resolved value
    key: str | None              # config-file and --set key
    flag: str
    parse: Callable[[str], Any]  # raises ValueError on malformed text
    default: Any = None
    required: bool = False
    check: Callable[[Any], None] | None = None  # raises ValueError when out of range
    help: str | None = None


_COMMON = (
    Setting("out", None, "--out", str, help="output directory for artifacts"),
    Setting("seed", "seed", "--seed", _int, 0, help="base RNG seed"),
    Setting("quiet", None, "--quiet", parse_bool, False, help="suppress summary output"),
    Setting("alpha_on", "alpha_on", "--alpha-on", float, required=True),
    Setting("alpha_off", "alpha_off", "--alpha-off", float, required=True),
    Setting("beta", "beta", "--beta", float, required=True),
    Setting("x_ref", "x_ref", "--x-ref", float, required=True),
)


def _sde(min_horizon: int) -> tuple[Setting, ...]:
    """The stochastic run's settings; a path distance needs a horizon of at least 1."""
    return (
        Setting("epsilon", "sde.epsilon", "--epsilon", float, required=True),
        Setting("dt", "sde.dt", "--dt", float, 1e-3),
        Setting("horizon", "sde.horizon", "--horizon", _int, 10,
                check=_at_least(min_horizon)),
        Setting("bridge_correction", "sde.bridge_correction", "--bridge", parse_bool, True),
    )


COMMAND_SETTINGS: dict[str, tuple[Setting, ...]] = {
    "validate": _COMMON,
    "strobe": _COMMON + (
        Setting("x0", None, "--x0", float, 0.1),
        Setting("iters", None, "--iters", _int, 50, check=_at_least(0)),
    ),
    "simulate-det": _COMMON + (
        Setting("horizon", "det.horizon", "--horizon", _int, 10),
        Setting("x0", "det.x0", "--x0", float, help="default: the fixed point"),
        Setting("y0", None, "--y0", _int, 1, check=_mode),
        Setting("sample_step", "det.sample_step", "--sample-step", float, 1e-3,
                check=_finite_positive),
    ),
    "simulate-sde": _COMMON + _sde(0) + (
        Setting("replicas", "sde.replicas", "--replicas", _int, 1, check=_at_least(1)),
        Setting("emit_paths", None, "--emit-paths", parse_bool, False),
    ),
    "distance": _COMMON + _sde(1) + (
        Setting("replica", None, "--replica", _int, 0, check=_at_least(0)),
    ),
    # McConfig.validate checks every mc.* value.
    "mc-sweep": _COMMON + (
        Setting("epsilons", "mc.epsilons", "--epsilons", _floats, required=True,
                help="comma-separated list"),
        Setting("nu", "mc.nu", "--nu", float, 0.0),
        Setting("varsigma", "mc.varsigma", "--varsigma", float, 0.8),
        Setting("frak_t", "mc.frak_t", "--frak-t", _int, 10),
        Setting("p", "mc.p", "--p", float, 1.0),
        Setting("replicas", "mc.replicas", "--replicas", _int, 1000),
        Setting("dt", "mc.dt", "--dt", float, 1e-3),
        Setting("workers", "mc.workers", "--workers", _int, 1),
        Setting("batch_size", "mc.batch_size", "--batch-size", _int, 512),
        Setting("bridge_correction", "mc.bridge_correction", "--bridge", parse_bool, True),
    ),
}

KNOWN_KEYS = frozenset(s.key for rows in COMMAND_SETTINGS.values() for s in rows if s.key)


def resolve(settings: tuple[Setting, ...], config_path: str | None,
            overrides: list[str], flags: dict[str, str | None]) -> SimpleNamespace:
    """Value of each setting: default < config file < `--set` < flag.

    `flags` maps setting names to the raw flag text, None where the flag
    was not given.  Keys that no subcommand knows are rejected.
    """
    layers = []
    if config_path is not None:
        layers.append((f"config file {config_path}", load_config(config_path)))
    layers.append(("--set", parse_overrides(overrides)))
    for source, values in layers:
        for key in values:
            if key not in KNOWN_KEYS:
                raise ConfigError(f"unknown config key '{key}' in {source}")
    out = SimpleNamespace()
    for s in settings:
        raw = source = None
        for layer, values in layers:
            if s.key in values:
                raw, source = values[s.key], layer
        if flags.get(s.name) is not None:
            raw, source = flags[s.name], s.flag
        if raw is None:
            if s.required:
                raise ConfigError(f"missing required config key '{s.key}'")
            setattr(out, s.name, s.default)
            continue
        try:
            value = s.parse(raw)
            if s.check is not None:
                s.check(value)
        except ValueError as exc:
            raise ConfigError(f"{s.key or s.flag} = {raw!r} from {source}: {exc}") from None
        setattr(out, s.name, value)
    return out
