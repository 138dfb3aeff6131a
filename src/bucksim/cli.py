"""Command-line front end.

Subcommands: validate, strobe, simulate-det, simulate-sde, distance,
mc-sweep.  Each subcommand's flags are generated from its rows of
configfile.COMMAND_SETTINGS; values come from an optional flat key-value
config file, overridden by repeatable `--set key=value`, overridden by
dedicated flags.  All randomness flows from the single `seed` setting.
`main` resolves the settings, the ConverterParams, the validated run config
and the --out directory (checked, never created) once, before any work;
each `_cmd_*` does only its own.
Exit codes: 0 ok, 2 config error, 3 domain error, 4 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .configfile import COMMAND_SETTINGS, parse_bool, resolve
from .deterministic import sample_path, simulate_det
from .errors import ConfigError, DomainError, batch_ranges
from .montecarlo import McConfig, sweep
from .output import atomic_write_text, csv_text, format_value, write_json
from .params import ConverterParams, derive_constants, validate_params
from .skorokhod import (TimeDeformation, align_schedules, distance_grid_nodes,
                        skorokhod_upper_bound)
from .strobe import find_fixed_point, iterate_map
from .stochastic import StochConfig, simulate_batch


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bucksim",
                                 description="Switching buck-converter dynamics: "
                                             "simulation and verification")
    ap.add_argument("--version", action="version", version=f"bucksim {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (*_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        sp.add_argument("--config", metavar="PATH", help="flat key-value config file")
        sp.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                        dest="overrides", help="override a config key (repeatable)")
        for s in COMMAND_SETTINGS[command]:
            if s.parse is parse_bool:
                sp.add_argument(s.flag, dest=s.name, action="store_const", const="true",
                                help=s.help)
                if s.key is not None:
                    sp.add_argument("--no-" + s.flag[2:], dest=s.name,
                                    action="store_const", const="false")
            else:
                sp.add_argument(s.flag, dest=s.name, help=s.help)
    return ap


def _build(cls, s: SimpleNamespace):
    """Instance of a config dataclass from the resolved settings of the same names.

    A setting left unset (None) takes the dataclass default.
    """
    return cls(**{f.name: getattr(s, f.name) for f in fields(cls)
                  if getattr(s, f.name, None) is not None})


def _out_dir(out: str | None, required: bool) -> Path | None:
    if out is None:
        if required:
            raise ConfigError("this subcommand writes files; pass --out DIR")
        return None
    path = Path(out)
    for d in (path, *path.parents):
        if os.path.exists(d) and not os.path.isdir(d):
            raise ConfigError(f"--out {out}: {d} exists and is not a directory")
    return path


def _say(s: SimpleNamespace, msg: str) -> None:
    if not s.quiet:
        print(msg)


def _cmd_validate(s: SimpleNamespace, p: ConverterParams, cfg: None, out: Path | None) -> int:
    check = validate_params(p)
    if not check.ok:
        for msg in check.input_errors:
            print(f"input error: {msg}")
        for v in check.violations:
            print(f"violation: {v}")
        print("parameter check: FAILED")
        return 3
    dc = derive_constants(p)
    lines = [f"{k} = {format_value(v)}" for k, v in dc.as_dict().items()]
    _say(s, "parameter check: ok")
    _say(s, "\n".join(lines))
    if out is not None:
        atomic_write_text(out / "derived_constants.txt", "\n".join(lines) + "\n")
        write_json(out / "derived_constants.json", dc.as_dict())
    return 0


def _cmd_strobe(s: SimpleNamespace, p: ConverterParams, cfg: None, out: Path | None) -> int:
    dc = derive_constants(p)
    x_star, fp = find_fixed_point(p)
    xs = iterate_map(p, s.x0, s.iters)
    _say(s, f"x_star = {format_value(x_star)}")
    _say(s, f"f_prime_at_star = {format_value(fp)}")
    _say(s, f"x_border = {format_value(dc.x_border)}")
    if out is not None:
        atomic_write_text(out / "cobweb.csv", csv_text(("iter", "x"), enumerate(xs)))
    return 0


def _cmd_simulate_det(s: SimpleNamespace, p: ConverterParams, cfg: None, out: Path) -> int:
    x0 = s.x0 if s.x0 is not None else derive_constants(p).x_star
    path = simulate_det(p, (x0, s.y0), s.horizon)
    t, x, y = sample_path(path, s.sample_step)
    atomic_write_text(out / "trajectory.csv", csv_text(("t", "x", "y"), zip(t, x, y)))
    sched = path.schedule
    # A restart past the horizon, after a passage exactly at it, is written as nan.
    rows = [(i + 1, t_n, s_n if s_n <= s.horizon else float("nan"))
            for i, (t_n, s_n) in enumerate(zip(sched.taus, sched.sigmas))]
    atomic_write_text(out / "schedule.csv", csv_text(("n", "t_n", "s_n"), rows))
    _say(s, f"simulated {sched.cycles} cycles over [0, {s.horizon}]; "
            f"artifacts in {out}")
    return 0


def _cmd_simulate_sde(s: SimpleNamespace, p: ConverterParams, cfg: StochConfig, out: Path) -> int:
    dc = derive_constants(p)
    rows = []
    anomalies = 0
    # Batches of the default sweep size, split under the grid cap; every
    # replica has its own stream, so the chunking changes no byte.
    for ids in batch_ranges(s.replicas, McConfig.batch_size, cfg.grid_nodes(),
                            "one replica's grid"):
        res = simulate_batch(p, dc.x_star, cfg, ids, record_paths=s.emit_paths)
        for b, (k, sched) in enumerate(zip(ids, res.schedules)):
            rows.extend((k, n + 1, tau, sigma)
                        for n, (tau, sigma) in enumerate(zip(sched.taus, sched.sigmas)))
            anomalies += sched.anomaly
            if s.emit_paths:
                path = res.path(b)
                atomic_write_text(out / f"trajectory_{k}.csv",
                                  csv_text(("t", "x", "y"), zip(path.t, path.x, path.y)))
    atomic_write_text(out / "schedule.csv",
                      csv_text(("replica", "n", "tau_n", "sigma_n"), rows))
    _say(s, f"simulated {s.replicas} replica(s) at epsilon={format_value(cfg.epsilon)}; "
            f"{anomalies} with clock-spanning ON phases; artifacts in {out}")
    return 0


def _cmd_distance(s: SimpleNamespace, p: ConverterParams, cfg: StochConfig, out: Path) -> int:
    dc = derive_constants(p)
    T = float(cfg.horizon)
    distance_grid_nodes(T)  # refuse an over-cap grid before simulating
    det = simulate_det(p, (dc.x_star, 1), cfg.horizon)
    stoch = simulate_batch(p, dc.x_star, cfg, [s.replica]).path(0)
    lam = align_schedules(det.schedule, stoch.schedule, T)
    method = "identity" if lam is None else "deformation"
    bnd = skorokhod_upper_bound(det, stoch, lam or TimeDeformation.identity(T))
    atomic_write_text(out / "distance.csv",
                      csv_text(("gamma", "sup_r", "bound", "method"),
                               [(bnd.gamma, bnd.sup_r, bnd.bound, method)]))
    _say(s, f"gamma={format_value(bnd.gamma)} sup_r={format_value(bnd.sup_r)} "
            f"bound={format_value(bnd.bound)} method={method}")
    return 0


def _cmd_mc_sweep(s: SimpleNamespace, p: ConverterParams, cfg: McConfig, out: Path) -> int:
    dc = derive_constants(p)
    report = sweep(p, dc, cfg)
    summary = report.summary()  # may still raise; no artifact is written then
    atomic_write_text(out / "report.csv", report.to_csv_text())
    write_json(out / "summary.json", summary)
    for row in summary["per_epsilon"]:
        note = "" if row["delta_within_dplus"] else "  [delta >= delta_plus: bound not guaranteed]"
        _say(s, f"epsilon={format_value(row['epsilon'])}: T={format_value(row['t_eps'])} "
                f"good_freq={format_value(row['good_freq'])} "
                f"dp_moment={format_value(row['dp_moment'])} "
                f"bounds_ok={format_value(row['bound_dominance_ok'])}{note}")
    _say(s, f"artifacts in {out}")
    return 0


# command: (run, its run config or None, whether it must write, help)
_COMMANDS = {
    "validate": (_cmd_validate, None, False,
                 "check parameter admissibility and print derived constants"),
    "strobe": (_cmd_strobe, None, False, "stroboscopic map: fixed point, derivative, iterates"),
    "simulate-det": (_cmd_simulate_det, None, True,
                     "deterministic trajectory and switching schedule"),
    "simulate-sde": (_cmd_simulate_sde, StochConfig, True,
                     "stochastic replicas: schedules and optional trajectories"),
    "distance": (_cmd_distance, StochConfig, True,
                 "path-distance bound: one replica vs the orbit"),
    "mc-sweep": (_cmd_mc_sweep, McConfig, True,
                 "Monte Carlo sweep over a noise grid with bound checks"),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    run, config_cls, writes, _ = _COMMANDS[args.command]
    try:
        s = resolve(COMMAND_SETTINGS[args.command], args.config, args.overrides, vars(args))
        cfg = None if config_cls is None else _build(config_cls, s)
        if cfg is not None:
            cfg.validate()
        return run(s, _build(ConverterParams, s), cfg, _out_dir(s.out, writes))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
