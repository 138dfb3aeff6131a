"""Command-line front end.

Subcommands: validate, strobe, simulate-det, simulate-sde, distance,
mc-sweep.  Each subcommand's flags are generated from its rows of
configfile.COMMAND_SETTINGS; values come from an optional flat key-value
config file, overridden by repeatable `--set key=value`, overridden by
dedicated flags.  All randomness flows from the single `seed` setting.
Exit codes: 0 ok, 2 config error, 3 domain error, 4 internal error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .configfile import COMMAND_SETTINGS, parse_bool, resolve
from .deterministic import sample_path, simulate_det
from .errors import BucksimError, ConfigError, DomainError, batch_ranges
from .montecarlo import McConfig, _has_anomaly, deformation_for, sweep
from .output import atomic_write_text, csv_text, format_value, write_json
from .params import ConverterParams, derive_constants, validate_params
from .skorokhod import skorokhod_upper_bound
from .strobe import find_fixed_point, iterate_map
from .stochastic import StochConfig, simulate_batch, simulate_stoch


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bucksim",
                                 description="Switching buck-converter dynamics: "
                                             "simulation and verification")
    ap.add_argument("--version", action="version", version=f"bucksim {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
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
    """Instance of a config dataclass from the resolved settings of the same names."""
    return cls(**{f.name: getattr(s, f.name) for f in fields(cls) if hasattr(s, f.name)})


def _out_dir(s: SimpleNamespace, required: bool) -> Path | None:
    if s.out is None:
        if required:
            raise ConfigError("this subcommand writes files; pass --out DIR")
        return None
    return Path(s.out)


def _say(s: SimpleNamespace, msg: str) -> None:
    if not s.quiet:
        print(msg)


def _cmd_validate(s: SimpleNamespace) -> int:
    p = _build(ConverterParams, s)
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
    out = _out_dir(s, required=False)
    if out is not None:
        atomic_write_text(out / "derived_constants.txt", "\n".join(lines) + "\n")
        write_json(out / "derived_constants.json", dc.as_dict())
    return 0


def _cmd_strobe(s: SimpleNamespace) -> int:
    p = _build(ConverterParams, s)
    dc = derive_constants(p)
    x_star, fp = find_fixed_point(p)
    xs = iterate_map(p, s.x0, s.iters)
    _say(s, f"x_star = {format_value(x_star)}")
    _say(s, f"f_prime_at_star = {format_value(fp)}")
    _say(s, f"x_border = {format_value(dc.x_border)}")
    out = _out_dir(s, required=False)
    if out is not None:
        rows = [(i, x) for i, x in enumerate(xs)]
        atomic_write_text(out / "cobweb.csv", csv_text(("iter", "x"), rows))
    return 0


def _cmd_simulate_det(s: SimpleNamespace) -> int:
    p = _build(ConverterParams, s)
    x0 = s.x0 if s.x0 is not None else derive_constants(p).x_star
    path = simulate_det(p, (x0, s.y0), s.horizon)
    out = _out_dir(s, required=True)
    t, x, y = sample_path(path, s.sample_step)
    atomic_write_text(out / "trajectory.csv", csv_text(("t", "x", "y"), zip(t, x, y)))
    sched = path.schedule
    rows = []
    for i, t_n in enumerate(sched.on_to_off):
        s_n = sched.off_to_on[i] if i < len(sched.off_to_on) else float("nan")
        rows.append((i + 1, t_n, s_n))
    atomic_write_text(out / "schedule.csv", csv_text(("n", "t_n", "s_n"), rows))
    _say(s, f"simulated {sched.cycles} cycles over [0, {s.horizon}]; "
            f"artifacts in {out}")
    return 0


def _cmd_simulate_sde(s: SimpleNamespace) -> int:
    p = _build(ConverterParams, s)
    dc = derive_constants(p)
    cfg = _build(StochConfig, s)
    cfg.validate()
    out = _out_dir(s, required=True)
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
            anomalies += _has_anomaly(sched.taus, sched.sigmas)
            if s.emit_paths:
                atomic_write_text(out / f"trajectory_{k}.csv",
                                  csv_text(("t", "x", "y"),
                                           zip(res.grid_t, res.xs[b], res.ys[b])))
    atomic_write_text(out / "schedule.csv",
                      csv_text(("replica", "n", "tau_n", "sigma_n"), rows))
    _say(s, f"simulated {s.replicas} replica(s) at epsilon={cfg.epsilon}; "
            f"{anomalies} with clock-spanning ON phases; artifacts in {out}")
    return 0


def _cmd_distance(s: SimpleNamespace) -> int:
    p = _build(ConverterParams, s)
    dc = derive_constants(p)
    cfg = _build(StochConfig, s)
    cfg.validate()
    det = simulate_det(p, (dc.x_star, 1), cfg.horizon)
    stoch = simulate_stoch(p, (dc.x_star, 1), cfg, replica=s.replica)
    lam, method = deformation_for(det, stoch.schedule, float(cfg.horizon), try_align=True)
    bnd = skorokhod_upper_bound(det, stoch, lam, method=method)
    out = _out_dir(s, required=True)
    atomic_write_text(out / "distance.csv",
                      csv_text(("gamma", "sup_r", "bound", "method"),
                               [(bnd.gamma, bnd.sup_r, bnd.bound, bnd.method)]))
    _say(s, f"gamma={format_value(bnd.gamma)} sup_r={format_value(bnd.sup_r)} "
            f"bound={format_value(bnd.bound)} method={bnd.method}")
    return 0


def _cmd_mc_sweep(s: SimpleNamespace) -> int:
    p = _build(ConverterParams, s)
    dc = derive_constants(p)
    report = sweep(p, dc, _build(McConfig, s))
    summary = report.summary()  # may still raise; no artifact is written then
    out = _out_dir(s, required=True)
    atomic_write_text(out / "report.csv", report.to_csv_text())
    write_json(out / "summary.json", summary)
    for row in summary["per_epsilon"]:
        note = "" if row["delta_within_dplus"] else "  [delta >= delta_plus: bound not guaranteed]"
        _say(s, f"epsilon={row['epsilon']}: T={row['t_eps']} "
                f"good_freq={row['good_freq']:.4f} dp_moment={row['dp_moment']:.6g} "
                f"bounds_ok={row['bound_dominance_ok']}{note}")
    _say(s, f"artifacts in {out}")
    return 0


_COMMANDS = {
    "validate": (_cmd_validate,
                 "check parameter admissibility and print derived constants"),
    "strobe": (_cmd_strobe, "stroboscopic map: fixed point, derivative, iterates"),
    "simulate-det": (_cmd_simulate_det, "deterministic trajectory and switching schedule"),
    "simulate-sde": (_cmd_simulate_sde,
                     "stochastic replicas: schedules and optional trajectories"),
    "distance": (_cmd_distance, "path-distance bound: one replica vs the orbit"),
    "mc-sweep": (_cmd_mc_sweep, "Monte Carlo sweep over a noise grid with bound checks"),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    run, _ = _COMMANDS[args.command]
    try:
        return run(resolve(COMMAND_SETTINGS[args.command], args.config,
                           args.overrides, vars(args)))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except BucksimError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
