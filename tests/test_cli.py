import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bucksim import (ConverterParams, McConfig, StochConfig, border_point, derive_constants,
                     simulate_batch, simulate_stoch)
from bucksim import cli, errors, parallel, skorokhod, stochastic
from bucksim.cli import main
from bucksim.configfile import COMMAND_SETTINGS, parse_bool, resolve
from bucksim.output import atomic_write_text, csv_text, format_value

P0_CONFIG = """\
# reference parameter set
alpha_on = 0.5
alpha_off = 0.6
beta = 1.2
x_ref = 1.0
seed = 42
"""

# Every size at a tiny value, so a probe that wrongly passes stays fast.
SMALL_CONFIG = P0_CONFIG + """\
det.horizon = 1
sde.epsilon = 0.1
sde.dt = 0.1
sde.horizon = 1
mc.epsilons = 0.1
mc.frak_t = 1
mc.replicas = 2
mc.dt = 0.1
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(P0_CONFIG)
    return str(path)


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CONFIG)
    return str(path)


def test_validate_ok(cfg_file, capsys):
    rc = main(["validate", "--config", cfg_file])
    out = capsys.readouterr().out
    assert rc == 0
    assert "parameter check: ok" in out
    assert "x_star" in out


def test_validate_writes_reports(cfg_file, tmp_path):
    out = tmp_path / "artifacts"
    rc = main(["validate", "--config", cfg_file, "--out", str(out)])
    assert rc == 0
    txt = (out / "derived_constants.txt").read_text()
    assert "x_border = " in txt
    data = json.loads((out / "derived_constants.json").read_text())
    assert data["mu"] == pytest.approx(0.1)


def test_validate_bad_beta_names_violation(cfg_file, capsys):
    rc = main(["validate", "--config", cfg_file, "--set", "beta=0.9"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "violation: beta lower bound: requires 1 < 0.9\n" in out


def test_missing_required_key_is_config_error(tmp_path, capsys):
    path = tmp_path / "partial.cfg"
    path.write_text("alpha_on = 0.5\nalpha_off = 0.6\nx_ref = 1.0\n")
    rc = main(["validate", "--config", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "beta" in err


def test_unreadable_config_is_config_error(tmp_path, capsys):
    rc = main(["validate", "--config", str(tmp_path / "missing.cfg")])
    assert rc == 2


def test_malformed_config_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("alpha_on 0.5\n")
    rc = main(["validate", "--config", str(path)])
    assert rc == 2


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"alpha_on = 0.5\xff\n")
    rc = main(["validate", "--config", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: cannot read config file") and str(path) in err


def test_set_items_read_like_config_lines(cfg_file, capsys):
    # `#` starts a comment, and a malformed item is named by its position.
    assert main(["validate", "--config", cfg_file, "--set", "beta=0.9 # breaks it"]) == 3
    assert main(["validate", "--config", cfg_file, "--set", "beta=1.2", "--set", "beta"]) == 2
    assert "--set:2: expected 'key = value'" in capsys.readouterr().err


def test_flag_beats_set_beats_file(cfg_file, capsys):
    # file says 1.2; --set breaks it; the dedicated flag repairs it
    rc = main(["validate", "--config", cfg_file, "--set", "beta=0.9", "--beta", "1.2"])
    assert rc == 0
    rc = main(["validate", "--config", cfg_file, "--set", "beta=0.9"])
    assert rc == 3
    capsys.readouterr()


_REQUIRED = ["alpha_on=0.5", "alpha_off=0.6", "beta=1.2", "x_ref=1.0"]


@pytest.mark.parametrize("command,required,default", [
    ("mc-sweep", ["mc.epsilons=0.1"], McConfig(epsilons=(0.1,))),
    ("simulate-sde", ["sde.epsilon=0.1"], StochConfig(epsilon=0.1)),
    ("distance", ["sde.epsilon=0.1"], StochConfig(epsilon=0.1)),
])
def test_unset_settings_take_the_config_defaults(command, required, default):
    # The settings table states no default that the config dataclass has.
    def build(overrides, flags):
        s = resolve(COMMAND_SETTINGS[command], None, _REQUIRED + required + overrides, flags)
        return cli._build(type(default), s)

    assert build([], {}) == default
    # A value that is set still wins: by --set, by a flag and by a boolean flag.
    assert build(["seed=5"], {"dt": "0.01", "bridge_correction": "false"}) == (
        dataclasses.replace(default, seed=5, dt=0.01, bridge_correction=False))


def test_strobe_cobweb_csv(cfg_file, tmp_path):
    out = tmp_path / "strobe"
    rc = main(["strobe", "--config", cfg_file, "--out", str(out),
               "--x0", "0.1", "--iters", "20"])
    assert rc == 0
    lines = (out / "cobweb.csv").read_text().strip().split("\n")
    assert lines[0] == "iter,x"
    assert len(lines) == 22  # header + x0 + 20 iterates


def test_simulate_det_outputs(cfg_file, tmp_path):
    out = tmp_path / "det"
    rc = main(["simulate-det", "--config", cfg_file, "--out", str(out),
               "--horizon", "3", "--sample-step", "0.01"])
    assert rc == 0
    traj = (out / "trajectory.csv").read_text().strip().split("\n")
    assert traj[0] == "t,x,y"
    sched = (out / "schedule.csv").read_text().strip().split("\n")
    assert sched[0] == "n,t_n,s_n"
    assert len(sched) == 4  # header + 3 cycles


def test_simulate_det_passage_at_the_horizon(cfg_file, tmp_path):
    # From the border point the passage lands exactly on the horizon 1; its
    # restart, at 2, lies past the horizon and is written as nan.
    out = tmp_path / "det"
    p = ConverterParams(alpha_on=0.5, alpha_off=0.6, beta=1.2, x_ref=1.0)
    rc = main(["simulate-det", "--config", cfg_file, "--out", str(out), "--quiet",
               "--x0", repr(border_point(p)), "--horizon", "1"])
    assert rc == 0
    assert (out / "schedule.csv").read_text() == "n,t_n,s_n\n1,1,nan\n"


@pytest.mark.parametrize("x0", ["-1", "nan", "5"])
def test_strobe_start_outside_domain_exits_3(cfg_file, tmp_path, capsys, x0):
    # With no iterate to take as well: the start is written to the cobweb.
    out = tmp_path / "strobe"
    for iters in ("0", "1"):
        rc = main(["strobe", "--config", cfg_file, "--out", str(out),
                   "--x0", x0, "--iters", iters])
        assert rc == 3
        assert capsys.readouterr().err.startswith("domain error: strobe_map: x=")
    assert not out.exists()


def test_simulate_det_requires_out(cfg_file):
    rc = main(["simulate-det", "--config", cfg_file, "--horizon", "2"])
    assert rc == 2


WRITING_COMMANDS = ("simulate-det", "simulate-sde", "distance", "mc-sweep")
BAD_OUTS = ([(c, "a file") for c in COMMAND_SETTINGS]
            + [(c, "under a file") for c in COMMAND_SETTINGS]
            + [(c, "none") for c in WRITING_COMMANDS])


def _out_args(root, case):
    """--out for a fresh directory, an existing file, a path under a file, or none."""
    a_file = root / "a_file"
    a_file.write_text("")
    return {"fresh": ["--out", str(root / "out")], "a file": ["--out", str(a_file)],
            "under a file": ["--out", str(a_file / "out")], "none": []}[case]


@pytest.mark.parametrize("command,case", BAD_OUTS, ids=[f"{c}-{o}" for c, o in BAD_OUTS])
def test_bad_out_exits_2_before_any_work(small_cfg, tmp_path, monkeypatch, capsys,
                                         command, case):
    # The output directory is checked before any command starts its work, and
    # the check creates nothing.
    calls = []

    def no_work(*args, **kwargs):
        calls.append(args)
        raise AssertionError("work started before --out was checked")

    for name in ("sweep", "simulate_batch", "simulate_stoch", "simulate_det",
                 "find_fixed_point", "validate_params"):
        monkeypatch.setattr(cli, name, no_work)
    rc = main([command, "--config", small_cfg, "--quiet"] + _out_args(tmp_path, case))
    err = capsys.readouterr().err
    assert rc == 2 and calls == []
    assert err.startswith("config error:") and "--out" in err
    assert sorted(os.listdir(tmp_path)) == ["a_file", "small.cfg"]


def test_failed_artifact_write_is_config_error(cfg_file, tmp_path, monkeypatch, capsys):
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(os, "replace", refuse)
    out = tmp_path / "out"
    rc = main(["validate", "--config", cfg_file, "--out", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"config error: cannot write {out / 'derived_constants.txt'}: ")
    assert os.listdir(out) == []  # the temporary sibling is removed too


def test_simulate_sde_outputs(cfg_file, tmp_path, monkeypatch):
    # Chunks of 2 replicas, so the last chunk is ragged; the bytes must match
    # one simulate_stoch run per replica.
    monkeypatch.setattr(McConfig, "batch_size", 2)
    out = tmp_path / "sde"
    rc = main(["simulate-sde", "--config", cfg_file, "--out", str(out),
               "--epsilon", "0.05", "--horizon", "3", "--replicas", "3",
               "--emit-paths"])
    assert rc == 0
    p = ConverterParams(alpha_on=0.5, alpha_off=0.6, beta=1.2, x_ref=1.0)
    cfg = StochConfig(epsilon=0.05, horizon=3, seed=42)
    rows = []
    for k in range(3):
        path = simulate_stoch(p, (derive_constants(p).x_star, 1), cfg, replica=k)
        sched = path.schedule
        rows += [(k, n + 1, sched.taus[n], sched.sigmas[n]) for n in range(sched.cycles)]
        assert (out / f"trajectory_{k}.csv").read_text() == csv_text(
            ("t", "x", "y"), zip(path.t, path.x, path.y))
    assert (out / "schedule.csv").read_text() == csv_text(
        ("replica", "n", "tau_n", "sigma_n"), rows)


def test_simulate_sde_bad_dt_is_config_error(cfg_file, tmp_path):
    rc = main(["simulate-sde", "--config", cfg_file, "--out", str(tmp_path / "x"),
               "--epsilon", "0.05", "--dt", "0.0003"])
    assert rc == 2


def test_distance_output(cfg_file, tmp_path):
    out = tmp_path / "dist"
    rc = main(["distance", "--config", cfg_file, "--out", str(out),
               "--epsilon", "0.02", "--horizon", "3"])
    assert rc == 0
    lines = (out / "distance.csv").read_text().strip().split("\n")
    assert lines[0] == "gamma,sup_r,bound,method"
    fields = lines[1].split(",")
    assert fields[3] in ("deformation", "identity")
    assert float(fields[2]) >= max(float(fields[0]), float(fields[1])) - 1e-15


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_artifact_bytes_pinned(cfg_file, tmp_path):
    # A refactor must leave every byte of these artifacts as it is; a change
    # that moves a byte on purpose re-pins the digests.
    _check_artifact_pins(cfg_file, tmp_path)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_artifact_bytes_under_any_thread_count(cfg_file, tmp_path, monkeypatch, threads):
    # The engine's draws split across threads, and each bound walks its
    # grid in chunks of 97 points.
    monkeypatch.setattr(parallel, "thread_count", lambda: threads)
    monkeypatch.setattr(skorokhod, "CHUNK_POINTS", 97)
    _check_artifact_pins(cfg_file, tmp_path)


def test_artifact_bytes_after_forced_spills(cfg_file, tmp_path, monkeypatch):
    # A window of one step sends every ON phase past its window's edge: each
    # spills the rest of its period (99 steps at dt 0.01, 999 at dt 1e-3),
    # in the batch's one pass.
    batches, passes = [], []
    real = stochastic._simulate_windows
    monkeypatch.setattr(stochastic, "window_steps", lambda p, x0, cfg: batches.append(cfg) or 1)
    monkeypatch.setattr(stochastic, "_simulate_windows",
                        lambda *args: passes.append(real(*args)) or passes[-1])
    _check_artifact_pins(cfg_file, tmp_path)
    assert passes and len(passes) == len(batches)
    spilled = {len(x) for res in passes if res.spills for s in res.spills for _, x in s}
    assert spilled == {99, 999}


def _check_artifact_pins(cfg_file, tmp_path):
    args = ["mc-sweep", "--config", cfg_file, "--epsilons", "0.1,0.0",
            "--frak-t", "2", "--replicas", "120", "--dt", "0.01", "--quiet"]
    for batch_size in (7, 300):
        out = tmp_path / f"mc{batch_size}"
        assert main(args + ["--batch-size", str(batch_size), "--out", str(out)]) == 0
        assert _sha256(out / "report.csv") == (
            "4f061df35837f17b6d5bff289c179dacf6cb4b06cf6cd8a266bf1b68f4d79738")
        assert _sha256(out / "summary.json") == (
            "4f08ac31dc0c968948c5209c48e4cd03b3fcd306478bc6ce1dbdb94aa7e5bdaf")
    out = tmp_path / "dist"
    assert main(["distance", "--config", cfg_file, "--out", str(out), "--epsilon", "0.02",
                 "--horizon", "3", "--quiet"]) == 0
    assert _sha256(out / "distance.csv") == (
        "8627f0e1ce6a013b77c7f48354da554ec1fe8b37405aee435f52c0c5074bd398")
    out = tmp_path / "sde"
    assert main(["simulate-sde", "--config", cfg_file, "--out", str(out), "--epsilon", "0.05",
                 "--horizon", "3", "--dt", "0.01", "--replicas", "3", "--emit-paths",
                 "--quiet"]) == 0
    assert _sha256(out / "schedule.csv") == (
        "562f1929a340e8a80e2895d316db03b681ddb6a0a9863663734f6cac42e407a3")
    assert _sha256(out / "trajectory_2.csv") == (
        "674a58233771281439cabaa11106d332b7a9d25237bd8c12249bc5bb6386a186")
    out = tmp_path / "det"
    assert main(["simulate-det", "--config", cfg_file, "--out", str(out), "--horizon", "3",
                 "--sample-step", "0.01", "--quiet"]) == 0
    assert _sha256(out / "trajectory.csv") == (
        "74408f12aa8c1d03c84e6d9cee3890f5ec75a41191520377be910cc41c8565f7")
    assert _sha256(out / "schedule.csv") == (
        "3dedc4a232981bd564c159ceb70c59c5a9eb42ae316cd7f2649f3da5f88ae479")


def test_grid_cap_splits_batches(cfg_file, tmp_path, monkeypatch):
    # A batch over the grid-size cap is split into smaller batches, not
    # refused, and no byte changes; only one replica's grid over the cap is
    # a config error.
    sweep = ["mc-sweep", "--config", cfg_file, "--epsilons", "0.1,0.0", "--frak-t", "2",
             "--replicas", "120", "--dt", "0.01", "--batch-size", "300", "--quiet"]
    sde = ["simulate-sde", "--config", cfg_file, "--epsilon", "0.05", "--horizon", "10",
           "--dt", "0.01", "--replicas", "5", "--emit-paths", "--quiet"]
    runs = []
    # 2500 points: sweep batches of 12 replicas (201 nodes each), simulate-sde
    # chunks of 2 (1001 nodes each).
    for cap in (errors.MAX_GRID_POINTS, 2500):
        monkeypatch.setattr(errors, "MAX_GRID_POINTS", cap)
        out = tmp_path / str(cap)
        assert main(sweep + ["--out", str(out / "mc")]) == 0
        assert main(sde + ["--out", str(out / "sde")]) == 0
        runs.append({str(f.relative_to(out)): f.read_bytes()
                     for f in out.rglob("*") if f.is_file()})
    assert {"mc/report.csv", "mc/summary.json", "sde/trajectory_4.csv"} <= runs[0].keys()
    assert runs[0] == runs[1]
    monkeypatch.setattr(errors, "MAX_GRID_POINTS", 200)
    assert main(sweep + ["--out", str(tmp_path / "mc")]) == 2
    assert main(sde + ["--out", str(tmp_path / "sde")]) == 2


def test_distance_grid_checked_before_simulating(cfg_file, tmp_path, monkeypatch, capsys):
    # At a cap of 2500 points and dt 0.01, horizon 3 has a 301-node replica
    # grid but a 3001-node distance grid, whose step is fixed: the refusal
    # comes before any path is simulated and advises a shorter horizon only.
    def no_stoch(*args, **kwargs):
        raise AssertionError("a replica was simulated")

    monkeypatch.setattr(errors, "MAX_GRID_POINTS", 2500)
    monkeypatch.setattr(cli, "simulate_stoch", no_stoch)
    rc = main(["distance", "--config", cfg_file, "--epsilon", "0.05", "--dt", "0.01",
               "--horizon", "3", "--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "distance evaluation grid" in err and err.rstrip().endswith("use a shorter horizon")


def test_underflowing_noise_is_zero_noise(cfg_file, tmp_path):
    # eps^2 h underflows to 0 at eps = 1e-170: no bridge hits, and each OU
    # increment is below half an ulp of the state, so the schedules are the
    # eps = 0 ones.
    p = ConverterParams(alpha_on=0.5, alpha_off=0.6, beta=1.2, x_ref=1.0)
    x0 = derive_constants(p).x_star
    runs = [simulate_batch(p, x0, StochConfig(epsilon=eps, horizon=3, seed=5), range(4),
                           record_paths=False).schedules for eps in (0.0, 1e-170)]
    for a, b in zip(*runs):
        assert np.array_equal(a.taus, b.taus) and np.array_equal(a.sigmas, b.sigmas)
        assert a.partial_final_on == b.partial_final_on
    assert main(["simulate-sde", "--config", cfg_file, "--out", str(tmp_path / "sde"),
                 "--epsilon", "1e-200", "--horizon", "2", "--quiet"]) == 0


def test_mc_sweep_outputs_and_determinism(cfg_file, tmp_path):
    # Report bytes depend neither on the run nor on the batch size.
    args = ["mc-sweep", "--config", cfg_file, "--epsilons", "0.1,0.0",
            "--frak-t", "2", "--replicas", "120", "--dt", "0.01", "--quiet"]
    outs = []
    for i, batch_size in enumerate((7, 7, 100, 300)):
        out = tmp_path / f"run{i}"
        assert main(args + ["--batch-size", str(batch_size), "--out", str(out)]) == 0
        outs.append(out)
    for name in ("report.csv", "summary.json"):
        first = (outs[0] / name).read_bytes()
        assert all((out / name).read_bytes() == first for out in outs[1:])
    header = (outs[0] / "report.csv").read_text().split("\n", 1)[0]
    assert header == ("epsilon,T_eps,delta,n,emp_prob,wilson_lo,wilson_hi,"
                      "bound,emp_d_mean,emp_dp_moment,dp_se,good_freq,anomalies")


# Runs the CLI in an interpreter where any scipy import fails.
NO_SCIPY_MAIN = """\
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
try:
    import scipy
except ImportError:
    pass
else:
    sys.exit("scipy was not blocked")
import bucksim
import bucksim.cli
sys.exit(bucksim.cli.main(sys.argv[1:]))
"""


def test_mc_sweep_runs_without_scipy(cfg_file, tmp_path):
    # scipy is a test-only dependency: the library and the CLI never import
    # it, and the sweep's bytes do not depend on it.
    args = ["mc-sweep", "--config", cfg_file, "--epsilons", "0.1,0.0",
            "--frak-t", "2", "--replicas", "20", "--dt", "0.01", "--quiet"]
    assert main(args + ["--out", str(tmp_path / "here")]) == 0
    done = _run_python(NO_SCIPY_MAIN, *args, "--out", str(tmp_path / "there"))
    assert done.returncode == 0, done.stderr
    for name in ("report.csv", "summary.json"):
        assert (tmp_path / "there" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()


def _run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this checkout's bucksim."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args],
                          env=env, capture_output=True, text=True, timeout=120)


# Runs the CLI with argv[1:], then checks that numpy.ma was never imported.
MAIN_WITHOUT_NUMPY_MA = ("import sys\nimport bucksim.cli\n"
                         "assert bucksim.cli.main(sys.argv[1:]) == 0\n"
                         "assert 'numpy.ma' not in sys.modules\n")


def test_simulate_det_does_not_import_numpy_ma(cfg_file, tmp_path):
    # np.unique imports numpy.ma on first use, about 1 MB for the life of
    # the process; sampling the orbit does without it.
    done = _run_python(MAIN_WITHOUT_NUMPY_MA, "simulate-det", "--config", cfg_file,
                       "--horizon", "3", "--quiet", "--out", str(tmp_path / "det"))
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "det" / "schedule.csv").exists()


def test_mc_sweep_does_not_import_numpy_ma(cfg_file, tmp_path):
    # np.quantile calls np.unique; the report's quantiles do without both.
    done = _run_python(MAIN_WITHOUT_NUMPY_MA, "mc-sweep", "--config", cfg_file,
                       "--epsilons", "0.1,0.0", "--frak-t", "2", "--replicas", "20",
                       "--dt", "0.01", "--quiet", "--out", str(tmp_path / "mc"))
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "mc" / "summary.json").exists()


def test_import_does_not_start_multiprocessing():
    # The process pool of a sweep with several workers is imported when one
    # is started, so a serial run's set-up does without multiprocessing.
    done = _run_python("import sys\nimport bucksim, bucksim.cli\n"
                       "assert not [m for m in sys.modules if m.startswith('multiprocessing')]\n")
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("argv", [
    # d^p of the bounds above 1 overflows at p = 2000.
    ["--epsilons", "0.3", "--replicas", "50", "--p", "2000"],
    # Both moments are finite, but the first is subnormal (about 1e-323) and
    # their ratio overflows.
    ["--epsilons", "0.08,0.064", "--replicas", "3", "--p", "500", "--seed", "163"],
], ids=["moment", "ratio"])
def test_overflowing_moment_is_domain_error(cfg_file, tmp_path, capsys, argv):
    # No Infinity or NaN is written, and no artifact at all.
    out = tmp_path / "mc"
    rc = main(["mc-sweep", "--config", cfg_file, "--frak-t", "2", "--dt", "0.01", "--quiet",
               "--out", str(out)] + argv)
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("domain error:") and f"p={float(argv[argv.index('--p') + 1])!r}" in err
    assert not out.exists()


# (argv, the setting the error message must name)
BAD_SETTINGS = [
    (["mc-sweep", "--epsilons", "0.1,abc"], "mc.epsilons"),
    (["mc-sweep", "--epsilons", ""], "epsilons"),
    (["mc-sweep", "--dt", "nan"], "dt"),
    (["simulate-sde", "--dt", "nan"], "dt"),
    (["mc-sweep", "--seed", "-1"], "seed"),
    (["simulate-sde", "--seed", "-1"], "seed"),
    (["distance", "--seed", "-1"], "seed"),
    (["simulate-det", "--sample-step", "nan"], "det.sample_step"),
    (["distance", "--replica", "-1"], "--replica"),
    (["distance", "--horizon", "0", "--epsilon", "0.05"], "sde.horizon"),
    (["mc-sweep", "--p", "nan"], "p="),
    (["simulate-sde", "--replicas", "-3"], "sde.replicas"),
    (["strobe", "--iters", "-3"], "--iters"),
    (["strobe", "--iters", str(2**25)], "grid-size cap"),
    (["mc-sweep", "--set", "mc.replcas=5"], "mc.replcas"),
    # Retired settings: the distance grid step is fixed and T_eps is never capped.
    (["distance", "--set", "sde.grid_step=0.01"], "unknown config key 'sde.grid_step'"),
    (["mc-sweep", "--set", "mc.grid_step=0.01"], "unknown config key 'mc.grid_step'"),
    (["mc-sweep", "--set", "mc.t_cap=5"], "unknown config key 'mc.t_cap'"),
    (["mc-sweep", "--set", "mc.t_cap=-3"], "unknown config key 'mc.t_cap'"),
    (["mc-sweep", "--dt", "5e-324"], "dt="),
    (["simulate-sde", "--dt", "5e-324"], "dt="),
    (["distance", "--dt", "5e-324"], "dt="),
    (["mc-sweep", "--dt", "1e-300"], "grid-size cap"),
    (["simulate-sde", "--dt", "1e-300"], "grid-size cap"),
    (["distance", "--dt", "1e-300"], "grid-size cap"),
    (["simulate-det", "--sample-step", "1e-300"], "grid-size cap"),
    (["mc-sweep", "--epsilons", "1e-100", "--nu", "0.6"], "grid-size cap"),
    (["simulate-det", "--horizon", "1000000000"], "grid-size cap"),
    (["mc-sweep", "--epsilons", "0.1", "--nu", "0.3", "--frak-t", "1" + "0" * 320], "frak_t"),
    (["mc-sweep", "--epsilons", "0.1,0.1"], "must not repeat"),
]


@pytest.mark.parametrize("argv,named", BAD_SETTINGS, ids=[" ".join(a) for a, _ in BAD_SETTINGS])
def test_bad_setting_is_config_error(small_cfg, tmp_path, capsys, argv, named):
    rc = main(argv + ["--config", small_cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and named in err


@pytest.mark.parametrize("argv", [["distance", "--grid-step", "0.01"],
                                  ["mc-sweep", "--grid-step", "0.01"],
                                  ["mc-sweep", "--t-cap", "5"]], ids=" ".join)
def test_retired_flags_are_gone(small_cfg, tmp_path, capsys, argv):
    # The distance grid step is fixed and T_eps is never capped.
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", small_cfg, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "strobe", "simulate-det"])
def test_seed_only_on_commands_that_draw(cfg_file, tmp_path, capsys, command):
    # A command that draws nothing refuses --seed, while a config file
    # shared with the commands that draw may hold `seed`.
    assert {c for c, rows in COMMAND_SETTINGS.items() if any(s.key == "seed" for s in rows)} == {
        "simulate-sde", "distance", "mc-sweep"}
    assert "seed = 42" in P0_CONFIG
    out = ["--config", cfg_file, "--out", str(tmp_path / "out"), "--quiet"]
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "1"] + out)
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert main([command] + out) == 0


def test_horizon_zero_runs_for_simulate_sde(small_cfg, tmp_path):
    # An empty run of the engine is valid; only the distance needs a
    # deformation of [0, T] with T >= 1 (its bad setting is in BAD_SETTINGS).
    assert main(["simulate-sde", "--config", small_cfg, "--horizon", "0", "--epsilon", "0.05",
                 "--out", str(tmp_path / "sde"), "--quiet"]) == 0


BAD_TOKENS = ("", "abc", "nan", "inf", "-1", "0", "1e400", "0.1,abc", "1.5", "5e-324",
              "1e-300")
# One tiny valid value per valued flag.
TINY = {
    "--seed": "3", "--alpha-on": "0.5", "--alpha-off": "0.6", "--beta": "1.2",
    "--x-ref": "1.0", "--x0": "0.5", "--iters": "3", "--horizon": "1", "--y0": "0",
    "--sample-step": "0.1", "--epsilon": "0.1", "--dt": "0.1", "--replicas": "2",
    "--replica": "1", "--epsilons": "0.1", "--nu": "0.3", "--varsigma": "0.8",
    "--frak-t": "1", "--p": "2", "--workers": "1", "--batch-size": "1",
}
# Always drawn, so no run falls back to a large default.  Every bad token is
# invalid or tiny for these, and for --workers, so no run forks many
# processes or allocates a large grid.
SIZE_FLAGS = {"--replicas", "--horizon", "--frak-t", "--iters", "--batch-size", "--dt"}


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(COMMAND_SETTINGS)))
    argv = [command]
    for s in COMMAND_SETTINGS[command]:
        if s.name == "out":
            continue
        if s.parse is parse_bool:
            if draw(st.booleans()):
                argv.append(s.flag)
            continue
        if s.flag not in SIZE_FLAGS and draw(st.booleans()):
            continue
        value = draw(st.sampled_from(BAD_TOKENS + (TINY[s.flag],)))
        if s.key is not None and draw(st.booleans()):
            argv += ["--set", f"{s.key}={value}"]
        else:
            argv += [s.flag, value]
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=fuzz_argv(), out=st.sampled_from(["fresh", "a file", "under a file", "none"]))
def test_fuzzed_settings_never_internal_error(tmp_path_factory, argv, out):
    root = tmp_path_factory.mktemp("fuzz")
    cfg = root / "small.cfg"
    cfg.write_text(SMALL_CONFIG)
    try:
        rc = main(argv + ["--config", str(cfg)] + _out_args(root, out))
    except SystemExit as exc:  # argparse rejects the command line itself
        rc = exc.code
    assert rc in (0, 2, 3)
    if out in ("a file", "under a file") or (out == "none" and argv[0] in WRITING_COMMANDS):
        assert rc == 2


def test_quiet_suppresses_stdout(cfg_file, capsys):
    rc = main(["validate", "--config", cfg_file, "--quiet"])
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_format_value_round_trips():
    rng = np.random.default_rng(1)
    for v in rng.uniform(-1e6, 1e6, 100):
        assert float(format_value(float(v))) == float(v)
    assert format_value(3) == "3"
    assert format_value(True) == "true"


def test_csv_text_shape():
    text = csv_text(("a", "b"), [(1, 2.5), (3, 4.5)])
    assert text == "a,b\n1,2.5\n3,4.5\n"


def test_atomic_write_replaces_without_partial(tmp_path):
    target = tmp_path / "data.csv"
    target.write_text("old")
    atomic_write_text(target, "new contents")
    assert target.read_text() == "new contents"
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".data")]
    assert leftovers == []
