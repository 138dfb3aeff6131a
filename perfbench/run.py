"""Benchmark of the bucksim verification sweep.

Run from the root of a checkout (the program is imported from src/):

    python3 perfbench/run.py --workload sweep-distance --seed 42 --seconds 36 --trace 0

Workloads (see workloads.py and BENCHMARK.json): sweep-distance, bad-events,
long-horizon.  Every repetition runs in a fresh interpreter (child.py).  A
run first starts one interpreter to warm the bytecode cache, then
SETUP_PROBES set-up-only interpreters, then repetitions of the workload
until the next one would end after --seconds (at least MIN_REPS, so the
median of the longest workload rests on a middle pair).  With --trace 1
untraced and traced repetitions alternate (at least two of each) and the
per-layer metrics are printed instead of the end-to-end ones.

Every repetition is checked: bound dominance per noise level, on
sweep-distance the moment decay, the sha256 of each artifact against
digests.json when a digest is recorded for the workload and seed, and
identical artifacts across the repetitions of a run.  A traced run also
checks that its work counts repeat exactly and that the layers' self times
add up to the workload span.  The last line of output is one JSON object
with the keys correct, attempted, failed and metrics.

--record writes the artifact digests of one repetition to digests.json;
--tiny runs the self-test sizes.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DIGESTS = HERE / "digests.json"
WORK = Path(".perfbench")
SETUP_PROBES = 2
MIN_REPS = 4
CHILD_TIMEOUT_S = 170.0

# Metric names and units come from BENCHMARK.json at the root of the checkout.
# Per-layer metrics in these units are computed from returned values, so two
# traced repetitions of one seed must agree on them exactly.
EXACT_UNITS = ("count", "ratio", "B")


def declared_units(section: str) -> dict[str, str]:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[section]}


class BenchError(Exception):
    pass


def run_child(spec: dict, deadline: float) -> dict:
    """Start child.py with the spec, wait for it, and return its JSON line."""
    spec = dict(spec, t_spawn=time.monotonic())
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition of {spec.get('workload')} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def read_rows(w: workloads.Workload, out: Path) -> list[dict]:
    """Per-cycle rows (epsilon, T_eps, emp, bound, moment) from the artifact."""
    rows = []
    if w.kind == "mc-sweep":
        with open(out / "report.csv", newline="") as f:
            for r in csv.DictReader(f):
                rows.append({"epsilon": float(r["epsilon"]), "t_eps": int(r["T_eps"]),
                             "emp": float(r["emp_prob"]), "bound": float(r["bound"]),
                             "moment": float(r["emp_dp_moment"])})
    else:
        with open(out / "counts.csv", newline="") as f:
            for r in csv.DictReader(f):
                rows.append({"epsilon": float(r["epsilon"]), "t_eps": int(r["T_eps"]),
                             "emp": int(r["bad"]) / int(r["replicas"]),
                             "bound": float(r["bound"]), "moment": None})
    return rows


def check_artifacts(w: workloads.Workload, seed: int, out: Path,
                    digests: dict) -> tuple[list[tuple[str, bool]], dict, int]:
    """Correctness checks of one repetition's artifacts.

    Returns the (name, passed) checks, the artifact digests and the work
    done, sum over eps of replicas * T_eps.  A malformed artifact fails the
    verdict checks instead of raising.
    """
    found = {name: sha256(out / name) for name in w.artifacts if (out / name).exists()}
    checks = [(f"artifact {name} written", name in found) for name in w.artifacts]
    try:
        rows = read_rows(w, out)
    except (OSError, KeyError, TypeError, ValueError):
        rows = []
    by_eps: dict[float, list[dict]] = {}
    for r in rows:
        by_eps.setdefault(r["epsilon"], []).append(r)
    checks.append(("every noise level reported",
                   sorted(by_eps) == sorted(w.epsilons)
                   and all(len(v) == v[0]["t_eps"] for v in by_eps.values())))
    for eps in w.epsilons:
        ok = bool(by_eps.get(eps)) and all(
            r["emp"] <= r["bound"] + 3.0 * math.sqrt(r["emp"] * (1.0 - r["emp"]) / w.replicas)
            for r in by_eps[eps])
        checks.append((f"bound dominance eps={eps!r}", ok))
    if w.check_moment:
        m = [by_eps[e][0]["moment"] if by_eps.get(e) else math.nan
             for e in sorted(w.epsilons, reverse=True)]
        checks.append(("moment strictly decreasing", all(a > b for a, b in zip(m, m[1:]))))
        checks.append(("last moment <= half of first", m[-1] <= 0.5 * m[0]))
    for name, want in digests.get(w.name, {}).get(str(seed), {}).items():
        checks.append((f"sha256 {name} matches digests.json", found.get(name) == want))
    work = sum(w.replicas * v[0]["t_eps"] for v in by_eps.values())
    return checks, found, work


def repetition(args, w, trace: bool, k: int, deadline: float, digests: dict) -> dict:
    out = WORK / f"{w.name}-{args.seed}-{os.getpid()}-{k}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        res = run_child({"mode": "run", "workload": w.name, "seed": args.seed,
                         "tiny": args.tiny, "trace": trace, "out": str(out)}, deadline)
        checks, found, work = check_artifacts(w, args.seed, out, digests)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    checks.insert(0, ("workload call returned 0", res["exit_status"] == 0))
    res.update(checks=checks, digests=found, work=work, traced=trace)
    return res


def measure(args) -> tuple[list[dict], list[float]]:
    """Set-up probes and workload repetitions for one run."""
    w = workloads.get(args.workload, args.tiny)
    digests = {} if args.tiny else load_digests()
    deadline = time.monotonic() + args.seconds + 120.0
    run_child({"mode": "setup"}, deadline)  # fills the bytecode cache
    setups = [run_child({"mode": "setup"}, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    # Traced runs: untraced, traced, traced, untraced, then alternate.
    plan = [False, True, True, False] if args.trace else [False] * MIN_REPS
    reps = []
    t_loop = time.monotonic()
    while True:
        if len(reps) < len(plan):
            trace = plan[len(reps)]
        else:
            trace = bool(args.trace) and not reps[-1]["traced"]
        reps.append(repetition(args, w, trace, len(reps), deadline, digests))
        setups.append(reps[-1]["setup_s"])
        elapsed = time.monotonic() - t_loop
        if len(reps) >= len(plan) and elapsed * (len(reps) + 1) / len(reps) > args.seconds:
            break
    return reps, setups


def summarize(args, reps: list[dict], setups: list[float]) -> dict:
    checks = [c for r in reps for c in r["checks"]]
    if len(reps) > 1:
        checks.append(("artifacts identical across repetitions",
                       all(r["digests"] == reps[0]["digests"] for r in reps)))
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    wall = statistics.median(r["wall_s"] for r in plain)
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "replica_cycles_per_s": statistics.median(r["work"] / r["wall_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = declared_units("end_to_end")
    else:
        units = declared_units("per_layer")
        exact = [m for m, u in units.items() if u in EXACT_UNITS]
        layers = [r["layers"] for r in traced]
        checks.append(("work counts identical across traced repetitions",
                       all(l[m] == layers[0][m] for l in layers for m in exact)))
        for r in traced:
            span, total = r["layers"]["trace.workload_span_s"], r["layers"]["trace.self_sum_s"]
            checks.append(("layer self times add up to the workload span",
                           abs(span - total) <= 1e-6 * max(1.0, span)))
        metrics = {name: layers[0][name] if name in exact
                   else statistics.median(l[name] for l in layers) for name in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - wall
    failed = sum(1 for _, ok in checks if not ok)
    return {"checks": checks, "failed": failed, "reps": len(reps), "setups": len(setups),
            "metrics": {k: metrics[k] for k in units}, "units": units}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    ap.add_argument("--record", action="store_true",
                    help="record the artifact digests of this workload and seed")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.record and args.tiny:
        ap.error("digests are recorded at full size only")
    if not (Path("src/bucksim/__init__.py").is_file() and Path("BENCHMARK.json").is_file()):
        print("perfbench: run from the root of a bucksim checkout "
              "(src/bucksim or BENCHMARK.json not found)",
              file=sys.stderr)
        return 2
    try:
        if args.record:
            return record(args)
        reps, setups = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    s = summarize(args, reps, setups)
    attempted = len(s["checks"])
    for name, ok in s["checks"]:
        if not ok:
            print(f"FAILED check: {name}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{s['reps']} repetitions, {s['setups']} set-ups")
    for name, value in s["metrics"].items():
        print(f"  {name:34s} {value!r:>24} {s['units'][name]}")
    print(f"  {'ops_failed_frac':34s} {s['failed'] / attempted!r:>24} ratio "
          f"({s['failed']} of {attempted} checks)")
    print(json.dumps({
        "correct": s["failed"] == 0,
        "attempted": attempted,
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": s["units"][k]} for k, v in s["metrics"].items()},
    }))
    return 0


def record(args) -> int:
    """Run one repetition and store its artifact digests if every verdict holds."""
    w = workloads.get(args.workload)
    res = repetition(args, w, False, 0, time.monotonic() + CHILD_TIMEOUT_S, {})
    bad = [name for name, ok in res["checks"] if not ok]
    if bad:
        print(f"perfbench: not recording, failed checks: {bad}", file=sys.stderr)
        return 1
    table = load_digests()
    table.setdefault(w.name, {})[str(args.seed)] = res["digests"]
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {w.name} seed {args.seed}: {res['digests']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
