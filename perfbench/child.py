"""One repetition of a benchmark workload in a fresh interpreter.

Usage (from the root of a checkout; run.py builds the spec):

    python3 perfbench/child.py '{"mode": "run", "workload": "bad-events", ...}'

Set-up is timed from the parent's spawn instant (a CLOCK_MONOTONIC reading
passed in the spec) until `import bucksim` and derive_constants(P0) are
done.  Mode "setup" stops there.  Mode "run" times the workload call,
writes its artifacts into spec["out"] and prints one JSON line.  With
spec["trace"] the calls into bucksim are wrapped by tracing.Tracer and the
per-layer metrics are added.
"""

import json
import os
import resource
import sys
import time
from contextlib import nullcontext

spec = json.loads(sys.argv[1])
root = os.getcwd()
src = os.path.join(root, "src")
sys.path.insert(0, src)

import bucksim  # noqa: E402  (set-up is timed up to here)
from bucksim import derive_constants  # noqa: E402

if not os.path.abspath(bucksim.__file__).startswith(src + os.sep):
    sys.exit(f"bucksim imported from {bucksim.__file__}, not from {src}")

import workloads  # noqa: E402

P0 = bucksim.ConverterParams(**workloads.P0)
dc = derive_constants(P0)
setup_s = time.monotonic() - spec["t_spawn"]


def run_workload(w, seed: int, out: str, tracer) -> tuple[float, int]:
    """Time the workload call; returns (wall seconds, exit status of the call)."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    if w.kind == "mc-sweep":
        from bucksim import cli
        config = os.path.join(out, "run.cfg")
        with open(config, "w", encoding="utf-8") as f:
            f.write(w.config_text(seed))
        argv = w.argv(config, out)
        t0 = time.perf_counter()
        with span("workload"), span("cli.main"):
            rc = cli.main(argv)
        return time.perf_counter() - t0, rc

    cfg = bucksim.McConfig(**w.mc_config_kwargs(seed))
    t0 = time.perf_counter()
    with span("workload"):
        tables = []
        for eps in cfg.epsilons:
            with span("montecarlo.bad_event_probs"):
                tables.append(bucksim.bad_event_probs(P0, dc, cfg, eps))
    wall = time.perf_counter() - t0
    write_counts(os.path.join(out, "counts.csv"), tables)
    return wall, 0


def write_counts(path: str, tables) -> None:
    """Per-cycle first-bad-cycle counts (all, early, late) with the cycle bound."""
    lines = ["epsilon,T_eps,replicas,n,bad,bad_minus,bad_plus,bound"]
    for tab in tables:
        N = tab.replicas
        cols = [tab.emp_prob, tab.emp_minus, tab.emp_plus]
        counts = [[round(float(v) * N) for v in c] for c in cols]
        for c, col in zip(counts, cols):
            if any(k / N != float(v) for k, v in zip(c, col)):
                raise SystemExit("per-cycle frequency is not a count over the replicas")
        for n in range(tab.t_eps):
            lines.append(f"{tab.epsilon!r},{tab.t_eps},{N},{n + 1},{counts[0][n]},"
                         f"{counts[1][n]},{counts[2][n]},{format(tab.bound, '.17g')}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def main() -> None:
    result = {"setup_s": setup_s}
    if spec["mode"] == "run":
        w = workloads.get(spec["workload"], spec["tiny"])
        tracer = None
        if spec["trace"]:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        wall, rc = run_workload(w, spec["seed"], spec["out"], tracer)
        result.update(wall_s=wall, exit_status=rc,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            tracer.uninstall()
            root_span = tracer.spans[0]
            result["layers"] = tracing.layer_metrics(tracer, root_span[2] - root_span[1])
    print(json.dumps(result))


main()
