"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py      (from the root of a bucksim checkout)

Checks that:
  * every workload, untraced and traced, prints each metric BENCHMARK.json
    names, with its unit, in the readable table and in the JSON last line,
    and passes its own correctness checks;
  * the traced bad-events run reports no distance-layer work;
  * flipping one byte of an artifact makes the digest check fail;
  * the ON-step counts computed from schedules equal those read off the
    modes the engine records;
  * the benchmark exits non-zero without a result when the program is absent.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, "src")

import run  # noqa: E402
import workloads  # noqa: E402

failures = []


def check(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def bench_run(name: str, trace: int, cwd: str = ".") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", name,
                           "--seed", "42", "--seconds", "1", "--trace", str(trace), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def metric_output() -> None:
    for name in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            declared = run.declared_units(section)
            proc = bench_run(name, trace)
            label = f"{name} --trace {trace}"
            if proc.returncode != 0:
                check(False, f"{label} exits 0 ({proc.stderr.strip()[-500:]})")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label} prints the four result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label} passes its {result['attempted']} checks")
            got = result["metrics"]
            check(sorted(got) == sorted(declared), f"{label} reports exactly the declared metrics")
            table = [line.split() for line in lines[:-1]]
            for metric, unit in declared.items():
                shown = any(f[:1] == [metric] and f[2:3] == [unit] for f in table)
                check(got.get(metric, {}).get("unit") == unit and shown,
                      f"{label} prints {metric} in {unit}")
            if name == "bad-events" and trace:
                zero = [k for k in got if k.startswith("skorokhod.") and got[k]["value"] != 0]
                check(not zero, f"{label} reports no skorokhod work")


def byte_flip() -> None:
    for name in workloads.WORKLOADS:
        w = workloads.get(name, tiny=True)
        out = run.WORK / f"selftest-{name}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        try:
            run.run_child({"mode": "run", "workload": name, "seed": 42, "tiny": True,
                           "trace": False, "out": str(out)}, deadline=float("inf"))
            _, found, _ = run.check_artifacts(w, 42, out, {})
            recorded = {name: {"42": found}}
            checks, _, _ = run.check_artifacts(w, 42, out, recorded)
            check(all(ok for _, ok in checks), f"{name}: gate passes on the recorded artifacts")
            target = out / w.artifacts[0]
            data = bytearray(target.read_bytes())
            data[len(data) // 2] ^= 0x01
            target.write_bytes(bytes(data))
            checks, _, _ = run.check_artifacts(w, 42, out, recorded)
            failed = [c for c, ok in checks if not ok]
            check(f"sha256 {w.artifacts[0]} matches digests.json" in failed,
                  f"{name}: one flipped byte of {w.artifacts[0]} fails the gate")
        finally:
            shutil.rmtree(out, ignore_errors=True)


def on_step_counts() -> None:
    import bucksim
    import tracing

    p = bucksim.ConverterParams(**workloads.P0)
    x_star = bucksim.derive_constants(p).x_star
    for eps in (0.1, 0.02):
        cfg = bucksim.StochConfig(epsilon=eps, dt=workloads.DT, horizon=4, seed=3)
        res = bucksim.simulate_batch(p, x_star, cfg, range(32), record_paths=True)
        on_at_step_start = res.ys[:, :-1] == 1
        want = (int(on_at_step_start.sum()), int(on_at_step_start.any(axis=0).sum()))
        got = tracing.on_step_counts(res.schedules, cfg.horizon, cfg.steps_per_unit())
        check(got == want, f"ON-step counts from schedules at eps={eps}: {got} == {want}")


def refuses_without_program() -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench_run("bad-events", 0, cwd=str(bare))
        check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
              "exits non-zero without a result when src/bucksim is absent")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    if not Path("src/bucksim/__init__.py").is_file():
        sys.exit("run from the root of a bucksim checkout")
    metric_output()
    byte_flip()
    on_step_counts()
    refuses_without_program()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)
