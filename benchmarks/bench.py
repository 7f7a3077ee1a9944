"""memwalk benchmark: time to verdict, end to end and layer by layer.

    python3 benchmarks/bench.py --workload verify-wide --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports ``memwalk`` from ``src/``.
Workloads: ``verify-wide`` and ``exact`` (see ``workloads.py`` for what
each stresses and why).

With ``--trace 0`` it reports the end-to-end metrics, measured untraced:

* ``setup_s``: process start to the first timed call (imports, inputs, one
  warm-up call per layer); the median over seven fresh processes, spread
  over the run.
* ``wall_s``: wall time of one pass, i.e. the time to all of the pass's
  verdicts, taken over the passes that fit in ``--seconds`` (at least 3)
  as the sum over the pass's steps (one per verdict or group of checks)
  of each step's fastest time. On a shared host the speed of the CPU
  drifts by up to 1.7x within a minute while CPU time equals wall time,
  and the fastest time of a short step follows the code more closely
  than the median or the fastest whole pass, which swing with the
  neighbours.
* ``peak_rss_mib``: the largest peak resident set of the measuring process
  or of any one of its worker processes, the figure ``/usr/bin/time -v``
  reports for a whole run. Workers are forked, so adding their peaks to
  the parent's would count the pages they share with it twice.

It also prints ``replica_steps_per_s`` (sum of R * n over the pass's
ensembles divided by ``wall_s``; verify workloads only) and
``check_fail_ratio``. With ``--trace 1`` it runs untraced passes, then
traced passes, and reports the per-layer metrics of ``spans.py`` plus
``trace.overhead_ratio``; spans go to ``.bench_out/``.

Every pass checks its outputs (see ``workloads.py``), and passes with the
same seed must give the same output bytes. The last line of stdout is one
JSON object: ``correct``, ``attempted`` and ``failed`` count those checks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMAS = ROOT / "docs" / "schemas"
TRACE_DIR = ROOT / ".bench_out"

WORKLOADS = ("verify-wide", "exact")
DEFAULT_SEED = 1
# fresh processes timed for setup_s, half before and half after the measurement
SETUP_PROBES = 6
MIN_PASSES = 3
TRACED_PASSES = 3
TIME_LIMIT_S = 170.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description="memwalk benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("launch", "probe", "measure"), default="launch", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def clock() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# -- measuring process ------------------------------------------------------

def timed_passes(workload, seconds: float, min_passes: int, before_pass=None):
    """Run passes for ``seconds``; a pass that would end past it is not started."""
    walls, results = [], []
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start + statistics.median(walls) <= seconds:
        if before_pass is not None:
            before_pass(len(walls))
        t0 = time.perf_counter()
        results.append(workload.run_pass())
        walls.append(time.perf_counter() - t0)
    return walls, results


def fastest_pass(results) -> float:
    """Sum over the steps of a pass of each step's fastest time in ``results``."""
    return sum(min(r.laps[step] for r in results) for step in results[0].laps)


def measure(args) -> dict:
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    workload = workloads.build(args.workload, args.seed, SCHEMAS)
    workload.warm_up()
    ready = clock()
    if args.role == "probe":
        return {"ready": ready}

    checks: list[tuple[str, bool]] = []

    def record(results, first):
        for i, r in enumerate(results):
            checks.extend((name, bool(ok)) for name, ok in r.checks.items())
            if r is not first:
                checks.append((f"pass{i}.same-bytes", r.output == first.output))

    walls, results = timed_passes(workload, args.seconds, MIN_PASSES)
    first = results[0]
    record(results, first)
    checks.extend((name, bool(ok)) for name, ok in workload.once_checks(first).items())
    wall = fastest_pass(results)

    if args.trace:
        recorder = spans.Recorder()
        with recorder:
            def before_pass(i):
                recorder.pass_id = i
            _, traced = timed_passes(workload, 0, TRACED_PASSES, before_pass)
        record(traced, first)
        metrics = spans.layer_metrics(recorder, range(TRACED_PASSES))
        metrics["trace.overhead_ratio"] = fastest_pass(traced) / wall - 1.0
        checks.append(("trace.replica_steps",
                       metrics["montecarlo.run_ensemble.replica_steps"] == workload.replica_steps))
        calls = spans.ensemble_calls(recorder, TRACED_PASSES - 1)
        fixed = spans.fixed_seconds(calls) if calls else 0.0
        pooled = any(c["workers"] > 1 for c in calls)
        metrics["montecarlo.run_ensemble.fixed_s"] = fixed
        metrics["montecarlo.run_ensemble.pool_overhead_s"] = (
            fixed - spans.fixed_seconds(calls, workers=1) if pooled else 0.0)
        recorder.write(TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    else:
        peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                       resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {"wall_s": wall, "peak_rss_mib": peak_kib / 1024.0}
        if workload.replica_steps:
            metrics["replica_steps_per_s"] = workload.replica_steps / wall

    return {
        "ready": ready,
        "passes": len(walls),
        "checks": [[name, ok] for name, ok in checks],
        "metrics": metrics,
    }


# -- launcher ---------------------------------------------------------------

def run_child(args, role: str, deadline: float) -> tuple[float, dict]:
    """Run one fresh process; return its set-up time and its result."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = clock()
    # own session, so a timeout also ends the worker processes it started
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - clock()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result["ready"] - start, result


def launch(args) -> int:
    if not (SRC / "memwalk" / "__init__.py").is_file() or not SCHEMAS.is_dir():
        print(f"bench: no memwalk sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    deadline = clock() + TIME_LIMIT_S
    try:
        half = 0 if args.trace else SETUP_PROBES // 2
        setup = [run_child(args, "probe", deadline)[0] for _ in range(half)]
        seconds, result = run_child(args, "measure", deadline)
        setup += [seconds] + [run_child(args, "probe", deadline)[0] for _ in range(half)]
    except (subprocess.TimeoutExpired, RuntimeError, ValueError, KeyError, IndexError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    # BENCHMARK.json names the reported metrics and their units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(replica_steps_per_s="1/s", check_fail_ratio="ratio")
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    metrics = result["metrics"]
    checks = result["checks"]
    failed = [name for name, ok in checks if not ok]
    shown = dict(metrics, check_fail_ratio=len(failed) / len(checks))
    if not args.trace:
        shown["setup_s"] = statistics.median(setup)
    print(f"workload {args.workload}, seed {args.seed}, {result['passes']} untraced passes, "
          f"{len(checks)} checks")
    for name, value in sorted(shown.items()):
        print(f"  {name} = {value:.6g} {units[name]}")
    for name in failed:
        print(f"  FAILED check: {name}")

    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {n: {"value": shown[n], "unit": units[n]} for n in names},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role == "launch":
        return launch(args)
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
