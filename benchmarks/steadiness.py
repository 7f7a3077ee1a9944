"""Repeat the benchmark over seeds and summarise how steady it is.

    python3 benchmarks/steadiness.py --out benchmarks/BASELINE.json

It makes two sets of runs, one after the other. In each set it runs
``bench.py --trace 0`` on every workload in BENCHMARK.json once per seed 1
to 10. For every end-to-end metric it reports, per set, the median, the
quartiles as ``statistics.quantiles(values, n=4)`` gives them and the
spread (Q3 - Q1) / median, then how much the second set's median is worse
than the first's, each next to the metric's bound. Last, it runs each
workload once at the held-out seed 7919. With ``--out`` it writes the
summaries, every run, and the machine, versions and commit measured as
JSON.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent / "bench.py"
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import workloads  # noqa: E402  (needs src/ on the path)

RUNS = 10
FIRST_SEED = 1
HELD_OUT_SEED = 7919
# per-layer metrics derived from call arguments or return values, not timed
COMPUTED = ("montecarlo.run_ensemble.replica_steps", "theory.exact_moments.table_mib")


def run_bench(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], **{k: v["value"] for k, v in result["metrics"].items()}}


def summarise(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "bound": bound}


def machine() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": platform.processor() or None, "caches": {}}
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        info["caches"][f"L{level} {kind}"] = (index / "size").read_text().strip()
    return info


def provenance() -> dict:
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return {
        "git_sha": sha.stdout.strip() if sha.returncode == 0 else None,
        "machine": machine(),
        "versions": {"python": platform.python_version(),
                     **{pkg: importlib.metadata.version(pkg) for pkg in ("numpy", "scipy", "jsonschema")}},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = list(range(FIRST_SEED, FIRST_SEED + RUNS))
    report = {**provenance(), "run_seconds": spec["run_seconds"], "seeds": seeds,
              "default_seed": bench.DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED, "workloads": {},
              "metrics": [{"name": m["name"], "unit": m["unit"], "computed": m["name"] in COMPUTED}
                          for m in spec["end_to_end"] + spec["per_layer"]]}

    names = [w["name"] for w in spec["workloads"]]
    sets = []
    for k in range(2):
        sets.append({})
        for name in names:
            runs = []
            for seed in seeds:
                runs.append(run_bench(name, seed, spec["run_seconds"]))
                print(f"set {k + 1}", name, json.dumps(runs[-1]), flush=True)
            summary = {m["name"]: summarise([r[m["name"]] for r in runs], m["bound"]) for m in spec["end_to_end"]}
            for metric, s in summary.items():
                print(f"set {k + 1} {name} {metric}: median {s['median']:.6g}, "
                      f"spread {s['spread']:.4f} (bound {s['bound']})")
            sets[k][name] = {"summary": summary, "runs": runs}

    for workload in spec["workloads"]:
        name = workload["name"]
        worse = {}
        for m in spec["end_to_end"]:
            first, second = (sets[k][name]["summary"][m["name"]]["median"] for k in (0, 1))
            worse[m["name"]] = second / first - 1.0 if m["better"] == "lower" else first / second - 1.0
            print(f"{name} {m['name']}: second set worse by {worse[m['name']]:+.4f} (bound {m['bound']})")
        held_out = run_bench(name, HELD_OUT_SEED, spec["run_seconds"])
        print(name, "held out", json.dumps(held_out), flush=True)
        report["workloads"][name] = {
            "why": workload["why"],
            "sizes": workloads.build(name, seeds[0], ROOT / "docs" / "schemas").describe(),
            "sets": [s[name] for s in sets], "second_set_worse_by": worse, "held_out": held_out}

    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
