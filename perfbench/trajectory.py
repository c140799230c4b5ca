"""Record one point of the benchmark trajectory.

    python3 perfbench/trajectory.py --label 0-seed --seeds 101-110

Runs every workload once per seed with tracing off (the run length comes
from BENCHMARK.json), then once traced on the first seed, and writes
perfbench/trajectory/<label>.json: for each workload and metric the ten
values, their median and quartiles, and the spread (quartile distance over
the median) next to the metric's bound.  Run it from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("101-110"))
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    point = {"label": args.label, "date": time.strftime("%Y-%m-%d"),
             "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                         "platform": platform.platform()},
             "run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for name in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in args.seeds:
            runs.append(one_run(name, seed, spec["run_seconds"], 0))
            print(f"{name} seed {seed}: {runs[-1]['failed']} of "
                  f"{runs[-1]['attempted']} failed", flush=True)
        traced = one_run(name, args.seeds[0], spec["run_seconds"], 1)
        metrics = {}
        for metric in runs[0]["metrics"]:
            entry = spread([r["metrics"][metric]["value"] for r in runs])
            entry.update(unit=runs[0]["metrics"][metric]["unit"], bound=bounds[metric])
            metrics[metric] = entry
            print(f"  {metric:22s} median {entry['median']:.6g} spread "
                  f"{entry['spread']:.3f} bound {bounds[metric]}", flush=True)
        point["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_seed": args.seeds[0],
        }
    out = HERE / "trajectory" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
