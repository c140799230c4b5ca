"""The chipfire benchmark: one workload run, every metric, every output checked.

    python3 perfbench/run.py --workload point --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Set-up is measured in several fresh interpreters (interpreter start until
chipfire is imported and every profile the workload uses is certified),
scaled by the speed probe like every request time (see worker.py), and
reported as the median.  The workload then runs in one more fresh
interpreter, see worker.py.  With ``--trace 0`` the end-to-end metrics of
BENCHMARK.json are reported, with ``--trace 1`` the per-layer ones, from a
separate traced run.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  A human-readable
report, the raw result and the trace spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import PROBE_REF_S, probe  # noqa: E402

WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
SETUP_PROBES = 5          # probes before and after each set-up sample
DEADLINE_S = 170          # the whole run must end well within 180 s


class BenchError(RuntimeError):
    pass


def spawn(args: list[str], timeout: float) -> tuple[float, str]:
    """Run a worker; return (seconds until it printed "ready", its stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, timeout - ready))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {' '.join(args)} ran past {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return ready, rest


def scaled_setup(common: list[str]) -> tuple[float, float]:
    """(scaled, wall-clock) seconds until a fresh worker is set up.

    The wall time is scaled like a request's, by the probe's reference time
    over the median of the probes run just before and just after the spawn.
    """
    probes = [probe() for _ in range(SETUP_PROBES)]
    wall = spawn(common + ["--mode", "setup"], 60)[0]
    probes += [probe() for _ in range(SETUP_PROBES)]
    return wall * PROBE_REF_S / statistics.median(probes), wall


def run(args) -> dict:
    if not (ROOT / "src" / "chipfire" / "__init__.py").is_file():
        raise BenchError("no chipfire sources under src/ in this checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    started = time.perf_counter()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)] + (["--tiny"] if args.tiny else [])

    setups = [scaled_setup(common) for _ in range(2 if args.tiny else SETUP_SAMPLES)]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    extra = ["--mode", "run"]
    if args.trace:
        extra = ["--mode", "trace", "--spans", str(OUT / f"spans-{stem}.jsonl")]
    left = DEADLINE_S - (time.perf_counter() - started)
    _, stdout = spawn(common + extra, left)
    result = json.loads(stdout.strip().splitlines()[-1])
    result["setup_samples_s"] = [s for s, _ in setups]
    result["setup_wall_s"] = [w for _, w in setups]

    if args.trace:
        values = result["metrics"]
    else:
        values = dict(result["figures"], setup_s=statistics.median(result["setup_samples_s"]),
                      peak_rss_mb=result["peak_rss_mb"])
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    report(args, result, metrics)
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def report(args, result, metrics) -> None:
    """Human-readable lines: every metric with its unit and how it was taken."""
    print(f"# chipfire benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    fig = result.get("figures", {})
    for name, m in metrics.items():
        how = ""
        form = name.split("_")[0]
        if name.endswith("_p50_s"):
            how = (f"median over {fig[form + '_requests']} requests, each the median "
                   f"of >= {fig['passes']} passes; wall clock {fig['wall_' + name]:.6g} s")
        elif name.endswith("_tail_s"):
            how = (f"p{fig[form + '_tail_percentile']:.1f} over "
                   f"{fig[form + '_requests']} requests; wall clock {fig['wall_' + name]:.6g} s")
        elif name.endswith("_records_per_s"):
            how = (f"{fig[form + '_records']} records; "
                   f"wall clock {fig['wall_' + name]:.6g} 1/s")
        elif name == "setup_s":
            how = ("median of " + ", ".join(f"{s:.3f}" for s in result["setup_samples_s"])
                   + "; wall clock " + ", ".join(f"{s:.3f}" for s in result["setup_wall_s"]))
        print(f"{name} = {m['value']:.6g} {m['unit']}" + (f"  ({how})" if how else ""))
    if "traced_json_p50_s" in result:
        print(f"traced json p50 request = {result['traced_json_p50_s']:.6g} s, "
              f"{result['spans']} spans")
    print(f"error_rate = {result['failed'] / result['attempted']:.6g} fraction  "
          f"({result['failed']} of {result['attempted']} operations)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="chipfire benchmark")
    ap.add_argument("--workload", required=True, choices=("point", "sweep", "oracle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        line = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
