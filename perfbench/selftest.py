"""Self-test of the benchmark harness at tiny size.

    python3 perfbench/selftest.py

Checks that every run prints the result line the benchmark promises, with
every metric of BENCHMARK.json under its unit; that a deliberately
corrupted output is counted as a failed operation; and that the benchmark
refuses to run where the program's sources are missing.  Exits 0 when all
checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (puts src/ on the path)
from workloads import WORKLOADS  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_result_lines(spec: dict) -> list[str]:
    errors = []
    for name in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench("--workload", name, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace), "--tiny")
            if proc.returncode != 0:
                errors.append(f"{name} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{name} trace={trace}: result keys {sorted(line)}")
            if not (line["correct"] and line["failed"] == 0 and line["attempted"] >= 1):
                errors.append(f"{name} trace={trace}: {line['failed']} of "
                              f"{line['attempted']} operations failed")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != want:
                errors.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json: "
                              f"{sorted(set(got) ^ set(want))}")
            values = [v["value"] for v in line["metrics"].values()]
            if not all(isinstance(v, (int, float)) for v in values):
                errors.append(f"{name} trace={trace}: a metric value is not a number")
            if trace == 0 and not all(v > 0 for v in values):
                errors.append(f"{name}: an end-to-end metric reads 0")
    return errors


def check_corruption_counted() -> list[str]:
    """Damage one output of each workload; the checks must fail it."""
    errors = []
    for name, cls in WORKLOADS.items():
        wl = cls(7, tiny=True)
        wl.setup()
        scaled, _, outputs, bad = worker.run_requests(wl.requests, None)
        executions = [len(ls) for ls in scaled]
        if worker.failures(executions, bad, worker.check(wl, outputs)):
            errors.append(f"{name}: clean outputs reported as failed")
        for idx, req in enumerate(wl.requests):
            damaged = list(outputs)
            damaged[idx] = _damage(req, outputs[idx])
            if worker.failures(executions, bad, worker.check(wl, damaged)) < 1:
                errors.append(f"{name}: corrupted output of {req.label()!r} not counted")
    return errors


def _damage(req, text: str) -> str:
    """A wrong answer of the request's kind that still reads like an answer."""
    if req.family == "verify":
        return text.replace(" 0 failures", " 1 failures", 1)
    if req.family == "bench":
        return text.replace(" yes", " NO", 1)
    for i, ch in enumerate(text):
        if ch in "123456789":
            return text[:i] + str(int(ch) - 1) + text[i + 1:]
    return text + "1"


def check_refuses_without_sources() -> list[str]:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "point", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["ran without the program's sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = (check_result_lines(spec) + check_corruption_counted()
              + check_refuses_without_sources())
    for e in errors:
        print("FAIL", e)
    print("selftest:", "FAIL" if errors else "PASS")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
