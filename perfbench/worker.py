"""One workload run in a fresh interpreter: set up, measure, check, report.

    python3 perfbench/worker.py --workload point --seed 1 --seconds 20 --mode run

Modes:
  setup  import chipfire, certify what the workload uses, print "ready", exit;
  run    the same, then a closed loop of in-process `chipfire.cli.main`
         requests for --seconds (at least one full pass over the requests);
  trace  set up with spans on, then one untraced and one traced pass.

After the measured part every output is checked, and one JSON object is
printed as the last line of standard output.  Run by perfbench/run.py.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

clock = time.perf_counter

# The machine's speed drifts by up to 1.7x over tens of seconds while its
# neighbours load the host, which would swamp any change in the program.  A
# fixed pure-Python probe runs right before every request, and each request's
# wall time is scaled by PROBE_REF_S over the median probe time of the
# neighbouring executions: times are reported at the speed at which the
# probe takes PROBE_REF_S.  The probe is this file's own code, so a change to
# the program never changes it.
PROBE_REF_S = 0.0007
PROBE_WINDOW = 5


def probe() -> float:
    """Seconds for a fixed chip-firing run on a list plus a bigint Horner pass."""
    start = clock()
    buf = [0] * 64
    buf[32] = 90
    v = 1
    while v < 63:
        if buf[v] >= 3:
            buf[v] -= 3
            buf[v - 1] += 1
            buf[v + 1] += 2
            if buf[v - 1] >= 3 and v > 1:
                v -= 1
        else:
            v += 1
    num = 0
    for d in range(400):
        num = num * 3 + (d % 5) * 2 ** d
    return clock() - start


def run_requests(requests, seconds: float | None, tracer=None):
    """Send the requests in order, round after round, one at a time.

    With ``seconds`` None exactly one pass is made; otherwise passes repeat
    until the time is up, finishing at least the first pass.  Returns, per
    request, its scaled latencies and its wall-clock latencies; the first
    output of each request; and per request the number of executions that
    raised, exited non-zero or changed their output.
    """
    import chipfire.cli as cli

    count = len(requests)
    order: list[tuple[int, float, float]] = []   # (request, wall s, probe s)
    outputs: list[str | None] = [None] * count
    bad = [0] * count
    deadline = clock() + (seconds or 0)
    k = 0
    while k < count or (seconds is not None and clock() < deadline):
        idx = k % count
        k += 1
        argv = list(requests[idx].argv)
        if tracer is not None:
            tracer.request = idx
        buf = io.StringIO()
        probe_s = probe()
        start = clock()
        try:
            rc = cli.main(argv, out=buf)
        except (Exception, SystemExit):
            rc = traceback.format_exc(limit=3)
        order.append((idx, clock() - start, probe_s))
        out = buf.getvalue()
        if outputs[idx] is None:
            outputs[idx] = out
        if rc != 0 or (out != outputs[idx] and requests[idx].repeatable):
            bad[idx] += 1
            if rc != 0:
                print(f"request {' '.join(argv)!r} failed: {rc}", file=sys.stderr)
    scaled: list[list[float]] = [[] for _ in range(count)]
    wall: list[list[float]] = [[] for _ in range(count)]
    probes = [p for _, _, p in order]
    for i, (idx, seconds_taken, _) in enumerate(order):
        near = statistics.median(probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1])
        scaled[idx].append(seconds_taken * PROBE_REF_S / near)
        wall[idx].append(seconds_taken)
    return scaled, wall, outputs, bad


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    v = sorted(values)
    if len(v) <= 10:
        return v[-1], 100.0
    return v[len(v) - 11], 100.0 * (len(v) - 10) / len(v)


def check(wl, outputs) -> dict[int, list[str]]:
    """Problems found in each request's first output, by request index."""
    first = {}
    for idx, req in enumerate(wl.requests):
        first.setdefault(req, idx)
    problems = wl.check_all({req: outputs[idx] for req, idx in first.items()})
    return {idx: problems[req] for idx, req in enumerate(wl.requests) if problems.get(req)}


def failures(executions: list[int], bad: list[int], found: dict) -> int:
    """Executions that failed: every execution of a request whose output is
    wrong, plus the ones that raised, exited non-zero or changed output."""
    return sum(executions[i] if i in found else bad[i] for i in range(len(executions)))


def summarize(wl, scaled, wall, outputs) -> dict:
    """End-to-end figures of a timed run.

    A request's latency is the median of its scaled repeats.  Medians and
    tails are then taken over the distinct requests, so they weigh each
    input once; a record rate is the records of all requests of one form
    over the sum of their latencies.  Wall-clock figures are added for the
    report.
    """
    figures = {}
    records = [wl.records(req, out) for req, out in zip(wl.requests, outputs)]
    for prefix, samples in (("", scaled), ("wall_", wall)):
        med = [statistics.median(ls) for ls in samples]
        for form in ("text", "json"):
            idx = [i for i, r in enumerate(wl.requests) if r.form == form]
            values = [med[i] for i in idx]
            value, pct = tail(values)
            figures[f"{prefix}{form}_p50_s"] = statistics.median(values)
            figures[f"{prefix}{form}_tail_s"] = value
            figures[f"{prefix}{form}_records_per_s"] = (
                sum(records[i] for i in idx) / sum(values))
            figures[f"{form}_tail_percentile"] = pct
            figures[f"{form}_requests"] = len(values)
            figures[f"{form}_records"] = sum(records[i] for i in idx)
    figures["passes"] = min(len(ls) for ls in scaled)
    return figures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans", type=Path, help="file for the trace spans")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.tiny)
    import chipfire.cli  # noqa: F401

    tracer = None
    if args.mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    wl.setup()
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    result: dict = {"workload": wl.name, "seed": args.seed, "mode": args.mode}
    if args.mode == "run":
        scaled, wall, outputs, bad = run_requests(wl.requests, args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["figures"] = summarize(wl, scaled, wall, outputs)
        executions = [len(ls) for ls in scaled]
    else:
        from spans import layer_metrics, request_share

        # One untraced pass, then one traced pass: spans of the traced pass
        # (and of set-up) give the per-layer figures.
        tracer.uninstall()
        untraced, _, outputs, bad = run_requests(wl.requests, None)
        tracer.install()
        traced, _, outputs_t, bad_t = run_requests(wl.requests, None, tracer)
        tracer.uninstall()
        bad = [x + y + (o != p and r.repeatable)
               for x, y, o, p, r in zip(bad, bad_t, outputs, outputs_t, wl.requests)]
        executions = [2] * len(wl.requests)
        untraced_s = sum(ls[0] for ls in untraced)
        traced_s = sum(ls[0] for ls in traced)
        records = sum(wl.records(r, out) for r, out in zip(wl.requests, outputs_t))
        metrics = layer_metrics(tracer, records)
        metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
        json_ids = [i for i, r in enumerate(wl.requests) if r.form == "json"]
        latency, share = request_share(tracer, json_ids, "words.eval_base")
        metrics["words.eval_base.json_p50_share"] = share
        result["metrics"] = metrics
        result["traced_json_p50_s"] = latency
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)

    found = check(wl, outputs)
    for idx, problems in sorted(found.items()):
        print(f"check failed: {wl.requests[idx].label()}: {problems[:3]}", file=sys.stderr)
    result["attempted"] = sum(executions)
    result["failed"] = failures(executions, bad, found)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
