"""The three benchmark workloads: seeded request lists, set-up and checks.

A request is one `chipfire` command line, sent in-process through
`chipfire.cli.main(argv, out=buffer)`.  Its ``form`` says which latency
class it counts in (text or JSON output) and its ``family`` what it runs
(`final`, `verify` or `bench`).  Why each workload exists is written down in
RATIONALE.md next to this file.

Inputs are stratified: every pair gets the same number of requests, and each
request's size is drawn inside its own slice of the size range.  The seed
moves the draws and the order but not the shape of the mix, so a median or a
tail percentile does not swing with which sizes a seed happened to draw.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from math import gcd

import checks


@dataclass(frozen=True)
class Request:
    form: str                # "text" or "json"
    family: str              # "final", "verify" or "bench"
    argv: tuple[str, ...]
    a: int = 0
    b: int = 0
    n: int = 0               # chip count, or the first n of a range
    hi: int | None = None    # last n of a range

    @property
    def records(self) -> int:
        """Records a `final` request emits: one per chip count."""
        if self.family != "final":
            return 0
        return 1 if self.hi is None else self.hi - self.n + 1

    @property
    def repeatable(self) -> bool:
        """Whether every execution must print the same text (bench prints timings)."""
        return self.family != "bench"

    def label(self) -> str:
        return " ".join(self.argv)


def _final(form: str, a: int, b: int, n: int, *extra: str) -> Request:
    argv = ("final", str(n), "-a", str(a), "-b", str(b), *extra)
    if form == "json":
        argv += ("--json",)
    return Request(form, "final", argv, a, b, n)


def _log_strata(rng: random.Random, lo: float, hi: float, count: int,
                width: float = 1.0) -> list[int]:
    """One log-uniform draw inside each of ``count`` equal slices of [lo, hi].

    Each draw falls in the middle ``width`` share of its slice.
    """
    span = math.log(hi / lo)
    return [round(lo * math.exp((i + 0.5 + width * (rng.random() - 0.5)) / count * span))
            for i in range(count)]


def _structured(a: int, b: int) -> tuple[int, int] | None:
    """The coprime pair a < b whose profile answers (a, b), if any."""
    d = gcd(a, b)
    a, b = sorted((a // d, b // d))
    return None if a == b else (a, b)


# ---------------------------------------------------------------------------
# Sizes.  The full sizes keep one pass over a workload's requests under ten
# seconds on a 2-core machine, so a 30 s run repeats every request at least
# three times, with at least 39 distinct requests of each form, enough for a
# tail percentile of p74 or higher.  The tiny sizes serve the harness self-test.
# ---------------------------------------------------------------------------

POINT_PAIRS = ((1, 2), (2, 3), (3, 4), (3, 2), (4, 6))
SWEEP_PAIRS = ((3, 3), (4, 6), (3, 2), (1, 2), (2, 3), (20, 21))
SWEEP_LIMIT = 2000
CONFLUENCE_PAIRS = ((2, 3), (3, 4), (2, 5), (3, 5), (4, 5))
INVARIANTS_PAIRS = ((1, 2), (2, 3), (3, 4))
SETTLEMENTS_B = 7         # the settlements suite's own default: pairs b <= 7

SIZES = {
    False: dict(point_steps=30, point_n=(1000, 10000), point_oracle=4,
                sweep_windows=36, sweep_width=10, sweep_limit=SWEEP_LIMIT,
                oracle_steps=12, oracle_n=(300, 800), confluence_n=(55, 70, 85, 100),
                invariants_n=(35, 50), predictor_n=300, bench_n=20000),
    True: dict(point_steps=3, point_n=(40, 400), point_oracle=2,
               sweep_windows=2, sweep_width=5, sweep_limit=120,
               oracle_steps=1, oracle_n=(20, 60), confluence_n=(10,),
               invariants_n=(10,), predictor_n=40, bench_n=300),
}


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.size = SIZES[tiny]
        self.rng = random.Random(f"{self.name}:{seed}")
        self.requests = self.build()

    def build(self) -> list[Request]:
        raise NotImplementedError

    def profile_pairs(self) -> set[tuple[int, int]]:
        pairs = {_structured(r.a, r.b) for r in self.requests if r.a}
        return {p for p in pairs if p}

    def setup(self) -> None:
        """Certify every profile and settlement sequence the requests use."""
        from chipfire.engine import GameParams
        from chipfire.predictor import profile_for

        for a, b in sorted(self.profile_pairs()):
            profile_for(GameParams(a, b))

    def check_all(self, outputs: dict[Request, str]) -> dict[Request, list[str]]:
        """Problems found in each request's output (outside any timed region)."""
        raise NotImplementedError

    def records(self, req: Request, output: str) -> int:
        """Records a request emitted, counted from its output after the run."""
        return req.records


class Point(Workload):
    """Single `final N` queries past H, in text and JSON, on the same inputs."""

    name = "point"

    def build(self) -> list[Request]:
        steps = []
        for a, b in POINT_PAIRS:
            for n in _log_strata(self.rng, *self.size["point_n"], self.size["point_steps"]):
                steps.append((a, b, n))
        self.rng.shuffle(steps)
        # A seeded subset is also checked against the numpy line stabilizer.
        self.oracle_subset = set(self.rng.sample(steps, self.size["point_oracle"]))
        return [_final(form, a, b, n) for a, b, n in steps for form in ("text", "json")]

    def check_all(self, outputs):
        from chipfire.engine import GameParams, stabilize_line

        problems: dict[Request, list[str]] = {}
        text_state = {}
        for req, out in outputs.items():
            a, b, n = req.a, req.b, req.n
            lines = out.splitlines()
            if len(lines) != 1:
                problems[req] = [f"{len(lines)} output lines, expected 1"]
                continue
            if req.form == "text":
                try:
                    chips = checks.parse_state(lines[0])
                except checks.Malformed as exc:
                    problems[req] = [str(exc)]
                    continue
                problems[req] = checks.state_problems(chips, n, a, b)
                text_state[(a, b, n)] = lines[0]
        for req, out in outputs.items():
            if req.form != "json" or req in problems:
                continue
            a, b, n = req.a, req.b, req.n
            found, rec = checks.record_problems(out, a, b, n, past_B=gcd(a, b) == 1 and a < b)
            if rec and rec["state"] != text_state.get((a, b, n)):
                found.append(f"n={n}: text output differs from the JSON state")
            if rec and (a, b, n) in self.oracle_subset:
                state, _ = stabilize_line(n, GameParams(a, b))
                if state.chips != checks.parse_state(rec["state"]):
                    found.append(f"n={n}: state differs from stabilize_line")
            problems[req] = found
        return problems


class Sweep(Workload):
    """`final --range lo hi` windows over every dispatch branch, text and JSON."""

    name = "sweep"

    def build(self) -> list[Request]:
        width, limit = self.size["sweep_width"], self.size["sweep_limit"]
        count = self.size["sweep_windows"]
        slot = (limit - width + 1) / count
        windows = []
        for a, b in SWEEP_PAIRS:
            for i in range(count):
                lo = int((i + self.rng.random()) * slot)
                windows.append((a, b, lo, lo + width - 1))
        self.rng.shuffle(windows)
        reqs = []
        for a, b, lo, hi in windows:
            for form in ("text", "json"):
                argv = ("final", "-a", str(a), "-b", str(b), "--range", str(lo), str(hi))
                if form == "json":
                    argv += ("--json",)
                reqs.append(Request(form, "final", argv, a, b, lo, hi))
        return reqs

    def check_all(self, outputs):
        from chipfire.engine import GameParams, oracle_states

        wanted: dict[tuple[int, int], set[int]] = {}
        for req in outputs:
            wanted.setdefault((req.a, req.b), set()).update(range(req.n, req.hi + 1))
        truth = {}
        for (a, b), ns in wanted.items():
            for n, state, log in oracle_states(GameParams(a, b), max(ns)):
                if n in ns:
                    truth[(a, b, n)] = (state.chips, log)
        problems = {}
        for req, out in outputs.items():
            lines = out.splitlines()
            if len(lines) != req.records:
                problems[req] = [f"{len(lines)} records, expected {req.records}"]
                continue
            found = []
            for n, line in zip(range(req.n, req.hi + 1), lines):
                found.extend(self._check_line(req, n, line, *truth[(req.a, req.b, n)]))
            problems[req] = found
        return problems

    @staticmethod
    def _check_line(req, n, line, chips, log):
        a, b = req.a, req.b
        if req.form == "text":
            try:
                got = checks.parse_state(line)
            except checks.Malformed as exc:
                return [str(exc)]
            return [] if got == chips else [f"n={n}: state differs from oracle_states"]
        found, rec = checks.record_problems(line, a, b, n, past_B=False)
        if not rec:
            return found
        if checks.parse_state(rec["state"]) != chips:
            found.append(f"n={n}: state differs from oracle_states")
        expect = {"f0": log.fires.get(0, 0), "f1": log.fires.get(1, 0),
                  "total_firings": log.total, "settlement_index": log.fires.get(0, 0)}
        for key, value in expect.items():
            if rec[key] is not None and rec[key] != value:
                found.append(f"n={n}: {key}={rec[key]}, oracle says {value}")
        return found


class Oracle(Workload):
    """The brute-force commands: the verify battery, `bench`, `final --oracle`.

    The battery is split into one request per pair (settlements: per
    denominator b), so that its suites and `bench` make up the text requests
    and set their median, tail and record rate.  The JSON requests are the
    `final --oracle --json` queries.  The battery's sizes are fixed: the
    text median and tail are order statistics over only 39 requests, and
    drawn sizes made them swing with the seed.  The seed moves the random
    schedules of `verify confluence`, the `final` chip counts (within a fifth
    of their slices) and the order.
    """

    name = "oracle"

    def build(self) -> list[Request]:
        from chipfire.verify import SIX_PAIRS, coprime_pairs

        size, rng = self.size, self.rng
        reqs = []
        for a, b in POINT_PAIRS:
            # The oracle's cost grows with n squared, so a draw over a whole
            # slice moved the JSON tail by 10% from seed to seed.
            for n in _log_strata(rng, *size["oracle_n"], size["oracle_steps"], width=0.2):
                reqs.append(_final("json", a, b, n, "--oracle"))
        for a, b in CONFLUENCE_PAIRS:
            for m in size["confluence_n"]:
                reqs.append(_verify("confluence", f"{a},{b}", "--max-n", m,
                                    "--seed", rng.randrange(2**31)))
        for a, b in INVARIANTS_PAIRS:
            for m in size["invariants_n"]:
                reqs.append(_verify("invariants", f"{a},{b}", "--max-n", m))
        pairs = coprime_pairs(SETTLEMENTS_B)
        for den in range(2, SETTLEMENTS_B + 1):
            grid = ";".join(f"{a},{b}" for a, b in pairs if b == den)
            reqs.append(_verify("settlements", grid))
        for a, b in SIX_PAIRS:
            reqs.append(_verify("predictor", f"{a},{b}", "--max-n", size["predictor_n"]))
        n = size["bench_n"]
        reqs.append(Request("text", "bench", ("bench", "-a", "2", "-b", "3", "--grid", str(n)),
                            2, 3, n))
        rng.shuffle(reqs)
        return reqs

    def profile_pairs(self):
        from chipfire.verify import SIX_PAIRS

        return super().profile_pairs() | set(SIX_PAIRS)

    def setup(self):
        super().setup()
        from chipfire.engine import GameParams, stabilize_line
        from chipfire.settlements import seq_for
        from chipfire.verify import coprime_pairs

        for a, b in coprime_pairs(SETTLEMENTS_B):
            seq = seq_for(GameParams(a, b))
            seq.word(seq.start)
        stabilize_line(0, GameParams(2, 3))  # imports numpy

    def check_all(self, outputs):
        from chipfire.engine import GameParams
        from chipfire.predictor import final_state

        problems = {}
        for req, out in outputs.items():
            if req.family == "verify":
                lines = out.splitlines()
                suites = [ln for ln in lines if ln.startswith("suite ")]
                ok = (lines and lines[-1] == "verify: PASS" and suites
                      and all(ln.endswith(" 0 failures") for ln in suites))
                problems[req] = [] if ok else ["verify did not report PASS"]
            elif req.family == "bench":
                rows = [ln.split() for ln in out.splitlines()]
                ok = any(r and r[0] == str(req.n) and r[-1] == "yes" for r in rows)
                problems[req] = [] if ok else ["bench row does not read match yes"]
            else:
                a, b, n = req.a, req.b, req.n
                found, rec = checks.record_problems(out, a, b, n, past_B=False)
                if rec:
                    fast = _render(final_state(n, GameParams(a, b)))
                    if checks.parse_state(rec["state"]) != checks.parse_state(fast):
                        found.append(f"n={n}: --oracle state differs from the fast path")
                problems[req] = found
        return problems

    def records(self, req, output):
        """A verify request's records are its SuiteReport checks; a bench
        request's is its one grid row, a fast-path-versus-oracle check."""
        if req.family == "verify":
            return sum(int(m) for m in re.findall(r"^suite \S+: (\d+) checks", output, re.M))
        if req.family == "bench":
            return 1
        return req.records


def _verify(suite: str, grid: str, *extra) -> Request:
    argv = ("verify", suite, "--params-grid", grid, *map(str, extra), "--workers", "1")
    return Request("text", "verify", argv)


def _render(word) -> str:
    from chipfire.words import word_to_string

    return word_to_string(word, radix_mark="always")


WORKLOADS = {cls.name: cls for cls in (Point, Sweep, Oracle)}
