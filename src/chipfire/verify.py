"""Verification suites: every structural claim, exercised at desk scale.

Each suite returns a SuiteReport with hard failures (claims this package is
built on) separated from notes (documented discrepancies in circulated
formulas, reported with concrete counterexamples but never failed on).
Every suite refuses a bad pair or seed before any game is played or any
process starts.  Only the confluence suite runs in more than one process:
its parameter pairs are independent, so it fans them out across a process
pool.  A report prints its failures sorted and its notes in the order they
were found.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from . import analysis
from .engine import (
    LEFTMOST,
    PARALLEL_ROUNDS,
    RIGHTMOST,
    FiringStrategy,
    GameParams,
    new_state,
    oracle_rows,
    settle_right,
    stabilize,
)
# oracle_states stays importable here because span tracers patch it by module.
from .engine import oracle_states  # noqa: F401
from .errors import ChipFiringError, InvalidParams
from .predictor import (
    binary_trick_left,
    elevated_increment,
    final_answer,
    final_state,
    mirror_word,
    one_b_right_length,
    one_b_settlement,
    profile_for,
    r_sequence,
)
from .settlements import (
    dormant_census,
    highest_dormant_index,
    lemma8_inequalities,
    periodic_start,
    seq_for,
    settlement_next,
    tetrahedral_highest_dormant_index,
    tetrahedral_periodic_start,
)
from .words import DigitWord, digits_to_string, eval_base, segment_digits
# word_to_string stays importable here because span tracers patch it by module.
from .words import word_to_string  # noqa: F401

__all__ = [
    "SuiteReport",
    "SIX_PAIRS",
    "coprime_pairs",
    "confluence_suite",
    "invariants_suite",
    "settlements_suite",
    "predictor_suite",
    "one_b_suite",
    "SUITES",
]

SIX_PAIRS = [(1, 2), (2, 3), (3, 4), (2, 5), (3, 5), (4, 5)]

# Confluence checks every firing of the games with fewer chips than this.
FULL_CHECK_BELOW = 48
# Predictor checks the stabilized side values on rows B..B + VALUE_WINDOW.
VALUE_WINDOW = 200
# One-b checks the binary left-part trick on the 1-2 rows 4..TRICK_MAX.
TRICK_MAX = 1000


def coprime_pairs(b_max: int) -> list[tuple[int, int]]:
    from math import gcd

    return [
        (a, b)
        for b in range(2, b_max + 1)
        for a in range(1, b)
        if gcd(a, b) == 1
    ]


@dataclass
class SuiteReport:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, condition: bool, message: str) -> None:
        self.checks += 1
        if not condition:
            self.failures.append(message)

    def lines(self) -> list[str]:
        out = [
            f"suite {self.name}: {self.checks} checks, "
            f"{len(self.failures)} failures"
        ]
        out.extend(f"  FAIL {m}" for m in sorted(self.failures))
        out.extend(f"  NOTE {m}" for m in self.notes)
        return out


# ---------------------------------------------------------------------------


def _checked_games(rep, p, max_n, schedules, check_every, verdict=None):
    """Play n chips at the origin under each schedule for n = 0..max_n, the
    state re-verified on every firing below FULL_CHECK_BELOW chips and every
    ``check_every``-th beyond, and yield n with the (strategy, final, log)
    of each game that finished.  Each game is one check of ``rep``: it fails
    if the game raises, or with the message ``verdict(n, final)`` gives."""
    for n in range(max_n + 1):
        cadence = 1 if n < FULL_CHECK_BELOW else check_every
        games = []
        for strat in schedules:
            try:
                final, log = stabilize(new_state(n, p), strat, check_every=cadence)
            except ChipFiringError as exc:
                rep.check(False, f"a={p.a} b={p.b} n={n} {strat.kind}: {exc}")
                continue
            failure = verdict(n, final) if verdict else None
            rep.check(failure is None, failure)
            games.append((strat, final, log))
        yield n, games


def _confluence_pair(p, max_n, schedules, check_every) -> SuiteReport:
    """One parameter pair of the confluence battery (multiprocessing unit)."""
    rep = SuiteReport("confluence")
    a, b = p.a, p.b
    for n, games in _checked_games(rep, p, max_n, schedules, check_every):
        if not games:
            continue
        _, final0, log0 = games[0]
        for strat, final, log in games[1:]:
            rep.check(
                final == final0,
                f"a={a} b={b} n={n}: {strat.kind} final state differs from leftmost",
            )
            rep.check(
                log == log0,
                f"a={a} b={b} n={n}: {strat.kind} firing counts differ from leftmost",
            )
        # Each firing adds b - a to M; checked as a product so that a = b,
        # where M stays 0, needs no division.
        m = analysis.weighted_sum(final0)
        rep.check(
            m == (b - a) * log0.total,
            f"a={a} b={b} n={n}: M/(b-a) != logged total: M={m}, "
            f"b-a={b - a}, total={log0.total}",
        )
    return rep


def confluence_suite(
    max_n: int = 300,
    pairs: list[tuple[int, int]] | None = None,
    seeds: tuple[int, ...] = (1, 2, 3),
    check_every: int = 256,
    workers: int | None = None,
) -> SuiteReport:
    """All schedules agree state-for-state and count-for-count; conserved
    quantities hold exactly along the runs; M = (b-a) * total firings, which
    for a = b says that M stays 0.

    States are re-verified exactly on every single firing for n below
    FULL_CHECK_BELOW and at every ``check_every``-th firing (plus first and
    last) beyond that.  Every pair and seed is refused before any game is
    played or any process starts.  Parameter pairs are independent, so they
    fan out across processes; the merged report does not depend on worker
    order.
    """
    if max_n < 0:
        raise InvalidParams(f"max_n must be non-negative, got {max_n}")
    if check_every < 1:
        # stabilize reads a cadence of 0 as "unchecked", which would turn the
        # conservation checks off for every n >= FULL_CHECK_BELOW.
        raise InvalidParams(f"check_every must be at least 1, got {check_every}")
    if workers is not None and workers < 1:
        raise InvalidParams(f"workers must be at least 1, got {workers}")
    if pairs is None:
        pairs = coprime_pairs(6)
    params = [GameParams(a, b) for a, b in pairs]
    schedules = (LEFTMOST, RIGHTMOST, PARALLEL_ROUNDS, *map(FiringStrategy.random, seeds))
    play = functools.partial(
        _confluence_pair, max_n=max_n, schedules=schedules, check_every=check_every,
    )
    if workers is None:
        import os

        workers = os.cpu_count() or 1
    # One process per pair at most: more would only sit idle.
    workers = min(workers, len(params))
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            reports = pool.map(play, params)
    else:
        reports = map(play, params)
    rep = SuiteReport("confluence")
    for pair_rep in reports:
        rep.checks += pair_rep.checks
        rep.failures.extend(pair_rep.failures)
    rep.failures.sort()
    return rep


def invariants_suite(
    pairs: list[tuple[int, int]] | None = None,
    max_n: int = 100,
) -> SuiteReport:
    """Exact S(1) = S(b/a) = n on every intermediate state of every run,
    cross-checked on final states through the independent rational evaluator,
    plus the side-value equations against the incremental oracle's firing
    counts, row by row."""
    rep = SuiteReport("invariants")
    pairs = pairs if pairs is not None else [(1, 2), (2, 3)]
    for p in [GameParams(a, b) for a, b in pairs]:
        a, b = p.a, p.b
        boa = Fraction(b, a)

        def evaluator(n, final):
            if analysis.state_poly_eval(final, 1) != n or analysis.state_poly_eval(final, boa) != n:
                return f"a={a} b={b} n={n}: rational evaluator disagrees"

        for _ in _checked_games(rep, p, max_n, (LEFTMOST, PARALLEL_ROUNDS), 1, evaluator):
            pass
        for n, left, right, f0, f1 in oracle_rows(p, max_n):
            try:
                left_value, right_value = analysis.side_values(left, right, f0, f1, p)
            except ChipFiringError as exc:
                rep.check(False, f"a={a} b={b} n={n}: side values: {exc}")
                continue
            rep.check(
                sum(left) + sum(right) == n and left_value + right_value == n,
                f"a={a} b={b} n={n}: side values do not sum to n",
            )
    return rep


def _structured(a: int, b: int) -> GameParams:
    """The pair as GameParams, refused unless coprime with a < b."""
    p = GameParams(a, b)
    p.require_structured()
    return p


def settlements_suite(pairs: list[tuple[int, int]] | None = None) -> SuiteReport:
    """Transition soundness against the engine, closed-form agreement,
    dormancy census, digit-range inequalities, and index-formula notes."""
    rep = SuiteReport("settlements")
    if pairs is None:
        pairs = coprime_pairs(7)
    drift_anchor: list[str] = []
    drift_dormant: list[str] = []
    for p in [_structured(a, b) for a, b in pairs]:
        a, b = p.a, p.b
        seq = seq_for(p)
        # transition soundness vs. settle_right
        cur: tuple[int, ...] = ()
        for k in range(60):
            # one origin firing puts b more chips on the origout
            fired = (cur[0] + b,) + cur[1:] if cur else (b,)
            engine_word = analysis.split(settle_right(analysis.combine((), fired, p)))[1]
            lemma_word = settlement_next(cur, p)
            rep.check(
                lemma_word == engine_word and seq.word(k + 1) == engine_word,
                f"a={a} b={b}: transition diverges from engine at k={k}",
            )
            cur = engine_word
        # closed form vs. iteration across both anchor conventions
        start = periodic_start(p)
        top = max(start, tetrahedral_periodic_start(p)) + 4 * p.c
        words = [seq.word(k) for k in range(top + 1)]
        it = ()
        for k in range(1, top + 1):
            it = settlement_next(it, p)
            rep.check(
                words[k] == it,
                f"a={a} b={b}: closed form != iteration at k={k}",
            )
        # census
        try:
            count, highest = dormant_census(p)
            rep.check(
                count == p.c and highest == highest_dormant_index(p),
                f"a={a} b={b}: census ({count},{highest}) off formulas",
            )
        except ChipFiringError as exc:
            rep.check(False, f"a={a} b={b}: census: {exc}")
        rep.check(lemma8_inequalities(p), f"a={a} b={b}: digit-range inequalities")
        # where the tetrahedral index formulas drift, record the evidence
        if tetrahedral_periodic_start(p) != start:
            k_t = tetrahedral_periodic_start(p)
            drift_anchor.append(
                f"a={a} b={b} c={p.c}: anchor word .{digits_to_string(words[start])} first at "
                f"k={start}, not Te_c+1={k_t} (xi_{k_t} = .{digits_to_string(words[k_t])})"
            )
        if tetrahedral_highest_dormant_index(p) != highest_dormant_index(p):
            k_t = tetrahedral_highest_dormant_index(p)
            drift_dormant.append(
                f"a={a} b={b} c={p.c}: last dormant index is "
                f"{highest_dormant_index(p)}, not Te_(c-1)+1={k_t}"
            )
    if drift_anchor:
        rep.notes.append(
            "tetrahedral settlement anchor Te_c+1 overshoots for c >= 3; "
            "true anchor is c(c+3)/2: " + "; ".join(drift_anchor)
        )
    if drift_dormant:
        rep.notes.append(
            "tetrahedral last-dormant index Te_(c-1)+1 is off for c = 1 and "
            "c >= 4; true index is (c-1)(c+2)/2: " + "; ".join(drift_dormant)
        )
    return rep


def predictor_suite(
    pairs: list[tuple[int, int]] | None = None,
    max_n: int = 2000,
) -> SuiteReport:
    """Fast path == oracle digit for digit and in the origin and origout
    firing counts; stabilized side values on the rows B..B + VALUE_WINDOW;
    firing surplus plateau; mirror symmetry; plus the two documented erratum
    notes (stabilized right value, and the suffix phrasing of the index
    advance)."""
    rep = SuiteReport("predictor")
    pairs = pairs if pairs is not None else SIX_PAIRS
    for p in [_structured(a, b) for a, b in pairs]:
        a, b = p.a, p.b
        prof = profile_for(p)
        ac = a * p.c
        prev_diff = 0
        prev_f0 = -1
        for n, left, right, f0, f1 in oracle_rows(p, max_n):
            answer = final_answer(n, p)
            rep.check(
                (segment_digits(answer.head), segment_digits(answer.tail), answer.f0, answer.f1)
                == (left, right, f0, f1),
                f"a={a} b={b} n={n}: fast path differs from oracle",
            )
            diff = f0 - f1
            rep.check(
                diff >= prev_diff and f0 >= prev_f0,
                f"a={a} b={b} n={n}: firing counts not monotone",
            )
            prev_diff, prev_f0 = diff, f0
            if prof.B <= n <= prof.B + VALUE_WINDOW:
                rep.check(
                    eval_base(DigitWord.fraction(right), p) == ac
                    and eval_base(DigitWord(left, 0), p) == n - ac,
                    f"a={a} b={b} n={n}: stabilized side values off (a*c={ac})",
                )
            if n >= prof.B:
                rep.check(
                    diff == p.c,
                    f"a={a} b={b} n={n}: f0-f1={diff} != c={p.c}",
                )
        for n in (0, 7, prof.H + 3, prof.H + 29):
            mirrored = final_state(n, GameParams(b, a))
            rep.check(
                mirrored == mirror_word(final_state(n, p)),
                f"a={a} b={b} n={n}: mirror symmetry broken",
            )
    rep.notes.extend(_erratum_notes())
    return rep


def _erratum_notes() -> list[str]:
    """The two documented discrepancies, each re-derived from a real run."""
    notes = []
    p = GameParams(2, 3)
    rights = {n: right for n, _, right, _, _ in oracle_rows(p, 16)}
    values = {n: eval_base(DigitWord.fraction(right), p) for n, right in rights.items()}
    if all(values[n] == 2 for n in range(5, 13)) and values[13] == 4:
        notes.append(
            "2-3 worked example: the right-part value at t=3/2 is 2 only for "
            "5 <= n <= 12; from n=13 on it is a*c = 4 "
            f"(counterexample n=13: right part .43 evaluates to {values[13]})"
        )
    # suffix phrasing: left word 233 (n=16) has a >=b suffix of length 2 yet
    # the origin does not fire on the next increment
    left16 = (2, 3, 3)
    _, explosions = elevated_increment(left16, p)
    suffix_len = 0
    for d in reversed(left16):
        if d >= p.b:
            suffix_len += 1
        else:
            break
    if explosions == 0 and suffix_len == 2:
        notes.append(
            "index-advance rule: counting the >=b suffix of the left part "
            "overshoots when the last digit is below a+b-1; left word 233 in "
            "the 2-3 game (n=16) has suffix length 2 but 0 origin firings on "
            "the next increment; the explosion count of the elevated "
            "increment is the sound rule"
        )
    # the right-part triplet grouping for 2-3 holds from n=15 but not at 12..14
    if rights[12] != rights[13]:
        notes.append(
            "2-3 right parts group into triplets phi(3k)^R = phi(3k+1)^R = "
            "phi(3k+2)^R only from n=15 on; the triplet 12..14 mixes .13, "
            ".43, .43"
        )
    return notes


def one_b_suite(max_n: int = 500) -> SuiteReport:
    """1-b laws: settlement formula, digit-(b-1) count f0(n) - 1, binary
    left-part trick up to TRICK_MAX, and the R(b) left-part law with its
    index offset pinned by simulation; the refuted valuation-sum count is a
    note with its first counterexample per b.

    One oracle pass per b serves every law, each row checked as it arrives:
    (1, 2) runs to the largest of max_n, TRICK_MAX and 220 (the end of the
    R(b) checks), (1, 3) to the larger of max_n and 220."""
    if max_n < 0:
        raise InvalidParams("chip count must be non-negative")
    r_max = 220
    rep = SuiteReport("one-b")
    for b in (2, 3, 5):
        p = GameParams(1, b)
        seq = seq_for(p)
        for k in range(31):
            rep.check(
                one_b_settlement(k, b) == seq.word(k),
                f"b={b}: (b-1)_(k-1) b formula breaks at k={k}",
            )
    first_mismatches = []
    for b, top in ((2, max(max_n, TRICK_MAX, r_max)), (3, max(max_n, r_max))):
        first = None
        for n, left, right, f0, _ in oracle_rows(GameParams(1, b), top):
            if b < n <= max_n:
                true_count = right.count(b - 1)
                rep.check(
                    true_count == f0 - 1,
                    f"b={b} n={n}: digit-(b-1) count is {true_count}, "
                    f"f0(n) - 1 is {f0 - 1}",
                )
                if first is None:
                    stated = one_b_right_length(n, b)
                    if stated != true_count:
                        first = (
                            f"b={b} n={n}: digit-(b-1) count is {true_count}, "
                            f"valuation sum gives {stated}"
                        )
            if b == 2 and 4 <= n <= TRICK_MAX:
                rep.check(
                    left == binary_trick_left(n),
                    f"b=2 n={n}: binary left-part trick differs from simulation",
                )
            # R(b) law: phi(n)^L is the (n-1)-th entry (the n-2 indexing in
            # circulation is off by one; pinned at n = b+2 and asserted after)
            if n == b + 2:
                rep.check(
                    left == r_sequence(b, n - 1) and left != r_sequence(b, n - 2),
                    f"b={b}: R-sequence offset is not n-1 at n={n}",
                )
            elif b + 2 < n <= r_max:
                rep.check(
                    left == r_sequence(b, n - 1),
                    f"b={b} n={n}: left part is not R(b)_(n-1)",
                )
        if first:
            first_mismatches.append(first)
    if first_mismatches:
        rep.notes.append(
            "the valuation-sum formula for the digit-(b-1) count does not "
            "match simulation everywhere; the true count is f0(n) - 1 "
            f"(first mismatch per b: {'; '.join(first_mismatches)})"
        )
    rep.notes.append(
        "the 1-b left part follows the R(b) sequence at index n-1 "
        "(phi(b+2)^L = 11 = R(b)_(b+1)); an n-2 indexing is off by one"
    )
    return rep


SUITES = {
    "confluence": confluence_suite,
    "invariants": invariants_suite,
    "settlements": settlements_suite,
    "predictor": predictor_suite,
    "one-b": one_b_suite,
}
