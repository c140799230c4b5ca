"""Fast computation of final states, always equal to the simulation oracle.

Dispatch: a == b has a closed form; every other pair is answered from its
coprime base (min(a,b)/d, max(a,b)/d), d = gcd(a,b), in one loop that
mirrors each base answer when a > b and lifts it by d when d > 1.  For the
coprime base a < b the final state is simulated (and memoized) up to a
certified threshold H, past which the structure theory takes over:

  * the left part is the unique word over the digit alphabet [a, a+b) whose
    base-b/a value is n - a*c, and
  * the right part is the settlement whose index the side-value identities
    force: k = (n - leftsum - a*c) / (b - a).

Neither threshold is taken on faith from the existence theorem: one loop in
compute_profile finds B and certifies H against the oracle in one
incremental pass (engine.oracle_rows, rows read straight off the chip
buffer) under one scan cap.  Up to B it checks each right part against the
settlement word; from B on it checks each increment as its row arrives
(closed-form left = simulated left, left transition = elevated-game
increment, right index advance = explosion count, right part = settlement
word) and stops at the first n >= B where every left digit is at least a
and a whole window of increments has passed: row H + window.  The profile
keeps rows 0..H as its table.  A profile is immutable once computed, and
profile_for caches one per pair with functools.cache.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .analysis import firings_from_weight, segments_weighted_sum
# oracle_states stays importable here because span tracers patch it by module.
from .engine import GameParams, oracle_rows, oracle_states  # noqa: F401
from .errors import CensusMismatch, InvalidParams, NotRegular, ScanExhausted, WindowFailure
from .settlements import highest_dormant_index, seq_for
from .words import DigitWord, numeral_digits, segment_digits

__all__ = [
    "PredictorProfile",
    "compute_profile",
    "profile_for",
    "FinalAnswer",
    "final_answer",
    "final_answers",
    "final_state",
    "final_counts",
    "aa_final",
    "lift_noncoprime",
    "mirror_word",
    "elevated_increment",
    "left_regular_word",
    "one_b_settlement",
    "one_b_right_length",
    "r_sequence",
    "binary_trick_left",
]


@dataclass(frozen=True)
class PredictorProfile:
    """Certified thresholds for one coprime pair a < b and the oracle rows
    (n, left, right, f0, f1) for n = 0..H that they were certified from."""

    B: int
    H: int
    rows: tuple[tuple, ...]


def elevated_increment(left: tuple, params: GameParams) -> tuple[tuple, int]:
    """Add one chip at the origin of the elevated game.

    In the elevated regime a digit reaching a+b sheds b and passes a to its
    left neighbor (which appears as a fresh digit a when there is none).
    Takes and returns left-part digit tuples, the origin digit last, and
    also returns the number of explosions; each position can explode at
    most once per added chip because a < b.
    """
    params.require_structured()
    a, b = params.a, params.b
    ds = list(left)
    if not ds or any(d < a for d in ds):
        raise NotRegular(f"left word {ds} has a digit below a={a}")
    if any(d >= a + b for d in ds):
        raise NotRegular(f"left word {ds} is not a final-state part")
    explosions = _increment(ds, a, b)
    return tuple(ds), explosions


def _increment(ds: list, a: int, b: int) -> int:
    """elevated_increment in place on a list of digits in [a, a+b); returns
    the number of explosions."""
    ds[-1] += 1
    explosions = 0
    i = len(ds) - 1
    while i >= 0 and ds[i] >= a + b:
        ds[i] -= b
        explosions += 1
        assert ds[i] < a + b, "position would explode twice"
        if i == 0:
            ds.insert(0, a)
            break
        ds[i - 1] += a
        i -= 1
    return explosions


def left_regular_word(value: int, params: GameParams) -> tuple | None:
    """The digits of the unique base-b/a numeral over [a, a+b) with the given
    value, as a left part: most significant first, the origin digit last.

    () for 0, and None when no such numeral exists (which is what
    distinguishes the regular regime).  The peel of words.numeral_digits,
    which to_base runs over [0, b).
    """
    params.require_structured()
    return numeral_digits(value, params.a, params.b, params.a)


def aa_final(n: int, a: int) -> DigitWord:
    """Final state of the a-a game: n mod 2a chips at the origin flanked by
    floor(n/2a) vertices of a chips on each side."""
    if a < 1 or n < 0:
        raise InvalidParams("need a >= 1 and n >= 0")
    k, q = divmod(n, 2 * a)
    digits = (a,) * k + (q,) + (a,) * k
    return DigitWord(digits, -k)


def lift_noncoprime(w: DigitWord, d: int, q: int) -> DigitWord:
    """Scale every digit by d and add q at the origin position.

    Lifts the final state of the (a, b) game with p chips to the final state
    of the (d*a, d*b) game with p*d + q chips (0 <= q < d): both games admit
    the same firing sequences.
    """
    if d < 1 or not 0 <= q < max(d, 1):
        raise InvalidParams(f"need d >= 1 and 0 <= q < d, got d={d}, q={q}")
    if w.is_empty():
        return DigitWord((q,), 0)
    # Scale, zero-pad the word out to the origin, then add q at position 0,
    # which sits at index max(hi, 0) of the padded digits.
    digits = [x * d for x in w.digits]
    if w.radix > 0:
        digits += [0] * w.radix
    if w.hi < 0:
        digits = [0] * -w.hi + digits
    digits[max(w.hi, 0)] += q
    return DigitWord(tuple(digits), min(w.radix, 0))


def mirror_word(w: DigitWord) -> DigitWord:
    """Reflect a state string through the origin (position p -> -p)."""
    if w.is_empty():
        return DigitWord((0,), 0)
    lo = -w.hi
    hi = -w.radix
    digits = tuple(reversed(w.digits))
    if lo > 0:
        digits = digits + (0,) * lo
        lo = 0
    if hi < 0:
        digits = (0,) * (-hi) + digits
        hi = 0
    return DigitWord(digits, lo)


# ---------------------------------------------------------------------------
# Profiles.
# ---------------------------------------------------------------------------

# The increments a certified H must reproduce, and the chip count past which
# no B is looked for.
CHECK_WINDOW = 50
SCAN_LIMIT = 20000


def compute_profile(params: GameParams) -> PredictorProfile:
    """Find the balanced threshold B and certify the fast-path threshold H for
    a coprime pair a < b.

    B is the smallest n whose final right part sits beyond the last dormant
    settlement.  From B on, every origin firing is answered by an origout
    firing, the surplus f0 - f1 equals c, and the right part evaluates to a*c
    in base b/a.  The settlement index of each right part is the origin's
    firing count, and every right part up to B is checked against the
    settlement sequence on the way.

    H is the smallest n >= B such that every left digit is >= a and, for
    CHECK_WINDOW consecutive increments, the closed-form left word, the
    fast transition (elevated left increment plus explosion-count index
    advance) and the settlement word all reproduce the oracle exactly.

    One oracle_rows pass of SCAN_LIMIT + CHECK_WINDOW chips serves both and
    stops at row H + CHECK_WINDOW.  Raises CensusMismatch when a right part
    up to B is not its settlement, and ScanExhausted when there is no B up to
    SCAN_LIMIT or the rows run out before an H certifies.  The window and
    the cap are module constants, read on each call; profile_for keeps the
    first result per pair.
    """
    params.require_structured()
    seq = seq_for(params)
    a, ac = params.a, params.a * params.c
    last_dormant = highest_dormant_index(params)
    rows: list[tuple] = []     # every row read so far; rows[n] is row n
    B = None
    start = None               # first n of the current run of certified steps
    for row in oracle_rows(params, SCAN_LIMIT + CHECK_WINDOW):
        n, left, right, f0, _ = row
        rows.append(row)
        if B is None:
            if seq.word(f0) != right:
                raise CensusMismatch(
                    f"final right part of n={n} is not xi_{f0} for ({params.a},{params.b})"
                )
            if f0 <= last_dormant:
                if n == SCAN_LIMIT:
                    raise ScanExhausted(
                        f"no balanced n below {SCAN_LIMIT} for ({params.a},{params.b})"
                    )
                continue
            B = n
        elif start is not None and not _step_ok(rows[n - 1], row, params, seq, ac):
            start = None
        if start is None and min(left) >= a:
            start = n
        # A run starting past SCAN_LIMIT cannot complete before the rows end.
        if start is not None and n - start == CHECK_WINDOW:
            return PredictorProfile(B=B, H=start, rows=tuple(rows[: start + 1]))
    raise ScanExhausted(
        f"no certified H below {SCAN_LIMIT} for ({params.a},{params.b})"
    )


def _step_ok(row: tuple, nxt: tuple, params: GameParams, seq, ac: int) -> bool:
    """Whether the fast path reproduces the oracle's step from row n to row n + 1.

    The left word is compared with its closed form first: one equal to it
    has every digit in [a, a+b), so a copy of it can take the elevated
    increment as it is.
    """
    n, left, right, f0, _ = row
    if left_regular_word(n - ac, params) != left:
        return False
    digits = list(left)
    explosions = _increment(digits, params.a, params.b)
    return tuple(digits) == nxt[1] and f0 + explosions == nxt[3] and seq.word(f0) == right


@functools.cache
def profile_for(params: GameParams) -> PredictorProfile:
    """The certified profile of a coprime pair a < b, computed once per
    process for equal parameters."""
    return compute_profile(params)


class FinalAnswer(NamedTuple):
    """The final state of one game and its firing counts, as final_answer gives them.

    ``head`` holds the digits at positions hi..0 and ``tail`` those at -1,
    -2, ..., each as (digits, count) segments (see words.segment_digits).
    Past H the tail is (((c(b-a),), p+1), (delta_q, 1)), so the answer's
    size is O(c + log n) however long the state is.
    ``left_value`` is the value of the head at b/a, an integer set from the
    counts, never by evaluating digits.  S(b/a) = n, and origin firings move
    a to the right part at b/a while origout firings move it back, so the
    right part is worth a*(f0 - f1) and the left value is n - a*(f0 - f1),
    which ``parts`` sets, on table rows and --oracle answers, and n - a*c
    past H, the value its left word was peeled from.  The gcd lift makes it
    d*L + q from the reduced answer's L, the mirror the origin digit plus
    the (b, a) answer's right value b*(f0 - f1), and a = b (every power of
    b/a is one) the digit sum a*k + q.
    f0 and f1 are the origin and origout firing counts, None where the
    dispatch does not define them.
    ``total`` is the total firing count when it was logged; otherwise
    ``counts`` reads it off the segments.
    """

    head: tuple
    tail: tuple
    left_value: int
    f0: int | None
    f1: int | None
    total: int | None = None

    @classmethod
    def parts(cls, n, left, right, f0, f1, a, total=None) -> "FinalAnswer":
        """The answer for n chips whose final state has the parts ``left`` and
        ``right`` (as analysis.split gives them) after f0 origin and f1
        origout firings of a pair sending a chips left: its left value is
        n - a*(f0 - f1)."""
        return cls(((left, 1),) if left else (), ((right, 1),) if right else (),
                   n - a * (f0 - f1), f0, f1, total)

    def word(self) -> DigitWord:
        head, tail = segment_digits(self.head), segment_digits(self.tail)
        return DigitWord(head + tail, -len(tail))

    def counts(self, params: GameParams) -> tuple[int | None, int | None, int | None]:
        """(f0, f1, total), the total being M / (b - a) of the state unless it
        was logged, and None for a == b, where every firing leaves M as it is."""
        total = self.total
        if total is None and params.a != params.b:
            total = firings_from_weight(segments_weighted_sum(self.head, self.tail), params)
        return self.f0, self.f1, total


def final_answer(n: int, params: GameParams) -> FinalAnswer:
    """The final state of n chips at the origin and its firing counts: the
    one record of final_answers(n, n, params)."""
    return next(final_answers(n, n, params))


def final_answers(lo: int, hi: int, params: GameParams) -> Iterator[FinalAnswer]:
    """The answers for n = lo..hi chips at the origin, in order.

    One dispatch, one loop: a == b has a closed form; any other pair loops
    over the chip counts p = lo//d .. hi//d of its coprime base
    (min(a, b)/d, max(a, b)/d), d = gcd(a, b), which is params itself when
    d = 1 and a < b.  Each base answer comes from the certified table up to
    H and from the structure theory past it.  It is then mirrored when
    a > b, which keeps the origin count but not the origout count, and when
    d > 1 scaled once and lifted to the counts p*d .. p*d + d - 1 in lo..hi
    (the base game's firing sequences are admitted, so f0 and f1 carry
    over).  Past H the first left word is peeled from its value and each
    later one is the elevated increment of the one before, in place, whose
    explosions advance the settlement index; the increment keeps the value
    and the digit range, so it gives the same word in amortized O(1).  The
    total is left to FinalAnswer.counts, which reads M off the segments in
    O(c + log n) past H: M scales by d under the lift and changes sign
    under the mirror, as b - a does.  Each branch sets the left value at
    b/a from the counts it has (see FinalAnswer).
    """
    if lo < 0:
        raise InvalidParams("chip count must be non-negative")
    a, b = params.a, params.b
    if a == b:
        # aa_final as runs: k copies of a on each side of n mod 2a.  The
        # counts stay None: the side-value identities that give them for
        # a != b coincide here, though the state still determines them.
        for n in range(lo, hi + 1):
            k, q = divmod(n, 2 * a)
            side = (((a,), k),) if k else ()
            yield FinalAnswer(side + (((q,), 1),), side, a * k + q, None, None)
        return
    d, mirror = params.d, a > b
    base = GameParams(min(a, b) // d, max(a, b) // d) if d > 1 or mirror else params
    a, b, c = base.a, base.b, base.c
    prof = profile_for(base)
    seq, first = seq_for(base), max(lo // d, prof.H + 1)
    for p in range(lo // d, hi // d + 1):
        if p < first:
            _, left, right, f0, f1 = prof.rows[p]
            answer = FinalAnswer.parts(p, left, right, f0, f1, a)
        else:
            if p == first:
                left, k = _fast_parts(p, base, prof)
                digits = list(left)
            else:
                k += _increment(digits, a, b)
            answer = FinalAnswer(((tuple(digits), 1),), seq.segments(k), p - a * c, k, k - c)
        if mirror:
            answer = _mirror(answer, a)
        if d == 1:
            yield answer
        else:
            yield from _lifts(answer, d, range(max(lo - p * d, 0), min(hi - p * d, d - 1) + 1))


def _split_origin(head: tuple) -> tuple[tuple, int]:
    """(head without its last digit, that digit, the one at position 0).
    Every head the dispatch builds ends in a segment with count 1."""
    *rest, (block, _) = head
    if len(block) > 1:
        rest.append((block[:-1], 1))
    return tuple(rest), block[-1]


def _lifts(answer: FinalAnswer, d: int, qs: range) -> list[FinalAnswer]:
    """lift_noncoprime on an answer for each q in qs: every digit times d,
    scaled once, plus q at the origin, which is worth d*L + q at b/a."""
    def scale(segments):
        return tuple((tuple([x * d for x in block]), count) for block, count in segments)

    rest, origin = _split_origin(scale(answer.head))
    tail = scale(answer.tail)
    return [FinalAnswer(rest + (((origin + q,), 1),), tail, d * answer.left_value + q,
                        answer.f0, answer.f1) for q in qs]


def _mirror(answer: FinalAnswer, a: int) -> FinalAnswer:
    """mirror_word on an answer of a pair (a, b), a < b: the tail reversed
    becomes the head, ending at the origin digit, and the rest of the head
    reversed the tail.  The new head is worth the origin digit plus the old
    tail's value a*(f0 - f1), read while f1, which the mirror drops, is
    still known."""
    def reverse(segments):
        return tuple((block[::-1], count) for block, count in reversed(segments))

    rest, origin = _split_origin(answer.head)
    return FinalAnswer(reverse(answer.tail) + (((origin,), 1),), reverse(rest),
                       origin + a * (answer.f0 - answer.f1), answer.f0, None)


def final_state(n: int, params: GameParams) -> DigitWord:
    """The final state of n chips at the origin, as a canonical state word.

    Equals the engine's stabilization digit for digit, but runs in closed
    form past the certified threshold.
    """
    return final_answer(n, params).word()


def final_counts(n: int, params: GameParams) -> tuple[int | None, int | None, int | None]:
    """(f0, f1, total): origin, origout and all firing totals for the n-chip game.

    The counts of final_answer: None for a == b, f1 None under the mirror.
    """
    return final_answer(n, params).counts(params)


def _fast_parts(n: int, params: GameParams, prof: PredictorProfile) -> tuple[tuple, int]:
    ac = params.a * params.c
    left = left_regular_word(n - ac, params)
    if left is None or any(d < params.a for d in left):
        raise WindowFailure(
            f"no regular left word at n={n}; H={prof.H} was miscertified"
        )
    k, r = divmod(n - sum(left) - ac, params.b - params.a)
    if r or k < 0:
        raise WindowFailure(f"inconsistent settlement index at n={n}")
    return left, k


# ---------------------------------------------------------------------------
# 1-b specializations.
# ---------------------------------------------------------------------------


def one_b_settlement(k: int, b: int) -> tuple:
    """xi_k for the 1-b game as a right part: k-1 copies of b-1 followed by b."""
    if b < 2 or k < 0:
        raise InvalidParams("need b >= 2 and k >= 0")
    return (b - 1,) * (k - 1) + (b,) if k else ()


def nu(b: int, x: int) -> int:
    """b-adic valuation: largest k with b^k dividing x (x >= 1)."""
    if x < 1 or b < 2:
        raise InvalidParams("need x >= 1 and b >= 2")
    k = 0
    while x % b == 0:
        x //= b
        k += 1
    return k


def one_b_right_length(n: int, b: int) -> int:
    """Digit-(b-1) count of the final right part per the stated valuation sum.

    Returns sum(nu_b(i) for i = 1 .. n-b-2).  Caution: simulation shows this
    sum deviates from the true count for some n (first at n=12 when b=2);
    the one-b verify suite demonstrates the mismatch.  The true count is
    f0(n) - 1; acceptance criterion 10b checks it against simulation and
    pins the sum's first counterexamples.
    """
    if b < 2 or n <= b:
        raise InvalidParams("need b >= 2 and n > b")
    return sum(nu(b, i) for i in range(1, n - b - 1))


def r_sequence(b: int, i: int) -> tuple:
    """i-th string (1-based) over digits {1..b} in increasing value order.

    This is the bijective base-b numeral of i, most significant digit
    first: the 1-b left parts follow it.  It is the peel of
    words.numeral_digits at base b/1 over the digits [1, b].
    """
    if b < 2 or i < 1:
        raise InvalidParams("need b >= 2 and i >= 1")
    return numeral_digits(i, 1, b, 1)


def binary_trick_left(n: int) -> tuple:
    """1-2 left part for n >= 4: drop the leading binary digit of n and
    raise every remaining digit by one."""
    if n < 4:
        raise InvalidParams("the binary recipe needs n >= 4")
    return tuple(int(ch) + 1 for ch in bin(n)[3:])
