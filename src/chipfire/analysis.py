"""State-polynomial evaluation and firing accounting.

The state polynomial of a configuration s is S(t) = sum(s_m * t^(-m)) over
occupied vertices m; right-of-origin vertices contribute negative powers so
that S(t) equals the base-t evaluation of the state string.  S(1) and S(b/a)
both equal the starting chip count n at every moment of every game, and the
left/right pieces of those two values pin down the origin and origout firing
counts exactly.

Everything here is a pure function over immutable snapshots.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .engine import ChipState, GameParams
from .errors import DivisionByZero, EqualRates, InconsistentLog, NotDivisible
from .words import DigitWord, eval_base, segment_length

__all__ = [
    "state_poly_eval",
    "split",
    "combine",
    "state_word",
    "side_values",
    "weighted_sum",
    "firings_from_M",
    "segments_weighted_sum",
    "firings_from_weight",
]


def state_poly_eval(state: ChipState, t: Fraction | int) -> Fraction:
    """S(t) = sum(s_m * t^(-m)) evaluated exactly."""
    t = Fraction(t)
    if t == 0 and any(v > 0 for v in state.chips):
        raise DivisionByZero("t=0 with chips right of the origin")
    total = Fraction(0)
    for v, c in state.chips.items():
        total += c * t ** (-v)
    return total


def state_word(state: ChipState) -> DigitWord:
    """Canonical full state string: vertex m holds the digit at position -m."""
    left, right = split(state)
    return DigitWord(left + right, -len(right))


def split(state: ChipState) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The digit tuples of vertices lo..0 and 1..hi, where lo = min(support, 0).

    The left tuple ends with the origin digit, so it is never empty; the
    right one is () when nothing sits right of the origin.  These are the
    ``left`` and ``right`` of an ``engine.oracle_rows`` row.
    """
    lo = min(min(state.chips), 0) if state.chips else 0
    hi = max(state.chips, default=0)
    return (tuple(state.count(v) for v in range(lo, 1)),
            tuple(state.count(v) for v in range(1, hi + 1)))


def combine(left: tuple, right: tuple, params: GameParams) -> ChipState:
    """Rebuild a state from the digit tuples of its two parts (inverse of
    split); ``left`` may be () for a state with nothing at or left of the
    origin."""
    return ChipState(params, dict(zip(range(1 - len(left), len(right) + 1), left + right)))


def side_values(left: tuple, right: tuple, f0: int, f1: int,
                params: GameParams) -> tuple[int, int]:
    """The values at b/a of the two parts of a state reached from n chips at
    the origin with f0 origin and f1 origout firings, as (left, right).

    ``left`` and ``right`` are the state's parts as ``split`` gives them;
    each is valued at 1 by its digit sum and at b/a by eval_base, which
    places the left digits at positions len-1..0 and the right ones at
    -1, -2, ....  Verifies the four exact identities
        left(1)  = n - b*f0 + a*f1      right(1)  = b*f0 - a*f1
        left(b/a) = n - a*(f0 - f1)     right(b/a) = a*(f0 - f1)
    and that both b/a side values are integers; raises InconsistentLog on any
    failure, which would mean the engine and its counts disagree.
    """
    a, b = params.a, params.b
    left_1, right_1 = sum(left), sum(right)
    left_b = eval_base(DigitWord(left, 0), params)
    right_b = eval_base(DigitWord.fraction(right), params)
    n = left_1 + right_1
    checks = [
        ("left(1)", left_1, n - b * f0 + a * f1),
        ("right(1)", right_1, b * f0 - a * f1),
        ("left(b/a)", left_b, n - a * (f0 - f1)),
        ("right(b/a)", right_b, Fraction(a * (f0 - f1))),
    ]
    for name, got, expected in checks:
        if got != expected:
            raise InconsistentLog(
                f"{name} = {got} but the log implies {expected} "
                f"(n={n}, f0={f0}, f1={f1})"
            )
    if left_b.denominator != 1 or right_b.denominator != 1:
        raise InconsistentLog(f"side values at b/a not integral: {left_b}, {right_b}")
    return int(left_b), int(right_b)


def weighted_sum(state: ChipState) -> int:
    """sum(m * s_m) over the support.  Zero initially; +(b-a) per firing."""
    return sum(v * c for v, c in state.chips.items())


def firings_from_M(state: ChipState) -> int:
    """Total firings that led from {0: n} to this state, via the weighted sum.

    With M = sum(m * s_m) over vertex indices m, each firing adds exactly
    b - a, so the count is M / (b - a).  (Stated the other way around in
    exponent space, where each firing adds a - b; the logged-oracle tests pin
    this sign down.)
    """
    return firings_from_weight(weighted_sum(state), state.params)


def segments_weighted_sum(head: tuple, tail: tuple) -> int:
    """weighted_sum of the state whose digits are ``head`` at vertices lo..0
    and ``tail`` at vertices 1..hi, each as (digits, count) segments (see
    words.segment_digits); no ChipState is built.

    k copies of a w-digit block d_0..d_(w-1) from vertex v add
    k * sum(d_i * (v+i)) + sum(d_i) * w * k(k-1)/2, so a segment costs one
    pass over its block however many times it repeats.
    """
    m = 0
    v = 1 - segment_length(head)
    for block, k in head + tail:
        w = len(block)
        m += k * sum(map(mul, range(v, v + w), block)) + sum(block) * w * (k * (k - 1) // 2)
        v += w * k
    return m


def firings_from_weight(m: int, p: GameParams) -> int:
    """M / (b - a), refusing a = b and an M that b - a does not divide."""
    if p.a == p.b:
        raise EqualRates("firing count from M is undefined for a == b")
    q, r = divmod(m, p.b - p.a)
    if r:
        raise NotDivisible(f"M={m} is not a multiple of b-a={p.b - p.a}")
    return q
