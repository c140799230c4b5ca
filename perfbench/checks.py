"""Output checks for the benchmark, independent of the program's own parsers.

Every check here re-derives what a `chipfire` output must satisfy from the
rules of the game alone: the text form is parsed by a separate parser, side
values are evaluated with an integer Horner pass, and the firing total comes
from the weighted vertex sum.  Each check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import json
from fractions import Fraction


class Malformed(ValueError):
    """An output line that is not a state string."""


def parse_word(text: str) -> tuple[list[int], list[int], bool]:
    """Split a rendered word into (integer digits, fraction digits, has_dot).

    Accepts the compact form ("442.2243") and the list form ("14,3.10,2",
    "14,.", ".,10").
    """
    s = text.strip()
    if s.count(".") > 1:
        raise Malformed(f"more than one radix mark in {text!r}")
    head: list[int] = []
    tail: list[int] = []
    if "," not in s:
        h, _, t = s.partition(".")
        if not (h + t).isdigit() and (h + t):
            raise Malformed(f"bad compact word {text!r}")
        return [int(ch) for ch in h], [int(ch) for ch in t], "." in s
    current = head
    for tok in s.split(","):
        if tok == ".":
            current = tail
            continue
        if "." in tok:
            h, t = tok.split(".")
            if h:
                head.append(_int_token(h, text))
            current = tail
            if t:
                tail.append(_int_token(t, text))
            continue
        current.append(_int_token(tok, text))
    return head, tail, "." in s


def _int_token(tok: str, text: str) -> int:
    if not tok.isdigit():
        raise Malformed(f"bad digit token {tok!r} in {text!r}")
    return int(tok)


def parse_state(text: str) -> dict[int, int]:
    """A state string as {vertex: chips}; the last integer digit is vertex 0."""
    head, tail, has_dot = parse_word(text)
    if not has_dot:
        raise Malformed(f"state {text!r} has no radix mark")
    chips = {}
    for i, d in enumerate(reversed(head)):
        if d:
            chips[-i] = d
    for i, d in enumerate(tail, start=1):
        if d:
            chips[i] = d
    return chips


def side_values(chips: dict[int, int], a: int, b: int) -> tuple[Fraction, Fraction]:
    """(left, right) values of a state at t = b/a: sum of s_m (b/a)^(-m).

    Vertices m <= 0 form the left side and m >= 1 the right side.  Each side
    is evaluated by an integer Horner pass, whose cost grows with the square
    of the side's length in machine words, not with its cube.
    """
    if not chips:
        return Fraction(0), Fraction(0)
    lo, hi = min(min(chips), 0), max(max(chips), 0)
    left = _horner([chips.get(m, 0) for m in range(lo, 1)], b, a)
    right = Fraction(0)
    if hi >= 1:
        right = _horner([chips.get(m, 0) for m in range(hi, 0, -1)], a, b) * Fraction(a, b)
    return left, right


def _horner(digits: list[int], p: int, q: int) -> Fraction:
    """sum(d_i x^(k-1-i)) with x = p/q, for k most-significant-first digits."""
    num, den = 0, 1
    for d in digits:
        den *= q
        num = num * p + d * den
    return Fraction(num, den)


def weighted_sum(chips: dict[int, int]) -> int:
    return sum(v * c for v, c in chips.items())


def state_problems(chips: dict[int, int], n: int, a: int, b: int) -> list[str]:
    """A final state of n chips: every vertex below a+b, chips conserved."""
    problems = []
    if any(c >= a + b for c in chips.values()):
        problems.append(f"digit >= a+b={a + b} in the state of n={n}")
    if sum(chips.values()) != n:
        problems.append(f"state holds {sum(chips.values())} chips, not n={n}")
    return problems


def record_problems(line: str, a: int, b: int, n: int, past_B: bool) -> tuple[list[str], dict]:
    """Check one JSON record of `chipfire final --json` against the game rules.

    Returns the problems found and the parsed record (empty on a parse error).
    ``past_B`` says that n is at or past the balanced threshold of a coprime
    pair a < b, where f0 - f1 must equal c = ceil(a/(b-a)).
    """
    try:
        rec = json.loads(line)
        chips = parse_state(rec["state"])
        left_head, left_tail, _ = parse_word(rec["left"])
        right_head, right_tail, _ = parse_word(rec["right"])
        left_v, right_v = Fraction(rec["left_value_boa"]), Fraction(rec["right_value_boa"])
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return [f"n={n}: unreadable record: {exc!r}"], {}
    problems = state_problems(chips, n, a, b)
    if (rec["a"], rec["b"], rec["n"]) != (a, b, n):
        problems.append(f"n={n}: record is for {(rec['a'], rec['b'], rec['n'])}")
    head, tail, _ = parse_word(rec["state"])
    if left_tail or right_head or (left_head, right_tail) != (head, tail):
        problems.append(f"n={n}: left/right parts do not split the state")
    if left_v + right_v != n:
        problems.append(f"n={n}: left_value_boa + right_value_boa != n")
    if (left_v, right_v) != side_values(chips, a, b):
        problems.append(f"n={n}: side values differ from the state's own")
    if a != b and rec["total_firings"] != weighted_sum(chips) // (b - a):
        problems.append(f"n={n}: total_firings != M/(b-a)")
    if a != b and weighted_sum(chips) % (b - a):
        problems.append(f"n={n}: M is not a multiple of b-a")
    if past_B and rec["f0"] - rec["f1"] != -(-a // (b - a)):
        problems.append(f"n={n}: f0 - f1 != c past B")
    return problems, rec
