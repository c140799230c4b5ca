"""Digit words and exact base-b/a numeration.

A DigitWord is a finite block of non-negative digits where position p carries
weight (b/a)^p.  It serves wherever the radix position carries information:
as a base-b/a numeral, a whole state string, or a part of a state handed to
eval_base or word_to_string.  Between modules a state's two parts travel as
plain digit tuples instead (see analysis.split), whose side fixes their
positions.  Values are always evaluated with exact rational arithmetic;
(b/a)^k is never approximated.

Words are immutable and freely shareable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING

from .errors import InvalidBase, ParseError

if TYPE_CHECKING:
    from .engine import GameParams

__all__ = [
    "DigitWord",
    "EMPTY_WORD",
    "to_base",
    "eval_base",
    "word_to_string",
    "digits_to_string",
    "render_digits",
    "segment_digits",
    "segment_length",
    "compact_segments",
    "list_segments",
    "record_texts",
    "string_to_word",
]


@dataclass(frozen=True)
class DigitWord:
    """digits[0] is the most significant digit; digits[-1] sits at ``radix``.

    So the word spans positions radix+len(digits)-1 down to radix.  A radix
    below zero means fractional digits are present.  The empty word is the
    canonical form of "no digits at all" (a right part printed as bare ".").
    """

    digits: tuple[int, ...]
    radix: int = 0

    def __post_init__(self) -> None:
        if min(self.digits, default=0) < 0:
            raise ValueError("digits must be non-negative")

    @classmethod
    def fraction(cls, digits) -> "DigitWord":
        """Pure right part: digits at positions -1, -2, ..., -len."""
        ds = tuple(digits)
        return cls(ds, -len(ds)) if ds else EMPTY_WORD

    @property
    def hi(self) -> int:
        return self.radix + len(self.digits) - 1

    def integer_digits(self) -> tuple[int, ...]:
        """Digits at positions hi..0, zero-padded down to position 0.

        Empty if the word is purely fractional.
        """
        if not self.digits or self.hi < 0:
            return ()
        if self.radix > 0:
            return self.digits + (0,) * self.radix
        return self.digits[: self.hi + 1]

    def fraction_digits(self) -> tuple[int, ...]:
        """Digits at positions -1, -2, ..., zero-padded from -1 if needed."""
        if not self.digits or self.radix >= 0:
            return ()
        if self.hi < -1:
            return (0,) * (-1 - self.hi) + self.digits
        return self.digits[self.hi + 1 :]

    def is_empty(self) -> bool:
        return not self.digits

    def __str__(self) -> str:
        return word_to_string(self)


EMPTY_WORD = DigitWord((), 0)


def to_base(n: int, params: GameParams) -> DigitWord:
    """Base-b/a representation of a non-negative integer: the numeral over
    the digits [0, b), (0,) for 0."""
    if not params.is_structured():
        raise InvalidBase(f"base {params.b}/{params.a} needs coprime a < b")
    if n < 0:
        raise InvalidBase("only non-negative integers have finite words")
    return DigitWord(numeral_digits(n, params.a, params.b, 0) or (0,), 0)


def numeral_digits(value: int, a: int, b: int, low: int) -> tuple | None:
    """The digits of the base-b/a numeral of ``value`` over the alphabet
    [low, low + b), most significant first: () for 0, None when the value
    has no such numeral.

    Digits are peeled low to high (the rational base numeration of Akiyama,
    Frougny and Sakarovitch, 2008): the low digit is the one congruent to the
    value mod b, and peeling it leaves a*(value-d)/b.  Over [a, a+b) the
    peel fails when a digit exceeds what is left.
    """
    if value < 0:
        return None
    low_first = []
    while value > 0:
        d = low + (value - low) % b
        if d > value:
            return None
        low_first.append(d)
        value = a * (value - d) // b
    return tuple(reversed(low_first))


# Words up to this many digits are evaluated by one Horner pass; longer ones
# are split in halves, so that the big products stay balanced.
_LEAF_DIGITS = 64


def eval_base(w: DigitWord, params: GameParams) -> Fraction:
    """Exact value sum(d_p * (b/a)^p) over every position of the word.

    The base is taken in lowest terms, so (4, 6) costs what (2, 3) does and
    a = b reduces to (1, 1), where every power is one and the numerator is
    the digit sum.
    """
    if w.is_empty():
        return Fraction(0)
    d = gcd(params.a, params.b)
    a, b = params.a // d, params.b // d
    # numerator gives sum over positions of d_p * b^(p-radix) * a^(hi-p);
    # the true value is then that times b^radix / a^hi.
    return Fraction(numerator(w.digits, a, b) * b**max(w.radix, 0) * a**max(-w.hi, 0),
                    b**max(-w.radix, 0) * a**max(w.hi, 0))


def numerator(ds, a: int, b: int) -> int:
    """sum(ds[t] * b^(len(ds)-1-t) * a^t) over the digits ds, most
    significant first: their value at b/a cleared of denominators.

    Up to _LEAF_DIGITS digits, one Horner pass: each later digit multiplies
    the sum by b and carries one more a.  Longer runs are halved: with the
    first half worth ``hi`` and the second ``lo``, the whole is
    hi * b^len(second) + lo * a^len(first).
    """
    if len(ds) > _LEAF_DIGITS:
        m = len(ds) // 2
        return (numerator(ds[:m], a, b) * b ** (len(ds) - m)
                + numerator(ds[m:], a, b) * a**m)
    num = 0
    apow = 1
    for d in ds:
        num = num * b + d * apow
        apow *= a
    return num


# ---------------------------------------------------------------------------
# Text formats.  Compact form concatenates single digits with '.' as the
# radix mark ("442.2243"); list form separates digits with commas and keeps
# '.' between the adjacent digits ("14,3.10,2").  Compact is only legal when
# every digit is at most 9.  This module alone writes and reads them.
# ---------------------------------------------------------------------------


def word_to_string(
    w: DigitWord,
    *,
    list_form: bool = False,
    radix_mark: str = "auto",
) -> str:
    """Render a word: compact form when every digit is at most 9 and
    list_form is False, list form otherwise.

    radix_mark: "auto" prints the dot only when fractional digits exist
    (numeral style); "always" prints it after the position-0 digit even for
    integer words (state style, as in "24.").
    """
    head = w.integer_digits()
    tail = w.fraction_digits()
    want_dot = bool(tail) or radix_mark == "always" or not head
    return render_digits(((head, 1),), ((tail, 1),), want_dot, list_form)


def digits_to_string(digits: tuple) -> str:
    """The digits of a part without a radix mark: compact ("2243") when every
    digit is at most 9, otherwise joined by commas ("14,3,10")."""
    segments = ((digits, 1),)
    return compact_segments(segments) or list_segments(segments)


# Digits 0..9 as the bytes of their characters and every other byte as a NUL
# sentinel; compact rendering maps a whole block of digits through this table
# in one call.
_DIGIT_CHARS = b"0123456789" + bytes(246)


# A digit sequence given in segments.  Every segment is a pair (digits, count):
# ``count`` copies of the digit tuple ``digits``, so an explicit tuple t is
# (t, 1) and a run of k copies of the digit d is ((d,), k).  A long run costs
# O(1) until it is rendered.


def segment_digits(segments: tuple) -> tuple[int, ...]:
    """The digits of a segment sequence, materialized."""
    if len(segments) == 1 and segments[0][1] == 1:
        return segments[0][0]
    digits: tuple[int, ...] = ()
    for block, count in segments:
        digits += block * count
    return digits


def segment_length(segments: tuple) -> int:
    return sum(len(block) * count for block, count in segments)


def compact_segments(segments: tuple) -> str | None:
    """The compact text of a segment sequence, or None when a digit is above 9.

    Each block is translated once and its text repeated; a one-digit block
    is read straight off "0123456789".
    """
    parts = []
    for block, count in segments:
        if len(block) == 1:
            if block[0] > 9:
                return None
            text = "0123456789"[block[0]]
        else:
            try:
                raw = bytes(block).translate(_DIGIT_CHARS)
            except ValueError:      # a digit above 255
                return None
            if b"\0" in raw:
                return None
            text = raw.decode()
        parts.append(text * count)
    return "".join(parts)


def list_segments(segments: tuple) -> str:
    """The digits of a segment sequence joined by commas ("14,3,10").

    Each block is formatted once and its text repeated, so a run of k
    copies of one digit costs one str call and one string product.
    """
    parts = []
    for block, count in segments:
        if block and count:
            text = ",".join(map(str, block))
            parts.append((text + ",") * (count - 1) + text)
    return ",".join(parts)


def _join_list_parts(head_text: str, tail_text: str, want_dot: bool) -> str:
    """The list-form text of a word from the list texts of its two parts;
    ``want_dot`` prints the radix point."""
    out = head_text + "." + tail_text if want_dot else head_text
    if "," not in out:
        # A comma-less rendering would read back as compact digits; emit the
        # radix dot as its own comma-separated token instead ("14,.", ".,10").
        out = ",".join([text for text in (head_text, ".", tail_text) if text])
    return out


def render_digits(head: tuple, tail: tuple, want_dot: bool,
                  list_form: bool = False) -> str:
    """The text of a word whose digits are the segments ``head`` before the
    radix point and ``tail`` after it; ``want_dot`` prints the point.

    Compact form when every digit is at most 9 and list_form is False.
    """
    if not list_form:
        compact_head, compact_tail = compact_segments(head), compact_segments(tail)
        if compact_head is not None and compact_tail is not None:
            return compact_head + "." + compact_tail if want_dot else compact_head
    return _join_list_parts(list_segments(head), list_segments(tail), want_dot)


def record_texts(head: tuple, tail: tuple) -> tuple[str, str, str]:
    """The texts (state, left, right) of a final state whose parts are the
    segments ``head`` and ``tail``, as a `final --json` record gives them:
    the state with its radix point, the left part bare ("." when empty) and
    the right part after a point.

    Each part is rendered once.  A digit above 9 puts the state in list
    form, made from one comma list per part (a compact part's is its
    characters joined by commas), while a part without such a digit keeps
    its own compact text; the lone-dot tokens ("14,.", ".,10") depend on
    the part.
    """
    compact_head, compact_tail = compact_segments(head), compact_segments(tail)
    if compact_head is not None and compact_tail is not None:
        return compact_head + "." + compact_tail, compact_head or ".", "." + compact_tail
    if compact_head is None:
        head_list = list_segments(head)
        left = _join_list_parts(head_list, "", False)
    else:
        head_list, left = ",".join(compact_head), compact_head or "."
    if compact_tail is None:
        tail_list = list_segments(tail)
        right = _join_list_parts("", tail_list, True)
    else:
        tail_list, right = ",".join(compact_tail), "." + compact_tail
    return _join_list_parts(head_list, tail_list, True), left, right


def string_to_word(text: str) -> DigitWord:
    """Parse either text form back into a DigitWord.

    Accepts "442.2243", "2100", "0.", ".43", ".", and the list forms
    "4,4,2.2,2,4,3" / "14,3.10,2" / "4,4,2." / "14,.".  One token loop reads
    both: a list form's tokens are its comma-separated pieces, stripped, and
    a compact form's are its characters.  A token is a digit run, and the
    radix dot may glue two of them ("3.10"), hang off one ("2.", ".5") or
    stand alone.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty word text")
    if s.count(".") > 1:
        raise ParseError(f"more than one radix mark in {text!r}")
    if "," in s:
        tokens, what = [tok.strip() for tok in s.split(",")], "bad digit token"
    else:
        tokens, what = s, "bad character"
    int_part: list[int] = []
    frac_part: list[int] = []
    current = int_part
    for tok in tokens:
        head, dot, tail = tok.partition(".")
        # A digit run or the dot, and nothing but ASCII digits beside the dot
        # (str.isdigit alone also takes other scripts' digits and superscripts).
        digits = head + tail
        if not (head or dot) or digits and not (digits.isascii() and digits.isdigit()):
            raise ParseError(f"{what} {tok!r} in {text!r}")
        if head:
            current.append(int(head))
        if dot:
            current = frac_part
        if tail:
            frac_part.append(int(tail))
    if not int_part:
        return DigitWord.fraction(frac_part)
    return DigitWord(tuple(int_part) + tuple(frac_part), -len(frac_part))
