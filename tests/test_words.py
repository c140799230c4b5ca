"""Digit words: base-b/a conversion, exact evaluation, text round trips."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from chipfire import (
    EMPTY_WORD,
    DigitWord,
    GameParams,
    eval_base,
    final_state,
    string_to_word,
    to_base,
    word_to_string,
)
from chipfire.analysis import segments_weighted_sum
from chipfire.errors import InvalidBase, ParseError
from chipfire.words import (
    compact_segments,
    digits_to_string,
    list_segments,
    segment_digits,
    segment_length,
)

P23 = GameParams(2, 3)

A024629_PREFIX = ["0", "1", "2", "20", "21", "22", "210", "211", "212", "2100"]


def test_base_three_halves_sequence():
    got = [word_to_string(to_base(n, P23)) for n in range(10)]
    assert got == A024629_PREFIX


def test_to_base_five_is_22():
    assert to_base(5, P23).digits == (2, 2)


def test_to_base_digit_bound():
    for a, b in [(1, 2), (2, 3), (3, 4), (4, 7), (5, 7), (6, 7)]:
        p = GameParams(a, b)
        for n in range(0, 400):
            assert all(0 <= d < b for d in to_base(n, p).digits)


def test_to_base_rejects_bad_base():
    with pytest.raises(InvalidBase):
        to_base(5, GameParams(3, 2))
    with pytest.raises(InvalidBase):
        to_base(5, GameParams(2, 4))
    with pytest.raises(InvalidBase):
        to_base(5, GameParams(2, 2))


def test_eval_base_fig2_and_identity():
    assert eval_base(DigitWord((2, 2), 0), P23) == 5
    for d in range(9):
        assert eval_base(DigitWord((d,), 0), P23) == d
    # right part .43: 4*(2/3) + 3*(4/9) = 4
    assert eval_base(DigitWord.fraction((4, 3)), P23) == 4


def test_eval_base_fractional_positions():
    p12 = GameParams(1, 2)
    assert eval_base(DigitWord.fraction((1, 2)), p12) == 1
    assert eval_base(EMPTY_WORD, p12) == 0
    assert eval_base(DigitWord((2, 2, 1, 2), -2), p12) == Fraction(7)


@pytest.mark.parametrize("a,b", [(1, 2), (2, 3), (3, 4), (2, 5), (3, 5),
                                 (4, 5), (5, 6), (1, 7), (3, 7), (5, 7), (6, 7)])
def test_round_trip(a, b):
    p = GameParams(a, b)
    for n in range(0, 1200):
        assert eval_base(to_base(n, p), p) == n


@given(
    n=st.integers(min_value=0, max_value=10**6),
    pair=st.sampled_from([(1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (5, 6), (5, 7)]),
)
@settings(max_examples=120, deadline=None)
def test_round_trip_property(n, pair):
    p = GameParams(*pair)
    assert eval_base(to_base(n, p), p) == n


# --- text formats -----------------------------------------------------------


def test_state_string_examples():
    w = string_to_word("442.2243")
    assert w.integer_digits() == (4, 4, 2)
    assert w.fraction_digits() == (2, 2, 4, 3)
    assert word_to_string(w) == "442.2243"


def test_zero_state_string():
    w = string_to_word("0.")
    assert w == DigitWord((0,), 0)
    assert word_to_string(w, radix_mark="always") == "0."


def test_list_form_round_trip():
    w = string_to_word("4,4,2.2,2,4,3")
    assert w == string_to_word("442.2243")
    assert word_to_string(w, list_form=True) == "4,4,2.2,2,4,3"


def test_list_form_big_digits():
    w = string_to_word("14,3.10,2")
    assert w.digits == (14, 3, 10, 2) and w.radix == -2
    assert word_to_string(w) == "14,3.10,2"


@pytest.mark.parametrize("digits, text", [
    ((), ""), ((4, 3), "43"), ((10,), "10"), ((14, 3, 10), "14,3,10"), ((300, 0), "300,0"),
])
def test_digits_to_string_has_no_radix_mark(digits, text):
    """A part's digits alone: compact when each is at most 9, else joined by
    commas, with no lone-dot token even for a single digit above 9."""
    assert digits_to_string(digits) == text


def test_pure_fraction_and_empty():
    assert string_to_word(".") == EMPTY_WORD
    assert word_to_string(EMPTY_WORD) == "."
    w = string_to_word(".43")
    assert w == DigitWord.fraction((4, 3))
    assert word_to_string(w) == ".43"


# Each refused text and the message that names what is wrong with it.
PARSE_ERRORS = [
    ("", "empty word text"),
    ("1..2", "more than one radix mark in '1..2'"),
    # Compact text names the bad character.  ASCII digits only: "\u00b2" is
    # a superscript two and "\u0663" an Arabic-Indic three, both of which
    # str.isdigit accepts.
    ("1a2", "bad character 'a' in '1a2'"),
    ("-3", "bad character '-' in '-3'"),
    ("\u00b2", "bad character '\u00b2' in '\u00b2'"),
    ("1.\u00b2", "bad character '\u00b2' in '1.\u00b2'"),
    ("\u06632", "bad character '\u0663' in '\u06632'"),
    # List text names the bad comma-separated token, stripped.
    ("4,,2", "bad digit token '' in '4,,2'"),
    ("4,.2,", "bad digit token '' in '4,.2,'"),
    ("1,\u00b2", "bad digit token '\u00b2' in '1,\u00b2'"),
    ("1,\u06632", "bad digit token '\u06632' in '1,\u06632'"),
    (" 4 , 2 .", "bad digit token '2 .' in ' 4 , 2 .'"),
]


def test_parse_errors():
    for bad, message in PARSE_ERRORS:
        with pytest.raises(ParseError) as err:
            string_to_word(bad)
        assert str(err.value) == message


@pytest.mark.parametrize("text,digits,radix", [
    ("14,.", (14,), 0),          # a lone-dot token after the head
    (".,10", (10,), -1),         # and before the tail
    ("3.10", (3, 1, 0), -2),     # compact: every character is one digit
    (".5", (5,), -1),
    ("2.", (2,), 0),
    ("4, 4 ,2.1", (4, 4, 2, 1), -1),
])
def test_parse_accepted_forms(text, digits, radix):
    assert string_to_word(text) == DigitWord(digits, radix)


def test_numeral_has_no_dot_state_does():
    w = string_to_word("2100")
    assert word_to_string(w) == "2100"
    assert word_to_string(w, radix_mark="always") == "2100."


@given(
    ints=st.lists(st.integers(min_value=0, max_value=12), min_size=0, max_size=6),
    fracs=st.lists(st.integers(min_value=0, max_value=12), min_size=0, max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_string_round_trip_property(ints, fracs):
    if not ints and not fracs:
        w = EMPTY_WORD
    elif not ints:
        w = DigitWord.fraction(tuple(fracs))
    else:
        w = DigitWord(tuple(ints) + tuple(fracs), -len(fracs))
    for list_form in (None, True):
        assert string_to_word(word_to_string(w, list_form=list_form)) == w


# --- reference implementations kept from the earlier code -------------------


def _eval_base_power_sum(w, params):
    """The earlier eval_base: b**(k-1-i) * a**i recomputed for every digit."""
    if w.is_empty():
        return Fraction(0)
    a, b = params.a, params.b
    num = 0
    k = len(w.digits)
    for i, d in enumerate(w.digits):
        num += d * b ** (k - 1 - i) * a**i
    val = Fraction(num)
    if w.radix >= 0:
        val *= b**w.radix
    else:
        val /= b ** (-w.radix)
    if w.hi >= 0:
        val /= a**w.hi
    else:
        val *= a ** (-w.hi)
    return val


def _eval_base_horner(w, params):
    """The earlier eval_base: one Horner pass over every digit, quadratic in
    the word length because its integer grows with each digit."""
    if w.is_empty():
        return Fraction(0)
    a, b = params.a, params.b
    num = 0
    apow = 1
    for d in w.digits:
        num = num * b + d * apow
        apow *= a
    val = Fraction(num)
    if w.radix >= 0:
        val *= b**w.radix
    else:
        val /= b ** (-w.radix)
    if w.hi >= 0:
        val /= a**w.hi
    else:
        val *= a ** (-w.hi)
    return val


def _word_to_string_three_pass(w, *, list_form=None, radix_mark="auto"):
    """The earlier word_to_string: a digit scan, part copies, str per digit."""
    if list_form is None:
        list_form = any(d > 9 for d in w.digits)
    int_part = list(w.integer_digits()) if not w.is_empty() else []
    frac_part = list(w.fraction_digits())
    want_dot = bool(frac_part) or radix_mark == "always" or not int_part
    if not list_form:
        head = "".join(str(d) for d in int_part)
        tail = "".join(str(d) for d in frac_part)
        return head + "." + tail if want_dot else head
    head = ",".join(str(d) for d in int_part)
    tail = ",".join(str(d) for d in frac_part)
    out = head + "." + tail if want_dot else head
    if "," not in out:
        tokens = [str(d) for d in int_part] + ["."] + [str(d) for d in frac_part]
        out = ",".join(tokens)
    return out


def _word_to_string_map_str(w, *, list_form=None, radix_mark="auto"):
    """The earlier word_to_string: every digit made a str, then joined."""
    head = list(map(str, w.integer_digits()))
    tail = list(map(str, w.fraction_digits()))
    want_dot = bool(tail) or radix_mark == "always" or not head
    if not list_form:
        compact_head, compact_tail = "".join(head), "".join(tail)
        if len(compact_head) + len(compact_tail) == len(head) + len(tail):
            return compact_head + "." + compact_tail if want_dot else compact_head
    out = ",".join(head) + "." + ",".join(tail) if want_dot else ",".join(head)
    if "," not in out:
        out = ",".join(head + ["."] + tail)
    return out


# Words anywhere on the line: radix above, at and below zero, hi below zero
# (a gap of zeros after the radix point), the empty word, digits above 9.
words_anywhere = st.one_of(
    st.just(EMPTY_WORD),
    st.builds(
        DigitWord,
        st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=30).map(tuple),
        st.integers(min_value=-40, max_value=12),
    ),
)


@given(
    w=words_anywhere,
    pair=st.sampled_from([(1, 2), (2, 3), (3, 4), (5, 7), (3, 2), (4, 6), (2, 2)]),
)
@settings(max_examples=300, deadline=None)
def test_eval_base_matches_power_sum(w, pair):
    p = GameParams(*pair)
    assert eval_base(w, p) == _eval_base_power_sum(w, p)


def test_eval_base_matches_power_sum_on_long_words():
    p = GameParams(2, 3)
    for n in (10**3, 10**5):
        w = to_base(n, p)
        assert eval_base(w, p) == _eval_base_power_sum(w, p) == n
    w = DigitWord((4, 3) * 200, -390)
    assert eval_base(w, p) == _eval_base_power_sum(w, p)


# Up to about 300 digits, so that words fall on both sides of the product
# tree's 64-digit leaves and split into several levels.
long_words_anywhere = st.one_of(
    st.just(EMPTY_WORD),
    st.builds(
        DigitWord,
        st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=300).map(tuple),
        st.integers(min_value=-320, max_value=12),
    ),
)


@given(
    w=long_words_anywhere,
    pair=st.sampled_from([(1, 2), (2, 3), (3, 4), (5, 7), (3, 2), (4, 6), (2, 2), (1, 1)]),
)
@settings(max_examples=300, deadline=None)
def test_eval_base_matches_horner(w, pair):
    p = GameParams(*pair)
    assert eval_base(w, p) == _eval_base_horner(w, p)


def test_eval_base_matches_horner_at_leaf_boundaries():
    # Lengths on both sides of one and two 64-digit leaves, with hi above,
    # at and below zero.
    for k in (1, 63, 64, 65, 128, 129, 300):
        digits = tuple((7 * i + 3) % 41 for i in range(k))
        for hi in (5, 0, -1, -3):
            w = DigitWord(digits, hi - k + 1)
            for pair in [(2, 3), (3, 2), (5, 7)]:
                p = GameParams(*pair)
                assert eval_base(w, p) == _eval_base_horner(w, p)


def test_eval_base_of_long_final_states_is_n():
    for n, pair, length in [(10**5, (2, 3), 49988), (3 * 10**4, (1, 2), 29993)]:
        p = GameParams(*pair)
        w = final_state(n, p)
        assert len(w.digits) == length
        assert eval_base(w, p) == n == _eval_base_horner(w, p)


@given(
    w=words_anywhere,
    list_form=st.sampled_from([None, True]),
    radix_mark=st.sampled_from(["auto", "always"]),
)
@settings(max_examples=300, deadline=None)
def test_word_to_string_matches_three_pass_reference(w, list_form, radix_mark):
    expected = _word_to_string_three_pass(w, list_form=list_form, radix_mark=radix_mark)
    assert word_to_string(w, list_form=list_form, radix_mark=radix_mark) == expected


@pytest.mark.parametrize("digits", [(-1, 2, 3), (2, -1, 3), (2, 3, -1), (-5,)])
def test_negative_digit_rejected_in_any_position(digits):
    with pytest.raises(ValueError, match="non-negative"):
        DigitWord(digits, -1)


def test_empty_and_zero_words_build():
    assert DigitWord((), 0) == EMPTY_WORD and EMPTY_WORD.is_empty()
    assert DigitWord((0, 0, 0), -2).digits == (0, 0, 0)


RENDER_OPTIONS = [(list_form, radix_mark) for list_form in (None, True)
                  for radix_mark in ("auto", "always")]

# Words as in words_anywhere, with digits on both sides of the 9/10 boundary
# between the compact and the list form, digits 48..57 (the bytes of the
# characters '0'..'9'), the rest of the byte range, and digits past it.
render_words = st.one_of(
    st.just(EMPTY_WORD),
    st.builds(
        DigitWord,
        st.lists(st.one_of(st.integers(min_value=0, max_value=40), st.sampled_from([9, 10]),
                           st.integers(min_value=48, max_value=57),
                           st.integers(min_value=10, max_value=255),
                           st.integers(min_value=256, max_value=5000)),
                 min_size=1, max_size=30).map(tuple),
        st.integers(min_value=-40, max_value=12),
    ),
)


@given(w=render_words)
@example(w=EMPTY_WORD)
@example(w=DigitWord((9, 9), 0))
@example(w=DigitWord((10,), 2))
@example(w=DigitWord((10,), -3))
@example(w=DigitWord((9, 10), -1))
@example(w=DigitWord((300, 9, 256, 0, 1000), -3))
@example(w=DigitWord((48,), 0))
@example(w=DigitWord((1, 57), -1))
@example(w=DigitWord((10, 255), 1))
@example(w=DigitWord((3, 256), -2))
@settings(max_examples=300, deadline=None)
def test_word_to_string_matches_map_str_reference(w):
    """Rendering by byte translation equals the per-digit str rendering, for
    every list_form and radix_mark, with an empty head, tail or both."""
    for list_form, radix_mark in RENDER_OPTIONS:
        want = _word_to_string_map_str(w, list_form=list_form, radix_mark=radix_mark)
        got = word_to_string(w, list_form=list_form, radix_mark=radix_mark)
        assert got == want, (w, list_form, radix_mark)


@given(w=words_anywhere, pair=st.sampled_from([(1, 1), (1, 2), (2, 3), (3, 2), (5, 7)]),
       d=st.integers(min_value=2, max_value=6))
@example(w=EMPTY_WORD, pair=(2, 3), d=2)
@example(w=DigitWord((3, 1, 4), 2), pair=(1, 1), d=3)
@example(w=DigitWord((3, 1, 4), -2), pair=(1, 1), d=2)
@example(w=DigitWord((3, 1, 4), -2), pair=(2, 3), d=4)
@example(w=DigitWord((3, 1, 4), 2), pair=(3, 2), d=5)
@settings(max_examples=300, deadline=None)
def test_eval_base_depends_only_on_the_reduced_base(w, pair, d):
    """(db/da)^p = (b/a)^p: a pair and its multiples give the same value,
    and a = b gives the digit sum."""
    a, b = pair
    value = eval_base(w, GameParams(a, b))
    assert eval_base(w, GameParams(d * a, d * b)) == value
    if a == b:
        assert value == sum(w.digits)


segment_lists = st.lists(
    st.tuples(st.lists(st.integers(min_value=0, max_value=12), max_size=5).map(tuple),
              st.integers(min_value=1, max_value=6)),
    max_size=4,
).map(tuple)


@given(segments=segment_lists, split=st.integers(min_value=0, max_value=4))
@example(segments=(((10,), 2),), split=0)
@example(segments=(((9,), 3), ((1, 2), 1)), split=1)
@example(segments=(((1, 2, 3), 4), ((256, 7), 1)), split=1)
@example(segments=(((4, 0, 5), 3), ((2,), 2), ((7, 1), 5)), split=2)
@example(segments=(), split=0)
@settings(max_examples=200, deadline=None)
def test_segments_match_their_digits(segments, split):
    """Length, digits, list text and compact text of a segment
    sequence agree with the expanded digit tuple, blocks of several digits
    repeated included; a digit above 9 has no compact text.  Split into a head and a tail, the
    segments have the weighted sum of their digits at vertices lo..hi."""
    digits = tuple(d for block, count in segments for d in block * count)
    assert segment_digits(segments) == digits
    assert segment_length(segments) == len(digits)
    assert list_segments(segments) == ",".join(map(str, digits))
    expected = "".join(map(str, digits)) if all(d <= 9 for d in digits) else None
    assert compact_segments(segments) == expected
    head, tail = segments[:split], segments[split:]
    lo = 1 - segment_length(head)
    assert segments_weighted_sum(head, tail) == sum(
        v * d for v, d in enumerate(digits, start=lo))
