"""State polynomial, side values, and the weighted firing count."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from chipfire import (
    ChipState,
    DigitWord,
    FiringStrategy,
    GameParams,
    combine,
    firings_from_M,
    new_state,
    oracle_states,
    side_values,
    split,
    stabilize,
    state_poly_eval,
    state_word,
    weighted_sum,
    word_to_string,
)
from chipfire.errors import DivisionByZero, EqualRates, InconsistentLog, NotDivisible


def test_state_poly_invariant_values():
    p = GameParams(1, 2)
    final, _ = stabilize(new_state(7, p))
    assert state_poly_eval(final, 1) == 7
    assert state_poly_eval(final, Fraction(2, 1)) == 7
    init = new_state(5, p)
    for t in (1, 2, Fraction(3, 2), Fraction(5)):
        assert state_poly_eval(init, t) == 5


def test_state_poly_division_by_zero():
    p = GameParams(1, 2)
    with pytest.raises(DivisionByZero):
        state_poly_eval(ChipState(p, {1: 2}), 0)
    assert state_poly_eval(ChipState(p, {-2: 1, 0: 2}), 0) == 2


def test_split_examples():
    p = GameParams(2, 3)
    final, _ = stabilize(new_state(21, p))
    assert split(final) == ((4, 4, 2), (2, 2, 4, 3))
    assert combine((4, 4, 2), (2, 2, 4, 3), p) == final
    assert state_word(final) == DigitWord((4, 4, 2, 2, 2, 4, 3), -4)

    assert split(new_state(9, p)) == ((9,), ())

    final7, _ = stabilize(new_state(7, GameParams(1, 2)))
    assert split(final7) == ((2, 2), (1, 2))


# Supports anywhere on the line: empty, left of the origin only, right of it
# only, and with gaps (zero digits) between occupied vertices.
@given(chips=st.dictionaries(st.integers(min_value=-12, max_value=12),
                             st.integers(min_value=1, max_value=30), max_size=8),
       pair=st.sampled_from([(1, 2), (2, 3), (3, 2), (2, 2)]))
@example(chips={}, pair=(2, 3))
@example(chips={-3: 2, -1: 1}, pair=(2, 3))
@example(chips={2: 5}, pair=(2, 3))
@example(chips={-5: 1, 4: 2}, pair=(1, 2))
@settings(max_examples=300, deadline=None)
def test_split_combine_round_trip(chips, pair):
    """split gives the digits of vertices lo..0, ending with the origin digit,
    and of 1..hi, () when nothing sits right of the origin; combine inverts
    it, also from an empty left part when nothing sits at or left of the
    origin."""
    p = GameParams(*pair)
    state = ChipState(p, chips)
    left, right = split(state)
    lo, hi = min(min(chips, default=0), 0), max(max(chips, default=0), 0)
    assert len(left) == 1 - lo and len(right) == hi
    assert left[-1] == state.count(0)
    assert left + right == tuple(state.count(v) for v in range(lo, hi + 1))
    assert combine(left, right, p) == state
    if lo == 0 and 0 not in chips:
        assert combine((), right, p) == state
    assert state_word(state) == DigitWord(left + right, -hi)


def _side_values(state, log):
    """side_values of a state split at the origin, with the log's origin and
    origout counts."""
    f0, f1 = log.fires.get(0, 0), log.fires.get(1, 0)
    return side_values(*split(state), f0, f1, state.params)


def test_side_values_seven_one_two():
    p = GameParams(1, 2)
    final, log = stabilize(new_state(7, p))
    left, right = split(final)
    left_value, right_value = _side_values(final, log)
    assert sum(right) == 3 and right_value == 1
    assert log.fires.get(0, 0) == 2 and log.fires.get(1, 0) == 1
    assert sum(left) + sum(right) == 7
    assert left_value + right_value == 7


def test_side_values_seventeen_two_three():
    p = GameParams(2, 3)
    final, log = stabilize(new_state(17, p))
    _, right = split(final)
    _, right_value = _side_values(final, log)
    assert sum(right) == 8 and right_value == 4
    assert log.fires.get(0, 0) == 4 and log.fires.get(1, 0) == 2


def test_side_values_below_threshold():
    p = GameParams(2, 3)
    final, log = stabilize(new_state(4, p))
    left, right = split(final)
    _side_values(final, log)
    assert log.fires.get(0, 0) == log.fires.get(1, 0) == 0
    assert sum(right) == 0 and sum(left) == 4


def test_side_values_rejects_wrong_log():
    p = GameParams(1, 2)
    final, log = stabilize(new_state(7, p))
    bad = type(log)({**log.fires, 0: 5})
    with pytest.raises(InconsistentLog):
        _side_values(final, bad)


def test_weighted_sum_and_firing_count():
    p = GameParams(1, 2)
    final, log = stabilize(new_state(7, p))
    assert weighted_sum(final) == 3
    assert firings_from_M(final) == 3 == log.total

    assert weighted_sum(new_state(40, p)) == 0

    p23 = GameParams(2, 3)
    final17, log17 = stabilize(new_state(17, p23))
    assert firings_from_M(final17) == log17.total


def test_firings_from_M_errors():
    with pytest.raises(EqualRates):
        firings_from_M(new_state(5, GameParams(2, 2)))
    p = GameParams(1, 3)
    with pytest.raises(NotDivisible):
        firings_from_M(ChipState(p, {1: 1}))


def test_firings_from_M_mirrored_params():
    p = GameParams(3, 2)
    final, log = stabilize(new_state(40, p))
    assert firings_from_M(final) == log.total


@given(
    n=st.integers(min_value=0, max_value=150),
    pair=st.sampled_from([(1, 2), (2, 3), (3, 4), (2, 5), (3, 5), (4, 5)]),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=40, deadline=None)
def test_side_values_hold_for_random_runs(n, pair, seed):
    p = GameParams(*pair)
    final, log = stabilize(new_state(n, p), FiringStrategy.random(seed))
    values = _side_values(final, log)  # raises InconsistentLog on any violation
    assert all(type(value) is int for value in values)
    assert firings_from_M(final) == log.total


def test_monotone_firing_counts_in_n():
    p = GameParams(2, 3)
    prev_f0 = prev_f1 = 0
    for n, _, log in oracle_states(p, 200):
        f0, f1 = log.fires.get(0, 0), log.fires.get(1, 0)
        assert f0 >= prev_f0 and f1 >= prev_f1
        prev_f0, prev_f1 = f0, f1


def test_state_word_padding():
    p = GameParams(1, 2)
    assert word_to_string(state_word(new_state(0, p)), radix_mark="always") == "0."
    s = ChipState(p, {2: 2})
    assert word_to_string(state_word(s), radix_mark="always") == "0.02"
    s = ChipState(p, {-2: 1})
    assert word_to_string(state_word(s), radix_mark="always") == "100."
