"""Core engine: firing, stabilization, schedules, conservation."""

import re
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from chipfire import (
    LEFTMOST,
    PARALLEL_ROUNDS,
    RIGHTMOST,
    ChipState,
    FiringStrategy,
    GameParams,
    new_state,
    oracle_rows,
    oracle_states,
    settle_right,
    split,
    stabilize,
    stabilize_line,
    state_word,
    word_to_string,
)
from chipfire import engine
from chipfire.engine import _Buffer
from chipfire.errors import InvalidParams, InvariantViolation


def w(state):
    return word_to_string(state_word(state), radix_mark="always")


def test_new_state():
    s = new_state(7, GameParams(1, 2))
    assert s.chips == {0: 7} and s.n == 7
    assert new_state(0, GameParams(2, 3)).chips == {}
    assert new_state(21, GameParams(2, 3)).chips == {0: 21}
    with pytest.raises(InvalidParams):
        new_state(-1, GameParams(1, 2))


def test_params_validation():
    with pytest.raises(InvalidParams):
        GameParams(0, 2)
    with pytest.raises(InvalidParams):
        GameParams(3, 0)
    assert GameParams(2, 3).threshold == 5
    assert GameParams(4, 6).d == 2
    assert not GameParams(4, 6).is_structured()
    assert not GameParams(3, 2).is_structured()
    with pytest.raises(InvalidParams):
        GameParams(3, 2).require_structured()


def test_stabilize_seven_one_two():
    final, log = stabilize(new_state(7, GameParams(1, 2)))
    assert final.chips == {-1: 2, 0: 2, 1: 1, 2: 2}
    assert w(final) == "22.12"
    assert log.fires == {0: 2, 1: 1} and log.total == 3


def test_stabilize_four_one_two():
    final, _ = stabilize(new_state(4, GameParams(1, 2)))
    assert w(final) == "11.2"


def test_stabilize_below_threshold_is_identity():
    s = new_state(2, GameParams(2, 3))
    final, log = stabilize(s)
    assert final == s and log.total == 0


def test_settle_right_transition_examples():
    p = GameParams(2, 3)
    s = ChipState(p, {1: 4 + 3, 2: 1, 3: 3})  # .413 plus b at the origout
    out = settle_right(s)
    assert {v: c for v, c in out.chips.items() if v >= 1} == {1: 2, 2: 4, 3: 3}
    assert out.count(0) == 2  # a chips delivered to the origin

    s = ChipState(p, {1: 3 + 3})
    out = settle_right(s)
    assert {v: c for v, c in out.chips.items() if v >= 1} == {1: 1, 2: 3}
    assert out.count(0) == 2

    s = ChipState(p, {1: 3})
    assert settle_right(s) == s


def test_settle_right_never_fires_origin():
    p = GameParams(1, 2)
    s = ChipState(p, {0: 50, 1: 9})
    out = settle_right(s)
    assert out.count(0) >= 50
    assert all(c < 3 for v, c in out.chips.items() if v >= 1)


def settle_right_reference(state):
    """Fire every firable vertex >= 1 with full multiplicity, on a dict."""
    p = state.params
    T, a, b = p.threshold, p.a, p.b
    chips = dict(state.chips)
    work = [v for v, c in chips.items() if v >= 1 and c >= T]
    while work:
        v = work.pop()
        c = chips.get(v, 0)
        if c < T:
            continue
        fired = c // T
        chips[v] = c - fired * T
        chips[v - 1] = chips.get(v - 1, 0) + a * fired
        chips[v + 1] = chips.get(v + 1, 0) + b * fired
        for u in (v - 1, v + 1):
            if u >= 1 and chips.get(u, 0) >= T:
                work.append(u)
    return ChipState(p, chips)


@given(
    a=st.integers(min_value=1, max_value=5),
    b=st.integers(min_value=1, max_value=6),
    chips=st.dictionaries(
        st.integers(min_value=-4, max_value=9),
        st.integers(min_value=0, max_value=40),
        max_size=8,
    ),
    origin=st.integers(min_value=0, max_value=60),
)
@settings(max_examples=200, deadline=None)
def test_settle_right_matches_dict_reference(a, b, chips, origin):
    """The scan with a frozen left floor equals full-multiplicity settling,
    including when the origin itself holds a firable pile."""
    chips[0] = origin
    s = ChipState(GameParams(a, b), chips)
    assert settle_right(s) == settle_right_reference(s)


@pytest.mark.parametrize("a,b", [(2, 2), (4, 6), (3, 2), (2, 3), (1, 2)])
def test_oracle_states_rows_match_stabilize(a, b):
    p = GameParams(a, b)
    for n, state, log in oracle_states(p, 150):
        assert (state, log) == stabilize(new_state(n, p)), (a, b, n)


@pytest.mark.parametrize("a,b", [(2, 2), (4, 6), (3, 2), (2, 3), (1, 2)])
def test_oracle_rows_match_split_and_log(a, b):
    """Rows read off the buffer equal analysis.split of oracle_states' state,
    part for part, and the log's origin and origout counts."""
    p = GameParams(a, b)
    rows = list(oracle_rows(p, 150))
    assert [row[0] for row in rows] == list(range(151))
    for (n, left, right, f0, f1), (_, state, log) in zip(rows, oracle_states(p, 150)):
        assert (left, right) == split(state), (a, b, n)
        assert (f0, f1) == (log.fires.get(0, 0), log.fires.get(1, 0)), (a, b, n)


def test_buffer_bound_check_is_not_an_assert(monkeypatch):
    p = GameParams(2, 3)
    bb = _Buffer(new_state(9, p))
    bb.lo = 0
    with pytest.raises(InvariantViolation):
        bb.to_state(p)

    real = engine._scan

    def escaping(bb, *args):
        real(bb, *args)
        bb.lo = 0

    monkeypatch.setattr(engine, "_scan", escaping)
    for view in (oracle_rows, oracle_states):
        with pytest.raises(InvariantViolation):
            list(view(p, 9))


ALL_STRATEGIES = [
    LEFTMOST,
    RIGHTMOST,
    PARALLEL_ROUNDS,
    FiringStrategy.random(1),
    FiringStrategy.random(99),
]


@pytest.mark.parametrize("a,b", [(1, 2), (2, 3), (3, 4), (3, 5)])
def test_confluence_small(a, b):
    p = GameParams(a, b)
    for n in range(0, 80):
        base_state, base_log = stabilize(new_state(n, p), LEFTMOST)
        for strat in ALL_STRATEGIES[1:]:
            s, log = stabilize(new_state(n, p), strat)
            assert s == base_state, f"{strat} final state differs at n={n}"
            assert log == base_log, f"{strat} firing counts differ at n={n}"


def test_random_strategy_reproducible():
    p = GameParams(2, 3)
    runs = [stabilize(new_state(40, p), FiringStrategy.random(7)) for _ in range(2)]
    assert runs[0] == runs[1]


def test_strategy_validation():
    with pytest.raises(InvalidParams):
        FiringStrategy("sideways")
    with pytest.raises(InvalidParams):
        FiringStrategy("random")
    with pytest.raises(InvalidParams):
        FiringStrategy("leftmost", seed=3)
    with pytest.raises(InvalidParams):
        FiringStrategy.random(2**64)


def test_checked_stabilize_runs_clean():
    p = GameParams(2, 3)
    final, log = stabilize(new_state(100, p), check_every=1)
    fresh, _ = stabilize(new_state(100, p))
    assert final == fresh and log.total > 0


@pytest.mark.parametrize("every", [1, 7, 256])
@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.kind)
def test_checker_cadence(strategy, every, monkeypatch):
    # One check on the initial state, one after every `every`-th firing and
    # one on the final state, for every schedule.
    calls = []
    check = engine._Checker.check

    def counting_check(self, bb):
        calls.append(sum(bb.fcount))
        check(self, bb)

    monkeypatch.setattr(engine._Checker, "check", counting_check)
    for a, b, n in [(2, 3, 300), (1, 2, 150), (3, 3, 200)]:
        calls.clear()
        final, log = stabilize(new_state(n, GameParams(a, b)), strategy, check_every=every)
        assert log.total >= 256
        assert len(calls) == 2 + log.total // every
        assert calls[1:-1] == [every * k for k in range(1, log.total // every + 1)]
        assert (final, log) == stabilize(new_state(n, GameParams(a, b)), strategy)


@pytest.mark.parametrize("a,b", [(2, 3), (4, 6), (3, 3)])
def test_checker_catches_a_corrupted_buffer(a, b):
    """A buffer that lost a chip fails the chip total.  One whose leftmost
    chip moved a vertex to the right keeps the total and fails the state
    polynomial at b/a, except for a = b: there b/a is one and the polynomial
    is the total again, so only the lost chip can be caught."""
    n = 60
    p = GameParams(a, b)
    final, _ = stabilize(new_state(n, p))
    checker = engine._Checker(p, n, 1)
    checker.check(_Buffer(final))

    lost = _Buffer(final)
    lost.buf[lost.lo] -= 1
    with pytest.raises(InvariantViolation, match=f"^chip total {n - 1} != n {n} after 0 firings$"):
        checker.check(lost)

    moved = _Buffer(final)
    assert moved.hi > moved.lo
    moved.buf[moved.lo] -= 1
    moved.buf[moved.lo + 1] += 1
    if a == b:
        checker.check(moved)
    else:
        with pytest.raises(InvariantViolation,
                           match=f"^state polynomial at b/a deviates from n={n} after 0 firings$"):
            checker.check(moved)


@given(
    n=st.integers(min_value=0, max_value=120),
    a=st.integers(min_value=1, max_value=5),
    b=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
@settings(max_examples=60, deadline=None)
def test_conservation_and_finality(n, a, b, seed):
    p = GameParams(a, b)
    final, log = stabilize(new_state(n, p), FiringStrategy.random(seed))
    assert final.n == n
    assert sum(final.chips.values()) == n
    assert all(c < a + b for c in final.chips.values())
    support = final.support()
    assert not support or (-n <= support[0] and support[-1] <= n)
    assert log.total == sum(log.fires.values())


def test_stabilize_arbitrary_start_state():
    p = GameParams(2, 3)
    s = ChipState(p, {-3: 11, 0: 6, 4: 25})
    outs = {
        word_to_string(state_word(stabilize(s, strat)[0]), radix_mark="always")
        for strat in ALL_STRATEGIES
    }
    assert len(outs) == 1


# Every pair with a, b in 1..12, by dispatch branch.
_LINE_PAIRS = [(a, b) for a in range(1, 13) for b in range(1, 13)]
_LINE_BRANCHES = [
    [(a, b) for a, b in _LINE_PAIRS if a == b],
    [(a, b) for a, b in _LINE_PAIRS if a != b and gcd(a, b) > 1],
    [(a, b) for a, b in _LINE_PAIRS if a > b and gcd(a, b) == 1],
    [(a, b) for a, b in _LINE_PAIRS if a < b and gcd(a, b) == 1],
]


@st.composite
def _line_games(draw):
    """A pair from a uniformly drawn branch, and n in 0..1500.  For a = b
    the game of n chips fires as often as the (1, 1) game of floor(n/a)
    chips, and the leftmost reference takes about a second at n = 300a
    (100 s for (1, 1) at n = 1500), so n stops there."""
    a, b = draw(st.sampled_from(_LINE_BRANCHES).flatmap(st.sampled_from))
    return a, b, draw(st.integers(0, min(1500, 300 * a) if a == b else 1500))


@settings(max_examples=100, deadline=None)
@given(game=_line_games())
# Below, at and just past the threshold T, on the a = b, mirror and coprime
# a < b branches.
@example(game=(2, 3, 4))
@example(game=(2, 3, 5))
@example(game=(2, 3, 6))
@example(game=(3, 2, 4))
@example(game=(3, 2, 5))
@example(game=(3, 2, 6))
@example(game=(1, 1, 1))
@example(game=(1, 1, 2))
@example(game=(1, 1, 3))
# The line kernel keeps the even and the odd cells in two halves, fires one
# half a round, the origin's in round 0, and recomputes its firable hull
# every 32 rounds.  Cell i holds vertex i - n - 1, so the origin lies in the
# first half for odd n and in the second for even n, and round r fires the
# vertices of the parity of r.  (2, 3) stops at n = 24 halfway through its
# first batch (16 rounds), on vertex 5 (odd); at n = 77 five rounds into its
# fourth batch (101 rounds), on vertex 24 (even); at n = 86 and 103 on the
# last round of a batch (128 and 160 rounds), on vertices 31 and 37 (odd);
# and at n = 99 and 300 one round after a recomputation (161 and 609
# rounds), on vertices 38 and 134 (even).  (1, 2) and (2, 1) skip the
# product by their factor of one: at n = 56 and 57 they stop on the last
# round of a batch (128 rounds), on vertex 47 or -47 (odd), and at n = 58
# and 59 one round after a recomputation (129 rounds), on vertex 48 or -48
# (even).
@example(game=(2, 3, 24))
@example(game=(2, 3, 77))
@example(game=(2, 3, 86))
@example(game=(2, 3, 99))
@example(game=(2, 3, 103))
@example(game=(2, 3, 300))
@example(game=(1, 2, 56))
@example(game=(1, 2, 59))
@example(game=(2, 1, 57))
@example(game=(2, 1, 58))
@example(game=(2, 3, 0))
@example(game=(2, 3, 1234))
def test_stabilize_line_matches_engine(game):
    a, b, n = game
    p = GameParams(a, b)
    assert stabilize_line(n, p) == stabilize(new_state(n, p)), game


def test_stabilize_line_other_params():
    for a, b in [(1, 2), (3, 4), (5, 7), (2, 2), (4, 6)]:
        p = GameParams(a, b)
        assert stabilize_line(500, p) == stabilize(new_state(500, p)), (a, b)


@pytest.mark.parametrize("extra, message", [
    (1, "line stabilizer lost chips or stopped early at n=9"),
    (5, "support escaped the [-n-1, n+1] window"),
], ids=["extra-chip", "escaped-pile"])
def test_line_kernel_checks_catch_a_corrupted_buffer(extra, message, monkeypatch):
    """The line kernel's first cell holds vertex -n-1, outside the vertices
    -n..n it fires.  One extra chip there is never fired and ends in the
    final state; a pile of T = 5 there is firable, and the hull recomputation
    after the first batch, which scans one cell past the clamp, finds it."""
    real = engine._cells

    def seeded(*args):
        chips, fires = real(*args)
        chips[0] += extra
        return chips, fires

    monkeypatch.setattr(engine, "_cells", seeded)
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        stabilize_line(9, GameParams(2, 3))


# One pair per dispatch branch (a = b, gcd > 1, mirror, coprime a < b), as in
# test_cli.
BRANCH_PAIRS = [(2, 2), (3, 3), (4, 6), (2, 4), (3, 2), (5, 3), (1, 2), (2, 3), (5, 7)]


@pytest.mark.parametrize("a,b", BRANCH_PAIRS)
def test_oracle_views_match_stabilize_across_buffer_growth(a, b):
    """The incremental buffer starts small and doubles when n outgrows it;
    rows and states on both sides of every re-allocation equal a fresh
    stabilization."""
    p = GameParams(a, b)
    first = engine._FIRST_CAPACITY
    n_max = 4 * first + 3                  # grows at first+1, 2*first+1, 4*first+1
    near = {n for cap in (first, 2 * first, 4 * first) for n in range(cap - 2, cap + 4)}
    near |= {0, 1, n_max}
    for (n, left, right, f0, f1), (_, state, log) in zip(oracle_rows(p, n_max),
                                                          oracle_states(p, n_max)):
        if n not in near:
            continue
        want_state, want_log = stabilize(new_state(n, p))
        assert (state, log) == (want_state, want_log), (a, b, n)
        assert (left, right) == split(want_state), (a, b, n)
        assert (f0, f1) == (want_log.fires.get(0, 0), want_log.fires.get(1, 0)), (a, b, n)
