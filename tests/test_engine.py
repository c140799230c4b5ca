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
# The line kernel fires the cells of one parity a round, the origin's in
# round 0, so round r fires the vertices of the parity of r.  From the first
# round whose parity fires no cell more than once it walks the edges of the
# firing run to the end.  Cell i holds vertex i - n - 1, so the origin sits
# in cell n + 1, which is an even cell for odd n and an odd cell
# for even n.  (2, 3) at n = 24 is walked from round 4 and stops in round 15
# on vertex 5 (odd).  At n = 77, 86, 99 and 103 it is walked from rounds 39,
# 48, 59 and 67; the last firing is in round 100 on vertex 24 (even), 127 on
# 31 (odd), 160 on 38 (even) and 159 on 37 (odd).  At n = 300 the walk
# starts in round 271 and ends on vertex 134 (even) in round 608, at n = 1234
# it starts in round 1347.  (1, 2) and (2, 1), with a factor of one, are
# walked from round 51 to 57 and end in round 127 on vertex 47 or -47 (odd)
# at n = 56 and 57, in round 128 on 48 or -48 (even) at n = 58 and 59.
# (2, 3) at n = 70, (4, 6) at 140 and (5, 6) at 189 are walked from round
# 32, where a cell inside the run (vertex 7, 7 and 5) fired twice in round
# 31.  (1, 3) and (3, 1) at n = 84 are walked from round 64, where the run
# holds two cells, vertices 35 and 36 or -35 and -36, the first of them fired
# twice in round 63, and the game ends with the second's firing in round 64.
# (1, 1) at n = 300 is walked from round 3493 of 13523, 74% of its rounds.
# (7, 2) at n = 600 is walked from round 202 and stops in round 205.
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
@example(game=(2, 3, 70))
@example(game=(4, 6, 140))
@example(game=(5, 6, 189))
@example(game=(1, 3, 84))
@example(game=(3, 1, 84))
@example(game=(1, 1, 300))
@example(game=(7, 2, 600))
def test_stabilize_line_matches_engine(game):
    a, b, n = game
    p = GameParams(a, b)
    assert stabilize_line(n, p) == stabilize(new_state(n, p)), game


def test_stabilize_line_other_params():
    for a, b in [(1, 2), (3, 4), (5, 7), (2, 2), (4, 6)]:
        p = GameParams(a, b)
        assert stabilize_line(500, p) == stabilize(new_state(500, p)), (a, b)


@pytest.mark.parametrize("n, extra, message", [
    pytest.param(9, 1, "line stabilizer lost chips or stopped early at n=9", id="extra-chip"),
    pytest.param(9, 5, "support escaped the [-n-1, n+1] window", id="escaped-pile"),
    pytest.param(800, 1, "line stabilizer lost chips or stopped early at n=800",
                 id="extra-chip-walked"),
    pytest.param(800, 5, "line stabilizer lost chips or stopped early at n=800",
                 id="far-pile-walked"),
])
def test_line_kernel_checks_catch_a_corrupted_buffer(n, extra, message, monkeypatch):
    """The line kernel's first cell holds vertex -n-1, outside the vertices
    -n..n it fires.  One extra chip there is never fired and ends in the
    final state.  At n = 9 a pile of T = 5 there is firable: the first
    window holds the whole buffer, so the pile is an edge lane of it, the
    first round fires that lane and ends the epoch, and the escape check
    raises.  At n = 800 the game is walked from round 836 and never comes
    near vertex -801, so the pile, like the extra chip, ends in the final
    state; the walk updates only cells beside its run and reads no cell past
    the buffer."""
    real = engine._cells

    def seeded(*args):
        chips, fires = real(*args)
        chips[0] += extra
        return chips, fires

    monkeypatch.setattr(engine, "_cells", seeded)
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        stabilize_line(n, GameParams(2, 3))


@pytest.mark.parametrize("n, extra, message", [
    pytest.param(9, 1, "line stabilizer lost chips or stopped early at n=9", id="extra-chip"),
    pytest.param(9, 5, "support escaped the [-n-1, n+1] window", id="escaped-pile"),
    pytest.param(800, 1, "line stabilizer lost chips or stopped early at n=800",
                 id="extra-chip-walked"),
    pytest.param(800, 5, "line stabilizer lost chips or stopped early at n=800",
                 id="far-pile-walked"),
])
def test_line_kernel_checks_catch_a_corrupted_right_edge(n, extra, message, monkeypatch):
    """The mirror of test_line_kernel_checks_catch_a_corrupted_buffer: the
    line kernel's last cell holds vertex n+1, outside the vertices -n..n it
    fires.  One extra chip there is never fired and ends in the final state.
    At n = 9 a pile of T = 5 there is firable: it has the origin's parity,
    so round 0 fires it as an edge lane of the first window, which holds the
    whole buffer, and the escape check raises.  At n = 800 the walk never
    comes near vertex 801, so the pile, like the extra chip, ends in the
    final state."""
    real = engine._cells

    def seeded(*args):
        chips, fires = real(*args)
        chips[_line_index(n + 1, n + 1)] += extra
        return chips, fires

    monkeypatch.setattr(engine, "_cells", seeded)
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        stabilize_line(n, GameParams(2, 3))


def _line_index(v, off):
    """The index of vertex v in the line kernel's lists of the vertices
    -off..off, which hold them in vertex order."""
    return v + off


def _first_calm_round(a, b, n):
    """The parity schedule of the n-chip game, played vertex by vertex up to
    its first round r whose half fires no vertex more than once.  Returns r,
    the turn values there (the chips of the parity of r, and those of the
    other parity plus T for each of their firings in round r - 1) and every
    vertex's firings through round r - 1."""
    T = a + b
    chips, fired, last = {0: n}, {}, {}
    r = 0
    while True:
        firing = {v: c // T for v, c in chips.items() if (v - r) % 2 == 0 and c >= T}
        if all(k < 2 for k in firing.values()):
            turn = {v: c + T * last.get(v, 0) for v, c in chips.items()}
            return r, {v: c for v, c in turn.items() if c}, fired
        for v, k in firing.items():
            chips[v] -= T * k
            chips[v - 1] = chips.get(v - 1, 0) + a * k
            chips[v + 1] = chips.get(v + 1, 0) + b * k
            fired[v] = fired.get(v, 0) + k
        last = firing
        r += 1


def test_line_kernel_walks_once_the_firing_half_is_below_2T(monkeypatch):
    """(2, 3) at n = 800 fires its last vertex in round 1783.  Round 836 is
    the first whose half holds fewer than 2T chips in every cell, and the
    walk takes the game there, once, in the form the parity schedule gives
    it; a kernel that never walked would play every round dense."""
    n, p = 800, GameParams(2, 3)
    off = n + 1
    walks = []
    real_walk = engine._walk_line

    def recording_walk(chips, fires, *args):
        def read(cells):
            return {v: cells[_line_index(v, off)] for v in range(-off, off + 1)
                    if cells[_line_index(v, off)]}

        h = args[4]
        walks.append((h, read(chips), read(fires)))
        real_walk(chips, fires, *args)

    monkeypatch.setattr(engine, "_walk_line", recording_walk)
    assert stabilize_line(n, p) == stabilize(new_state(n, p))
    r, turn, fired = _first_calm_round(2, 3, n)
    # Round r fires the vertices of the parity of r, which lie in half
    # (r + off) & 1.
    assert r == 836
    assert walks == [((r + off) & 1, turn, fired)]


def _walked(a, b, q, chips, last, off):
    """``engine._walk_line`` over lists of the vertices -off..off, started
    from chips on the vertices 0..m-1, where those of parity q take the next
    turn and the others fired last[v] times at their last turn.  Returns the
    chips and the firing counts it leaves, as {vertex: count} dicts."""
    T = a + b
    cells, fires = [0] * (2 * off + 1), [0] * (2 * off + 1)
    for v, (c, k) in enumerate(zip(chips, last)):
        cells[_line_index(v, off)], fires[_line_index(v, off)] = c + T * k, k
    engine._walk_line(cells, fires, off, T, a, b, (q + off) & 1, off, off + len(chips) - 1)
    return ({v: cells[_line_index(v, off)] for v in range(-off, off + 1)
             if cells[_line_index(v, off)]},
            {v: fires[_line_index(v, off)] for v in range(-off, off + 1)
             if fires[_line_index(v, off)]})


@st.composite
def _walk_starts(draw):
    """A pair, and a start state on vertices 0..m-1 in the form the walk
    takes: the vertices of parity q hold fewer than 2T chips and take the
    next turn, the others hold fewer than T and fired F = 0, 1 or 2 times at
    their last turn."""
    a, b = draw(st.sampled_from([(2, 3), (3, 2), (1, 1), (2, 2), (1, 3), (3, 1), (4, 5)]))
    T = a + b
    m = draw(st.integers(1, 24))
    q = draw(st.integers(0, 1))
    chips = [draw(st.integers(0, 2 * T - 1 if v % 2 == q else T - 1)) for v in range(m)]
    last = [0 if v % 2 == q else draw(st.integers(0, 2)) for v in range(m)]
    return a, b, q, chips, last


@settings(max_examples=300, deadline=None)
@given(start=_walk_starts())
# Several runs of one cell; runs of one and two cells, where a cell that
# fired at its last turn meets a firable one; runs two cells apart, which
# merge through the cell between them; a > b and a = b; a cell that fired
# twice.
@example(start=(2, 3, 0, [5, 0, 0, 0, 7, 0, 0, 0, 9], [0] * 9))
@example(start=(2, 3, 0, [5, 4, 0, 0, 6, 0, 9], [0, 1, 0, 0, 0, 0, 0]))
@example(start=(2, 3, 0, [9, 0, 9, 0, 9], [0] * 5))
@example(start=(3, 2, 1, [0, 9, 3, 9, 0, 5], [0, 0, 1, 0, 0, 0]))
@example(start=(2, 2, 0, [7, 3, 7, 0, 4, 3, 7], [0, 1, 0, 0, 0, 2, 0]))
@example(start=(1, 3, 1, [3, 5, 3, 7], [2, 0, 0, 0]))
def test_walk_from_arbitrary_start_states_matches_engine(start):
    """The walk finishes any state in its form as ``stabilize`` does: the
    chips it leaves are the final state of the chips it was given, and its
    firing counts are stabilize's plus those of the last turn.  The buffer
    leaves every vertex a firing can reach inside the cells that may fire."""
    a, b, q, chips, last = start
    p = GameParams(a, b)
    got_chips, got_fires = _walked(a, b, q, chips, last, off=len(chips) + sum(chips) + 3)
    want_state, want_log = stabilize(ChipState(p, {v: c for v, c in enumerate(chips) if c}))
    want_fires = dict(want_log.fires)
    for v, k in enumerate(last):
        if k:
            want_fires[v] = want_fires.get(v, 0) + k
    assert (ChipState(p, got_chips), got_fires) == (want_state, want_fires), start


@pytest.mark.parametrize("a, b, q, chips, off, message", [
    # Vertex 1 is about to fire, but only vertex 0 may in a buffer of
    # vertices -2..2.
    (2, 3, 1, [0, 7], 2, "support escaped the [-n-1, n+1] window"),
    # Vertex 0 fires and gives vertex 1 a sixth chip; vertex 1 may not fire.
    (2, 3, 0, [7, 3], 2, "support escaped the [-n-1, n+1] window"),
    # Vertex 0 holds 2T + 4 and fires twice, so vertex 1 turns 4 + 2b = 10.
    (2, 3, 0, [14, 4], 40, "line walk reached a turn value of 10 >= 2T"),
], ids=["firing-past-the-clamp", "turning-firable-past-the-clamp", "turn-value-2T"])
def test_walk_checks_its_clamp_and_its_turn_values(a, b, q, chips, off, message):
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        _walked(a, b, q, chips, [0] * len(chips), off)


def test_line_kernel_large_threshold_games_match_engine():
    """Pairs with a large threshold T, from n = T, where the origin fires
    once, to n = 3T + 1, where it first fires three times in round 0.  The
    first epoch's lanes hold up to about 2·bitlen(n) bits; (1, 2^20) needs
    nine-byte lanes, wider than a machine word."""
    real = engine._lane_bytes
    for a, b in [(20, 21), (21, 20), (1, 10), (10, 1), (40, 41), (1, 2**20)]:
        p = GameParams(a, b)
        T = p.threshold
        for n in [T, T + 1, T + 2, 2 * T - 1, 2 * T, 3 * T + 1]:
            if T > 2**16 and n > T + 2:
                continue           # lists of 8T cells and more: kept small
            assert stabilize_line(n, p) == stabilize(new_state(n, p)), (a, b, n)
    assert real(2**21 + 1, 2**20 + 1) == 9


@pytest.mark.parametrize("a, b", [(2, 3), (1, 2), (5, 7)])
def test_line_kernel_games_at_lane_width_steps_match_engine(a, b):
    """n = 2^k - 1 and 2^k, and the n on both sides of each step where the
    first epoch's lanes widen by a byte.  That epoch bounds every cell by
    T·(floor(n/T) + 1) - 1 chips, so (2, 3) widens from two bytes to three
    at n = 30 and to four at n = 510.  Later epochs narrow again as the pile
    spreads."""
    p = GameParams(a, b)
    T = p.threshold
    first = [engine._lane_bytes(T * (n // T + 1) - 1, T) for n in range(1101)]
    steps = [n for n in range(1, 1101) if first[n] > first[n - 1]]
    if (a, b) == (2, 3):
        assert steps == [30, 510]
    games = {m for n in steps for m in (n - 1, n)}
    games |= {m for k in range(2, 11) for m in (2**k - 1, 2**k)}
    for n in sorted(games):
        assert stabilize_line(n, p) == stabilize(new_state(n, p)), (a, b, n)


def test_line_kernel_window_grows_and_slides(monkeypatch):
    """(2, 3) at n = 300 plays three epochs, over the vertices -33..32,
    -29..64 and 19..96: the window grows while the pile spreads, then slides
    right with the firing run and narrows with it; the walk takes the last
    window.  The even cells of each window are the lanes of its first packed
    int."""
    n, p = 300, GameParams(2, 3)
    packed, walked = [], []
    real_pack, real_walk = engine._pack, engine._walk_line

    def recording_pack(values, nb):
        packed.append(len(values))
        return real_pack(values, nb)

    def recording_walk(chips, fires, off, *args):
        walked.append((args[-2] - off, args[-1] - off))
        real_walk(chips, fires, off, *args)

    monkeypatch.setattr(engine, "_pack", recording_pack)
    monkeypatch.setattr(engine, "_walk_line", recording_walk)
    assert stabilize_line(n, p) == stabilize(new_state(n, p))
    assert packed[::2] == [33, 47, 39]
    assert walked == [(19, 96)]


@pytest.mark.parametrize("nb", [1, 2, 3, 7, 8, 9, 15, 16, 17, 24])
def test_line_kernel_lanes_unpack_to_what_was_packed(nb):
    """Lanes of one to three 8-byte words come back whole, the full lane
    and the lane with only its top byte set included, so every word of a
    wide lane lands in its place."""
    full = (1 << 8 * nb) - 1
    values = [0, full, 1 << 8 * (nb - 1), 1, full >> 1, 0x5A * (full // 255)]
    assert engine._unpack(engine._pack(values, nb), len(values), nb) == values


def test_line_kernel_refuses_a_lane_too_narrow(monkeypatch):
    """With lanes one byte narrower than _lane_bytes gives, (2, 3) at n = 125
    packs the origin into a 16-bit lane as 125·M = 125·410 = 51250, which
    reaches its top bit, and the first epoch refuses to play."""
    real = engine._lane_bytes
    monkeypatch.setattr(engine, "_lane_bytes", lambda smax, T: real(smax, T) - 1)
    with pytest.raises(InvariantViolation, match="^line kernel lane of 16 bits overflowed$"):
        stabilize_line(125, GameParams(2, 3))


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
