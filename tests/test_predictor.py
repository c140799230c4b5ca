"""Fast-path predictor vs. the simulation oracle, plus the 1-b laws."""

from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from chipfire import (
    DigitWord,
    GameParams,
    aa_final,
    binary_trick_left,
    elevated_increment,
    eval_base,
    final_state,
    left_regular_word,
    lift_noncoprime,
    mirror_word,
    new_state,
    one_b_right_length,
    one_b_settlement,
    oracle_states,
    r_sequence,
    settlement,
    split,
    stabilize,
    state_word,
    word_to_string,
)
from chipfire.analysis import firings_from_weight
from chipfire.engine import stabilize_line
from chipfire.errors import InvalidParams, NotRegular, ScanExhausted
from chipfire.predictor import compute_profile, final_answer, final_counts, profile_for
from chipfire.verify import coprime_pairs
from chipfire.words import segment_digits

SIX_PAIRS = [(1, 2), (2, 3), (3, 4), (2, 5), (3, 5), (4, 5)]


def s(word):
    return word_to_string(word, radix_mark="always")


def test_final_state_golden_values():
    p23 = GameParams(2, 3)
    assert s(final_state(21, p23)) == "442.2243"
    assert s(final_state(27, p23)) == "4222.2222243"
    assert s(final_state(7, GameParams(1, 2))) == "22.12"


def test_two_three_profile():
    prof = profile_for(GameParams(2, 3))
    assert prof.B == 13 and prof.H == 15
    n, left, right, f0, _ = prof.rows[prof.H]
    assert n == prof.H and len(prof.rows) == prof.H + 1
    assert all(d >= 2 for d in left)
    assert s(DigitWord(left + right, -len(right))) == "232.413"
    assert f0 == 4


def test_one_two_profile():
    prof = profile_for(GameParams(1, 2))
    assert prof.B <= prof.H <= 10


@pytest.mark.parametrize("a,b", SIX_PAIRS)
def test_oracle_equivalence(a, b):
    p = GameParams(a, b)
    for n, state, _ in oracle_states(p, 600):
        assert final_state(n, p) == state_word(state), f"({a},{b}) n={n}"


def test_mirror_swapped_params():
    for a, b in [(1, 2), (2, 3), (3, 5)]:
        for n in (0, 5, 23, 77):
            w = final_state(n, GameParams(a, b))
            m = final_state(n, GameParams(b, a))
            assert m == mirror_word(w)
            sim, _ = stabilize(new_state(n, GameParams(b, a)))
            assert m == state_word(sim)


def test_mirror_word_round_trip():
    w = DigitWord((2, 2, 1, 2), -2)  # 22.12: vertices -1,0 hold 2,2; 1,2 hold 1,2
    assert s(mirror_word(w)) == "212.2"
    assert mirror_word(mirror_word(w)) == w
    assert s(mirror_word(DigitWord((0,), 0))) == "0."


def test_aa_final_closed_form():
    assert s(aa_final(5, 1)) == "111.11"
    assert s(aa_final(26, 5)) == "556.55"
    assert s(aa_final(0, 3)) == "0."
    assert s(aa_final(5, 3)) == "5."
    # desk-scale cross-check against the simulator
    for a in (1, 2, 3, 4, 5):
        p = GameParams(a, a)
        for n in range(0, 120):
            sim, _ = stabilize(new_state(n, p))
            assert aa_final(n, a) == state_word(sim), f"a={a} n={n}"
            assert final_state(n, p) == state_word(sim)


@given(a=st.integers(min_value=1, max_value=15), n=st.integers(min_value=0, max_value=5000))
@example(a=12, n=1000)
@example(a=10, n=19)
@example(a=3, n=0)
@settings(max_examples=200, deadline=None)
def test_aa_answer_is_runs_of_aa_final(a, n):
    """a = b answers with one run of a on each side of n mod 2a, never with
    the explicit digits, and its word is aa_final's (digits above 9 included)."""
    answer = final_answer(n, GameParams(a, a))
    assert answer.word() == aa_final(n, a)
    k, q = divmod(n, 2 * a)
    runs = (((a,), k),) if k else ()
    assert answer.head == runs + (((q,), 1),) and answer.tail == runs
    assert answer.counts(GameParams(a, a)) == (None, None, None)


def test_lift_noncoprime():
    p23 = GameParams(2, 3)
    w21 = final_state(21, p23)
    assert s(lift_noncoprime(w21, 2, 0)) == "884.4486"
    assert s(final_state(42, GameParams(4, 6))) == "884.4486"
    assert s(lift_noncoprime(aa_final(5, 1), 5, 0)) == "555.55"
    assert lift_noncoprime(w21, 1, 0) == w21
    with pytest.raises(InvalidParams):
        lift_noncoprime(w21, 2, 2)


def test_lift_matches_simulation():
    for a, b in [(2, 4), (4, 6), (6, 9), (3, 6), (3, 3)]:
        p = GameParams(a, b)
        if a != b:
            # n runs past d*H, where the reduced game leaves its table.
            reduced = GameParams(a // p.d, b // p.d)
            assert profile_for(reduced).H * p.d < 200
        for n in range(0, 201):
            sim, _ = stabilize(new_state(n, p))
            assert final_state(n, p) == state_word(sim), f"({a},{b}) n={n}"


chip_counts = st.one_of(st.integers(min_value=0, max_value=1500),
                        st.integers(min_value=0, max_value=10**5))


@given(pair=st.sampled_from([(3, 2), (5, 3), (2, 1), (7, 5), (8, 3), (21, 20)]),
       n=chip_counts)
@example(pair=(21, 20), n=1072)
@example(pair=(3, 2), n=10**5)
@settings(max_examples=150, deadline=None)
def test_mirrored_answer_is_mirror_word_of_the_reduced_answer(pair, n):
    """The mirror transform on segments equals mirror_word on the digits,
    on both sides of H ((20, 21) has H = 1071); f1 is dropped."""
    a, b = pair
    reduced = final_answer(n, GameParams(b, a))
    assert final_state(n, GameParams(a, b)) == mirror_word(reduced.word())
    f0, _, total = reduced.counts(GameParams(b, a))
    assert final_counts(n, GameParams(a, b)) == (f0, None, total)


@given(pair=st.sampled_from([(4, 6), (2, 4), (6, 9), (10, 15), (6, 4), (9, 6), (40, 42)]),
       n=chip_counts)
@example(pair=(40, 42), n=2 * 1072 + 1)
@example(pair=(9, 6), n=10**5)
@settings(max_examples=150, deadline=None)
def test_lifted_answer_is_lift_noncoprime_of_the_reduced_answer(pair, n):
    """The gcd lift on segments (runs included, and mirrored answers for
    (6, 4) and (9, 6)) equals lift_noncoprime on the digits."""
    p = GameParams(*pair)
    d = p.d
    reduced = GameParams(p.a // d, p.b // d)
    assert final_state(n, p) == lift_noncoprime(final_answer(n // d, reduced).word(), d, n % d)
    assert final_counts(n, p) == final_counts(n // d, reduced)


# Reduced thresholds: H = 15 for (2, 3) and 24 for (3, 5).
@given(pair=st.sampled_from([(3, 2), (5, 3), (4, 6), (6, 9), (9, 6)]),
       n=st.integers(min_value=0, max_value=600))
@example(pair=(3, 2), n=15)
@example(pair=(5, 3), n=25)
@example(pair=(4, 6), n=2 * 15 + 1)
@example(pair=(6, 9), n=3 * 16)
@example(pair=(9, 6), n=600)
@settings(max_examples=100, deadline=None)
def test_mirrored_and_lifted_counts_match_the_log(pair, n):
    """The mirror and the gcd lift carry no total of their own: the one read
    off the answer's segments with the requested pair's b - a equals the
    simulated firing total, on both sides of the reduced game's H."""
    p = GameParams(*pair)
    _, log = stabilize(new_state(n, p))
    f0, _, total = final_counts(n, p)
    assert (f0, total) == (log.fires.get(0, 0), log.total)


def _digit_at(w, p):
    """The digit of the word w at position p, 0 outside its span."""
    return w.digits[w.hi - p] if w.digits and w.radix <= p <= w.hi else 0


def _lift_per_position(w, d, q):
    """The earlier lift_noncoprime: the digit at every position, one by one."""
    if d < 1 or not 0 <= q < max(d, 1):
        raise InvalidParams(f"need d >= 1 and 0 <= q < d, got d={d}, q={q}")
    if w.is_empty():
        return DigitWord((q,), 0)
    lo = min(w.radix, 0)
    hi = max(w.hi, 0)
    digits = []
    for p in range(hi, lo - 1, -1):
        dig = _digit_at(w, p) * d
        if p == 0:
            dig += q
        digits.append(dig)
    return DigitWord(tuple(digits), lo)


# Words anywhere on the line: the empty word, radix above zero, and hi below
# zero (a run of zeros between the origin and the first digit).
lift_words = st.one_of(
    st.just(DigitWord((), 0)),
    st.builds(
        DigitWord,
        st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=12).map(tuple),
        st.integers(min_value=-15, max_value=6),
    ),
)


@given(w=lift_words, d=st.integers(min_value=1, max_value=6))
@settings(max_examples=200, deadline=None)
def test_lift_matches_per_position_reference(w, d):
    for q in range(d):
        assert lift_noncoprime(w, d, q) == _lift_per_position(w, d, q)
    for q in (-1, d):
        with pytest.raises(InvalidParams):
            lift_noncoprime(w, d, q)


def test_elevated_increment_examples():
    p = GameParams(2, 3)
    assert elevated_increment((2, 3, 4), p) == ((4, 2, 2), 2)
    assert elevated_increment((2, 3, 3), p) == ((2, 3, 4), 0)
    assert elevated_increment((4, 4, 4), p) == ((2, 3, 3, 2), 3)


def test_elevated_increment_rejects_irregular():
    p = GameParams(2, 3)
    with pytest.raises(NotRegular):
        elevated_increment((2, 1, 3), p)


def test_right_advance_examples():
    """One more chip advances the settlement index by the explosion count of
    the elevated increment: zero if the last digit is below a+b-1, else one
    plus the run of digits >= b immediately left of it."""
    p = GameParams(2, 3)
    for digits, explosions in [((2, 3, 4), 2), ((2, 3, 3), 0), ((4, 4, 4), 3)]:
        assert elevated_increment(digits, p)[1] == explosions
        # digits[first:-1] is the run of digits >= b left of the last digit.
        first = len(digits) - 1
        while first and digits[first - 1] >= p.b:
            first -= 1
        suffix = 0 if digits[-1] < p.a + p.b - 1 else len(digits) - first
        assert suffix == explosions, digits
    assert settlement(6, p).fraction_digits() == (2, 4, 1, 3)
    assert settlement(10, p).fraction_digits() == (2, 2, 2, 4, 1, 3)


def test_left_regular_word():
    p = GameParams(2, 3)
    assert left_regular_word(11, p) == (2, 3, 2)  # phi(15)^L
    assert left_regular_word(14, p) == (4, 2, 2)  # phi(18)^L
    assert left_regular_word(1, p) is None
    assert left_regular_word(0, p) == ()


@pytest.mark.parametrize("a,b", SIX_PAIRS)
def test_stabilized_side_values_past_B(a, b):
    """Right part evaluates to a*c and left to n - a*c for every n >= B."""
    p = GameParams(a, b)
    prof = profile_for(p)
    ac = a * p.c
    for n, state, _ in oracle_states(p, prof.B + 200):
        if n < prof.B:
            continue
        left, right = split(state)
        assert eval_base(DigitWord(right, -len(right)), p) == ac
        assert eval_base(DigitWord(left, 0), p) == n - ac


@pytest.mark.parametrize("a,b", SIX_PAIRS)
def test_firing_surplus_plateau(a, b):
    """f0 - f1 is non-decreasing and equals c for every n >= B."""
    p = GameParams(a, b)
    prof = profile_for(p)
    prev = 0
    for n, _, log in oracle_states(p, prof.B + 120):
        diff = log.fires.get(0, 0) - log.fires.get(1, 0)
        assert diff >= prev
        prev = diff
        if n >= prof.B:
            assert diff == p.c, f"({a},{b}) n={n}"


def test_eventual_origout_and_right_values():
    """Origout digit and right value for the three parameter families."""
    cases = [
        # a <= b/2: c=1, origout b-a, right value a
        (1, 2, 1, 1, 1), (2, 5, 1, 3, 2), (3, 7, 1, 4, 3),
        # b = a+1: c=a, origout a, right value a^2
        (2, 3, 2, 2, 4), (3, 4, 3, 3, 9), (4, 5, 4, 4, 16),
        # a = 2k-1, b = a+2: c=k, origout 2k, right value (2k-1)k
        (3, 5, 2, 4, 6), (5, 7, 3, 6, 15),
    ]
    for a, b, c, origout, right_value in cases:
        p = GameParams(a, b)
        assert p.c == c
        prof = profile_for(p)
        for n in range(prof.H + 30, prof.H + 40):
            w = final_state(n, p)
            frac = w.fraction_digits()
            assert frac[0] == origout, (a, b, n)
            assert eval_base(DigitWord.fraction(frac), p) == right_value


def test_final_counts_match_logs():
    for a, b in SIX_PAIRS:
        p = GameParams(a, b)
        for n, _, log in oracle_states(p, 150):
            assert final_counts(n, p) == (log.fires.get(0, 0), log.fires.get(1, 0), log.total)


def test_final_counts_every_dispatch_branch():
    """gcd > 1 lifts all three counts, mirroring keeps f0 and the total,
    a == b gives none."""
    for a, b in [(4, 6), (6, 9), (2, 4), (10, 15)]:
        p = GameParams(a, b)
        for n, _, log in oracle_states(p, 300):
            assert final_counts(n, p) == (log.fires.get(0, 0), log.fires.get(1, 0), log.total)
    for a, b in [(3, 2), (5, 3), (6, 4), (2, 1)]:
        p = GameParams(a, b)
        for n, _, log in oracle_states(p, 300):
            assert final_counts(n, p) == (log.fires.get(0, 0), None, log.total)
    for a in (1, 2, 3):
        for n in range(60):
            assert final_counts(n, GameParams(a, a)) == (None, None, None)
    with pytest.raises(InvalidParams):
        final_counts(-1, GameParams(2, 3))


# One pair per dispatch branch (a = b, gcd > 1, mirror, coprime a < b), as in
# test_cli, plus two pairs with a long pre-periodic settlement prefix.
TOTAL_PAIRS = [(2, 2), (3, 3), (4, 6), (2, 4), (3, 2), (5, 3), (1, 2), (2, 3), (5, 7),
               (20, 21), (3, 8)]


@given(pair=st.sampled_from(TOTAL_PAIRS),
       n=st.one_of(st.integers(min_value=0, max_value=1200),
                   st.integers(min_value=0, max_value=10**5)))
@settings(max_examples=300, deadline=None)
def test_final_counts_total_matches_digit_sum(pair, n):
    """The total from the settlement index equals M/(b-a) read off every
    digit of the final state, on both sides of H ((20, 21) has H = 1071)."""
    p = GameParams(*pair)
    word = final_state(n, p)
    m = sum(v * d for v, d in enumerate(word.digits, -word.hi))
    expected = None if p.a == p.b else firings_from_weight(m, p)
    assert final_counts(n, p)[2] == expected


@st.composite
def dispatch_cases(draw):
    """(a, b, n) on every dispatch branch: a coprime a < b with b <= 20, its
    mirror, either one times d <= 3, or a = b; n runs to 200 past the
    threshold H of the pair (d*H + d - 1 under the lift), so it falls on
    both sides of it."""
    d = draw(st.integers(min_value=1, max_value=3))
    if draw(st.integers(min_value=0, max_value=4)) == 4:
        a = draw(st.integers(min_value=1, max_value=20))
        return d * a, d * a, draw(st.integers(min_value=0, max_value=400))
    a, b = draw(st.sampled_from(coprime_pairs(20)))    # c up to 19 at (19, 20)
    top = d * (profile_for(GameParams(a, b)).H + 1) + 200
    if draw(st.booleans()):
        a, b = b, a
    return d * a, d * b, draw(st.integers(min_value=0, max_value=top))


@given(case=dispatch_cases())
@example(case=(19, 20, 980))       # H of (19, 20)
@example(case=(19, 20, 981))
@example(case=(40, 38, 2 * 981))   # the first lifted mirror n past H
@example(case=(3, 3, 0))
@settings(max_examples=200, deadline=None)
def test_fast_path_parts_equal_oracle_on_every_branch(case):
    """The parts of final_answer are the split of the simulated final state."""
    a, b, n = case
    p = GameParams(a, b)
    ans = final_answer(n, p)
    assert (segment_digits(ans.head), segment_digits(ans.tail)) == split(stabilize_line(n, p)[0])


# Coprime pairs with c from 20 to 87, each with its mirror and its double.
LARGE_C_PAIRS = [(20, 21), (33, 34), (41, 43), (50, 51), (61, 64), (70, 71), (87, 88)]


@pytest.mark.parametrize("a,b", LARGE_C_PAIRS)
def test_fast_path_equals_oracle_at_large_c(a, b):
    """Parts, f0, f1 and the total of final_answer equal the line kernel's
    at chip counts around H and past it (times d under the lift), for the
    pair, its mirror (no f1) and twice the pair."""
    p = GameParams(a, b)
    c, H = p.c, profile_for(p).H
    for q, r, d in [(a, b, 1), (b, a, 1), (2 * a, 2 * b, 2)]:
        game = GameParams(q, r)
        for n in (H - 1, H, H + 1, H + c, H + 3 * c + 1):
            state, log = stabilize_line(d * n, game)
            ans = final_answer(d * n, game)
            f1 = log.fires.get(1, 0) if q < r else None
            assert (segment_digits(ans.head), segment_digits(ans.tail)) == split(state)
            assert ans.counts(game) == (log.fires.get(0, 0), f1, log.total), (q, r, d * n)


def test_compute_profile_rejects_unstructured():
    with pytest.raises(InvalidParams):
        compute_profile(GameParams(2, 2))
    with pytest.raises(InvalidParams):
        compute_profile(GameParams(4, 6))


# --- one-pass certification against the two-pass reference ------------------


def _balanced_B_two_pass(params, scan_limit):
    """Reference B search: a first oracle_states pass, ChipState by ChipState."""
    from chipfire.errors import CensusMismatch, ScanExhausted
    from chipfire.settlements import highest_dormant_index, seq_for

    seq = seq_for(params)
    last_dormant = highest_dormant_index(params)
    for n, state, log in oracle_states(params, scan_limit):
        f0 = log.fires.get(0, 0)
        if seq.word(f0) != split(state)[1]:
            raise CensusMismatch(f"n={n}")
        if f0 > last_dormant:
            return n
    raise ScanExhausted(f"no balanced n below {scan_limit}")


def _simulate_prefix_reference(params, n_max):
    words, lefts, f0s, f1s = [], [], [], []
    for n, state, log in oracle_states(params, n_max):
        word = state_word(state)
        words.append(word)
        lefts.append(word.integer_digits())
        f0s.append(log.fires.get(0, 0))
        f1s.append(log.fires.get(1, 0))
    return words, lefts, f0s, f1s


def _find_H_reference(params, seq, ac, B, words, lefts, f0s, check_window, n_sim):
    import chipfire.predictor as predictor

    for h in range(max(B, 1), n_sim - check_window + 1):
        if any(d < params.a for d in lefts[h]):
            continue
        ok = True
        for n in range(h, h + check_window):
            try:
                nxt, explosions = elevated_increment(lefts[n], params)
            except NotRegular:
                ok = False
                break
            closed = predictor.left_regular_word(n - ac, params)
            if (
                nxt != lefts[n + 1]
                or f0s[n] + explosions != f0s[n + 1]
                or closed is None
                or closed != lefts[n]
                or seq.word(f0s[n]) != words[n].fraction_digits()
            ):
                ok = False
                break
        if ok:
            return h
    return None


def _compute_profile_two_pass(params, check_window=50, scan_limit=20000):
    """Reference certification: find B in one pass, then re-simulate prefixes
    of 256, 1024, 4096, ... chips until one holds a certified window."""
    from chipfire.predictor import PredictorProfile
    from chipfire.settlements import seq_for

    params.require_structured()
    seq = seq_for(params)
    ac = params.a * params.c
    B = _balanced_B_two_pass(params, scan_limit)
    n_sim = 256
    while True:
        n_sim = min(n_sim, scan_limit + check_window)
        if n_sim >= B + check_window:
            words, lefts, f0s, f1s = _simulate_prefix_reference(params, n_sim)
            H = _find_H_reference(params, seq, ac, B, words, lefts, f0s, check_window, n_sim)
            if H is not None:
                rows = tuple(
                    (n, lefts[n], words[n].fraction_digits(), f0s[n], f1s[n])
                    for n in range(H + 1)
                )
                return PredictorProfile(B=B, H=H, rows=rows)
        if n_sim >= scan_limit + check_window:
            raise ScanExhausted(f"no certified H below {scan_limit}")
        n_sim *= 4


COPRIME_UP_TO_9 = [(a, b) for b in range(2, 10) for a in range(1, b) if gcd(a, b) == 1]


@pytest.mark.parametrize("a,b", COPRIME_UP_TO_9 + [(20, 21)])
@pytest.mark.parametrize("window", [1, 5, 50])
def test_one_pass_profile_equals_two_pass(monkeypatch, a, b, window):
    import chipfire.predictor as predictor

    p = GameParams(a, b)
    monkeypatch.setattr(predictor, "CHECK_WINDOW", window)
    assert compute_profile(p) == _compute_profile_two_pass(p, window)


@pytest.mark.parametrize("a,b,window", [(2, 3, 5), (3, 4, 50), (20, 21, 50)])
def test_failed_step_restarts_the_window(monkeypatch, a, b, window):
    """A step that fails inside a window moves H past it, as in the reference."""
    import chipfire.predictor as predictor

    p = GameParams(a, b)
    ac = a * p.c
    monkeypatch.setattr(predictor, "CHECK_WINDOW", window)
    B = compute_profile(p).B
    failing = {B + 2 - ac, B + window - ac}
    real = predictor.left_regular_word

    def flaky(value, params):
        return None if value in failing else real(value, params)

    monkeypatch.setattr(predictor, "left_regular_word", flaky)
    prof = compute_profile(p)
    assert prof.H > B + window
    assert prof == _compute_profile_two_pass(p, window)


@pytest.mark.parametrize(
    "scan_limit,outcome", [(1000, ScanExhausted), (1060, ScanExhausted), (1071, 1071)]
)
def test_profile_scan_limit_outcomes(monkeypatch, scan_limit, outcome):
    """(20, 21) has B = 1051 and H = 1071: a limit below B finds no B, one
    below H certifies nothing, and a limit of exactly H certifies it."""
    import chipfire.predictor as predictor

    p = GameParams(20, 21)
    monkeypatch.setattr(predictor, "SCAN_LIMIT", scan_limit)
    if isinstance(outcome, int):
        prof = compute_profile(p)
        assert (prof.B, prof.H) == (1051, outcome)
        assert prof == _compute_profile_two_pass(p, 50, scan_limit)
    else:
        with pytest.raises(outcome):
            compute_profile(p)
        with pytest.raises(outcome):
            _compute_profile_two_pass(p, 50, scan_limit)


@pytest.mark.parametrize("a,b,window", [(20, 21, 50), (2, 3, 5), (1, 2, 1), (7, 9, 50)])
def test_certification_reads_rows_up_to_H_plus_window(monkeypatch, a, b, window):
    """One oracle pass that stops at row H + window: H + window + 1 rows."""
    import chipfire.predictor as predictor

    calls = []
    read = []
    real = predictor.oracle_rows

    def counting(params, n_max):
        calls.append(n_max)
        for row in real(params, n_max):
            read.append(row[0])
            yield row

    monkeypatch.setattr(predictor, "oracle_rows", counting)
    monkeypatch.setattr(predictor, "CHECK_WINDOW", window)
    prof = compute_profile(GameParams(a, b))
    assert len(calls) == 1
    assert read == list(range(prof.H + window + 1))


def test_equal_params_share_one_profile_and_one_settlement_sequence(monkeypatch):
    """profile_for and seq_for are keyed by the parameters' value: two
    distinct but equal GameParams get the identical object, certified once."""
    import chipfire.predictor as predictor
    from chipfire.settlements import seq_for

    calls = []
    real = predictor.compute_profile

    def counting(params, *args):
        calls.append(params)
        return real(params, *args)

    monkeypatch.setattr(predictor, "compute_profile", counting)
    p, q = GameParams(5, 11), GameParams(5, 11)
    assert p is not q
    assert profile_for(p) is profile_for(q)
    assert seq_for(p) is seq_for(q)
    assert len(calls) <= 1


@pytest.mark.parametrize("a,b", [(2, 3), (4, 5), (20, 21)])
def test_certification_checks_right_parts_up_to_B(monkeypatch, a, b):
    """A right part below B that is not its settlement raises CensusMismatch.

    Row B - 1 has the index of a dormant settlement; the settlement word at
    that index is made to disagree with the oracle's right part.
    """
    from chipfire.errors import CensusMismatch
    from chipfire.settlements import SettlementSeq, highest_dormant_index

    p = GameParams(a, b)
    prof = compute_profile(p)
    k = prof.rows[prof.B - 1][3]
    assert k <= highest_dormant_index(p)
    real = SettlementSeq.word

    def wrong_at_k(self, index):
        word = real(self, index)
        return word + (1,) if index == k else word

    monkeypatch.setattr(SettlementSeq, "word", wrong_at_k)
    with pytest.raises(CensusMismatch, match=f"is not xi_{k} for"):
        compute_profile(p)


COPRIME_UP_TO_15 = [(a, b) for b in range(2, 16) for a in range(1, b) if gcd(a, b) == 1]


def test_B_and_H_laws():
    """On every coprime pair a < b <= 15, H - B == a and B == c*a (mod b)."""
    assert len(COPRIME_UP_TO_15) == 71
    for a, b in COPRIME_UP_TO_15:
        p = GameParams(a, b)
        prof = profile_for(p)
        assert prof.H - prof.B == a, (a, b, prof.B, prof.H)
        assert (prof.B - p.c * a) % b == 0, (a, b, prof.B)


# --- 1-b specializations ----------------------------------------------------


def test_one_b_settlement_formula():
    assert one_b_settlement(3, 2) == (1, 1, 2)
    assert one_b_settlement(1, 5) == (5,)
    assert one_b_settlement(4, 3) == (2, 2, 2, 3)
    for b in (2, 3, 5):
        p = GameParams(1, b)
        for k in range(0, 31):
            assert one_b_settlement(k, b) == settlement(k, p).fraction_digits(), (b, k)


def test_one_b_right_length_definition():
    assert one_b_right_length(7, 2) == 1
    assert one_b_right_length(4, 2) == 0  # n = b+2: empty sum
    assert one_b_right_length(12, 2) == 7  # the stated sum's value at n=12
    with pytest.raises(InvalidParams):
        one_b_right_length(2, 2)


def test_one_b_right_length_deviates_from_simulation():
    """The valuation sum is NOT the true digit count everywhere: first
    counterexample n=12 for b=2, where simulation gives 6 ones."""
    p = GameParams(1, 2)
    sim, _ = stabilize(new_state(12, p))
    ones = sum(1 for v, cnt in sim.chips.items() if v >= 1 and cnt == 1)
    assert ones == 6
    assert one_b_right_length(12, 2) == 7


def test_r_sequence_prefix():
    got = [r_sequence(2, i) for i in range(1, 9)]
    assert got == [(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2), (1, 1, 1), (1, 1, 2)]
    assert r_sequence(3, 4) == (1, 1)


def test_r_sequence_is_the_bijective_numeral():
    """Every digit of R(b)_i lies in 1..b, and the digits read in base b give i."""
    for b in range(2, 7):
        for i in range(1, 2001):
            digits = r_sequence(b, i)
            assert all(1 <= d <= b for d in digits), (b, i)
            assert sum(d * b**k for k, d in enumerate(reversed(digits))) == i, (b, i)
    for b, i in [(1, 5), (3, 0)]:
        with pytest.raises(InvalidParams):
            r_sequence(b, i)


def test_r_sequence_orders_by_value():
    for b in (2, 3):
        vals = [eval_base(DigitWord(r_sequence(b, i), 0), GameParams(1, b))
                for i in range(1, 60)]
        assert vals == sorted(vals)
        assert len(set(vals)) == len(vals)


def test_left_part_follows_r_sequence():
    """phi(n)^L for the 1-b game is the (n-1)-th entry of R(b)."""
    for b in (2, 3):
        p = GameParams(1, b)
        for n, state, _ in oracle_states(p, 200):
            if n < b + 2:
                continue
            left, _ = split(state)
            assert left == r_sequence(b, n - 1), (b, n)


def test_binary_trick():
    assert binary_trick_left(21) == (1, 2, 1, 2)
    assert binary_trick_left(4) == (1, 1)
    with pytest.raises(InvalidParams):
        binary_trick_left(3)
    p = GameParams(1, 2)
    for n, state, _ in oracle_states(p, 300):
        if n < 4:
            continue
        left, _ = split(state)
        assert left == binary_trick_left(n), n


def test_triplet_grouping_two_three():
    """phi(3k)^R = phi(3k+1)^R = phi(3k+2)^R from n=15 on (the grouping has a
    boundary exception at 12..14)."""
    p = GameParams(2, 3)
    rights = {}
    for n, state, _ in oracle_states(p, 400):
        _, right = split(state)
        rights[n] = right
    assert not (rights[12] == rights[13] == rights[14])
    for k in range(5, 133):
        assert rights[3 * k] == rights[3 * k + 1] == rights[3 * k + 2], k
