"""Settlement sequence, dormancy, delta strings, closed forms, balanced B."""

import pytest

from chipfire import (
    ChipState,
    GameParams,
    compute_profile,
    delta_strings,
    dormant_census,
    lemma8_inequalities,
    settle_right,
    settlement,
    settlement_next,
    word_to_string,
)
from chipfire import settlements
from chipfire.analysis import segments_weighted_sum
from chipfire.errors import InvalidParams, ScanExhausted
from chipfire.predictor import profile_for
from chipfire.settlements import (
    highest_dormant_index,
    periodic_start,
    seq_for,
    tetrahedral,
    tetrahedral_highest_dormant_index,
    tetrahedral_periodic_start,
)
from chipfire.words import DigitWord

STRUCTURED_PAIRS = [
    (1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 5), (2, 5), (3, 5), (4, 5),
    (1, 6), (5, 6), (1, 7), (2, 7), (3, 7), (4, 7), (5, 7), (6, 7),
]


def xi_str(k, params):
    return word_to_string(settlement(k, params))


def dormant(right, params):
    """Origout digit, the right part's first (0 when it is empty), below a:
    an origin firing triggers no fire-back."""
    return (right or (0,))[0] < params.a


def test_c_values():
    assert GameParams(2, 3).c == 2
    assert GameParams(3, 4).c == 3
    assert GameParams(1, 2).c == 1
    assert GameParams(5, 7).c == 3
    with pytest.raises(InvalidParams):
        GameParams(2, 4).c
    with pytest.raises(InvalidParams):
        GameParams(3, 2).c


def test_two_three_settlement_list():
    p = GameParams(2, 3)
    expected = [".", ".3", ".13", ".43", ".413", ".243", ".2413", ".2243", ".22413"]
    assert [xi_str(k, p) for k in range(9)] == expected


def test_settlement_next_examples():
    p = GameParams(2, 3)
    assert settlement_next((4, 3), p) == (4, 1, 3)
    assert settlement_next((), p) == (3,)
    assert settlement_next((4, 1, 3), p) == (2, 4, 3)


def test_settlement_next_rejects_unsettled():
    p = GameParams(2, 3)
    with pytest.raises(InvalidParams):
        settlement_next((6, 1), p)


def test_dormancy():
    p = GameParams(2, 3)
    assert dormant((1, 3), p)
    assert not dormant((4, 3), p)
    assert dormant((), p)


@pytest.mark.parametrize("a,b", STRUCTURED_PAIRS)
def test_transition_matches_engine_settling(a, b):
    """One settlement move == add b at the origout, then settle the right part."""
    p = GameParams(a, b)
    cur = ()
    for k in range(60):
        chips = {v: d for v, d in enumerate(cur, start=1) if d}
        chips[1] = chips.get(1, 0) + b
        settled = settle_right(ChipState(p, chips))
        hi = max((v for v in settled.chips if v >= 1), default=0)
        engine_word = tuple(settled.count(v) for v in range(1, hi + 1))
        nxt = settlement_next(cur, p)
        assert nxt == engine_word, f"({a},{b}) transition diverged at k={k}"
        assert settlement(k + 1, p).fraction_digits() == nxt
        cur = nxt


def test_delta_strings_three_four():
    p = GameParams(3, 4)
    assert [word_to_string(d)[1:] for d in delta_strings(p)] == ["654", "6514", "6254"]


def test_delta_strings_two_three():
    p = GameParams(2, 3)
    assert [d.fraction_digits() for d in delta_strings(p)] == [(4, 3), (4, 1, 3)]


def test_early_settlements_build_no_delta_strings(monkeypatch):
    """Below the periodic start a settlement is iterated, so a pair with
    c = 10^6, whose delta strings hold about 10^12 digits, answers its
    first settlements without building them."""
    def no_deltas(*args):
        raise AssertionError("an early settlement must not build delta strings")

    monkeypatch.setattr(settlements, "_delta_tuples", no_deltas)
    a, b = 10**6, 10**6 + 1
    p = GameParams(a, b)
    assert [settlement(k, p).digits for k in range(4)] == [(), (b,), (1, b), (b + 1, b)]


@pytest.mark.parametrize("a,b", STRUCTURED_PAIRS)
def test_closed_form_agrees_with_iteration(a, b):
    """Closed form .(cb-ca)_{p+1} delta_q from the true anchor, and also over
    the tetrahedral range quoted for it."""
    p = GameParams(a, b)
    seq = seq_for(p)
    start = periodic_start(p)
    c = p.c
    iterated = [()]
    for _ in range(max(start, tetrahedral_periodic_start(p)) + 4 * c + 1):
        iterated.append(settlement_next(iterated[-1], p))
    for k in range(start, start + 4 * c + 1):
        pp, q = divmod(k - start, c)
        lead = (c * (b - a),) * (pp + 1)
        assert iterated[k] == lead + seq.deltas[q]
        assert seq.word(k) == iterated[k]
    # the quoted tetrahedral anchor lies inside the periodic regime, so the
    # closed form must agree with iteration there as well
    for k in range(tetrahedral_periodic_start(p), tetrahedral_periodic_start(p) + 2 * c):
        assert seq.word(k) == iterated[k]


@pytest.mark.parametrize("a,b", STRUCTURED_PAIRS + [(20, 21), (3, 8)])
def test_moment_matches_digit_sum(a, b):
    """The weighted sum of xi_k's segments is sum(i * r_i) over xi_k, below,
    at and past the periodic start."""
    seq = seq_for(GameParams(a, b))
    for k in range(seq.start + 3 * seq.c + 1):
        word = seq.word(k)
        moment = segments_weighted_sum((), seq.segments(k))
        assert moment == sum(i * r for i, r in enumerate(word, start=1)), (a, b, k)
    with pytest.raises(InvalidParams):
        seq.segments(-1)


def test_anchor_word_first_occurrence():
    """The anchor word appears first at c(c+3)/2; the tetrahedral index
    Te_c + 1 matches only for c <= 2."""
    for a, b in [(2, 3), (3, 4), (4, 5), (5, 6), (5, 7)]:
        p = GameParams(a, b)
        c = p.c
        anchor = (c * (b - a),) + tuple(i * b - (i - 1) * a for i in range(c, 0, -1))
        seq = seq_for(p)
        first = next(k for k in range(200) if seq.word(k) == anchor)
        assert first == periodic_start(p) == c * (c + 3) // 2
        assert first == (c + 1) * (c + 2) // 2 - 1  # T_{c+1} - 1
        if c <= 2:
            assert first == tetrahedral_periodic_start(p)
        else:
            assert first < tetrahedral_periodic_start(p)


@pytest.mark.parametrize("a,b", STRUCTURED_PAIRS)
def test_dormant_census(a, b):
    p = GameParams(a, b)
    count, highest = dormant_census(p)
    assert count == p.c
    assert highest == highest_dormant_index(p) == (p.c - 1) * (p.c + 2) // 2
    # enumerated dormant indices are exactly 0 and the pre-anchor milestones
    dormants = [k for k in range(periodic_start(p) + 2 * p.c + 1)
                if dormant(settlement(k, p).fraction_digits(), p)]
    assert dormants == [0] + [(i + 1) * (i + 2) // 2 - 1 for i in range(1, p.c)]


def test_dormant_census_examples():
    assert dormant_census(GameParams(2, 3)) == (2, 2)
    assert dormant_census(GameParams(1, 2)) == (1, 0)
    assert dormant_census(GameParams(3, 4)) == (3, 5)
    assert dormant_census(GameParams(4, 5)) == (4, 9)


def test_tetrahedral_dormancy_formula_drift():
    """Te_{c-1}+1 equals the true highest dormant index only for c in {2, 3}."""
    for a, b in STRUCTURED_PAIRS:
        p = GameParams(a, b)
        truth = highest_dormant_index(p)
        tetra = tetrahedral_highest_dormant_index(p)
        if 2 <= p.c <= 3:
            assert truth == tetra
        else:
            assert truth != tetra, (a, b)


def test_balanced_B_values():
    assert profile_for(GameParams(2, 3)).B == 13
    assert profile_for(GameParams(1, 2)).B == 3
    assert profile_for(GameParams(3, 4)).B == 25
    assert profile_for(GameParams(2, 5)).B == 7


def test_balanced_B_scan_exhausted(monkeypatch):
    import chipfire.predictor as predictor

    monkeypatch.setattr(predictor, "SCAN_LIMIT", 5)
    with pytest.raises(ScanExhausted):
        compute_profile(GameParams(2, 3))


def test_balanced_B_is_minimal():
    """Right value is a*c from B on and not at B-1."""
    from chipfire import eval_base, oracle_states, split

    for a, b in [(1, 2), (2, 3), (3, 4), (2, 5), (3, 5), (4, 5)]:
        p = GameParams(a, b)
        B = profile_for(p).B
        ac = a * p.c
        for n, state, _ in oracle_states(p, B + 40):
            _, right = split(state)
            val = eval_base(DigitWord(right, -len(right)), p)
            if n >= B:
                assert val == ac, f"({a},{b}) right value at n={n}"
            elif n == B - 1:
                assert val != ac


@pytest.mark.parametrize("a,b", STRUCTURED_PAIRS)
def test_lemma8_inequalities(a, b):
    assert lemma8_inequalities(GameParams(a, b))


def test_tetrahedral_helpers():
    # Te_i - Te_(i-1) is the triangular number i(i+1)/2.
    assert [tetrahedral(i) - tetrahedral(i - 1) for i in range(1, 5)] == [1, 3, 6, 10]
    assert [tetrahedral(i) for i in range(5)] == [0, 1, 4, 10, 20]


def test_settlement_membership_and_monotone_index():
    """Every simulated final right part is a settlement; its index (the
    origin's firing count) never decreases with n."""
    from chipfire import oracle_states

    for a, b in [(1, 2), (2, 3), (3, 4), (3, 5)]:
        p = GameParams(a, b)
        seq = seq_for(p)
        prev = -1
        for n, state, log in oracle_states(p, 160):
            f0 = log.fires.get(0, 0)
            hi = max((v for v in state.chips if v >= 1), default=0)
            right = tuple(state.count(v) for v in range(1, hi + 1))
            assert seq.word(f0) == right
            assert f0 >= prev
            prev = f0
