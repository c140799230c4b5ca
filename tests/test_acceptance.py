"""Acceptance suite: the exit criteria, one test (or sub-test) per criterion.

Each test name carries its criterion number; the conftest hook prints one
PASS/FAIL line per test after the run.  Expected values are frozen from the
golden worked examples or computed by the simulation oracle; tolerances are
exact equality throughout.

Criterion 10b checks the law that holds for the digit-(b-1) count of the
1-b final right part: it equals f0(n) - 1, the origin's firing total minus
one, and for n >= b+2 the closed form that chip conservation gives from the
R(b) left part.  The classical valuation-sum formula for that count is
refuted by simulation; 10b pins its first counterexample for each b exactly
(b=2, n=12: true count 6, sum 7; b=3, n=32: true count 12, sum 13).
"""

import time

import pytest

from chipfire import (
    GameParams,
    aa_final,
    DigitWord,
    binary_trick_left,
    delta_strings,
    eval_base,
    final_state,
    lift_noncoprime,
    one_b_right_length,
    one_b_settlement,
    oracle_states,
    r_sequence,
    settlement,
    split,
    state_word,
    to_base,
    word_to_string,
)
from chipfire import analysis, verify
from chipfire.predictor import final_counts, profile_for
from chipfire.settlements import seq_for
from chipfire.verify import SIX_PAIRS, coprime_pairs

GOLDEN_23 = (
    "0., 1., 2., 3., 4., 20.3, 21.3, 22.3, 23.3, 24.3, 42.13, 43.13, 44.13, "
    "213.43, 214.43, 232.413, 233.413, 234.413, 422.2413, 423.2413, "
    "424.2413, 442.2243, 443.2243, 444.2243, 2332.222413, 2333.222413, "
    "2334.222413, 4222.2222243"
).split(", ")


def s(word):
    return word_to_string(word, radix_mark="always")


@pytest.fixture(scope="module")
def confluence_report():
    """The criterion-4 battery, shared with criteria 5 and 11."""
    t0 = time.perf_counter()
    rep = verify.confluence_suite(
        max_n=300, pairs=coprime_pairs(6), seeds=(1, 2, 3), check_every=256,
    )
    rep.elapsed = time.perf_counter() - t0
    return rep


def test_c01_golden_two_three_table():
    """Criterion 1: final_state(n,2,3) for n=0..27 matches the golden list,
    exact string equality, under one second."""
    t0 = time.perf_counter()
    got = [s(final_state(n, GameParams(2, 3))) for n in range(28)]
    elapsed = time.perf_counter() - t0
    assert got == GOLDEN_23
    assert got[-1] == "4222.2222243"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_c02_golden_one_two_pair():
    """Criterion 2: phi(7) = 22.12 and phi(8) = 111.1112 in the 1-2 game."""
    p = GameParams(1, 2)
    assert s(final_state(7, p)) == "22.12"
    assert s(final_state(8, p)) == "111.1112"


def test_c03_settlement_sequences():
    """Criterion 3: xi_0..xi_8 for (2,3); c and delta strings for (3,4)."""
    p23 = GameParams(2, 3)
    got = [word_to_string(settlement(k, p23)) for k in range(9)]
    assert got == [".", ".3", ".13", ".43", ".413", ".243", ".2413", ".2243", ".22413"]
    p34 = GameParams(3, 4)
    assert p34.c == 3
    assert [word_to_string(d)[1:] for d in delta_strings(p34)] == ["654", "6514", "6254"]


def test_c04_confluence(confluence_report):
    """Criterion 4: all coprime a<b<=6, n<=300: leftmost, rightmost, parallel
    rounds, and three seeded random schedules agree in final state and
    per-vertex firing counts.  Runtime < 60 s."""
    rep = confluence_report
    strategy_failures = [
        f for f in rep.failures if "differs" in f or "strategy" in f
    ]
    assert not strategy_failures, strategy_failures[:5]
    assert rep.elapsed < 60.0, f"took {rep.elapsed:.1f}s"


def test_c05_invariant_conservation(confluence_report):
    """Criterion 5: S(1) = n and S(b/a) = n exactly along the criterion-4
    runs: every firing is checked for n < 48 and every 256th firing (plus
    first and last states) beyond, within the same runs; an every-state
    battery covers all pairs to n=64 and (1,2),(2,3) to n=100.  Zero
    violations anywhere."""
    violation_failures = [
        f for f in confluence_report.failures
        if "polynomial" in f or "chip total" in f
    ]
    assert not violation_failures, violation_failures[:5]
    rep = verify.invariants_suite(pairs=coprime_pairs(6), max_n=64)
    assert rep.ok, rep.failures[:5]
    rep = verify.invariants_suite(pairs=[(1, 2), (2, 3)], max_n=100)
    assert rep.ok, rep.failures[:5]


def test_c06_stabilized_side_values():
    """Criterion 6: for the six pairs and B <= n <= B+200 the right part
    evaluates to a*c and the left to n - a*c, exactly; origout digits and
    eventual right values follow the parameter-family table rows."""
    family_expect = {
        (1, 2): (1, 1), (2, 5): (3, 2),              # a <= b/2: b-a, a
        (2, 3): (2, 4), (3, 4): (3, 9), (4, 5): (4, 16),  # b=a+1: a, a^2
        (3, 5): (4, 6),                               # a=2k-1=b-2: 2k, (2k-1)k
    }
    for a, b in SIX_PAIRS:
        p = GameParams(a, b)
        B = profile_for(p).B
        ac = a * p.c
        origouts = set()
        for n, state, _ in oracle_states(p, B + 200):
            if n < B:
                continue
            left, right = split(state)
            assert eval_base(DigitWord(right, -len(right)), p) == ac, (a, b, n)
            assert eval_base(DigitWord(left, 0), p) == n - ac, (a, b, n)
            if n >= B + 150:
                origouts.add(right[0])
        expected_origout, expected_value = family_expect[(a, b)]
        assert origouts == {expected_origout}, (a, b, origouts)
        assert ac == expected_value, (a, b)


def test_c07_predictor_equals_oracle():
    """Criterion 7a: fast-path final states equal simulation exactly for the
    six pairs up to n = 2000."""
    for a, b in SIX_PAIRS:
        p = GameParams(a, b)
        for n, state, _ in oracle_states(p, 2000):
            assert final_state(n, p) == state_word(state), (a, b, n)


def test_c07_bench_fast_path_beats_oracle():
    """Criterion 7b: the bench at n = 10^5 for (2,3) shows the fast path
    strictly faster than the simulation oracle (qualitative, no fixed
    ratio), with both producing the same state."""
    import io

    from chipfire.cli import main as cli_main

    out = io.StringIO()
    code = cli_main(["bench", "-a", "2", "-b", "3", "--grid", "100000"], out=out)
    text = out.getvalue()
    assert code == 0, text
    row = text.splitlines()[2].split()
    assert row[0] == "100000" and row[3] == "yes"
    t_oracle, t_fast = float(row[1]), float(row[2])
    assert t_fast < t_oracle, f"fast {t_fast}s vs oracle {t_oracle}s"
    assert "fast path faster at every n: yes" in text


def test_c08_noncoprime_and_aa():
    """Criterion 8: the gcd lift and the a-a closed form, against simulation."""
    p23 = GameParams(2, 3)
    lifted = lift_noncoprime(final_state(21, p23), 2, 0)
    assert s(lifted) == "884.4486"
    assert s(final_state(42, GameParams(4, 6))) == "884.4486"
    assert s(aa_final(26, 5)) == "556.55"
    for a in range(1, 6):
        p = GameParams(a, a)
        for n, state, _ in oracle_states(p, 200):
            assert aa_final(n, a) == state_word(state), (a, n)


def test_c09_fractional_base():
    """Criterion 9: base-3/2 numerals 0..9 are the golden ten; eval o to_base
    is the identity up to 10^4 for every coprime a < b <= 7."""
    got = [word_to_string(to_base(n, GameParams(2, 3))) for n in range(10)]
    assert got == ["0", "1", "2", "20", "21", "22", "210", "211", "212", "2100"]
    for a, b in coprime_pairs(7):
        p = GameParams(a, b)
        for n in range(10_001):
            assert eval_base(to_base(n, p), p) == n


def test_c10a_one_b_settlement_formula():
    """Criterion 10 (settlements): (b-1)_(k-1) b matches iterated transitions
    for b in {2,3,5}, k <= 30."""
    for b in (2, 3, 5):
        p = GameParams(1, b)
        seq = seq_for(p)
        for k in range(31):
            assert one_b_settlement(k, b) == seq.word(k), (b, k)


def test_c10b_one_b_digit_count_formula():
    """Criterion 10 (digit count): for b in {2,3}, b < n <= 500, the
    right-part digit-(b-1) count equals f0(n) - 1 from the oracle's own log
    and from the fast path, and for n >= b+2 the conservation closed form
    (n - 1 - digitsum(R(b)_(n-1))) / (b-1) - 1, with the division exact: the
    left part is R(b)_(n-1) and the right part xi_k holds (b-1)k + 1 chips.

    Erratum: the valuation sum (one_b_right_length) is refuted by
    simulation.  Its first mismatch per b is pinned exactly: b=2, n=12 (true
    count 6, sum 7) and b=3, n=32 (true count 12, sum 13).
    """
    first_mismatch = {}
    for b in (2, 3):
        p = GameParams(1, b)
        for n, state, log in oracle_states(p, 500):
            if n <= b:
                continue
            true_count = sum(
                1 for v, c in state.chips.items() if v >= 1 and c == b - 1
            )
            assert true_count == log.fires[0] - 1, (b, n)
            assert true_count == final_counts(n, p)[0] - 1, (b, n)
            if n >= b + 2:
                k, r = divmod(n - 1 - sum(r_sequence(b, n - 1)), b - 1)
                assert r == 0, (b, n)
                assert true_count == k - 1, (b, n)
            stated = one_b_right_length(n, b)
            if true_count != stated and b not in first_mismatch:
                first_mismatch[b] = (b, n, true_count, stated)
    assert first_mismatch == {2: (2, 12, 6, 7), 3: (3, 32, 12, 13)}


def test_c10c_binary_trick():
    """Criterion 10 (1-2 left law): the binary recipe reproduces the left
    part for 4 <= n <= 1000."""
    p = GameParams(1, 2)
    for n, state, _ in oracle_states(p, 1000):
        if n < 4:
            continue
        left, _ = split(state)
        assert left == binary_trick_left(n), n


def test_c11_weighted_sum_firing_count(confluence_report):
    """Criterion 11: logged totals equal M/(b-a) on every criterion-4 run,
    double-checked here against the incremental oracle."""
    m_failures = [f for f in confluence_report.failures if "M/(b-a)" in f]
    assert not m_failures, m_failures[:5]
    for a, b in coprime_pairs(6):
        p = GameParams(a, b)
        for n, state, log in oracle_states(p, 300):
            assert analysis.firings_from_M(state) == log.total, (a, b, n)


def test_c12_erratum_reporting(monkeypatch):
    """Criterion 12: the verifier reports (and does not fail on) the two
    documented discrepancies, each with a concrete counterexample computed
    from its own runs."""
    monkeypatch.setattr(verify, "VALUE_WINDOW", 40)
    rep = verify.predictor_suite(pairs=[(2, 3)], max_n=160)
    assert rep.ok, rep.failures[:5]
    notes = "\n".join(rep.notes)
    assert "n=13" in notes and "a*c = 4" in notes
    assert "233" in notes and "suffix" in notes
    srep = verify.settlements_suite()
    assert srep.ok, srep.failures[:5]
    assert any("Te_c+1" in note for note in srep.notes)
