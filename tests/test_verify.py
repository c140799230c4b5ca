"""Suite-level behavior of the verification harness."""

import re

import pytest

from chipfire import verify
from chipfire.errors import InvalidParams


def test_coprime_pairs():
    assert verify.coprime_pairs(3) == [(1, 2), (1, 3), (2, 3)]
    assert (2, 4) not in verify.coprime_pairs(6)
    assert len(verify.coprime_pairs(6)) == 11


def test_confluence_small_grid_single_worker(monkeypatch):
    monkeypatch.setattr(verify, "FULL_CHECK_BELOW", 20)
    rep = verify.confluence_suite(
        max_n=60, pairs=[(1, 2), (2, 3)], seeds=(5,), workers=1, check_every=64,
    )
    assert rep.ok and rep.checks > 0
    assert rep.lines()[0].startswith("suite confluence:")


@pytest.mark.parametrize("kwargs", [{"check_every": 0}, {"check_every": -1}, {"max_n": -3}])
def test_confluence_refuses_unchecked_cadence_and_negative_max_n(kwargs):
    # A cadence of 0 would make stabilize skip every conservation check for
    # n >= FULL_CHECK_BELOW, and a negative max_n would check nothing.
    with pytest.raises(InvalidParams):
        verify.confluence_suite(pairs=[(2, 3)], workers=1, **{"max_n": 10, **kwargs})


def test_invariants_suite_clean():
    rep = verify.invariants_suite(pairs=[(2, 3)], max_n=40)
    assert rep.ok


def test_invariants_suite_reads_one_row_pass_per_pair(monkeypatch):
    """The side values are checked on the rows of one oracle_rows pass per
    pair; no ChipState or firing log is built for them."""
    opened = {"oracle_rows": [], "oracle_states": []}

    def counting(name):
        real = getattr(verify, name)

        def wrapper(params, n_max):
            opened[name].append((params.a, params.b, n_max))
            return real(params, n_max)
        return wrapper

    for name in opened:
        monkeypatch.setattr(verify, name, counting(name))
    assert verify.invariants_suite(pairs=[(1, 2), (2, 3)], max_n=30).ok
    assert opened == {"oracle_rows": [(1, 2, 30), (2, 3, 30)], "oracle_states": []}


def test_predictor_suite_compares_the_firing_counts(monkeypatch):
    """An answer whose origout count is off by one past H fails its row,
    though its digits match the oracle's."""
    from chipfire import GameParams
    from chipfire.predictor import profile_for

    H = profile_for(GameParams(2, 3)).H
    real = verify.final_answer

    def off_by_one(n, params):
        answer = real(n, params)
        return answer._replace(f1=answer.f1 + 1) if n > H else answer

    monkeypatch.setattr(verify, "final_answer", off_by_one)
    rep = verify.predictor_suite(pairs=[(2, 3)], max_n=200)
    assert not rep.ok
    assert f"a=2 b=3 n={H + 1}: fast path differs from oracle" in rep.failures


def test_predictor_suite_scoped(monkeypatch):
    monkeypatch.setattr(verify, "VALUE_WINDOW", 50)
    rep = verify.predictor_suite(pairs=[(2, 3), (1, 2)], max_n=200)
    assert rep.ok
    joined = "\n".join(rep.notes)
    assert "n=13" in joined          # stabilized right value counterexample
    assert "233" in joined           # suffix-rule counterexample
    assert "triplets" in joined      # grouping boundary


def test_one_b_suite_documents_count_mismatch(monkeypatch):
    """The refuted valuation sum is a note with its first counterexample per
    b; the true count f0(n) - 1 is what the suite checks."""
    monkeypatch.setattr(verify, "TRICK_MAX", 60)
    rep = verify.one_b_suite(max_n=40)
    assert rep.ok and rep.checks > 0
    (note,) = [n for n in rep.notes if "valuation-sum" in n]
    assert "the true count is f0(n) - 1" in note
    assert "b=2 n=12: digit-(b-1) count is 6, valuation sum gives 7" in note
    assert "b=3 n=32: digit-(b-1) count is 12, valuation sum gives 13" in note


@pytest.mark.parametrize("kwargs, passes", [
    ({"max_n": 40, "trick_max": 60}, [(2, 220), (3, 220)]),
    ({}, [(2, 1000), (3, 500)]),
])
def test_one_b_suite_plays_each_game_once(monkeypatch, kwargs, passes):
    """One oracle pass per b serves the count, binary-trick and R(b) checks:
    (1, 2) to the largest of max_n, TRICK_MAX and 220, (1, 3) to the larger
    of max_n and 220.  A "trick_max" entry sets TRICK_MAX."""
    kwargs = dict(kwargs)
    if "trick_max" in kwargs:
        monkeypatch.setattr(verify, "TRICK_MAX", kwargs.pop("trick_max"))
    opened = []
    real = verify.oracle_rows

    def counting(params, n_max):
        opened.append((params.b, n_max))
        assert params.a == 1
        return real(params, n_max)

    monkeypatch.setattr(verify, "oracle_rows", counting)
    assert verify.one_b_suite(**kwargs).ok
    assert opened == passes


# The reports of the suites that read the incremental oracle, pinned so that
# a simpler or faster reader checks as much and documents the same errata.
ORACLE_SUITE_REPORTS = {
    "one-b": ({}, 2518, [
        "the valuation-sum formula for the digit-(b-1) count does not match "
        "simulation everywhere; the true count is f0(n) - 1 (first mismatch per "
        "b: b=2 n=12: digit-(b-1) count is 6, valuation sum gives 7; b=3 n=32: "
        "digit-(b-1) count is 12, valuation sum gives 13)",
        "the 1-b left part follows the R(b) sequence at index n-1 "
        "(phi(b+2)^L = 11 = R(b)_(b+1)); an n-2 indexing is off by one",
    ]),
    "predictor": ({"max_n": 300}, 6533, [
        "2-3 worked example: the right-part value at t=3/2 is 2 only for "
        "5 <= n <= 12; from n=13 on it is a*c = 4 (counterexample n=13: right "
        "part .43 evaluates to 4)",
        "index-advance rule: counting the >=b suffix of the left part overshoots "
        "when the last digit is below a+b-1; left word 233 in the 2-3 game "
        "(n=16) has suffix length 2 but 0 origin firings on the next increment; "
        "the explosion count of the elevated increment is the sound rule",
        "2-3 right parts group into triplets phi(3k)^R = phi(3k+1)^R = "
        "phi(3k+2)^R only from n=15 on; the triplet 12..14 mixes .13, .43, .43",
    ]),
    "invariants": ({"max_n": 50}, 306, []),
    "confluence": ({"max_n": 60, "workers": 1}, 11407, []),
    "settlements": ({}, 1367, [
        "tetrahedral settlement anchor Te_c+1 overshoots for c >= 3; true anchor "
        "is c(c+3)/2: a=3 b=4 c=3: anchor word .3654 first at k=9, not Te_c+1=11 "
        "(xi_11 = .36254); a=4 b=5 c=4: anchor word .48765 first at k=14, not "
        "Te_c+1=21 (xi_21 = .4483765); a=5 b=6 c=5: anchor word .5,10,9,8,7,6 "
        "first at k=20, not Te_c+1=36 (xi_36 = .5,5,5,5,10,9,8,7,1,6); a=5 b=7 "
        "c=3: anchor word .6,11,9,7 first at k=9, not Te_c+1=11 (xi_11 = "
        ".6,11,4,9,7); a=6 b=7 c=6: anchor word .6,12,11,10,9,8,7 first at k=27, "
        "not Te_c+1=57 (xi_57 = .6,6,6,6,6,6,12,11,10,9,8,7)",
        "tetrahedral last-dormant index Te_(c-1)+1 is off for c = 1 and c >= 4; "
        "true index is (c-1)(c+2)/2: a=1 b=2 c=1: last dormant index is 0, not "
        "Te_(c-1)+1=1; a=1 b=3 c=1: last dormant index is 0, not Te_(c-1)+1=1; "
        "a=1 b=4 c=1: last dormant index is 0, not Te_(c-1)+1=1; a=1 b=5 c=1: "
        "last dormant index is 0, not Te_(c-1)+1=1; a=2 b=5 c=1: last dormant "
        "index is 0, not Te_(c-1)+1=1; a=4 b=5 c=4: last dormant index is 9, not "
        "Te_(c-1)+1=11; a=1 b=6 c=1: last dormant index is 0, not Te_(c-1)+1=1; "
        "a=5 b=6 c=5: last dormant index is 14, not Te_(c-1)+1=21; a=1 b=7 c=1: "
        "last dormant index is 0, not Te_(c-1)+1=1; a=2 b=7 c=1: last dormant "
        "index is 0, not Te_(c-1)+1=1; a=3 b=7 c=1: last dormant index is 0, not "
        "Te_(c-1)+1=1; a=6 b=7 c=6: last dormant index is 20, not Te_(c-1)+1=36",
    ]),
}


@pytest.mark.parametrize("name", sorted(ORACLE_SUITE_REPORTS))
def test_oracle_suites_keep_their_reports(name):
    assert sorted(verify.SUITES) == [
        "confluence", "invariants", "one-b", "predictor", "settlements",
    ]
    kwargs, checks, notes = ORACLE_SUITE_REPORTS[name]
    rep = verify.SUITES[name](**kwargs)
    assert rep.name == name
    assert (rep.checks, rep.failures, rep.notes) == (checks, [], notes)


class _RecordingPool:
    """Stands in for multiprocessing.Pool: records the process count asked
    for and maps in this process, so no worker is ever started."""

    sizes: list = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return list(map(fn, jobs))


# workers=None takes the CPU count, capped the same way.
@pytest.mark.parametrize("workers", [500, 2, None])
def test_confluence_caps_the_pool_at_one_process_per_pair(workers, monkeypatch):
    import multiprocessing

    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    monkeypatch.setattr(verify, "FULL_CHECK_BELOW", 4)
    kwargs = dict(max_n=12, pairs=[(1, 2), (2, 3)], seeds=(5,))
    rep = verify.confluence_suite(workers=workers, **kwargs)
    serial = verify.confluence_suite(workers=1, **kwargs)
    assert _RecordingPool.sizes == [2]
    assert (rep.checks, rep.failures) == (serial.checks, serial.failures)


@pytest.mark.parametrize("workers", [0, -1])
def test_confluence_refuses_workers_below_one(workers, monkeypatch):
    # 0 and negative counts used to fall through to a silent serial run.
    import multiprocessing

    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    with pytest.raises(InvalidParams, match=f"workers must be at least 1, got {workers}"):
        verify.confluence_suite(max_n=5, pairs=[(2, 3)], workers=workers)
    assert _RecordingPool.sizes == []


# Each suite's refusal of a bad later pair or seed, with the message the
# first game would have met it with; the suite plays no game before it.
@pytest.mark.parametrize("suite, kwargs, message", [
    ("confluence", {"pairs": [(2, 3), (0, 1)], "max_n": 3, "workers": 1},
     "need a >= 1 and b >= 1, got (0, 1)"),
    ("invariants", {"pairs": [(2, 3), (0, 1)], "max_n": 3},
     "need a >= 1 and b >= 1, got (0, 1)"),
    ("settlements", {"pairs": [(2, 3), (3, 2)]},
     "(3, 2) must be coprime with a < b for this operation"),
    ("predictor", {"pairs": [(2, 3), (3, 2)], "max_n": 3},
     "(3, 2) must be coprime with a < b for this operation"),
    ("confluence", {"seeds": (2**64,), "workers": 2, "pairs": [(2, 3), (3, 4)], "max_n": 3},
     "random strategy needs a 64-bit unsigned seed"),
], ids=["confluence-pair", "invariants-pair", "settlements-pair", "predictor-pair",
        "confluence-seed"])
def test_suites_refuse_bad_input_before_the_first_game(suite, kwargs, message, monkeypatch):
    import multiprocessing

    calls = []
    for name in ("stabilize", "oracle_rows", "settle_right", "seq_for", "profile_for"):
        def recording(*args, _name=name, _real=getattr(verify, name), **kw):
            calls.append(_name)
            return _real(*args, **kw)
        monkeypatch.setattr(verify, name, recording)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    with pytest.raises(InvalidParams, match=re.escape(message)):
        verify.SUITES[suite](**kwargs)
    assert calls == []
    assert _RecordingPool.sizes == []


def test_confluence_through_a_real_pool_matches_one_worker():
    # _RecordingPool maps in this process; this run pickles each pair's
    # GameParams and schedules into real worker processes and back.
    kwargs = dict(max_n=12, pairs=[(1, 2), (2, 3)], seeds=(5,))
    pooled = verify.confluence_suite(workers=2, **kwargs)
    serial = verify.confluence_suite(workers=1, **kwargs)
    assert pooled.checks > 0
    assert (pooled.checks, pooled.failures) == (serial.checks, serial.failures)
