"""CLI surface: output formats, exit codes, determinism."""

import functools
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import chipfire.settlements
import chipfire.verify
from chipfire import cli
from chipfire.cli import RECORD_FIELDS, main

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_final_compact():
    code, out = run_cli("final", "21", "-a", "2", "-b", "3")
    assert code == 0 and out == "442.2243\n"


def test_final_json_record():
    code, out = run_cli("final", "7", "-a", "1", "-b", "2", "--json")
    assert code == 0
    rec = json.loads(out)
    assert tuple(rec) == RECORD_FIELDS
    assert rec["state"] == "22.12"
    assert rec["left"] == "22" and rec["right"] == ".12"
    assert rec["f0"] == 2 and rec["f1"] == 1 and rec["total_firings"] == 3
    assert rec["settlement_index"] == 2
    assert rec["left_value_boa"] == "6" and rec["right_value_boa"] == "1"


def test_final_oracle_matches_fast():
    code_fast, out_fast = run_cli("final", "44", "-a", "2", "-b", "3", "--json")
    code_oracle, out_oracle = run_cli(
        "final", "44", "-a", "2", "-b", "3", "--json", "--oracle"
    )
    assert code_fast == code_oracle == 0
    assert json.loads(out_fast) == json.loads(out_oracle)


def test_final_below_threshold_aa():
    code, out = run_cli("final", "5", "-a", "3", "-b", "3")
    assert code == 0 and out == "5.\n"


def test_final_reduced_and_mirrored_records():
    """Firing counts in records survive gcd reduction; under mirroring only
    the origin count is defined."""
    code, out = run_cli("final", "42", "-a", "4", "-b", "6", "--json")
    rec = json.loads(out)
    assert code == 0 and rec["state"] == "884.4486"
    assert rec["f0"] == 7 and rec["f1"] == 5 and rec["total_firings"] == 18
    assert rec["settlement_index"] is None
    code, out = run_cli("final", "9", "-a", "3", "-b", "2", "--json")
    rec = json.loads(out)
    assert code == 0 and rec["state"] == "34.2"
    assert rec["f0"] == 1 and rec["f1"] is None and rec["total_firings"] == 1


def test_final_aa_json_has_null_counts():
    code, out = run_cli("final", "26", "-a", "5", "-b", "5", "--json")
    rec = json.loads(out)
    assert code == 0 and rec["state"] == "556.55"
    assert rec["f0"] is None and rec["total_firings"] is None
    assert rec["settlement_index"] is None


def test_final_range():
    code, out = run_cli("final", "-a", "2", "-b", "3", "--range", "0", "4")
    assert code == 0
    assert out.splitlines() == ["0.", "1.", "2.", "3.", "4."]


def test_final_list_format():
    code, out = run_cli("final", "21", "-a", "2", "-b", "3", "--format", "list")
    assert code == 0 and out == "4,4,2.2,2,4,3\n"


def test_final_big_digits_fall_back_to_list():
    code, out = run_cli("final", "11", "-a", "5", "-b", "7")
    assert code == 0 and out == "11,.\n"


def test_settlements_list():
    code, out = run_cli("settlements", "-a", "2", "-b", "3", "-k", "8")
    assert code == 0
    assert out.splitlines() == [
        ".", ".3", ".13", ".43", ".413", ".243", ".2413", ".2243", ".22413",
    ]


def test_settlements_rejects_noncoprime():
    code, _ = run_cli("settlements", "-a", "2", "-b", "4", "-k", "3")
    assert code == 2


def test_base_and_eval():
    code, out = run_cli("base", "9", "-a", "2", "-b", "3")
    assert code == 0 and out == "2100\n"
    code, out = run_cli("base", "-a", "2", "-b", "3", "--eval", ".43")
    assert code == 0 and out == "4\n"
    code, out = run_cli("base", "-a", "1", "-b", "2", "--eval", "22.12")
    assert code == 0 and out == "7\n"


def test_base_exact_rational_output():
    code, out = run_cli("base", "-a", "2", "-b", "3", "--eval", ".3")
    assert code == 0 and out == "2\n"
    code, out = run_cli("base", "-a", "2", "-b", "3", "--eval", ".1")
    assert code == 0 and out == "2/3\n"


def test_profile_output():
    code, out = run_cli("profile", "-a", "3", "-b", "4")
    assert code == 0
    assert "c = 3" in out
    assert "delta strings: 654, 6514, 6254" in out
    assert "B = 25" in out


def test_profile_two_three():
    code, out = run_cli("profile", "-a", "2", "-b", "3")
    assert code == 0
    assert "B = 13" in out and "H = 15" in out


def test_verify_settlements_reports_notes_and_passes():
    code, out = run_cli("verify", "settlements")
    assert code == 0
    assert "0 failures" in out
    assert "NOTE" in out and "tetrahedral" in out
    assert "verify: PASS" in out


def test_verify_invariants_scoped():
    code, out = run_cli("verify", "invariants", "--max-n", "30", "-a", "1", "-b", "2")
    assert code == 0 and "0 failures" in out


def test_verify_one_b_passes_with_valuation_sum_note():
    """The valuation-sum clause is genuinely false from n=12 (b=2) on; the
    suite reports the minimal counterexample as a note and passes on the
    true count f0(n) - 1."""
    code, out = run_cli("verify", "one-b", "--max-n", "40")
    assert code == 0
    assert "suite one-b:" in out and " 0 failures" in out
    (note,) = [line for line in out.splitlines() if "valuation sum" in line]
    assert note.startswith("  NOTE ")
    assert "b=2 n=12: digit-(b-1) count is 6, valuation sum gives 7" in note
    assert "verify: PASS" in out


def test_verify_predictor_scoped():
    code, out = run_cli(
        "verify", "predictor", "--max-n", "120", "--params-grid", "2,3;1,2"
    )
    assert code == 0
    assert out.count("NOTE") >= 2


def test_verify_determinism():
    args = ("verify", "settlements")
    assert run_cli(*args) == run_cli(*args)
    args = ("final", "-a", "2", "-b", "3", "--range", "0", "30", "--json")
    assert run_cli(*args) == run_cli(*args)


def test_bench_small_grid():
    code, out = run_cli("bench", "-a", "2", "-b", "3", "--grid", "100,1500")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a=2 b=3"
    assert all("yes" in line for line in lines[2:4])


def test_env_format(monkeypatch):
    monkeypatch.setenv("CHIPFIRE_FORMAT", "json")
    code, out = run_cli("final", "7", "-a", "1", "-b", "2")
    assert code == 0 and json.loads(out)["state"] == "22.12"
    monkeypatch.setenv("CHIPFIRE_FORMAT", "list")
    code, out = run_cli("final", "21", "-a", "2", "-b", "3")
    assert code == 0 and out == "4,4,2.2,2,4,3\n"


def test_usage_errors_exit_two():
    code, _ = run_cli("final", "-a", "2", "-b", "3")  # no N, no range
    assert code == 2
    code, _ = run_cli("base", "-a", "2", "-b", "3")
    assert code == 2
    code, _ = run_cli("base", "-a", "2", "-b", "3", "--eval", "zz")
    assert code == 2
    # str.isdigit accepts a superscript two, which int() refuses, and an
    # Arabic-Indic three, which int() reads as 3: neither is a digit here.
    for word in ["\u00b2", "1,\u00b2", "1.\u00b2", "\u06632"]:
        assert run_cli("base", "-a", "2", "-b", "3", "--eval", word) == (2, "")
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("bench", "-a", "2", "-b", "3", "--grid", "x"),
    ("bench", "-a", "2", "-b", "3", "--grid", "100,1e3"),
    ("verify", "predictor", "--params-grid", "x,y"),
    ("verify", "invariants", "--params-grid", "2,3;1,"),
])
def test_malformed_numbers_exit_two(argv, capsys):
    code, out = run_cli(*argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: bad integer ")


@pytest.mark.parametrize("argv", [
    ("final", "5", "-a", "100", "-b", "101"),
    ("final", "5", "-a", "300", "-b", "303"),
    ("profile", "-a", "100", "-b", "101"),
])
def test_scan_cap_refusal_exits_two(argv, capsys):
    # (100, 101) has no balanced n within the profile's scan cap; the gcd
    # lift of (300, 303) reduces to it.  That is a refusal, not a failed check.
    code, out = run_cli(*argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: no balanced n below 20000 for (100,101)\n"


def _no_deltas(*args):
    raise AssertionError("the refusal must not build delta strings")


@pytest.mark.parametrize("argv", [
    ("final", "5", "-a", "20000", "-b", "20001"),
    ("profile", "-a", "20000", "-b", "20001"),
])
def test_scan_cap_refusal_builds_no_delta_strings(argv, monkeypatch, capsys):
    """(20000, 20001) has c = 20000, whose delta strings hold about 4·10^8
    digits; the scan cap refuses the pair before any of them is built."""
    monkeypatch.setattr(chipfire.settlements, "_delta_tuples", _no_deltas)
    code, out = run_cli(*argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: no balanced n below 20000 for (20000,20001)\n"


# 10**17 chips need oracle buffers of exabytes, beyond any 64-bit address
# space, so the allocation fails at once.  Mid-size n could really be
# allocated.
HUGE_N = str(10**17)


@pytest.mark.parametrize("argv, stdout, buffer", [
    (("final", HUGE_N, "-a", "2", "-b", "3", "--oracle"), "", "an oracle buffer"),
    (("final", HUGE_N, "-a", "2", "-b", "3", "--oracle", "--json"), "", "an oracle buffer"),
    (("bench", "-a", "2", "-b", "3", "--grid", HUGE_N),
     "a=2 b=3\n         n    oracle_s      fast_s  match\n", "a line buffer"),
    # From 2**60 chips the line buffer's bytes outgrow a 64-bit address space,
    # and from 2**62 chips a buffer's length outgrows an index.
    *((("final", n, "-a", "2", "-b", "3", "--oracle", *form), "", "an oracle buffer")
      for n in (str(2**62), str(2**63), str(10**20)) for form in ((), ("--json",))),
    (("bench", "-a", "2", "-b", "3", "--grid", str(2**61)),
     "a=2 b=3\n         n    oracle_s      fast_s  match\n", "a line buffer"),
    (("bench", "-a", "2", "-b", "3", "--grid", str(2**63)),
     "a=2 b=3\n         n    oracle_s      fast_s  match\n", "a line buffer"),
])
def test_oracle_beyond_memory_exits_two(argv, stdout, buffer, capsys):
    code, out = run_cli(*argv)
    assert code == 2 and out == stdout
    n = argv[-1] if argv[0] == "bench" else argv[1]
    err = capsys.readouterr().err
    assert err.startswith(f"error: n={n} needs {buffer} of ") and err.endswith(
        " cells, more than memory holds\n")


# 10**15 chips leave a final state of about 10**15 digits, whose text needs
# petabytes, beyond any 64-bit address space, so building it fails at once.
# From 10**40 chips a run's count outgrows an index, so repeating its text
# overflows before any allocation.  The answer itself stays small; mid-size n
# could really be rendered.
TEXT_N = str(10**15)
INDEX_N = str(10**40)


@pytest.mark.parametrize("argv, digits", [
    (("final", TEXT_N, "-a", "2", "-b", "3"), 499999999999955),
    (("final", TEXT_N, "-a", "2", "-b", "3", "--json"), 499999999999955),
    (("final", TEXT_N, "-a", "1", "-b", "1"), 10**15 + 1),
    (("final", TEXT_N, "-a", "3", "-b", "2", "--format", "list"), 499999999999955),
    *((("final", INDEX_N, "-a", "2", "-b", "3", *form), 5 * 10**39 - 110)
      for form in ((), ("--format", "list"), ("--json",))),
    *((("final", INDEX_N, "-a", a, "-b", b, *form), digits)
      for a, b, digits in (("3", "3", 10**40 // 3), ("4", "6", 25 * 10**38 - 110),
                           ("3", "2", 5 * 10**39 - 110))
      for form in ((), ("--format", "list"), ("--json",))),
    (("final", "-a", "2", "-b", "3", "--range", INDEX_N, str(10**40 + 2)), 5 * 10**39 - 110),
    (("final", "-a", "2", "-b", "3", "--range", INDEX_N, str(10**40 + 2), "--json"),
     5 * 10**39 - 110),
])
def test_final_text_beyond_memory_exits_two(argv, digits, capsys):
    """No stdout and one error line; a range stops at its first record."""
    assert run_cli(*argv) == (2, "")
    n = argv[argv.index("--range") + 1] if "--range" in argv else argv[1]
    assert capsys.readouterr().err == (
        f"error: n={n} has a final state of {digits} digits, more than memory holds\n"
    )


@pytest.mark.parametrize("argv, message", [
    (("final", "5", "--range", "0", "3"), "final takes N or --range, not both"),
    (("base", "10", "--eval", "12"), "base takes N or --eval WORD, not both"),
], ids=["final", "base"])
def test_final_refuses_n_with_range(capsys, argv, message):
    code, out = run_cli(*argv, "-a", "2", "-b", "3")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def test_final_digits_above_255():
    # a = b = 300 leaves 300 and 400 chips on single vertices: no digit fits
    # one character, nor one byte.
    for fmt in ((), ("--format", "compact"), ("--format", "list")):
        assert run_cli("final", "1000", "-a", "300", "-b", "300", *fmt) == (0, "300,400.300\n")
    code, out = run_cli("final", "1000", "-a", "300", "-b", "300", "--json")
    rec = json.loads(out)
    assert code == 0
    assert (rec["state"], rec["left"], rec["right"]) == ("300,400.300", "300,400", ".,300")
    assert (rec["left_value_boa"], rec["right_value_boa"]) == ("700", "300")


@pytest.mark.parametrize("argv, message", [
    (("verify", "confluence", "-a", "2", "-b", "3", "--max-n", "60", "--check-every", "0"),
     "check_every must be at least 1, got 0"),
    (("verify", "confluence", "-a", "2", "-b", "3", "--check-every", "-5"),
     "check_every must be at least 1, got -5"),
    (("verify", "confluence", "--max-n", "-3"), "max_n must be non-negative, got -3"),
    (("verify", "all", "--max-n", "-3"), "max_n must be non-negative, got -3"),
    (("settlements", "-a", "2", "-b", "3", "-k", "-1"),
     "settlement index must be non-negative"),
    (("verify", "one-b", "--max-n", "-3"), "chip count must be non-negative"),
    (("verify", "predictor", "--max-n", "-3"), "chip count must be non-negative"),
    (("verify", "invariants", "--max-n", "-3"), "chip count must be non-negative"),
    (("final", "5", "-a", "229", "-b", "236"), "no certified H below 20000 for (229,236)"),
    (("final", "5", "-a", "458", "-b", "472"), "no certified H below 20000 for (229,236)"),
    (("profile", "-a", "230", "-b", "237"), "no certified H below 20000 for (230,237)"),
    (("verify", "confluence", "--seed", "-1"), f"--seed must lie in 0..{2**64 - 3}, got -1"),
    (("verify", "all", "--seed", str(2**64 - 2)),
     f"--seed must lie in 0..{2**64 - 3}, got {2**64 - 2}"),
    (("verify", "confluence", "--seed", str(2**64 - 1)),
     f"--seed must lie in 0..{2**64 - 3}, got {2**64 - 1}"),
])
def test_out_of_range_inputs_exit_two(argv, message, capsys):
    # A cadence of 0 used to turn the confluence suite's conservation checks
    # off past FULL_CHECK_BELOW and still print PASS; a negative --max-n or
    # -k printed an empty result with exit 0.  A pair whose B lies below the
    # scan cap but whose H + 50 does not used to exit 1.  A --seed whose
    # seed + 2 passes 64 bits was refused only once the suite had started.
    code, out = run_cli(*argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ("verify", "confluence", "-a", "2", "-b", "3", "--max-n", "5", "--workers", "0"),
    ("verify", "predictor", "--max-n", "5", "--workers", "-3"),
    ("verify", "all", "--max-n", "5", "--workers", "0"),
])
def test_verify_refuses_workers_below_one(argv, capsys):
    code, out = run_cli(*argv)
    workers = argv[-1]
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: workers must be at least 1, got {workers}\n"


@pytest.mark.parametrize("half", [("-a", "2"), ("-b", "3")])
def test_verify_half_pair_exit_two(half, capsys):
    code, out = run_cli("verify", "invariants", *half)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: verify needs both -a and -b, or neither\n"


@pytest.mark.parametrize("argv, message", [
    (("verify", "predictor", "--params-grid", "2,3", "-a", "2", "-b", "3"),
     "verify takes -a/-b or --params-grid, not both"),
    (("verify", "settlements", "--max-n", "1"),
     "verify settlements does not take --max-n"),
    (("verify", "invariants", "--seed", "4"),
     "verify invariants does not take --seed"),
    (("verify", "predictor", "--check-every", "8"),
     "verify predictor does not take --check-every"),
    (("verify", "one-b", "--seed", "4", "--check-every", "8"),
     "verify one-b does not take --seed, --check-every"),
])
def test_verify_refuses_ignored_options(argv, message, capsys):
    code, out = run_cli(*argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def _no_game(*args, **kwargs):
    raise AssertionError("the refusal must come before any game")


def test_verify_all_refuses_a_pair_before_any_game(monkeypatch, capsys):
    """settlements and predictor refuse (3, 2), so `verify all` refuses it
    before confluence and invariants play a game."""
    monkeypatch.setattr(chipfire.verify, "stabilize", _no_game)
    monkeypatch.setattr(chipfire.verify, "oracle_rows", _no_game)
    code, out = run_cli("verify", "all", "-a", "3", "-b", "2")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        "error: (3, 2) must be coprime with a < b for this operation\n")


def test_verify_accepts_workers_and_suite_options():
    code, out = run_cli(
        "verify", "predictor", "--params-grid", "2,3", "--max-n", "40", "--workers", "1"
    )
    assert code == 0 and out.endswith("verify: PASS\n")
    code, out = run_cli(
        "verify", "confluence", "-a", "1", "-b", "2", "--max-n", "30",
        "--seed", "4", "--check-every", "8", "--workers", "1",
    )
    assert code == 0 and out.endswith("verify: PASS\n")
    # The largest seed whose seed + 2 still fits in 64 bits.
    code, out = run_cli(
        "verify", "confluence", "-a", "1", "-b", "2", "--max-n", "30",
        "--seed", str(2**64 - 3), "--workers", "1",
    )
    assert code == 0 and out.endswith("verify: PASS\n")


def test_verify_confluence_accepts_equal_rates():
    """For a = b every firing sends as many chips each way, so the weighted
    sum check pins M = 0 rather than dividing by b - a."""
    code, out = run_cli("verify", "confluence", "--params-grid", "2,2;3,3", "--max-n", "30")
    assert (code, out) == (0, "suite confluence: 1054 checks, 0 failures\nverify: PASS\n")


def test_successive_main_calls_do_not_leak_options(monkeypatch):
    # Every call below starts with a subcommand and has no stray token, so
    # each is parsed by the subcommand's parser alone, never the full one.
    monkeypatch.setattr(cli._parsers()[0], "parse_args", _raise)
    code, out = run_cli("final", "5", "-a", "1", "-b", "2", "--json")
    assert code == 0 and json.loads(out)["state"] == "12.2"
    code, out = run_cli("final", "5", "-a", "1", "-b", "2")
    assert code == 0 and out == "12.2\n"
    code, out = run_cli("final", "-a", "2", "-b", "3", "--range", "0", "1", "--format", "list")
    assert code == 0 and out == "0,.\n1,.\n"
    code, out = run_cli("final", "5", "-a", "2", "-b", "3", "--oracle", "--format", "json")
    assert code == 0 and json.loads(out)["state"] == "20.3"
    code, out = run_cli("final", "21", "-a", "2", "-b", "3")
    assert code == 0 and out == "442.2243\n"
    code, out = run_cli("base", "-a", "2", "-b", "3", "--eval", ".43")
    assert code == 0 and out == "4\n"
    code, out = run_cli("base", "9", "-a", "2", "-b", "3")
    assert code == 0 and out == "2100\n"


# argv on which the one-pass parse must match the full parser: flags glued
# and abbreviated, --opt=value, a negative N, stray tokens, unknown options,
# help, "--", bad values and missing arguments, for every subcommand, plus
# the inputs that go to the full parser (no command, a leading option, an
# unknown or abbreviated command).
PARSE_CORPUS = [
    "",
    "-h",
    "--help",
    "--",
    "-- final 5 -a 2 -b 3",
    "-x final 5 -a 2 -b 3",
    "frobnicate",
    "fin 5 -a 2 -b 3",
    "final",
    "final 5000 -a 2 -b 3",
    "final 5000 -a2 -b3",
    "final 5000 -b 3 -a 2 --json",
    "final 5 -a 2 -b 3 --format=json",
    "final 5 -a 2 -b 3 --form list",
    "final 5 -a 2 -b 3 --js",
    "final 5 -a 2 -b 3 --format xml",
    "final -5 -a 2 -b 3",
    "final 5 -a 2 -b 3 --oracle",
    "final -a 2 -b 3 --range 0 27",
    "final -a 2 -b 3 --ra 0",
    "final 5 6 -a 2 -b 3",
    "final 5 -a 2 -b 3 extra",
    "final 5 -a 2 -b 3 --bogus",
    "final 5 -a 2 -b 3 --bogus=1 -q",
    "final 5 -a 2",
    "final abc -a 2 -b 3",
    "final 5 -a x -b 3",
    "final -h",
    "final 5 -a 2 -b 3 --he",
    "final -- 5 -a 2 -b 3",
    "final 5 -a 2 -b 3 --",
    "settlements -a 2 -b 3 -k 8",
    "settlements -a 2 -b 3 -k8 --format json",
    "settlements -a 2 -b 3",
    "settlements -a 2 -b 3 -k 8 9",
    "settlements --help",
    "base -a 2 -b 3 9",
    "base -a 2 -b 3 --eval .43",
    "base -a 2 -b 3 --ev=.43 --format list",
    "base 9 -a 2 -b 3 extra",
    "base -h",
    "profile -a 3 -b 4",
    "profile -a 3 -b 4 5",
    "profile -a 3",
    "profile -h",
    "verify all",
    "verify confluence --max-n 300 --seed 4 --check-every 7 --workers 2",
    "verify predictor --max-n 500 --params-grid 2,3;3,4",
    "verify invariants --max 100 -a 1 -b 2",
    "verify nope",
    "verify",
    "verify all --frob",
    "verify -h",
    "bench -a 2 -b 3 --grid 1000,10000",
    "bench -a 2 -b 3",
    "bench -a 2 -b 3 --grid 10 20",
    "bench -h",
]


def _parse_outcome(parse, argv, capsys):
    try:
        namespace, code = vars(parse(argv)), None
    except SystemExit as exc:
        namespace, code = None, exc.code
    out, err = capsys.readouterr()
    return namespace, out, err, code


@pytest.mark.parametrize("line", PARSE_CORPUS)
def test_one_pass_parse_matches_the_full_parser(line, capsys):
    argv = line.split()
    expected = _parse_outcome(cli._parsers()[0].parse_args, argv, capsys)
    assert _parse_outcome(cli._parse, argv, capsys) == expected


def _raise(*args, **kwargs):
    raise AssertionError("text output must not build the JSON record")


@pytest.mark.parametrize("argv", [
    ("final", "30000", "-a", "2", "-b", "3"),
    ("final", "-a", "4", "-b", "6", "--range", "0", "50", "--format", "list"),
    ("final", "200", "-a", "2", "-b", "3", "--oracle"),
])
def test_text_output_skips_record(argv, monkeypatch):
    code, expected = run_cli(*argv)
    import chipfire.predictor

    monkeypatch.setattr(cli, "eval_base", _raise)
    monkeypatch.setattr(cli, "_record", _raise)
    monkeypatch.setattr(cli, "_record_line", _raise)
    monkeypatch.setattr(chipfire.predictor, "segments_weighted_sum", _raise)
    monkeypatch.setattr(chipfire.predictor, "firings_from_weight", _raise)
    assert run_cli(*argv) == (code, expected)
    assert code == 0 and expected.count("\n") == (51 if "--range" in argv else 1)


# One pair per dispatch branch: a = b, gcd > 1, mirror (a > b), coprime a < b.
BRANCH_PAIRS = [(2, 2), (3, 3), (4, 6), (2, 4), (3, 2), (5, 3), (1, 2), (2, 3), (5, 7)]


@pytest.mark.parametrize("a, b", BRANCH_PAIRS)
def test_every_head_ends_in_a_single_segment(a, b):
    """Every answer's head ends in a segment with count 1, on both sides of
    the H of the coprime pair it reduces to: the gcd lift and the mirror
    split the origin digit off that segment alone."""
    from math import gcd

    from chipfire import GameParams
    from chipfire.predictor import final_answers, profile_for

    d = gcd(a, b)
    H = 0 if a == b else profile_for(GameParams(min(a, b) // d, max(a, b) // d)).H
    hi = d * (H + 20)
    heads = [answer.head for answer in final_answers(0, hi, GameParams(a, b))]
    assert [n for n, head in enumerate(heads) if head[-1][1] != 1] == []


@pytest.mark.parametrize("a, b", BRANCH_PAIRS)
def test_text_state_equals_json_state(a, b):
    from chipfire import GameParams, new_state, stabilize, string_to_word

    p = GameParams(a, b)
    for oracle in ((), ("--oracle",)):
        base = ("final", "-a", str(a), "-b", str(b), "--range", "0", "60", *oracle)
        _, compact = run_cli(*base)
        _, listed = run_cli(*base, "--format", "list")
        _, records = run_cli(*base, "--json")
        recs = [json.loads(line) for line in records.splitlines()]
        assert compact.splitlines() == [rec["state"] for rec in recs]
        assert [string_to_word(line) for line in listed.splitlines()] == [
            string_to_word(rec["state"]) for rec in recs
        ]
        for rec in recs:
            _, log = stabilize(new_state(rec["n"], p))
            expected = None if a == b and not oracle else log.total
            assert rec["total_firings"] == expected, (a, b, rec["n"], oracle)


@pytest.mark.parametrize("a, b", BRANCH_PAIRS)
def test_oracle_plays_one_line_game_per_record(a, b, monkeypatch):
    """`--oracle` answers each record with one call of the line kernel and
    never calls the leftmost `stabilize`."""
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "stabilize_line", counting("line", cli.stabilize_line))
    monkeypatch.setattr(cli, "stabilize", counting("stabilize", cli.stabilize))
    for ns, records in ((("100",), 1), (("--range", "0", "40"), 41)):
        for form in ((), ("--format", "list"), ("--json",)):
            calls.clear()
            code, out = run_cli("final", *ns, "-a", str(a), "-b", str(b), "--oracle", *form)
            assert code == 0 and len(out.splitlines()) == records
            assert calls == ["line"] * records, (a, b, ns, form)


def _record_three_calls(n, params, word, log):
    """Reference: the JSON record as built by rendering the state, then its
    left and right parts, each with its own word_to_string call, and by
    evaluating both parts exactly."""
    from chipfire import DigitWord, eval_base, word_to_string
    from chipfire.analysis import firings_from_weight
    from chipfire.predictor import final_counts

    if log is not None:
        f0, f1, total = log.fires.get(0, 0), log.fires.get(1, 0), log.total
    else:
        f0, f1, _ = final_counts(n, params)
        m = sum(v * d for v, d in enumerate(word.digits, -word.hi))
        total = None if params.a == params.b else firings_from_weight(m, params)
    left = DigitWord(word.integer_digits(), 0)
    right = DigitWord.fraction(word.fraction_digits())
    return {
        "a": params.a,
        "b": params.b,
        "n": n,
        "state": word_to_string(word, radix_mark="always"),
        "left": word_to_string(left),
        "right": word_to_string(right),
        "settlement_index": f0 if params.is_structured() else None,
        "left_value_boa": str(eval_base(left, params)),
        "right_value_boa": str(eval_base(right, params)),
        "f0": f0,
        "f1": f1,
        "total_firings": total,
    }


@pytest.mark.parametrize(
    "a,b", sorted(set(BRANCH_PAIRS) | {(20, 21), (3, 8), (1, 10), (9, 10)})
)
def test_record_renders_like_three_calls(a, b):
    """One digit-to-text pass and one exact evaluation give the same records,
    byte for byte, list-form fallbacks and lone-dot forms ("14,.", ".,10")
    included, on every dispatch branch."""
    from chipfire import GameParams, final_state, oracle_states, state_word

    p = GameParams(a, b)
    rows = list(oracle_states(p, 300))
    for oracle in ((), ("--oracle",)):
        code, out = run_cli("final", "-a", str(a), "-b", str(b), "--range", "0", "300",
                            "--json", *oracle)
        want = [
            _record_three_calls(n, p, state_word(state), log) if oracle
            else _record_three_calls(n, p, final_state(n, p), None)
            for n, state, log in rows
        ]
        assert code == 0
        assert out.splitlines() == [json.dumps(rec) for rec in want], (a, b, oracle)


def _no_eval(*args, **kwargs):
    raise AssertionError("a JSON record must not evaluate a part")


@pytest.mark.parametrize("a, b", BRANCH_PAIRS)
def test_record_evaluates_only_the_shorter_part(a, b, monkeypatch):
    """No part is evaluated at all: each record takes its left value from
    the answer's counts, and that value equals the exact value of its left
    part (the reference uses the real eval_base), the right value that of
    its right part."""
    import chipfire.words
    from chipfire import DigitWord, GameParams, eval_base, string_to_word

    monkeypatch.setattr(cli, "eval_base", _no_eval)
    monkeypatch.setattr(chipfire.words, "eval_base", _no_eval)
    p = GameParams(a, b)
    for oracle in ((), ("--oracle",)):
        code, out = run_cli("final", "-a", str(a), "-b", str(b), "--range", "0", "300",
                            "--json", *oracle)
        recs = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and len(recs) == 301
        for rec in recs:
            w = string_to_word(rec["state"])
            left = DigitWord(w.integer_digits(), 0)
            right = DigitWord.fraction(w.fraction_digits())
            assert rec["left_value_boa"] == str(eval_base(left, p)), (rec, oracle)
            assert rec["right_value_boa"] == str(eval_base(right, p)), (rec, oracle)


def test_record_lone_dot_forms():
    from chipfire import DigitWord, GameParams
    from chipfire.cli import _record, _record_line
    from chipfire.predictor import FinalAnswer

    def answer(word):
        # The left part is the one digit 14 at the origin, worth 14: with no
        # firings, all 14 chips.
        return FinalAnswer.parts(14, word.integer_digits(), word.fraction_digits(), 0, 0, 20, 0)

    p = GameParams(20, 21)
    for ans, parts in [
        (answer(DigitWord((14, 10), -1)), ("14,.,10", "14,.", ".,10", "14")),
        (answer(DigitWord((14, 3, 2), -2)), ("14.3,2", "14,.", ".32", "14")),
        (FinalAnswer.parts(0, (), (10,), 0, 0, 20, 0), (".,10", ".", ".,10", "0")),
    ]:
        rec = dict(zip(RECORD_FIELDS, _record(0, p, ans)))
        assert (rec["state"], rec["left"], rec["right"], rec["left_value_boa"]) == parts
        # The line is json.dumps's bytes for the record.
        line = _record_line(0, p, ans)
        assert tuple(json.loads(line)) == RECORD_FIELDS
        assert line == json.dumps(rec)


def _no_json_dumps(*args, **kwargs):
    raise AssertionError("a final record must not call json.dumps")


@pytest.mark.parametrize("a, b", BRANCH_PAIRS + [(20, 21), (1, 10)])
def test_record_lines_are_json_dumps_bytes(a, b, monkeypatch):
    """Every `final --json` line is, byte for byte, what `json.dumps` writes
    for its record, though `json.dumps` is never called: on every dispatch
    branch, with list-form digits ((20, 21), (1, 10)), from n = 0, with the
    null counts of a = b and of the mirror, and for `--oracle` answers."""
    from chipfire import GameParams

    dumps = json.dumps
    monkeypatch.setattr(cli.json, "dumps", _no_json_dumps)
    structured = GameParams(a, b).is_structured()
    for oracle in ((), ("--oracle",)):
        code, out = run_cli("final", "-a", str(a), "-b", str(b), "--range", "0", "120",
                            "--json", *oracle)
        lines = out.splitlines()
        assert code == 0 and len(lines) == 121
        recs = [json.loads(line) for line in lines]
        assert [tuple(rec) for rec in recs] == [RECORD_FIELDS] * 121, (a, b, oracle)
        assert [dumps(rec) for rec in recs] == lines, (a, b, oracle)
        assert recs[0]["n"] == 0 and recs[0]["state"] == "0."
        nulls = {key for rec in recs for key, value in rec.items() if value is None}
        want = set() if structured else {"settlement_index"}
        if not oracle and a == b:
            want |= {"f0", "f1", "total_firings"}
        elif not oracle and a > b:
            want.add("f1")
        assert nulls == want, (a, b, oracle)


@pytest.mark.parametrize("a, b", [(1, 2), (2, 3), (5, 7), (3, 2), (5, 3), (4, 6), (2, 4)])
def test_json_record_runs_one_dispatch(a, b, monkeypatch):
    """A record past H finds its left word once: the state and the firing
    counts come from the same answer (the mirror and the gcd lift too).  A
    range past H peels only its first left word and steps the rest."""
    import chipfire.predictor as predictor
    from chipfire import GameParams

    d = GameParams(a, b).d
    base = GameParams(*sorted((a // d, b // d)))
    first = d * (predictor.profile_for(base).H + 1)    # the first n past H
    calls = []
    real = predictor.left_regular_word

    def counting(value, params):
        calls.append(value)
        return real(value, params)

    monkeypatch.setattr(predictor, "left_regular_word", counting)
    for n in (first, first + 1, 10**4, 10**5):
        calls.clear()
        assert run_cli("final", str(n), "-a", str(a), "-b", str(b), "--json")[0] == 0
        assert len(calls) == 1, (a, b, n)
    calls.clear()
    code, out = run_cli("final", "-a", str(a), "-b", str(b), "--range", str(first),
                        str(first + 40), "--json")
    assert code == 0 and len(out.splitlines()) == 41 and len(calls) == 1


# Every dispatch branch, (20, 21) with H = 1071, (3, 5), and the lifted
# mirrors (6, 4) and (9, 6).
STEP_PAIRS = BRANCH_PAIRS + [(20, 21), (3, 5), (6, 4), (9, 6)]
ORACLE_STEP_PAIRS = {(1, 2), (2, 3), (3, 5), (20, 21)}
ORACLE_MAX_N = 1500


@functools.cache
def _oracle_rows(a, b):
    from chipfire import GameParams, oracle_rows

    return tuple(oracle_rows(GameParams(a, b), ORACLE_MAX_N))


def _first_stepped(a, b):
    """d * (H + 1), the first n whose answer comes past the reduced pair's H
    (0 for a = b, which has no H)."""
    import chipfire.predictor as predictor
    from chipfire import GameParams

    if a == b:
        return 0
    d = GameParams(a, b).d
    return d * (predictor.profile_for(GameParams(*sorted((a // d, b // d)))).H + 1)


@given(pair=st.sampled_from(STEP_PAIRS), near=st.booleans(),
       offset=st.integers(-40, 5), free_lo=st.integers(0, 10**5),
       width=st.integers(0, 40), far=st.integers(0, 10**12))
@example(pair=(20, 21), near=False, offset=0, free_lo=0, width=ORACLE_MAX_N, far=10**12)
@example(pair=(6, 4), near=True, offset=-3, free_lo=0, width=8, far=10**12)
@example(pair=(9, 6), near=True, offset=-4, free_lo=0, width=10, far=10**12)
@settings(max_examples=60, deadline=None)
def test_range_answers_equal_per_n_answers(pair, near, offset, free_lo, width, far):
    """`final --range lo hi` prints the per-N outputs of `final N`, byte for
    byte, in every format, for windows straddling d * (H + 1); the stepped
    answers equal the per-N ones for lo up to 10**12; and for n <= 1500 they
    match the oracle's rows."""
    from chipfire import GameParams
    from chipfire.predictor import final_answer, final_answers
    from chipfire.words import segment_digits

    a, b = pair
    p = GameParams(a, b)
    lo = max(0, _first_stepped(a, b) + offset) if near else free_lo
    hi = lo + width
    ab = ("-a", str(a), "-b", str(b))
    for form in ((), ("--format", "list"), ("--json",)):
        code, out = run_cli("final", *ab, "--range", str(lo), str(hi), *form)
        per_n = [run_cli("final", str(n), *ab, *form) for n in range(lo, hi + 1)]
        assert code == 0 and all(c == 0 for c, _ in per_n)
        assert out == "".join(text for _, text in per_n), (pair, lo, hi, form)
    assert list(final_answers(far, far + width, p)) == [
        final_answer(n, p) for n in range(far, far + width + 1)
    ], (pair, far)
    if pair in ORACLE_STEP_PAIRS and lo <= ORACLE_MAX_N:
        rows = _oracle_rows(a, b)[lo : hi + 1]
        for row, answer in zip(rows, final_answers(lo, min(hi, ORACLE_MAX_N), p)):
            n, left, right, f0, f1 = row
            assert (segment_digits(answer.head), segment_digits(answer.tail),
                    answer.f0, answer.f1) == (left, right, f0, f1), (pair, n)


@pytest.mark.parametrize("a, b", BRANCH_PAIRS + [(6, 4), (9, 6)])
def test_every_answer_runs_one_dispatch_generator(a, b, monkeypatch):
    """One `final_answer`, and one `final_answers` range, reach `final_answers`
    once, on every dispatch branch and on the lifted mirrors (6, 4) and
    (9, 6), on both sides of d * (H + 1): the mirror and the gcd lift run
    inside that one generator rather than through calls to it."""
    import chipfire.predictor as predictor
    from chipfire import GameParams

    calls = []
    real = predictor.final_answers

    def counting(lo, hi, params):
        calls.append((lo, hi, params))
        return real(lo, hi, params)

    monkeypatch.setattr(predictor, "final_answers", counting)
    p = GameParams(a, b)
    first = _first_stepped(a, b)
    for n in (0, first):
        calls.clear()
        predictor.final_answer(n, p)
        assert len(calls) == 1, (a, b, n, calls)
    calls.clear()
    lo, hi = max(0, first - 2 * p.d), first + 2 * p.d
    assert len(list(predictor.final_answers(lo, hi, p))) == hi - lo + 1
    assert len(calls) == 1, (a, b, lo, hi, calls)


RENDER_PAIRS = sorted(set(BRANCH_PAIRS) | {(20, 21), (3, 8), (6, 9), (9, 6), (10, 15)})


@given(pair=st.sampled_from(RENDER_PAIRS),
       n=st.one_of(st.integers(min_value=0, max_value=1500),
                   st.integers(min_value=0, max_value=10**5)),
       oracle_n=st.integers(min_value=0, max_value=400))
@example(pair=(20, 21), n=1071, oracle_n=400)
@example(pair=(20, 21), n=1072, oracle_n=0)
@example(pair=(1, 2), n=10**5, oracle_n=1)
@example(pair=(9, 6), n=10**5, oracle_n=399)
@example(pair=(10, 15), n=10**5 - 1, oracle_n=398)
@example(pair=(6, 9), n=10**5, oracle_n=397)
@settings(max_examples=150, deadline=None)
def test_final_renders_like_the_materialized_word(pair, n, oracle_n):
    """Text rendered from the answer's segments (runs included) and the JSON
    record, whose values come from the answer's counts, equal the renderers
    and the exact evaluation applied to the materialized state, on every
    dispatch branch, on both sides of H ((20, 21) has H = 1071), with digits
    above 9 ((6, 9), (9, 6) and (10, 15)), and for `--oracle` answers."""
    from chipfire import GameParams, final_state, stabilize_line, state_word, word_to_string

    a, b = pair
    p = GameParams(a, b)
    word = final_state(n, p)
    argv = ("final", str(n), "-a", str(a), "-b", str(b))
    compact = word_to_string(word, radix_mark="always")
    listed = word_to_string(word, list_form=True, radix_mark="always")
    assert run_cli(*argv) == (0, compact + "\n")
    assert run_cli(*argv, "--format", "list") == (0, listed + "\n")
    record = _record_three_calls(n, p, word, None)
    assert run_cli(*argv, "--json") == (0, json.dumps(record) + "\n")
    state, log = stabilize_line(oracle_n, p)
    record = _record_three_calls(oracle_n, p, state_word(state), log)
    assert run_cli("final", str(oracle_n), *argv[2:], "--oracle", "--json") == (
        0, json.dumps(record) + "\n")


# sha256 of stdout, fixed before `final` rendered from segments, so that
# every later change keeps these long outputs byte for byte.
GOLDEN_SHA256 = {
    "final 100000 -a 2 -b 3":
        "7611118dc4114a224ed7548876f37ef9dc2942b3fb017c83b6fffaf0225fef7f",
    "final 100000 -a 2 -b 3 --json":
        "110fff90139b8667d86bf4947fcfad7854ca49eb3258de401f8b8207b51ad1b7",
    "final 30000 -a 3 -b 2":
        "f25e2d3e557e0461ca680b4c75b62d32e535072d03477b02eea7dfd2f189792f",
    "final 30000 -a 3 -b 2 --json":
        "3a50e21fda622d046d2faad6d07cd52b9cf9b7f0cf1b729315ec2d99aabb2ae4",
    "final 30000 -a 4 -b 6":
        "f79ef2748551afa0f259ed141a8e4aef6b6824767e04e7ce93f8f2089a6cc76c",
    "final 30000 -a 4 -b 6 --json":
        "ba29aa1f761ac97c60e99a780641e7150404f0e264cd1e608b763ec47978d2a1",
    "final 30000 -a 1 -b 2":
        "fd946d1f4119c4763dfa9050b5f7c7304b51efafafcbe292113a619571423ae3",
    "final 30000 -a 1 -b 2 --json":
        "b2a1ea5fdc6727fb7183e57cc1ea830ffbe9ce6d6f495e980a36e24b5675a6e6",
    "final 1000 -a 6 -b 9 --format list":
        "841147af05d4d05e09d74aa527c700f9b63cb06613cc01308487bc883161ac5f",
    # a = b, fixed while its answer was still the explicit aa_final tuple.
    "final 300000 -a 1 -b 1":
        "6dbb3ff9c033da0594fa337a709ae79b69b31354006b5ac33d249ea47ebec6a1",
    "final 300000 -a 1 -b 1 --json":
        "5d82e7bda900de5d3d147d373e3ca063e2fd522aeea8fcbd9c6560e12bea613b",
    "final 1000 -a 12 -b 12 --format list":
        "1a886cac51cdd40f4950a5ebce535cc94cbfab869abcd2fe535b4a3e14048b98",
    "final -a 3 -b 3 --range 0 200 --json":
        "a38f12c7aeb93c607280bd5779a1a914de0dc1a3a439059ead90a1e6de12a018",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_SHA256))
def test_long_outputs_keep_their_bytes(command):
    code, out = run_cli(*command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[command]


# md5 of stdout, fixed while `final` still wrote each JSON record with
# `json.dumps`, so that the record line template keeps every byte.  The test
# sets CHIPFIRE_FORMAT=json, the only source of JSON for the last command.
JSON_GOLDEN_MD5 = [
    ("final 300000 -a 2 -b 3 --json", "ba359f6e33e30ed21785321b58515956"),
    ("final -a 20 -b 21 --range 0 1200 --json", "b5974813eb013a43af3ffb0e34fd12a4"),
    ("final -a 3 -b 2 --range 0 400 --json", "cfba8a1a482516696395174adf12d29f"),
    ("final -a 4 -b 6 --range 0 300 --json --oracle", "297b2b98d42b7f998038bc8721c4071e"),
    ("final -a 3 -b 3 --range 0 300 --json", "b6db4b6d98a3b122bc7ef8797b209dd9"),
    ("final -a 1 -b 2 --range 0 500", "cf730403929b7c2df8dde0bbbf682622"),
]


def test_json_records_keep_their_bytes(monkeypatch):
    monkeypatch.setenv("CHIPFIRE_FORMAT", "json")
    for command, digest in JSON_GOLDEN_MD5:
        code, out = run_cli(*command.split())
        assert code == 0 and out.endswith("}\n")
        assert hashlib.md5(out.encode()).hexdigest() == digest, command


PROFILE_20_21_DELTAS = [
    "40,39,38,37,36,35,34,33,32,31,30,29,28,27,26,25,24,23,22,21",
    "40,39,38,37,36,35,34,33,32,31,30,29,28,27,26,25,24,23,22,1,21",
    "40,39,38,37,36,35,34,33,32,31,30,29,28,27,26,25,24,23,2,22,21",
    "40,39,38,37,36,35,34,33,32,31,30,29,28,27,26,25,24,3,23,22,21",
    "40,39,38,37,36,35,34,33,32,31,30,29,28,27,26,25,4,24,23,22,21",
    "40,39,38,37,36,35,34,33,32,31,30,29,28,27,26,5,25,24,23,22,21",
    "40,39,38,37,36,35,34,33,32,31,30,29,28,27,6,26,25,24,23,22,21",
    "40,39,38,37,36,35,34,33,32,31,30,29,28,7,27,26,25,24,23,22,21",
    "40,39,38,37,36,35,34,33,32,31,30,29,8,28,27,26,25,24,23,22,21",
    "40,39,38,37,36,35,34,33,32,31,30,9,29,28,27,26,25,24,23,22,21",
    "40,39,38,37,36,35,34,33,32,31,10,30,29,28,27,26,25,24,23,22,21",
    "40,39,38,37,36,35,34,33,32,11,31,30,29,28,27,26,25,24,23,22,21",
    "40,39,38,37,36,35,34,33,12,32,31,30,29,28,27,26,25,24,23,22,21",
    "40,39,38,37,36,35,34,13,33,32,31,30,29,28,27,26,25,24,23,22,21",
    "40,39,38,37,36,35,14,34,33,32,31,30,29,28,27,26,25,24,23,22,21",
    "40,39,38,37,36,15,35,34,33,32,31,30,29,28,27,26,25,24,23,22,21",
    "40,39,38,37,16,36,35,34,33,32,31,30,29,28,27,26,25,24,23,22,21",
    "40,39,38,17,37,36,35,34,33,32,31,30,29,28,27,26,25,24,23,22,21",
    "40,39,18,38,37,36,35,34,33,32,31,30,29,28,27,26,25,24,23,22,21",
    "40,19,39,38,37,36,35,34,33,32,31,30,29,28,27,26,25,24,23,22,21",
]
PROFILE_20_21 = (
    "a=20 b=21 threshold=41\n"
    "c = 20\n"
    "B = 1051\n"
    "H = 1071 (verified over 50 increments)\n"
    "anchor state = 40,38,36,34,32,30,28,26,24,22,20,38,35,32,20."
    "40,39,38,37,36,35,34,33,32,31,30,29,28,27,6,26,25,24,23,22,21\n"
    "anchor settlement index = 216\n"
    "settlements cycle from k = 230 (tetrahedral formula gives 1541)\n"
    "dormant settlements = 20, last at k = 209\n"
    + "delta strings: " + ", ".join(PROFILE_20_21_DELTAS) + "\n"
    + "eventual origout digit = 20\n"
    "eventual right value at b/a = 400 (= a*c)\n"
    "eventual left value at b/a = n - 400\n"
)


def test_profile_slow_to_certify_pair_golden():
    """(20, 21) certifies only after B = 1051; its report is pinned byte for byte."""
    assert run_cli("profile", "-a", "20", "-b", "21") == (0, PROFILE_20_21)


def test_subprocess_entry_point():
    # main() parses sys.argv: through the subcommand's parser when it starts
    # with one, else through the full parser, whose usage error exits 2.
    env = dict(os.environ, PYTHONPATH=SRC)
    for argv, code, stdout, stderr in [
        (["final", "8", "-a", "1", "-b", "2"], 0, "111.1112\n", ""),
        (["final", "21", "-a", "2", "-b", "3"], 0, "442.2243\n", ""),
        ([], 2, "", "chipfire: error: the following arguments are required: command\n"),
    ]:
        proc = subprocess.run(
            [sys.executable, "-m", "chipfire", *argv],
            capture_output=True,
            text=True,
            env=env,
        )
        assert (proc.returncode, proc.stdout) == (code, stdout)
        assert proc.stderr.endswith(stderr)
        if code == 2:
            assert proc.stderr.startswith("usage: chipfire [-h] {final,settlements,")


def test_oracle_commands_run_without_numpy():
    """The package imports no numpy: with its import blocked, the commands
    that play line games exit 0 and write nothing to stderr."""
    env = dict(os.environ, PYTHONPATH=SRC)
    script = ("import sys; sys.modules['numpy'] = None; "
              "from chipfire.cli import main; sys.exit(main(sys.argv[1:]))")
    for argv in (["final", "800", "-a", "2", "-b", "3", "--oracle", "--json"],
                 ["bench", "-a", "2", "-b", "3", "--grid", "2000"]):
        proc = subprocess.run([sys.executable, "-c", script, *argv],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        assert proc.stdout


def test_closed_stdout_exits_one_quietly():
    """A reader that closes the pipe after the first line (as `| head -1`
    does) ends the command with exit 1 and no traceback on stderr."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "chipfire", "final", "-a", "2", "-b", "3",
         "--range", "0", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"0.\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")
