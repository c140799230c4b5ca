"""Command-line front end.

Subcommands: final, settlements, base, profile, verify, bench.  Text output
is deterministic for a fixed invocation; exact rationals print as "p/q" (or
"p" when the denominator is one) and no floating point ever reaches stdout
except the bench timing columns.

Output format is chosen per the --format flag, falling back to the
CHIPFIRE_FORMAT environment variable (compact, list, or json).  Compact digit
strings are only used when every digit fits one character; otherwise the
comma-separated list form is printed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import analysis
# stabilize stays importable here because span tracers patch it by module.
from .engine import GameParams, stabilize, stabilize_line  # noqa: F401
from .errors import ChipFiringError, InvalidParams, ParseError, ScanExhausted
# final_counts stays importable here because span tracers patch it by module.
from .predictor import (  # noqa: F401
    CHECK_WINDOW,
    FinalAnswer,
    final_answer,
    final_answers,
    final_counts,
    final_state,
    profile_for,
)
from .settlements import (
    delta_strings,
    dormant_census,
    periodic_start,
    settlement,
    tetrahedral_periodic_start,
)
from .verify import SUITES
from .words import (
    compact_segments,
    eval_base,
    join_list_parts,
    list_segments,
    render_digits,
    segment_length,
    string_to_word,
    to_base,
    word_to_string,
)

# The fields of one `final --json` record, in the order `_record` gives them.
RECORD_FIELDS = (
    "a", "b", "n", "state", "left", "right", "settlement_index",
    "left_value_boa", "right_value_boa", "f0", "f1", "total_firings",
)
# One record line, byte for byte what `json.dumps` writes for the record as a
# dict: RECORD_FIELDS in order, ", " and ": " separators, string fields
# quoted.  No value ever needs escaping: state, left and right hold only ASCII
# digits, commas and dots, the two values are str(int), and the other fields
# are ints, which `%s` writes as json does, or null.
_STRING_FIELDS = {"state", "left", "right", "left_value_boa", "right_value_boa"}
_RECORD_LINE = "{%s}" % ", ".join(
    f'"{field}": "%s"' if field in _STRING_FIELDS else f'"{field}": %s'
    for field in RECORD_FIELDS
)


def _fmt(args) -> str:
    fmt = getattr(args, "format", None) or os.environ.get("CHIPFIRE_FORMAT", "")
    fmt = fmt or "compact"
    if fmt not in ("compact", "list", "json"):
        raise InvalidParams(f"unknown format {fmt!r}")
    return fmt


def _record(n: int, params: GameParams, answer: FinalAnswer) -> tuple:
    """The JSON record of one final state: its values in RECORD_FIELDS
    order, None where the record has null."""
    f0, f1, total = answer.counts(params)
    # The answer carries the left value at b/a, an integer set from its
    # counts; S(b/a) = n on every state, so the right value is n minus it.
    left_value = answer.left_value
    # Each part is rendered once.  A digit above 9 puts the state in list
    # form, made from one comma list per part (a compact part's is its
    # characters joined by commas), while a part without such a digit keeps
    # its own compact text; the lone-dot tokens ("14,.", ".,10") depend on
    # the part.
    head_text, tail_text = compact_segments(answer.head), compact_segments(answer.tail)
    if head_text is not None and tail_text is not None:
        state, left, right = head_text + "." + tail_text, head_text or ".", "." + tail_text
    else:
        if head_text is None:
            head_list = list_segments(answer.head)
            left = join_list_parts(head_list, "", False)
        else:
            head_list, left = ",".join(head_text), head_text or "."
        if tail_text is None:
            tail_list = list_segments(answer.tail)
            right = join_list_parts("", tail_list, True)
        else:
            tail_list, right = ",".join(tail_text), "." + tail_text
        state = join_list_parts(head_list, tail_list, True)
    return (params.a, params.b, n, state, left, right,
            f0 if params.is_structured() else None,
            str(left_value), str(n - left_value), f0, f1, total)


def _record_line(n: int, params: GameParams, answer: FinalAnswer) -> str:
    """The `final --json` line of one final state: _RECORD_LINE filled with
    the record's values, None as null."""
    return _RECORD_LINE % tuple(["null" if value is None else value
                                 for value in _record(n, params, answer)])


def _oracle_answer(n: int, params: GameParams) -> FinalAnswer:
    """The answer by simulation, with the counts read off the firing log."""
    state, log = stabilize_line(n, params, buffer="an oracle buffer")
    return FinalAnswer.parts(n, *analysis.split(state), log.fires.get(0, 0),
                             log.fires.get(1, 0), params.a, log.total)


def cmd_final(args, out) -> int:
    params = GameParams(args.a, args.b)
    fmt = _fmt(args)
    if args.range is not None:
        if args.n is not None:
            raise InvalidParams("final takes N or --range, not both")
        lo, hi = args.range
        if lo > hi or lo < 0:
            raise InvalidParams(f"bad range {lo}..{hi}")
    else:
        if args.n is None:
            raise InvalidParams("final needs N or --range")
        lo = hi = args.n
    answers = ((_oracle_answer(n, params) for n in range(lo, hi + 1)) if args.oracle
               else final_answers(lo, hi, params))
    for n, answer in enumerate(answers, lo):
        try:
            text = (_record_line(n, params, answer) if fmt == "json"
                    else render_digits(answer.head, answer.tail, True, fmt == "list"))
        except (MemoryError, OverflowError):
            # The answer itself is O(c + log n) segments; only its text can
            # outgrow memory, or repeat a block more times than an index holds.
            digits = segment_length(answer.head) + segment_length(answer.tail)
            raise InvalidParams(
                f"n={n} has a final state of {digits} digits, more than memory holds"
            ) from None
        print(text, file=out)
    return 0


def cmd_settlements(args, out) -> int:
    params = GameParams(args.a, args.b)
    params.require_structured()
    fmt = _fmt(args)
    if args.k < 0:
        raise InvalidParams("settlement index must be non-negative")
    for k in range(args.k + 1):
        w = settlement(k, params)
        if fmt == "json":
            print(
                json.dumps(
                    {
                        "a": params.a,
                        "b": params.b,
                        "k": k,
                        "word": word_to_string(w),
                        "value_boa": str(eval_base(w, params)),
                    }
                ),
                file=out,
            )
        else:
            print(word_to_string(w, list_form=fmt == "list"), file=out)
    return 0


def cmd_base(args, out) -> int:
    params = GameParams(args.a, args.b)
    fmt = _fmt(args)
    if args.eval is not None:
        if args.n is not None:
            raise InvalidParams("base takes N or --eval WORD, not both")
        w = string_to_word(args.eval)
        print(eval_base(w, params), file=out)
        return 0
    if args.n is None:
        raise InvalidParams("base needs N or --eval WORD")
    w = to_base(args.n, params)
    if fmt == "json":
        print(
            json.dumps(
                {"a": params.a, "b": params.b, "n": args.n, "word": word_to_string(w)}
            ),
            file=out,
        )
    else:
        print(word_to_string(w, list_form=fmt == "list"), file=out)
    return 0


def cmd_profile(args, out) -> int:
    params = GameParams(args.a, args.b)
    params.require_structured()
    prof = profile_for(params)
    c = params.c
    a, b = params.a, params.b
    print(f"a={a} b={b} threshold={a + b}", file=out)
    print(f"c = {c}", file=out)
    print(f"B = {prof.B}", file=out)
    print(f"H = {prof.H} (verified over {CHECK_WINDOW} increments)", file=out)
    _, left, right, f0, _ = prof.rows[prof.H]
    print(f"anchor state = {render_digits(((left, 1),), ((right, 1),), True)}", file=out)
    print(f"anchor settlement index = {f0}", file=out)
    k0 = periodic_start(params)
    k0_tet = tetrahedral_periodic_start(params)
    drift = "" if k0 == k0_tet else f" (tetrahedral formula gives {k0_tet})"
    print(f"settlements cycle from k = {k0}{drift}", file=out)
    count, last_dormant = dormant_census(params)
    print(f"dormant settlements = {count}, last at k = {last_dormant}", file=out)
    deltas = ", ".join(word_to_string(d).lstrip(".,") for d in delta_strings(params))
    print(f"delta strings: {deltas}", file=out)
    print(f"eventual origout digit = {c * (b - a)}", file=out)
    print(f"eventual right value at b/a = {a * c} (= a*c)", file=out)
    print(f"eventual left value at b/a = n - {a * c}", file=out)
    return 0


def _int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise InvalidParams(f"bad integer {token.strip()!r} in {what}") from None


def _parse_grid(text: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise InvalidParams(f"bad pair {chunk!r} in params grid")
        pairs.append((_int(parts[0], "params grid"), _int(parts[1], "params grid")))
    if not pairs:
        raise InvalidParams("empty params grid")
    return pairs


# The keyword options each suite takes, under the flags that set them.
# `verify all` passes each suite the options it takes; a single suite refuses
# the others.  --workers is accepted by every suite and used by confluence.
_SUITE_OPTIONS = {
    "confluence": ("max_n", "pairs", "seeds", "check_every"),
    "invariants": ("max_n", "pairs"),
    "settlements": ("pairs",),
    "predictor": ("max_n", "pairs"),
    "one-b": ("max_n",),
}
_OPTION_FLAGS = {
    "max_n": "--max-n",
    "pairs": "--params-grid or -a/-b",
    "seeds": "--seed",
    "check_every": "--check-every",
}

# --seed plays the random schedule with seeds seed, seed+1 and seed+2, and
# each must fit in 64 unsigned bits.
_MAX_SEED = 2**64 - 3


def cmd_verify(args, out) -> int:
    pairs = _parse_grid(args.params_grid) if args.params_grid else None
    if (args.a is None) != (args.b is None):
        raise InvalidParams("verify needs both -a and -b, or neither")
    if args.a is not None:
        if pairs is not None:
            raise InvalidParams("verify takes -a/-b or --params-grid, not both")
        pairs = [(args.a, args.b)]
    if args.workers is not None and args.workers < 1:
        raise InvalidParams(f"workers must be at least 1, got {args.workers}")
    seeds = None if args.seed is None else (args.seed, args.seed + 1, args.seed + 2)
    given = {
        key: value
        for key, value in (
            ("max_n", args.max_n),
            ("pairs", pairs),
            ("seeds", seeds),
            ("check_every", args.check_every),
        )
        if value is not None
    }
    suite = args.suite
    if suite != "all":
        ignored = [_OPTION_FLAGS[key] for key in given if key not in _SUITE_OPTIONS[suite]]
        if ignored:
            raise InvalidParams(f"verify {suite} does not take {', '.join(ignored)}")
    if args.seed is not None and not 0 <= args.seed <= _MAX_SEED:
        raise InvalidParams(f"--seed must lie in 0..{_MAX_SEED}, got {args.seed}")
    reports = []
    for name in SUITES if suite == "all" else [suite]:
        kwargs = {key: value for key, value in given.items() if key in _SUITE_OPTIONS[name]}
        if name == "confluence" and args.workers is not None:
            kwargs["workers"] = args.workers
        reports.append(SUITES[name](**kwargs))
    ok = True
    for rep in reports:
        for line in rep.lines():
            print(line, file=out)
        ok = ok and rep.ok
    print("verify: PASS" if ok else "verify: FAIL", file=out)
    return 0 if ok else 1


def cmd_bench(args, out) -> int:
    params = GameParams(args.a, args.b)
    grid = [_int(tok, "bench grid") for tok in args.grid.split(",") if tok.strip()]
    if not grid or any(n < 0 for n in grid):
        raise InvalidParams(f"bad bench grid {args.grid!r}")
    # Warm up outside the timed region: numpy import and, for structured
    # pairs, the one-off profile certification.  The answer is not
    # materialized, so a grid too large for the oracle's buffer is refused
    # there, before any state is built.
    stabilize_line(params.threshold, params)
    final_answer(min(grid), params)
    print(f"a={params.a} b={params.b}", file=out)
    print(f"{'n':>10}  {'oracle_s':>10}  {'fast_s':>10}  match", file=out)
    worst_ratio = None
    for n in grid:
        t0 = time.perf_counter()
        state, _ = stabilize_line(n, params)
        t_oracle = time.perf_counter() - t0
        t0 = time.perf_counter()
        fast = final_state(n, params)
        t_fast = time.perf_counter() - t0
        match = fast == analysis.state_word(state)
        print(
            f"{n:>10}  {t_oracle:>10.4f}  {t_fast:>10.4f}  {'yes' if match else 'NO'}",
            file=out,
        )
        if not match:
            return 1
        ratio = t_oracle / t_fast if t_fast > 0 else float("inf")
        worst_ratio = ratio if worst_ratio is None else min(worst_ratio, ratio)
    print(f"fast path faster at every n: {'yes' if worst_ratio and worst_ratio > 1 else 'no'}", file=out)
    return 0


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser and the {subcommand: parser} map its subparsers action
    holds, built once per process; each parse still makes a fresh Namespace,
    so no option leaks from one call into the next."""
    ap = argparse.ArgumentParser(
        prog="chipfire",
        description="Exact chip-firing laboratory on the integer line",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_ab(p, required=True):
        p.add_argument("-a", type=int, required=required, help="chips sent left")
        p.add_argument("-b", type=int, required=required, help="chips sent right")

    p = sub.add_parser("final", help="final state of n chips at the origin")
    p.add_argument("n", type=int, nargs="?", help="chip count")
    add_ab(p)
    p.add_argument("--oracle", action="store_true", help="force simulation")
    p.add_argument("--range", type=int, nargs=2, metavar=("N0", "N1"))
    p.add_argument("--format", choices=("compact", "list", "json"))
    p.add_argument("--json", dest="format", action="store_const", const="json")
    p.set_defaults(fn=cmd_final)

    p = sub.add_parser("settlements", help="the settlement sequence xi_0..xi_k")
    add_ab(p)
    p.add_argument("-k", type=int, required=True, help="highest index to print")
    p.add_argument("--format", choices=("compact", "list", "json"))
    p.set_defaults(fn=cmd_settlements)

    p = sub.add_parser("base", help="base-b/a numerals and exact evaluation")
    p.add_argument("n", type=int, nargs="?", help="integer to represent")
    add_ab(p)
    p.add_argument("--eval", metavar="WORD", help="evaluate a digit word instead")
    p.add_argument("--format", choices=("compact", "list", "json"))
    p.set_defaults(fn=cmd_base)

    p = sub.add_parser("profile", help="structure profile of a coprime pair")
    add_ab(p)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--max-n", type=int, dest="max_n")
    p.add_argument("--seed", type=int)
    p.add_argument("--params-grid", dest="params_grid", metavar="A,B;A,B")
    p.add_argument("--check-every", type=int, dest="check_every")
    p.add_argument("--workers", type=int)
    add_ab(p, required=False)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="oracle vs fast path timing table")
    add_ab(p)
    p.add_argument("--grid", required=True, help="comma-separated n values")
    p.set_defaults(fn=cmd_bench)

    return ap, sub.choices


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """What the full parser's parse_args(argv) gives, in one argparse pass
    when argv starts with a subcommand: that subcommand's parser, the object
    the full parser would delegate to, parses the rest."""
    argv = sys.argv[1:] if argv is None else argv
    full, subparsers = _parsers()
    sub = subparsers.get(argv[0]) if argv else None
    if sub is not None:
        args, extras = sub.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    # No arguments, a leading option, an unknown command or unrecognized
    # tokens: the full parser gives the top-level help, usage and errors.
    return full.parse_args(argv)


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _parse(argv)
    try:
        code = args.fn(args, out)
        out.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (as `| head -1` does).  Python's
        # recipe: point stdout at devnull, so that the flush at exit cannot
        # fail again, and exit 1 with nothing on stderr.
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (InvalidParams, ParseError, ScanExhausted) as exc:
        # ScanExhausted is a refusal: the pair's profile cannot be certified
        # within the scan cap, so no answer is given.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChipFiringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
