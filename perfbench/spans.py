"""Span tracing of chipfire's layers from outside the program.

The tracer replaces public functions at the names their callers look them
up by (``chipfire.cli.eval_base``, ``chipfire.predictor.final_state``,
``SettlementSeq.word``, ...) with wrappers that record one span per call:
name, start, end, parent span and request id, plus a few counts read from
the arguments or the result.  Spans stay in memory until the run ends.
``uninstall`` puts every original back, so an untraced pass in the same
process runs the program's own code.

Per-layer metrics are derived from the spans; every ``.s`` figure is self
time, a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, start, end, parent, request, attrs)
        self.stack: list[int] = []
        self.request = "setup"
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent

    def wrap(self, name, fn, attrs=None):
        """A traced stand-in for ``fn``; ``attrs(args, kwargs, result)`` adds counts."""
        spans, stack, clock = self.spans, self.stack, _clock

        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append((sid, name, start, end, parent, self.request,
                          attrs(args, kwargs, result) if attrs else None))
            return result

        return traced

    def wrap_states(self, name, fn):
        """Trace a generator of (n, state, log): one span per step it takes."""
        spans, stack, clock = self.spans, self.stack, _clock

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            fired = 0
            while True:
                sid, parent = self._open()
                start = clock()
                try:
                    item = next(gen, None)
                finally:
                    end = clock()
                    stack.pop()
                attrs = None
                if item is not None:
                    attrs = {"firings": item[2].total - fired}
                    fired = item[2].total
                spans.append((sid, name, start, end, parent, self.request, attrs))
                if item is None:
                    return
                yield item

        return traced

    def patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def patch_item(self, mapping, key, wrapper) -> None:
        self._saved.append((mapping, key, mapping[key]))
        mapping[key] = wrapper

    def install(self) -> None:
        import chipfire.analysis as analysis
        import chipfire.cli as cli
        import chipfire.engine as engine
        import chipfire.predictor as predictor
        import chipfire.settlements as settlements
        import chipfire.verify as verify
        import chipfire.words as words

        def digits(args, kwargs, result):
            return {"digits": len(args[0].digits)}

        def stabilize_attrs(args, kwargs, result):
            strategy = args[1] if len(args) > 1 else kwargs.get("strategy", engine.LEFTMOST)
            return {"kind": strategy.kind, "firings": result[1].total,
                    "checked": kwargs.get("check_every", 0) > 0}

        plan = [
            ("cli.main", cli.main, [(cli, "main")], None),
            ("predictor.final_state", predictor.final_state,
             [(cli, "final_state"), (predictor, "final_state"), (verify, "final_state")], None),
            ("predictor.final_counts", predictor.final_counts, [(cli, "final_counts")], None),
            ("predictor.profile_for", predictor.profile_for,
             [(cli, "profile_for"), (predictor, "profile_for"), (verify, "profile_for")], None),
            ("predictor.compute_profile", predictor.compute_profile,
             [(predictor, "compute_profile")], None),
            ("predictor.left_regular_word", predictor.left_regular_word,
             [(predictor, "left_regular_word")], None),
            ("settlements.word", settlements.SettlementSeq.word,
             [(settlements.SettlementSeq, "word")],
             lambda args, kwargs, result: {"digits": len(result)}),
            ("words.eval_base", words.eval_base, [(cli, "eval_base"), (verify, "eval_base")],
             digits),
            ("words.word_to_string", words.word_to_string,
             [(cli, "word_to_string"), (verify, "word_to_string")],
             lambda args, kwargs, result: {"chars": len(result)}),
            ("engine.stabilize", engine.stabilize, [(cli, "stabilize"), (verify, "stabilize")],
             stabilize_attrs),
            ("engine.stabilize_line", engine.stabilize_line, [(cli, "stabilize_line")],
             lambda args, kwargs, result: {"firings": result[1].total}),
            ("engine.settle_right", engine.settle_right, [(verify, "settle_right")], None),
        ]
        for fn in ("firings_from_M", "combine", "state_word", "side_values",
                   "state_poly_eval"):
            plan.append((f"analysis.{fn}", getattr(analysis, fn), [(analysis, fn)], None))
        for name, fn, sites, attrs in plan:
            for owner, attr in sites:
                self.patch(owner, attr, self.wrap(name, fn, attrs))
        for owner in (predictor, settlements, verify):
            self.patch(owner, "oracle_states",
                       self.wrap_states("engine.oracle_states", engine.oracle_states))
        for suite in ("confluence", "invariants", "settlements", "predictor"):
            self.patch_item(verify.SUITES, suite,
                            self.wrap(f"verify.{suite}", verify.SUITES[suite],
                                      lambda args, kwargs, result: {"checks": result.checks}))

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        child = defaultdict(float)
        for sid, name, start, end, parent, req, attrs in self.spans:
            if parent is not None:
                child[parent] += end - start
        return {sid: (end - start) - child[sid] for sid, _, start, end, *_ in self.spans}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, req, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": req, "attrs": attrs}) + "\n")


def layer_metrics(tracer: Tracer, records: int) -> dict[str, float]:
    """Per-layer figures from every span recorded (set-up and traced pass).

    ``records`` is the number of records the traced requests emitted.
    """
    selft = tracer.self_times()
    s = defaultdict(float)
    calls = defaultdict(int)
    count = defaultdict(int)
    for sid, name, start, end, parent, req, attrs in tracer.spans:
        key = name
        if name == "engine.stabilize":
            key = f"engine.stabilize.{attrs['kind']}" if attrs else name
            if attrs and attrs["checked"]:
                s["engine.stabilize.checked"] += selft[sid]
        s[key] += selft[sid]
        calls[key] += 1
        for field, value in (attrs or {}).items():
            if field not in ("kind", "checked"):
                count[f"{key}.{field}"] += value

    def rate(key):
        return count[f"{key}.firings"] / s[key] if s[key] > 0 else 0.0

    m = {
        "cli.main.self_s": s["cli.main"],
        "cli.main.records": records,
        "predictor.compute_profile.s": s["predictor.compute_profile"],
        "predictor.compute_profile.calls": calls["predictor.compute_profile"],
        "predictor.profile_for.hit_ratio": (
            1 - calls["predictor.compute_profile"] / calls["predictor.profile_for"]
            if calls["predictor.profile_for"] else 0.0),
        "predictor.final_state.self_s": s["predictor.final_state"],
        "predictor.final_state.calls": calls["predictor.final_state"],
        "predictor.left_regular_word.s": s["predictor.left_regular_word"],
        "predictor.final_counts.s": s["predictor.final_counts"],
        "predictor.final_counts.calls": calls["predictor.final_counts"],
        "settlements.word.s": s["settlements.word"],
        "settlements.word.digits": count["settlements.word.digits"],
        "words.eval_base.s": s["words.eval_base"],
        "words.eval_base.calls": calls["words.eval_base"],
        "words.eval_base.digits": count["words.eval_base.digits"],
        "words.word_to_string.s": s["words.word_to_string"],
        "words.word_to_string.chars": count["words.word_to_string.chars"],
    }
    for fn in ("firings_from_M", "combine", "state_word", "side_values", "state_poly_eval"):
        m[f"analysis.{fn}.s"] = s[f"analysis.{fn}"]
    for kind in ("leftmost", "rightmost", "parallel", "random"):
        key = f"engine.stabilize.{kind}"
        m[f"{key}.firings_per_s"] = rate(key)
        m[f"{key}.firings"] = count[f"{key}.firings"]
    m["engine.stabilize.checked_s"] = s["engine.stabilize.checked"]
    m["engine.oracle_states.firings_per_s"] = rate("engine.oracle_states")
    m["engine.stabilize_line.firings_per_s"] = rate("engine.stabilize_line")
    m["engine.settle_right.s"] = s["engine.settle_right"]
    m["engine.settle_right.calls"] = calls["engine.settle_right"]
    for suite in ("confluence", "invariants", "settlements", "predictor"):
        m[f"verify.{suite}.s"] = s[f"verify.{suite}"]
        m[f"verify.{suite}.checks"] = count[f"verify.{suite}.checks"]
    return m


def request_share(tracer: Tracer, request_ids, layer: str) -> tuple[float, float]:
    """(latency, share of it in ``layer`` self time) of the median request.

    The median is taken over the ``cli.main`` spans of the given requests.
    """
    wanted = set(request_ids)
    selft = tracer.self_times()
    root = {}
    inside = defaultdict(float)
    for sid, name, start, end, parent, req, attrs in tracer.spans:
        if req not in wanted:
            continue
        if name == "cli.main":
            root[req] = end - start
        elif name == layer:
            inside[req] += selft[sid]
    if not root:
        return 0.0, 0.0
    ranked = sorted(root, key=root.get)
    mid = ranked[(len(ranked) - 1) // 2]
    return root[mid], inside[mid] / root[mid]
