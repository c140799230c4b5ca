"""The span tracer of perfbench/ patches chipfire's functions by the names
their callers look them up by; every one of those names must exist."""

import os

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _current(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def test_tracer_installs_and_restores_every_patch(monkeypatch):
    """install() finds every name it patches (it raises AttributeError on a
    missing one) and uninstall() puts back every original."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans

    tracer = spans.Tracer()
    saved = []
    try:
        tracer.install()
        saved = list(tracer._saved)
        for owner, key, original in saved:
            assert _current(owner, key) is not original, key
    finally:
        tracer.uninstall()
    assert saved and not tracer._saved
    for owner, key, original in saved:
        assert _current(owner, key) is original, key
