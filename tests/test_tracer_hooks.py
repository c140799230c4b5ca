"""The span tracer of perfbench/ patches chipfire's functions by the names
their callers look them up by; every one of those names must exist."""

import ast
import os
from pathlib import Path

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chipfire"


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


def _unread_shims():
    """(module, name) for every name imported on a ``# noqa: F401`` line of
    the package that its module never reads: a name kept only for a patch."""
    shims = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                shims.extend((path.stem, alias.asname or alias.name)
                             for alias in node.names
                             if (alias.asname or alias.name) not in read)
    return shims


def test_every_unread_import_is_a_patch_site(monkeypatch):
    """A name a module imports but never reads stays only because the tracer
    patches it there; once the patch goes, the import must go too."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans

    shims = _unread_shims()
    assert shims
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = {(getattr(owner, "__name__", None), key) for owner, key, _ in tracer._saved}
    finally:
        tracer.uninstall()
    missing = [f"{module}.{name}" for module, name in shims
               if (f"chipfire.{module}", name) not in patched]
    assert not missing, missing
