"""Every function, class and method in the package has a reader, and one
outside the tests but for two reference implementations, every method,
property and field of a package class is read as an attribute, outside the
tests for a field, and every exported name exists and is named outside its
module."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chipfire"
READERS = ("src", "tests", "perfbench")


def _all_strings(tree: ast.Module) -> set[int]:
    """ids of the string constants listed in the module's ``__all__``."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            ids.update(id(c) for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return ids


def _appearances(tree: ast.Module):
    """(name, line, is_attribute) for every Name, Attribute, imported name and
    string constant in the module, the strings of ``__all__`` left out;
    is_attribute marks an attribute read such as ``rep.check``."""
    exported = _all_strings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, isinstance(node.ctx, ast.Load)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                for part in alias.name.split("."):
                    yield part, node.lineno, False
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in exported):
            yield node.value, node.lineno, False


_DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree: ast.Module):
    """(node, is_member) for every function, class and method whose name is
    not a dunder; is_member marks a method or property, a definition in a
    class body."""
    members = {id(stmt) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for stmt in cls.body if isinstance(stmt, _DEFINITION)}
    for node in ast.walk(tree):
        if isinstance(node, _DEFINITION):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node, id(node) in members


def _sources(readers) -> list[Path]:
    return [path for reader in readers for path in sorted((ROOT / reader).rglob("*.py"))]


def _unread(sources) -> list[str]:
    """Every package definition that none of the ``sources`` mentions.

    Only an attribute read counts for a method or property: a local,
    parameter or string of the same name is no reader of ``obj.name``.
    """
    seen: dict[str, list[tuple[Path, int, bool]]] = {}
    for path in sources:
        for name, line, is_attribute in _appearances(ast.parse(path.read_text(), str(path))):
            seen.setdefault(name, []).append((path, line, is_attribute))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node, is_member in _definitions(ast.parse(path.read_text(), str(path))):
            # A mention inside the definition itself (recursion, say) is no reader.
            outside = [
                where for where, line, is_attribute in seen.get(node.name, [])
                if (is_attribute or not is_member)
                and not (where == path and node.lineno <= line <= node.end_lineno)
            ]
            if not outside:
                dead.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    return dead


def test_every_definition_is_used():
    dead = _unread(_sources(READERS))
    assert not dead, dead


# Read only by tests, and kept: acceptance criteria 8 and 11 check the fast
# path's a = b and gcd > 1 branches against these reference implementations.
TEST_ONLY = {"aa_final", "lift_noncoprime"}


def test_no_definition_is_read_only_by_tests():
    """Each package function and class has a reader in the package or the
    benchmark, TEST_ONLY aside: code that only its own tests read is a second
    copy of an idea the laboratory does not use.  The re-exports of
    ``__init__`` read nothing."""
    sources = [path for path in _sources(("src", "perfbench"))
               if path != PACKAGE / "__init__.py"]
    test_only = [where for where in _unread(sources)
                 if where.split()[-1] not in TEST_ONLY]
    assert not test_only, test_only


def _is_record(node: ast.ClassDef) -> bool:
    """Whether the class is a dataclass or a NamedTuple."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases)


def _fields(tree: ast.Module):
    """(class, field) for every annotated field of a dataclass or NamedTuple."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_record(node):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node, stmt.target.id


def _unread_fields(readers) -> list[str]:
    """Every record field that no file under the ``readers`` loads as an
    attribute.  Passing a field to the constructor is no reader: only a load
    of the attribute, such as ``rep.f0``, is."""
    read = {node.attr for path in _sources(readers)
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [
        f"{path.relative_to(ROOT)}:{cls.lineno} {cls.name}.{field}"
        for path in sorted(PACKAGE.glob("*.py"))
        for cls, field in _fields(ast.parse(path.read_text(), str(path)))
        if field not in read
    ]


def test_every_field_is_read():
    unread = _unread_fields(READERS)
    assert not unread, unread


def test_no_field_is_read_only_by_tests():
    """Each record field is read by the package or the benchmark: a field
    that only tests read is a value the laboratory computes and never uses."""
    test_only = _unread_fields(("src", "perfbench"))
    assert not test_only, test_only


def _defaulted(node: ast.FunctionDef, is_member: bool):
    """(name, position) for every parameter of the function that has a
    default; position counts the call's positional arguments, so it skips
    the ``self`` or ``cls`` of a method, and is None for a keyword-only one."""
    args = node.args
    positional = args.posonlyargs + args.args
    skip = 1 if is_member and not any(
        isinstance(dec, ast.Name) and dec.id == "staticmethod" for dec in node.decorator_list
    ) else 0
    for i, arg in enumerate(positional[len(positional) - len(args.defaults):],
                            len(positional) - len(args.defaults)):
        yield arg.arg, i - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether the call passes the parameter: by keyword, or by position,
    a ``*args`` argument standing for every position."""
    if any(kw.arg == name for kw in call.keywords):
        return True
    if position is None:
        return False
    return (len(call.args) > position
            or any(isinstance(arg, ast.Starred) for arg in call.args))


def test_every_defaulted_parameter_is_passed():
    """Each parameter with a default, of a package function or method, is
    passed by some call in the package or the benchmark, or named by a
    string constant there (as the verify options are).  One that only tests
    set is an option no user has: a constant says the same with less."""
    calls: dict[str, list[ast.Call]] = {}
    strings = set()
    for path in _sources(("src", "perfbench")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
    idle = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node, is_member in _definitions(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                continue
            for name, position in _defaulted(node, is_member):
                if name not in strings and not any(
                        _passes(call, name, position) for call in calls.get(node.name, [])):
                    idle.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}({name})")
    assert not idle, idle


# __main__ is left out: importing it runs the command line.
MODULES = sorted("chipfire" if path.stem == "__init__" else f"chipfire.{path.stem}"
                 for path in PACKAGE.glob("*.py") if path.stem != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    """Each name in a module's ``__all__`` is defined there, so a star import
    of the module succeeds."""
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing
    exec(f"from {name} import *", {})


def _exports(tree: ast.Module) -> list[str]:
    """The names listed in the module's ``__all__``."""
    listed = _all_strings(tree)
    return [node.value for node in ast.walk(tree) if id(node) in listed]


def test_every_export_is_mentioned_elsewhere():
    """Each name in a module's ``__all__`` is mentioned, as a whole word, by
    another module of the package, a test or a benchmark file: an export
    that nothing outside its module names is an interface no one uses.  The
    re-exports of ``__init__`` are no mention."""
    texts = {path: path.read_text() for path in _sources(READERS)}
    unmentioned = [
        f"{path.relative_to(ROOT)} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _exports(ast.parse(texts[path], str(path)))
        if not any(re.search(rf"\b{name}\b", text) for other, text in texts.items()
                   if other not in (path, PACKAGE / "__init__.py"))
    ]
    assert not unmentioned, unmentioned


def test_every_import_is_read():
    """Each name a module imports is read there, unless its import sits on a
    ``# noqa: F401`` line, which test_tracer_hooks ties to a patch site.

    ``__init__`` is left out: it imports names to re-export them.
    """
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                # ``import a.b`` binds the name ``a``.
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unread.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unread, unread
