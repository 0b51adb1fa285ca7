"""Source guard: every function, class and method defined in the package is
named somewhere in the package, its tests or the benchmark harness.

A definition counts as used when its name appears as a variable, an
attribute or a word inside a string literal (the benchmark tracer names
functions by their qualified names) anywhere under src/, tests/ or bench/.
Docstrings do not count, so a name that only documentation mentions is
still reported.

Module-level constants and annotated class fields are held to a stricter
standard: they must be read, so an assignment or a keyword argument that
sets one does not count as a use.  A class field counts as read only when
it is loaded as an attribute, so a local variable of the same name does
not hide it.

Every name a module under src/ or tests/ imports must be loaded in that
module.  The package's __init__ is exempt: its imports are the public API.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "lpiso"

#: names allowed to stay defined without a use; keep it empty
UNUSED_ALLOWED: frozenset = frozenset()


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name


def _docstring_ids(tree: ast.Module) -> set:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                out.add(id(first.value))
    return out


def _references(tree: ast.Module):
    docstrings = _docstring_ids(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            yield from re.findall(r"[A-Za-z_]\w*", node.value)


def test_every_package_definition_is_named_elsewhere():
    defined = set()
    for path in sorted(PACKAGE.glob("*.py")):
        defined.update(_definitions(_parse(path)))
    named = set()
    for top in ("src", "tests", "bench"):
        for path in sorted((REPO / top).rglob("*.py")):
            named.update(_references(_parse(path)))
    unused = sorted(defined - named - UNUSED_ALLOWED)
    assert not unused, f"defined in src/lpiso but never named: {unused}"


def test_guard_sees_an_unused_definition():
    tree = ast.parse(
        'def used():\n    """mentions unused in a docstring"""\n'
        "def unused():\n    pass\n"
        "used()\n"
    )
    assert set(_definitions(tree)) - set(_references(tree)) == {"unused"}


def _constants_and_fields(tree: ast.Module):
    """Module-level constants and annotated class fields, as
    (qualified name, bare name)."""
    for stmt in tree.body:
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, target.id
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield f"{node.name}.{stmt.target.id}", stmt.target.id


def _reads(tree: ast.Module, names: set, attrs: set) -> None:
    """Add the names loaded and the words of non-docstring strings to
    `names`, and the attributes loaded to `attrs`: an assignment or a
    keyword argument is not a read."""
    docstrings = _docstring_ids(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            names.update(re.findall(r"[A-Za-z_]\w*", node.value))


def _unread(defining, reading) -> list:
    """Constants and fields of the `defining` modules that no `reading`
    module reads; a field is read only as a loaded attribute."""
    names, attrs = set(), set()
    for tree in reading:
        _reads(tree, names, attrs)
    unread = []
    for tree in defining:
        for qualified, name in _constants_and_fields(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            is_field = "." in qualified
            if name not in attrs and (is_field or name not in names):
                unread.append(qualified)
    return sorted(unread)


def test_every_package_constant_and_field_is_read():
    defining = [_parse(path) for path in sorted(PACKAGE.glob("*.py"))]
    reading = [
        _parse(path)
        for top in ("src", "tests", "bench")
        for path in sorted((REPO / top).rglob("*.py"))
    ]
    unread = _unread(defining, reading)
    assert not unread, f"defined in src/lpiso but never read: {unread}"


def test_guard_sees_a_field_hidden_by_a_local():
    tree = ast.parse(
        "LIMIT = 3\n"
        "class Partition:\n    explored: int\n    chains: list\n"
        "def build(part):\n    explored = LIMIT\n    return Partition(explored, part.chains)\n"
    )
    assert _unread([tree], [tree]) == ["Partition.explored"]


def _unused_imports(tree: ast.Module) -> list:
    """Names a module imports and never loads; a __future__ import is a
    compiler directive, not a name."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - loaded)


def test_no_unused_imports():
    unused = {}
    for top in ("src", "tests"):
        for path in sorted((REPO / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            names = _unused_imports(_parse(path))
            if names:
                unused[str(path.relative_to(REPO))] = names
    assert not unused, f"imported and never used: {unused}"


def test_guard_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nimport json as js\nfrom math import gcd, lcm\n"
        "print(os.path.sep, js.dumps(lcm(2, 3)))\n"
    )
    assert _unused_imports(tree) == ["gcd"]
