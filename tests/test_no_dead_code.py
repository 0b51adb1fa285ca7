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

A definition that only tests/ names must be a test reference: an
independent check or fixture a test measures the program against, listed
in TEST_REFERENCES with its reason.  Names in the package's __init__ do not
count as program uses, so a re-export does not keep a definition alive.

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

#: definitions that only tests name, each with why the library keeps it
TEST_REFERENCES = {
    "FiniteDisintegration": "materialized chain source, the fixture the chain tests partition",
    "dyadic_fixture": "the textbook disintegration criterion 9 checks partitions against",
    "success_index": "certified success-index bound the extension tests check results with",
    "check_strong_hom_exact": "exact strong-homomorphism check behind the projection tests",
    "signed_sigma1_scalar": "sigma1 without the absolute value, the sign check of criterion 1",
    "all_granted": "the every-flag verdict the certificate tests assert",
    "from_creal": "irrational exponents, which no CLI input can spell yet",
    "encloses": "interval nesting, the refinement tests' monotonicity check",
    "is_atom": "atom predicate the chain-limit tests check limits with",
}


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


def _test_only(defining, program, tests) -> set:
    """Definitions of the `defining` modules that the `tests` modules name
    and the `program` modules do not."""
    defined = set()
    for tree in defining:
        defined.update(_definitions(tree))
    program_names = {name for tree in program for name in _references(tree)}
    test_names = {name for tree in tests for name in _references(tree)}
    return (defined & test_names) - program_names


def test_test_only_definitions_are_declared_references():
    defining = [_parse(path) for path in sorted(PACKAGE.glob("*.py"))]
    program = [
        _parse(path)
        for top in ("src", "bench")
        for path in sorted((REPO / top).rglob("*.py"))
        if path.name != "__init__.py"
    ]
    # this file's own strings would name every listed reference
    tests = [
        _parse(path)
        for path in sorted((REPO / "tests").rglob("*.py"))
        if path != Path(__file__).resolve()
    ]
    test_only = _test_only(defining, program, tests)
    undeclared = sorted(test_only - TEST_REFERENCES.keys())
    stale = sorted(TEST_REFERENCES.keys() - test_only)
    assert not undeclared, f"defined in src/lpiso but named only by tests: {undeclared}"
    assert not stale, f"listed in TEST_REFERENCES but not a test-only name: {stale}"


def test_guard_sees_a_test_only_definition():
    src = ast.parse(
        "def used():\n    pass\n"
        "def reference():\n    pass\n"
        "def wrapper():\n    return used()\n"
    )
    init = ast.parse("__all__ = ['reference']\nfrom .mod import reference\n")
    tests = ast.parse("reference()\nwrapper()\n")
    assert _test_only([src], [src], [tests]) == {"reference", "wrapper"}
    assert _test_only([src], [src, init], [tests]) == {"wrapper"}


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


def test_every_export_resolves():
    import lpiso

    for name in lpiso.__all__:
        assert getattr(lpiso, name) is not None, name
    namespace: dict = {}
    exec("from lpiso import *", namespace)
    assert set(lpiso.__all__) <= namespace.keys()
