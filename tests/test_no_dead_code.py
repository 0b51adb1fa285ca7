"""Source guard: every function, class and method defined in the package is
named somewhere in the package, its tests or the benchmark harness.

A definition counts as used when its name appears as a variable or an
attribute anywhere under src/, tests/ or bench/, or in a string literal
under bench/ that spells a name or a dotted qualified name (the benchmark
tracer names functions by their qualified names).  Other strings, prose
and docstrings included, do not count, so a name that only an error
message or documentation mentions is still reported.  An attribute loaded from a class by its name (`ClassName.attr`,
for a class defined under src/, tests/ or bench/) counts only for the
definitions of that class, its bases and its subclasses, so one class's
used method does not hide an unused method of the same name in an
unrelated class.  Methods are reported as `ClassName.method`.

Module-level constants and annotated class fields are held to a stricter
standard: they must be read, so an assignment or a keyword argument that
sets one does not count as a use.  A class field counts as read only when
it is loaded as an attribute, so a local variable of the same name does
not hide it.  An attribute loaded from `self` inside a class body counts
only for the fields of that class, its bases and its subclasses, so one
class reading its own field does not hide an unread field of the same
name in an unrelated class.  One that only tests/ reads must be listed in
TEST_READS with its reason.

A definition that only tests/ names must be a test reference: an
independent check or fixture a test measures the program against, listed
in TEST_REFERENCES with its reason.  Names in the package's __init__ do not
count as program uses, so a re-export does not keep a definition alive.

Every defaulted parameter of a package function, method or constructor
must be passed, by keyword or by position, by some call under src/
(outside __init__) or bench/, unless PARAMETER_REFERENCES lists it with
its reason.  It must also be left out by some call under src/ (outside
__init__), tests/ or bench/, since a default that every call overrides is
a value nothing reads.  Calls resolve by the called name, as definitions
do above; a constructor's parameters resolve by its class name.

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
    "BallCertificate.all_granted": "the every-flag verdict the certificate tests assert",
    "PExponent.from_creal": "irrational exponents, which no CLI input can spell yet",
    "DyadicInterval.encloses": "interval nesting, the refinement tests' monotonicity check",
    "DyadicInterval.contains": "point membership, the enclosure check of the interval and norm tests",
}

#: constants and fields that only tests read, each with why the library
#: keeps it
TEST_READS = {
    "AnmCertificate.m_child": "the chosen child's stage bound, which the chain tests check against",
    "AnmCertificate.stage": "the certifying stage, which the chain tests check the slack 2^-stage against",
    "AnmCertificate.slack": "the certified 2^-stage slack the chain tests check the choice within",
    "ChainPartition.assignment": "node -> chain map the chain tests read a node's chain from",
    "ChainPartition.certificates": "per-parent child certificates criterion 9 re-checks exactly",
    "SuccessIndex.distance_uppers": "the distance bounds that witness a success index's value",
    "SuccessIndex.summativity_uppers": "the summativity bounds that cap a success index's value",
    "UNIMODULAR_UNITS": "the four Gaussian-integer units the isometry-invariance tests scale by",
}

#: defaulted parameters that no program call passes, each with why the
#: library keeps it
PARAMETER_REFERENCES = {
    "FiniteDisintegration.schedule": "the reveal schedule the chain tests stage a fixture with",
    "all_granted.need_restriction": "the verdict without the restriction flag, which the certificate tests assert",
    "presentation_from_descriptor.default_p": "passed by position through iso_cli._parse's *args, which no call shows",
    "project_to_strong_hom.enforce_hypothesis": (
        "the projection on the errata's counterexample shape, where the "
        "extension hypothesis fails"
    ),
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions(tree: ast.Module):
    """(owner, name) for each function, class and method defined in `tree`:
    the owner is the class whose body defines it, None elsewhere."""
    owners = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            owners.update((id(stmt), node.name) for stmt in node.body)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield owners.get(id(node)), node.name


def _qualified(definition) -> str:
    owner, name = definition
    return name if owner is None else f"{owner}.{name}"


def _class_families(trees) -> dict:
    """Each class the `trees` define -> itself, its bases and its
    subclasses, transitively, among those classes."""
    bases = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(
                    b.id for b in node.bases if isinstance(b, ast.Name)
                )

    def ancestors(name: str) -> set:
        out = {name}
        for base in bases.get(name, ()):
            if base in bases:
                out |= ancestors(base)
        return out

    up = {name: ancestors(name) for name in bases}
    return {c: {d for d in bases if c in up[d] or d in up[c]} for c in bases}


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


def _references(tree: ast.Module, classes):
    """(receiver, name) for each name and attribute in `tree`: the receiver
    is the class of a `ClassName.attr` load whose class is in `classes`,
    None for every other use."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield None, node.id
        elif isinstance(node, ast.Attribute):
            value = node.value
            if isinstance(value, ast.Name) and value.id in classes:
                yield value.id, node.attr
            else:
                yield None, node.attr


def _named(defined, references, families) -> set:
    """The `defined` (owner, name) pairs that the `references` name: by a
    bare use of the name, or through a class of the owner's family."""
    bare = {name for receiver, name in references if receiver is None}
    through = {(receiver, name) for receiver, name in references if receiver is not None}
    return {
        (owner, name)
        for owner, name in defined
        if name in bare
        or any((cls, name) in through for cls in families.get(owner, ()))
    }


def _uses(program, bench, families) -> set:
    """The references of the `program` modules and of the `bench` modules,
    with the names the bench modules' strings spell."""
    classes = frozenset(families)
    refs = {ref for tree in program for ref in _references(tree, classes)}
    for tree in bench:
        refs.update(_references(tree, classes), _string_references(tree, classes))
    return refs


def _unnamed(defining, referencing, bench=()) -> list:
    """Definitions of the `defining` modules that neither the `referencing`
    modules nor the `bench` modules (with the names their strings spell)
    name, qualified."""
    defined = {d for tree in defining for d in _definitions(tree)}
    families = _class_families([*defining, *referencing, *bench])
    named = _named(defined, _uses(referencing, bench, families), families)
    return sorted(_qualified(d) for d in defined - named)


#: a name or a dotted qualified name, as the benchmark tracer spells one
QUALIFIED_NAME = re.compile(r"[A-Za-z_<][\w<>]*(?:\.[A-Za-z_<][\w<>]*)*")


def _string_references(tree: ast.Module, classes=frozenset()):
    """(receiver, name) for each part of each string literal that is not a
    docstring and spells a name or a dotted qualified name, as the benchmark
    tracer names functions: a part after a class in `classes` resolves to
    that class, as an attribute load does."""
    docstrings = _docstring_ids(tree)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
            and QUALIFIED_NAME.fullmatch(node.value)
        ):
            parts = node.value.split(".")
            yield None, parts[0]
            for receiver, name in zip(parts, parts[1:]):
                yield (receiver if receiver in classes else None), name


def _top_modules(top: str) -> list:
    return [_parse(path) for path in sorted((REPO / top).rglob("*.py"))]


def test_every_package_definition_is_named_elsewhere():
    defining = [_parse(path) for path in sorted(PACKAGE.glob("*.py"))]
    referencing = _top_modules("src") + _top_modules("tests")
    unused = sorted(set(_unnamed(defining, referencing, _top_modules("bench"))) - UNUSED_ALLOWED)
    assert not unused, f"defined in src/lpiso but never named: {unused}"


def _test_only(defining, program, tests, bench=()) -> set:
    """Definitions of the `defining` modules that the `tests` modules name
    and neither the `program` modules nor the `bench` modules (with the
    names their strings spell) do, qualified."""
    return set(_unnamed(defining, program, bench)) - set(_unnamed(defining, tests))


def _program_modules(top: str) -> list:
    return [
        _parse(path)
        for path in sorted((REPO / top).rglob("*.py"))
        if path.name != "__init__.py"
    ]


def test_test_only_definitions_are_declared_references():
    defining = [_parse(path) for path in sorted(PACKAGE.glob("*.py"))]
    tests = [_parse(path) for path in sorted((REPO / "tests").rglob("*.py"))]
    test_only = _test_only(
        defining, _program_modules("src"), tests, _program_modules("bench")
    )
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
    # a string in the program is no use; one in the benchmark tracer is
    assert _test_only([src], [src, init], [tests]) == {"reference", "wrapper"}
    assert _test_only([src], [src], [tests], [init]) == {"wrapper"}


def test_guard_sees_an_unused_definition():
    tree = ast.parse(
        'def used():\n    """mentions unused in a docstring"""\n'
        "def unused():\n    pass\n"
        "used()\n"
    )
    assert _unnamed([tree], [tree]) == ["unused"]


def test_guard_resolves_a_class_qualified_use():
    src = ast.parse(
        "class Interval:\n    def of(x):\n        pass\n"
        "class Rational:\n    def of(x):\n        pass\n"
        "class Node:\n    def of(x):\n        pass\n    def size(self):\n        pass\n"
        "class Leaf(Node):\n    def size(self):\n        pass\n"
        "def of():\n    pass\n"
    )
    # Leaf.of reaches its base's method, Node.size its subclass's; neither
    # class-qualified use reaches an unrelated class or a plain function
    uses = ast.parse("Interval\nRational.of(1)\nLeaf.of(2)\nNode.size(3)\n")
    assert _unnamed([src], [uses]) == ["Interval.of", "of"]
    # nor does one through a class the referencing modules define
    other = ast.parse("class Record:\n    def of(x):\n        pass\nRecord.of(4)\n")
    assert _unnamed([src], [uses, other]) == ["Interval.of", "of"]
    # a use through anything but a class name still counts by name alone
    assert _unnamed([src], [uses, ast.parse("item.of()\n")]) == []


def test_guard_reads_bench_strings_as_qualified_names():
    src = ast.parse(
        "class Node:\n    def of(x):\n        pass\n    def size(self):\n        pass\n"
        "class Leaf:\n    def size(self):\n        pass\n"
    )
    # prose does not count, and a qualified name resolves through its class
    bench = ast.parse('SPANS = [("tree_maps", "Node.size"), "size of Leaf"]\n')
    assert _unnamed([src], [], [bench]) == ["Leaf", "Leaf.size", "Node.of"]


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


def _reads(node: ast.AST, names: set, attrs: set, owned: set, owner=None) -> None:
    """Add the names loaded to `names`, the attributes loaded from `self`
    inside a class body to `owned` as (class, attribute), and every other
    attribute loaded to `attrs`: an assignment or a keyword argument is not
    a read."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            names.add(child.id)
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            value = child.value
            if owner is not None and isinstance(value, ast.Name) and value.id == "self":
                owned.add((owner, child.attr))
            else:
                attrs.add(child.attr)
        _reads(child, names, attrs, owned, child.name if isinstance(child, ast.ClassDef) else owner)


def _unread(defining, reading, bench=()) -> list:
    """Constants and fields of the `defining` modules that no `reading`
    module reads, nor a `bench` module (with the names its strings spell);
    a field is read only as a loaded attribute, and through `self` only by
    its own class's family."""
    names, attrs, owned = set(), set(), set()
    for tree in reading:
        _reads(tree, names, attrs, owned)
    for tree in bench:
        _reads(tree, names, attrs, owned)
        names.update(name for _, name in _string_references(tree))
    families = _class_families([*defining, *reading, *bench])
    unread = []
    for tree in defining:
        for qualified, name in _constants_and_fields(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if "." in qualified:
                owner = qualified.split(".")[0]
                read = any((cls, name) in owned for cls in families[owner])
            else:
                read = name in names
            if name not in attrs and not read:
                unread.append(qualified)
    return sorted(unread)


def _read_only_by_tests(defining, program, tests, bench=()) -> set:
    """Constants and fields of the `defining` modules that the `tests`
    modules read and neither the `program` nor the `bench` modules do."""
    return set(_unread(defining, program, bench)) - set(_unread(defining, program + tests, bench))


def test_every_package_constant_and_field_is_read():
    defining = [_parse(path) for path in sorted(PACKAGE.glob("*.py"))]
    program = [_parse(path) for path in sorted((REPO / "src").rglob("*.py"))]
    tests = [_parse(path) for path in sorted((REPO / "tests").rglob("*.py"))]
    bench = [_parse(path) for path in sorted((REPO / "bench").rglob("*.py"))]
    unread = _unread(defining, program + tests, bench)
    test_read = _read_only_by_tests(defining, program, tests, bench)
    undeclared = sorted(test_read - TEST_READS.keys())
    stale = sorted(TEST_READS.keys() - test_read)
    assert not unread, f"defined in src/lpiso but never read: {unread}"
    assert not undeclared, f"defined in src/lpiso but read only by tests: {undeclared}"
    assert not stale, f"listed in TEST_READS but not read only by tests: {stale}"


def test_guard_sees_a_field_hidden_by_a_local():
    tree = ast.parse(
        "LIMIT = 3\n"
        "class Partition:\n    explored: int\n    chains: list\n"
        "def build(part):\n    explored = LIMIT\n    return Partition(explored, part.chains)\n"
    )
    assert _unread([tree], [tree]) == ["Partition.explored"]


def test_guard_sees_a_field_only_a_test_reads():
    src = ast.parse(
        "LIMIT = 3\nSPARE = 4\n"
        "class Partition:\n    explored: int\n    chains: list\n    idle: int\n"
        "def build(part):\n    return Partition(LIMIT, part.chains, 0)\n"
    )
    tests = ast.parse("assert build(p).explored <= SPARE\n")
    assert _unread([src], [src, tests]) == ["Partition.idle"]
    assert _read_only_by_tests([src], [src], [tests]) == {"Partition.explored", "SPARE"}


def test_guard_reads_a_field_through_self_only_for_its_own_class():
    src = ast.parse(
        "class Index:\n    witnesses: dict\n"
        "class Approx:\n    witnesses: dict\n"
        "    def report(self):\n        return list(self.witnesses)\n"
        "class Base:\n    size: int\n"
        "class Leaf(Base):\n    def total(self):\n        return self.size\n"
    )
    # Approx reads its own field, Leaf its base's; Index's is unread
    assert _unread([src], [src]) == ["Index.witnesses"]
    # a load from anything but self still counts by name alone
    tests = ast.parse("assert index.witnesses == {}\n")
    assert _read_only_by_tests([src], [src], [tests]) == {"Index.witnesses"}
    # self outside a class body is a plain name, not the class's own read
    loose = ast.parse("def report(self):\n    return self.witnesses\n")
    assert _unread([src], [src, loose]) == []


def _function_defaults(fn, owner):
    """(callee, parameter, position) for each defaulted parameter of `fn`,
    a method of class `owner` or a plain function (owner None)."""
    if fn.name == "__init__" and owner is not None:
        callee = owner
    elif fn.name.startswith("__") and fn.name.endswith("__"):
        return  # called by syntax, not by name
    else:
        callee = fn.name
    args = fn.args
    positional = args.posonlyargs + args.args
    bound = owner is not None and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
    )
    first_default = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first_default:], first_default):
        yield callee, arg.arg, i - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield callee, arg.arg, None


def _defaulted_parameters(node, owner=None):
    """(callee, parameter, position) for each defaulted parameter defined
    under `node`: the callee is the name a call resolves by, a
    constructor's being its class name, and the position is the index a
    positional argument takes (None for a keyword-only parameter)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _defaulted_parameters(child, child.name)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _function_defaults(child, owner)
            yield from _defaulted_parameters(child)
        else:
            yield from _defaulted_parameters(child, owner)


def _calls(modules):
    """(callee, keywords, positional count, starred) for each call in the
    `modules` by a name or an attribute; starred says whether a *args or
    **kwargs argument may fill parameters the call does not show."""
    for tree in modules:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                callee = node.func.id
            elif isinstance(node.func, ast.Attribute):
                callee = node.func.attr
            else:
                continue
            keywords = {kw.arg for kw in node.keywords if kw.arg}
            count = sum(not isinstance(arg, ast.Starred) for arg in node.args)
            starred = count < len(node.args) or len(keywords) < len(node.keywords)
            yield callee, keywords, count, starred


def _unpassed(defining, program) -> list:
    """Defaulted parameters of the `defining` modules that no call in the
    `program` modules passes, as "callee.parameter"."""
    keywords, positions = set(), {}
    for callee, names, count, _ in _calls(program):
        keywords.update((callee, name) for name in names)
        positions[callee] = max(positions.get(callee, 0), count)
    return sorted(
        f"{callee}.{name}"
        for tree in defining
        for callee, name, position in _defaulted_parameters(tree)
        if (callee, name) not in keywords
        and (position is None or positions.get(callee, 0) <= position)
    )


def test_every_defaulted_parameter_is_passed_or_declared():
    defining = [_parse(path) for path in sorted(PACKAGE.glob("*.py"))]
    unpassed = set(_unpassed(defining, _program_modules("src") + _program_modules("bench")))
    undeclared = sorted(unpassed - PARAMETER_REFERENCES.keys())
    stale = sorted(PARAMETER_REFERENCES.keys() - unpassed)
    assert not undeclared, f"defaulted parameters no program call passes: {undeclared}"
    assert not stale, f"listed in PARAMETER_REFERENCES but passed by the program: {stale}"


def _never_left_out(defining, modules) -> list:
    """Defaulted parameters of the `defining` modules that every call in the
    `modules` passes, as "callee.parameter": nothing reads their defaults.
    A call with a starred argument may leave any parameter out."""
    calls: dict = {}
    for callee, names, count, starred in _calls(modules):
        calls.setdefault(callee, []).append((names, count, starred))
    return sorted(
        f"{callee}.{name}"
        for tree in defining
        for callee, name, position in _defaulted_parameters(tree)
        if not any(
            starred or (name not in names and (position is None or count <= position))
            for names, count, starred in calls.get(callee, ())
        )
    )


def test_every_default_is_left_out_by_some_call():
    defining = [_parse(path) for path in sorted(PACKAGE.glob("*.py"))]
    modules = _program_modules("src") + _top_modules("tests") + _program_modules("bench")
    always = _never_left_out(defining, modules)
    assert not always, f"defaulted parameters every call passes: {always}"


PARAMETER_SOURCE = (
    "def scan(x, depth=4, *, budget=8, trace=None):\n    pass\n"
    "class Source:\n"
    "    def __init__(self, p, schedule=None, label='s'):\n        pass\n"
    "    def read(self, k, pad=0):\n        pass\n"
    "    @staticmethod\n    def of(j, coeff=1):\n        pass\n"
)


def test_guard_sees_a_parameter_no_program_call_passes():
    src = ast.parse(PARAMETER_SOURCE)
    # calls that pass only the required arguments leave every default unpassed
    program = ast.parse("scan(1)\nSource(3).read(1)\nSource.of(0)\n")
    assert _unpassed([src], [program]) == [
        "Source.label", "Source.schedule", "of.coeff", "read.pad",
        "scan.budget", "scan.depth", "scan.trace",
    ]


def test_guard_counts_a_parameter_passed_by_keyword_or_position():
    src = ast.parse(PARAMETER_SOURCE)
    program = ast.parse(
        "scan(1, 2, trace=print)\n"  # depth by position, trace by keyword
        "Source(3, label='x').read(1, 0)\n"  # self takes no position
        "Source.of(0, *extra)\n"  # a starred argument fills no known position
    )
    assert _unpassed([src], [program]) == ["Source.schedule", "of.coeff", "scan.budget"]


def test_guard_resolves_a_constructor_by_its_class_name():
    src = ast.parse(PARAMETER_SOURCE)
    by_class = ast.parse("Source(3, None, 's')\n")
    by_init = ast.parse("Source.__init__(obj, 3, None, label='s')\n")
    assert not any(name.startswith("Source.") for name in _unpassed([src], [by_class]))
    assert {"Source.label", "Source.schedule"} <= set(_unpassed([src], [by_init]))


def test_guard_sees_a_default_every_call_passes():
    src = ast.parse(PARAMETER_SOURCE)
    calls = ast.parse(
        "scan(1, 2, budget=3)\nscan(1, trace=print)\n"  # each default left out once
        "Source(3, None, label='s')\nobj.read(1, 0)\n"  # these pass every default
        "Source.of(0, *extra)\n"  # a starred argument may leave coeff out
    )
    assert _never_left_out([src], [calls]) == ["Source.label", "Source.schedule", "read.pad"]


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
