"""Source guard: a presentation answers or refuses its own backdoor reads.

`NoBackdoorError` is raised only in `presentations`: by the base
`Presentation`'s refusals of `transparent_eval`, `generator_tail_norm_bound`
and `encode_vector` (`generator_vector` reads `transparent_eval`), and by
`CeSet.gamma_enclosure` when a set has no membership oracle.  No other code
decides whether a backdoor exists, so no flag for it is named anywhere.
The guard reads the source; it does not follow a name through an alias.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "lpiso"

ERROR = "NoBackdoorError"
BOUNDARY_MODULE = "presentations"
#: the (class, function) bodies that may raise ERROR
REFUSALS = {
    ("CeSet", "gamma_enclosure"),
    ("Presentation", "transparent_eval"),
    ("Presentation", "generator_tail_norm_bound"),
    ("Presentation", "encode_vector"),
}
#: a name that would decide the backdoor apart from the reads themselves
FLAG = "has_backdoor"


def _raised_name(node: ast.Raise):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return None


def stray_raises(source: str, allowed=frozenset(), filename: str = "<source>"):
    """Line numbers of `raise NoBackdoorError...` outside the bodies of the
    `allowed` (class, function) pairs."""
    out = []

    def visit(node, cls, where) -> None:
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and where is None:
            where = (cls, node.name)
        if isinstance(node, ast.Raise) and _raised_name(node) == ERROR and where not in allowed:
            out.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, cls, where)

    visit(ast.parse(source, filename=filename), None, None)
    return out


def flag_uses(source: str, filename: str = "<source>"):
    """Line numbers where FLAG is named, defined or read as an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source, filename=filename))
        if (isinstance(node, ast.Name) and node.id == FLAG)
        or (isinstance(node, ast.Attribute) and node.attr == FLAG)
        or (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == FLAG)
    )


def test_no_backdoor_error_is_raised_only_at_the_boundary():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        allowed = REFUSALS if path.stem == BOUNDARY_MODULE else frozenset()
        found += [
            f"{path.name}:{line}"
            for line in stray_raises(path.read_text(encoding="utf-8"), allowed, str(path))
        ]
    assert not found, f"only {sorted(REFUSALS)} may raise {ERROR}: {found}"
    # the guard guards something: each refusal does raise it
    boundary = (PACKAGE / f"{BOUNDARY_MODULE}.py").read_text(encoding="utf-8")
    assert len(stray_raises(boundary)) == len(REFUSALS)


def test_no_module_names_a_backdoor_flag():
    found = [
        f"{path.relative_to(REPO)}:{line}"
        for top in ("src", "tests")
        for path in sorted((REPO / top).rglob("*.py"))
        for line in flag_uses(path.read_text(encoding="utf-8"), str(path))
    ]
    assert not found, f"a backdoor read answers or refuses; no {FLAG}: {found}"


def test_guard_sees_a_raise_outside_the_refusals():
    source = (
        "class Presentation:\n"
        "    def encode_vector(self, v, k):\n"
        "        raise NoBackdoorError('none')\n"
        "class Adversarial(Presentation):\n"
        "    def encode_vector(self, v, k):\n"
        "        raise NoBackdoorError('guarded')\n"
        "    def _require(self):\n"
        "        def inner():\n"
        "            raise errors.NoBackdoorError\n"
        "        raise TypeError('a programming mistake')\n"
        "def extend(pres):\n"
        "    raise NoBackdoorError('up front')\n"
    )
    assert stray_raises(source, REFUSALS) == [6, 9, 12]
    assert stray_raises(source) == [3, 6, 9, 12]


def test_guard_sees_a_flag():
    source = (
        "class Presentation:\n"
        "    @property\n"
        "    def has_backdoor(self):\n"
        "        return False\n"
        "can_guide = pres.has_backdoor\n"
        "has_backdoor = True\n"
        "note = 'has_backdoor in prose'\n"
    )
    assert flag_uses(source) == [3, 5, 6]
