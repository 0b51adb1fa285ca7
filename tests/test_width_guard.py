"""Source guard: width tests go through DyadicInterval.fits.

`box.fits(k)` decides width <= 2**-k on the endpoints' integers.  A
comparison of a `.width` against `_width_target(...)` in the package builds
the Fraction 2**-k and subtracts two Fractions to answer the same question,
so it is reported here, whether the call is inline or bound to a name in the
same top-level function or method.  Other spellings of a width, such as
`hi - lo`, are not parsed.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lpiso"


def _is_width(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "width"


def _is_width_target(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_width_target"
    )


def _target_names(scope) -> set:
    """Names that `scope` binds to a `_width_target(...)` call."""
    out = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign) and _is_width_target(node.value):
            out.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and node.value and _is_width_target(node.value):
            if isinstance(node.target, ast.Name):
                out.add(node.target.id)
    return out


def _scopes(tree):
    """Top-level statements, and the statements of top-level classes."""
    for stmt in tree.body:
        yield from stmt.body if isinstance(stmt, ast.ClassDef) else (stmt,)


def width_comparisons(source: str, filename: str = "<source>"):
    """Line numbers of `x.width <= t` (or `<`, or the mirrored `t >= x.width`)
    where t is a `_width_target(...)` call or a name that the enclosing
    top-level function or method binds to one."""
    out = []
    for scope in _scopes(ast.parse(source, filename=filename)):
        names = _target_names(scope)

        def is_target(node) -> bool:
            return _is_width_target(node) or (isinstance(node, ast.Name) and node.id in names)

        for node in ast.walk(scope):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + node.comparators
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if isinstance(op, (ast.LtE, ast.Lt)) and _is_width(left) and is_target(right):
                    out.append(node.lineno)
                elif isinstance(op, (ast.GtE, ast.Gt)) and is_target(left) and _is_width(right):
                    out.append(node.lineno)
    return out


def test_no_width_target_comparisons():
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in width_comparisons(path.read_text(encoding="utf-8"), str(path))
    ]
    assert not found, f"use DyadicInterval.fits(k) instead: {found}"


def test_guard_sees_the_old_spelling():
    old = "ok = out.width <= _width_target(k + 1)\nnew = out.fits(k + 1)\n"
    assert width_comparisons(old) == [1]
    assert width_comparisons("z = a.width + b.width < delta\n") == []


def test_guard_sees_a_precomputed_target():
    bound = (
        "def f(box, k):\n"
        "    target = _width_target(k)\n"
        "    def attempt(kk):\n"
        "        return box.width <= target\n"
        "    return attempt\n"
        "class C:\n"
        "    def g(self, box, k):\n"
        "        t = _width_target(k)\n"
        "        return t >= box.width\n"
        "    def h(self, box, t):\n"
        "        return box.width <= t\n"
    )
    assert width_comparisons(bound) == [4, 9]
