"""Source guard: the package trusts mpmath in one function.

Only `scalar_core` imports mpmath, and an mpmath endpoint becomes a
Fraction only through `_fraction_from_mpf`, which only `_interval_from_mpi`
calls.  How far an mpmath enclosure is trusted is then decided in that one
function, and a fix to it (an outward widening, say) reaches every
enclosure.  The guard reads the source; it does not follow a name through
an alias or `getattr`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lpiso"

TRUSTED_MODULE = "scalar_core"
READER = "_fraction_from_mpf"
READER_CALLER = "_interval_from_mpi"


def _is_mpmath(module) -> bool:
    return module is not None and (module == "mpmath" or module.startswith("mpmath."))


def mpmath_imports(source: str, filename: str = "<source>"):
    """Line numbers of `import mpmath...` and `from mpmath... import ...`."""
    out = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Import) and any(_is_mpmath(a.name) for a in node.names):
            out.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and _is_mpmath(node.module):
            out.append(node.lineno)
    return out


def stray_reader_uses(source: str, filename: str = "<source>"):
    """Line numbers where READER is named, imported or read as an attribute
    outside the body of a function called READER_CALLER."""
    out = []

    def visit(node, inside: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name == READER_CALLER
        named = (
            (isinstance(node, ast.Name) and node.id == READER)
            or (isinstance(node, ast.Attribute) and node.attr == READER)
            or (isinstance(node, ast.ImportFrom) and any(a.name == READER for a in node.names))
        )
        if named and not inside:
            out.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source, filename=filename), False)
    return out


def test_only_scalar_core_imports_mpmath():
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != TRUSTED_MODULE
        for line in mpmath_imports(path.read_text(encoding="utf-8"), str(path))
    ]
    assert not found, f"only {TRUSTED_MODULE} may import mpmath: {found}"


def test_mpf_endpoints_are_read_in_one_place():
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in stray_reader_uses(path.read_text(encoding="utf-8"), str(path))
    ]
    assert not found, f"only {READER_CALLER} may call {READER}: {found}"
    # the guard guards something: the trusted module does import mpmath
    trusted = (PACKAGE / f"{TRUSTED_MODULE}.py").read_text(encoding="utf-8")
    assert mpmath_imports(trusted)
    assert f"return _trusted({READER}(x[0]), {READER}(x[1]))" in trusted


def test_guard_sees_a_second_importer():
    source = (
        "import math\n"
        "import mpmath\n"
        "from mpmath.libmp import mpf_exp\n"
        "from .scalar_core import pow_enclosure\n"
        "import mpmath_like\n"
        "def f():\n"
        "    import mpmath.libmp as lm\n"
    )
    assert mpmath_imports(source) == [2, 3, 7]


def test_guard_sees_a_second_reader_caller():
    source = (
        "def _fraction_from_mpf(t):\n"
        "    return t\n"
        "def _interval_from_mpi(x):\n"
        "    return (_fraction_from_mpf(x[0]), _fraction_from_mpf(x[1]))\n"
        "def other(x):\n"
        "    return _fraction_from_mpf(x)\n"
        "from .scalar_core import _fraction_from_mpf as read\n"
        "y = scalar_core._fraction_from_mpf\n"
    )
    assert stray_reader_uses(source) == [6, 7, 8]
