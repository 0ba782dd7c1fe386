"""AST scans that stand in for a linter, which the package does not ship.

Every imported name is used, in src/, tests/ and demos/.  A name counts
as used if it appears anywhere in its module as a name (an attribute
chain starts with one) or in the module's __all__, which covers the
re-exports of __init__.py.  An import on a line marked "# noqa: F401" is
kept on purpose and not checked.

In src/, math.fsum is named only inside _util.exact_sum, the one exact
sum of the package, and no module imports scipy.optimize: every fit is
the package's own Newton-type solve.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))


def unused_imports(path: Path) -> list[str]:
    """"<line>: <name>" for each name that path imports and never uses."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if alias.name == "*" or "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_scan_sees_every_tree():
    assert {p.relative_to(ROOT).parts[0] for p in FILES} == {"src", "tests", "demos"}


def test_the_scan_finds_an_unused_import(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import os\nimport sys  # noqa: F401\nfrom math import pi, tau\n"
                    "__all__ = ['tau']\n")
    assert unused_imports(path) == ["1: os", "3: pi"]


def fsum_uses(path: Path) -> list[tuple[int, str]]:
    """(line, enclosing function or "<module>") for each math.fsum in path:
    the attribute math.fsum or an import of fsum from math."""
    uses = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        named = (isinstance(node, ast.Attribute) and node.attr == "fsum"
                 and isinstance(node.value, ast.Name) and node.value.id == "math")
        imported = (isinstance(node, ast.ImportFrom) and node.module == "math"
                    and any(alias.name == "fsum" for alias in node.names))
        if named or imported:
            uses.append((node.lineno, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return uses


def test_math_fsum_only_in_exact_sum():
    uses = [(p.relative_to(ROOT).as_posix(), where) for p in FILES
            if p.relative_to(ROOT).parts[0] == "src" for _, where in fsum_uses(p)]
    assert uses == [("src/drmean/_util.py", "exact_sum")]


def test_the_scan_finds_math_fsum(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import math\nfrom math import fsum\n\n\ndef f(a):\n"
                    "    return math.fsum(a) + fsum(a)\n")
    assert fsum_uses(path) == [(2, "<module>"), (6, "f")]


def optimize_imports(path: Path) -> list[int]:
    """The line of each import of scipy.optimize (or of a name from it) in path."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == "scipy.optimize" or name.startswith("scipy.optimize.")
               for name in names):
            lines.append(node.lineno)
    return lines


def test_src_never_imports_scipy_optimize():
    found = {p.relative_to(ROOT).as_posix(): optimize_imports(p) for p in FILES
             if p.relative_to(ROOT).parts[0] == "src"}
    assert {path: lines for path, lines in found.items() if lines} == {}


def test_the_scan_finds_scipy_optimize(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import scipy.optimize\nfrom scipy import optimize\n"
                    "from scipy.optimize import brentq\nimport scipy.special\n\n\n"
                    "def f():\n    import scipy.optimize._minimize as m\n")
    assert optimize_imports(path) == [1, 2, 3, 8]
