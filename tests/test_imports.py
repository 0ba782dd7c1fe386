"""Every imported name is used: an AST scan of src/, tests/ and demos/.

No linter ships with the package, so this test is the unused-import
check.  A name counts as used if it appears anywhere in its module as a
name (an attribute chain starts with one) or in the module's __all__,
which covers the re-exports of __init__.py.  An import on a line marked
"# noqa: F401" is kept on purpose and not checked.
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
