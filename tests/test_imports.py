"""AST scans that stand in for a linter, which the package does not ship.

Every imported name is used, in src/, tests/ and demos/.  A name counts
as used if it appears anywhere in its module as a name (an attribute
chain starts with one) or in the module's __all__, which covers the
re-exports of __init__.py.  An import on a line marked "# noqa: F401" is
kept on purpose and not checked.

In src/, math.fsum is named only inside _util.exact_sum, the one exact
sum of the package, no module imports scipy.optimize: every fit is the
package's own Newton-type solve.  scipy is imported only inside
dgp.generate_sample, for its ndtri and expit, and mc.run_scenarios, which
loads it before any worker starts, so importing drmean loads no scipy.
Only estimators names linmod._fit_logistic_draw, the fixed-step fit of
the sensitivity draws, so no public function takes fixed steps.
cli names neither check_int nor check_seed: config values reach the
library unparsed.
In src/, numpy's error state is set only in _util.quiet, the one
floating-point policy of the package, and in mc.summarize, which states
its own: no partial np.errstate leaves a flag to the caller.
Only linmod imports numpy.linalg._umath_linalg, the LAPACK gufuncs behind
numpy.linalg, and linmod calls them through its own helpers, never
through np.linalg.cholesky, inv or solve.
No public function or method takes a parameter whose name starts with an
underscore, a second path through a public call for an internal caller,
except the three that the bench tracer still reaches (PRIVATE_PARAMETERS).
In src/, rows are cut by ndarray.take (indices) or ndarray.compress (a
mask), never by advanced indexing: each copies the same values into a
new array in C order, so no result depends on the route, and on the
sensitivity draws' 1000 x 5 designs they are 3x faster.  The scan reads
a load of x[...] whose index is a comparison, an inverted mask, a call
of a numpy predicate (np.isfinite, isnan, isinf, isin or logical_*) or
one of the package's mask and index names (ROW_CUT_NAMES, or the
attribute .resp) as a row cut.
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


ERRSTATE_NAMES = ("errstate", "seterr", "seterrcall")


def errstate_uses(path: Path) -> list[tuple[int, str]]:
    """(line, enclosing function or "<module>") for each name in
    ERRSTATE_NAMES that path names as np.<name> or numpy.<name> or
    imports from numpy."""
    uses = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        named = (isinstance(node, ast.Attribute) and node.attr in ERRSTATE_NAMES
                 and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
        imported = (isinstance(node, ast.ImportFrom) and node.module == "numpy"
                    and any(alias.name in ERRSTATE_NAMES for alias in node.names))
        if named or imported:
            uses.append((node.lineno, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return uses


def test_error_state_set_only_by_quiet_and_summarize():
    uses = {(p.relative_to(ROOT).as_posix(), where) for p in FILES
            if p.relative_to(ROOT).parts[0] == "src" for _, where in errstate_uses(p)}
    assert uses == {("src/drmean/_util.py", "quiet"), ("src/drmean/mc.py", "summarize")}


def test_the_scan_finds_errstate(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import numpy as np\nfrom numpy import errstate, seterr\n\n\n"
                    "def f(a):\n    with np.errstate(over='ignore'):\n        return a * a\n\n\n"
                    "class C:\n    def g(self):\n        numpy.seterrcall(print)\n"
                    '        """np.errstate( in a docstring"""\n        return self.errstate\n')
    assert errstate_uses(path) == [(2, "<module>"), (6, "f"), (12, "g")]


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


def scipy_imports(path: Path) -> list[tuple[int, str]]:
    """(line, enclosing function or "<module>") for each import of scipy, or
    of a name from it, in path."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        if any(name.split(".")[0] == "scipy" for name in names):
            found.append((node.lineno, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return found


def test_scipy_imported_only_inside_functions_of_dgp_and_mc():
    # importing drmean, estimating and the sensitivity analysis load no scipy
    found = {(p.relative_to(ROOT).as_posix(), where) for p in FILES
             if p.relative_to(ROOT).parts[0] == "src" for _, where in scipy_imports(p)}
    assert found == {("src/drmean/dgp.py", "generate_sample"),
                     ("src/drmean/mc.py", "run_scenarios")}


def test_the_scan_finds_scipy(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import scipy\nfrom scipy.special import expit\nimport numpy, scipy.stats\n"
                    "from . import scipy_like\nimport scipyx\n\n\n"
                    "def f():\n    from scipy import special\n\n\n"
                    "class C:\n    def g(self):\n        import scipy.special as sp\n")
    assert scipy_imports(path) == [(1, "<module>"), (2, "<module>"), (3, "<module>"),
                                   (9, "f"), (14, "g")]


def code_lines(path: Path, name: str) -> list[int]:
    """The lines of path that name name in code: as a name, an attribute or
    an imported name (a definition of name does not count)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and node.name == name):
            found.add(node.lineno)
    return sorted(found)


def test_only_estimators_names_the_draw_fit():
    # fixed Newton steps serve the sensitivity draws, through Pipeline alone:
    # no public function takes them
    named = [p.relative_to(ROOT).as_posix() for p in FILES
             if p.relative_to(ROOT).parts[0] == "src" and code_lines(p, "_fit_logistic_draw")]
    assert named == ["src/drmean/estimators.py"]


def test_the_scan_finds_the_draw_fit(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from .linmod import _fit_logistic_draw as fit\nfrom . import linmod\n\n\n"
                    "def _fit_logistic_draw(design, T, start):\n"
                    "    return linmod._fit_logistic_draw(design, T, start)\n"
                    'F = _fit_logistic_draw\n"""_fit_logistic_draw in a docstring."""\n')
    assert code_lines(path, "_fit_logistic_draw") == [1, 6, 7]


CHECK_NAMES = ("check_int", "check_seed")


def check_names(path: Path) -> list[tuple[int, str]]:
    """(line, name) for each import or use of a name in CHECK_NAMES in path."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.split(".")[-1] for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in CHECK_NAMES]
    return sorted(found)


def test_cli_leaves_integer_checks_to_the_library():
    # config values reach ScenarioSpec and run_sensitivity unparsed, so a
    # bound and its message are written once, in the library
    assert check_names(ROOT / "src" / "drmean" / "cli.py") == []


def test_the_scan_finds_check_names(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from ._util import check_int as ci, check_vector\nfrom . import _util\n\n\n"
                    "def f(x):\n    return _util.check_seed(x, 'seed') + ci(x, 'n')\n"
                    "CHECK = 'check_int'\n")
    assert check_names(path) == [(1, "check_int"), (6, "check_seed")]


WRAPPERS = ("cholesky", "inv", "solve")


def linalg_names(path: Path) -> list[tuple[int, str]]:
    """(line, name) for each import of numpy.linalg._umath_linalg (or of a
    name from it), named "_umath_linalg", and for each numpy.linalg wrapper
    in WRAPPERS that path imports or names as np.linalg.<name> or
    numpy.linalg.<name>, named as the wrapper."""
    gufuncs = "numpy.linalg._umath_linalg"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, "_umath_linalg") for alias in node.names
                      if alias.name == gufuncs or alias.name.startswith(gufuncs + ".")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                if full == gufuncs or full.startswith(gufuncs + "."):
                    found.append((node.lineno, "_umath_linalg"))
                elif node.module == "numpy.linalg" and alias.name in WRAPPERS:
                    found.append((node.lineno, alias.name))
        elif (isinstance(node, ast.Attribute) and node.attr in WRAPPERS
              and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
              and isinstance(node.value.value, ast.Name)
              and node.value.value.id in ("np", "numpy")):
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_only_linmod_reaches_lapack_directly():
    found = {p.relative_to(ROOT).as_posix(): linalg_names(p) for p in FILES
             if p.relative_to(ROOT).parts[0] == "src"}
    importers = [path for path, names in found.items()
                 if any(name == "_umath_linalg" for _, name in names)]
    assert importers == ["src/drmean/linmod.py"]
    assert [name for _, name in found["src/drmean/linmod.py"]] == ["_umath_linalg"]


def test_the_scan_finds_lapack_names(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import numpy as np\nimport numpy.linalg._umath_linalg\n"
                    "from numpy.linalg import _umath_linalg as u, lstsq\n"
                    "from numpy.linalg._umath_linalg import inv\n"
                    "from numpy.linalg import solve\n\n\n"
                    "def f(a):\n    return np.linalg.cholesky(a) + numpy.linalg.inv(a)"
                    " + np.linalg.lstsq(a, a)[0] + u.inv(a)\n")
    assert linalg_names(path) == [
        (2, "_umath_linalg"), (3, "_umath_linalg"), (4, "_umath_linalg"),
        (5, "solve"), (9, "cholesky"), (9, "inv"),
    ]


# the private forks bench/layers.py still wraps or reads: W's estimate_all
# _memo and X's build_matrix _sample and homogeneity_test _draws (ROADMAP)
PRIVATE_PARAMETERS = [
    ("src/drmean/estimators.py", "estimate_all", "_memo"),
    ("src/drmean/sensitivity.py", "build_matrix", "_sample"),
    ("src/drmean/sensitivity.py", "homogeneity_test", "_draws"),
]


def private_parameters(path: Path) -> list[tuple[str, str]]:
    """(function, parameter) for each parameter whose name starts with "_"
    of a public function in path: a module-level function, or a method of
    a module-level class, whose name does not start with "_" (dunder
    methods of a public class, such as __init__, count as public)."""
    def public(name: str) -> bool:
        return not name.startswith("_") or name.startswith("__") and name.endswith("__")

    functions = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append((node.name, node))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            functions += [(f"{node.name}.{f.name}", f) for f in node.body
                          if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    found = []
    for name, f in functions:
        if not public(name.rpartition(".")[2]):
            continue
        a = f.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        found += [(name, p.arg) for p in params if p.arg.startswith("_")]
    return found


def test_public_functions_take_no_private_parameter():
    found = [(p.relative_to(ROOT).as_posix(), *found) for p in FILES
             if p.relative_to(ROOT).parts[0] == "src" for found in private_parameters(p)]
    assert found == PRIVATE_PARAMETERS


def test_the_scan_finds_private_parameters(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("def f(a, _b, *, _c=None):\n    def g(_d):\n        pass\n\n\n"
                    "def _h(_e):\n    pass\n\n\nclass C:\n    def __init__(self, _f):\n"
                    "        pass\n\n    def m(self, /, _g, *_h, **_i):\n        pass\n\n"
                    "    def _n(self, _j):\n        pass\n\n\nclass _D:\n"
                    "    def m(self, _k):\n        pass\n")
    assert private_parameters(path) == [
        ("f", "_b"), ("f", "_c"), ("C.__init__", "_f"),
        ("C.m", "_g"), ("C.m", "_h"), ("C.m", "_i"),
    ]


ROW_CUT_NAMES = ("resp", "live", "keep", "idx")
PREDICATES = ("isfinite", "isnan", "isinf", "isin")  # and logical_*


def predicate_call(node) -> bool:
    """True if node is a call np.<p>(...) or numpy.<p>(...) of a p in
    PREDICATES or a logical_* function."""
    f = node.func if isinstance(node, ast.Call) else None
    return (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
            and f.value.id in ("np", "numpy")
            and (f.attr in PREDICATES or f.attr.startswith("logical_")))


def indexed_row_cuts(path: Path) -> list[tuple[int, str]]:
    """(line, source) of each load x[i] in path whose index i is a
    comparison, a ~mask, a numpy predicate call (predicate_call), a name
    in ROW_CUT_NAMES or an attribute .resp."""
    text = path.read_text()
    found = []
    for node in ast.walk(ast.parse(text, filename=str(path))):
        if not (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)):
            continue
        i = node.slice
        if (isinstance(i, ast.Compare)
                or isinstance(i, ast.UnaryOp) and isinstance(i.op, ast.Invert)
                or predicate_call(i)
                or isinstance(i, ast.Name) and i.id in ROW_CUT_NAMES
                or isinstance(i, ast.Attribute) and i.attr == "resp"):
            found.append((node.lineno, node.col_offset, ast.get_source_segment(text, node)))
    return [(line, source) for line, _, source in sorted(found)]


def test_src_cuts_rows_by_take_and_compress():
    found = {p.relative_to(ROOT).as_posix(): indexed_row_cuts(p) for p in FILES
             if p.relative_to(ROOT).parts[0] == "src"}
    assert {path: cuts for path, cuts in found.items() if cuts} == {}


def test_the_scan_finds_indexed_row_cuts(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("def f(x, T, resp, idx, d):\n    a = x[T == 1] + x[~resp]\n"
                    "    b = x[resp] + x[idx] + x[d.resp]\n    x[x == 0] = 1.0\n"
                    "    c = x[np.isfinite(x)] + x[numpy.logical_and(resp, d)]\n"
                    "    c = x[int(np.argmin(d))]\n"
                    "    return x.compress(resp, axis=0), x.take(idx), x[:, idx], d['resp']\n")
    assert indexed_row_cuts(path) == [
        (2, "x[T == 1]"), (2, "x[~resp]"), (3, "x[resp]"), (3, "x[idx]"), (3, "x[d.resp]"),
        (5, "x[np.isfinite(x)]"), (5, "x[numpy.logical_and(resp, d)]"),
    ]
