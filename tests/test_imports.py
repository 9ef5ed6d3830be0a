"""Every top-level import of a package module is used in that module, and
no package module imports scipy.

No linter runs on the package, and deleting a code path easily leaves the
import it needed behind.  The package's __init__.py only re-exports, so it
is not checked for unused imports.  The package needs only numpy at run
time (scipy is a test dependency), so an import of scipy anywhere in a
module, inside a function too, is an error.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flatsurf4"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PACKAGE_FILES = sorted(PACKAGE.rglob("*.py"))


def _unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_checker_finds_an_unused_import():
    assert _unused_imports("import os\nfrom typing import Optional, List\n"
                           "x: List[int] = os.sep\n") == [(2, "Optional")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _scipy_imports(source):
    """Line numbers of every import of scipy or a scipy submodule."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(n == "scipy" or n.startswith("scipy.") for n in names):
            lines.append(node.lineno)
    return lines


def test_checker_finds_a_scipy_import():
    source = ("import numpy, scipy.linalg\n"
              "from .scipy import x\n"
              "import scipyx\n"
              "def f():\n"
              "    from scipy.integrate import cumulative_simpson\n"
              "    return cumulative_simpson\n")
    assert _scipy_imports(source) == [1, 5]


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda p: p.name)
def test_module_does_not_import_scipy(path):
    assert _scipy_imports(path.read_text()) == []
