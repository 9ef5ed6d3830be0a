"""Every top-level import of a package module is used in that module.

No linter runs on the package, and deleting a code path easily leaves the
import it needed behind.  The package's __init__.py only re-exports, so it
is not checked.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flatsurf4"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
