"""Every top-level import of a package module is used in that module, every
module constant is read, no package module imports scipy, and no new knob
creeps in.

No linter runs on the package, and deleting a code path easily leaves the
import it needed behind, or the constant (a tolerance, a bound) that only
it read.  The package's __init__.py only re-exports, so it is not checked
for unused imports, and its imports read no constant.  The package needs
only numpy at run time (scipy is a test dependency), so an import of scipy
anywhere in a module, inside a function too, is an error.

A private module-level function or class must be named somewhere in the
package, so that a deletion does not leave behind the helper that only the
deleted code called.

A build forks children through one helper, flatsurf4._fork, which forks,
reaps and kills them; no other package module calls the os functions that
do so, so the helper's child-and-reap protocol stays the only one.

Optional parameters were cut from 121 to 54, and settings such as the
tile height of the full-grid passes are module constants: the count of
optional parameters may not grow, and no package file reads the
environment.  The CLI's flags are the keys of its parameter tables (with
the tables of every variant of a selector key: flatmap-verify --kind and
solve --family), and the count of (command, key) pairs may not grow either.
"""

import ast
from pathlib import Path

import pytest

from flatsurf4 import cli

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


def _unread_constants(sources):
    """(module, name) of every UPPER_CASE name that a module of sources
    (module -> source) assigns at its top level and no module reads.  A
    name is read if its module loads it by name, another module imports
    it by name (and the unused-import check then asks that module to load
    it), or any module loads it as an attribute (fd.TILE_ROWS)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    shared = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                shared.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                shared.update(alias.name for alias in node.names)
    unread = []
    for module, tree in trees.items():
        loads = {n.id for n in ast.walk(tree)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, ast.AnnAssign) else [])
            unread += [(module, t.id) for t in targets
                       if isinstance(t, ast.Name) and t.id.isupper()
                       and t.id not in loads | shared]
    return unread


def test_checker_finds_an_unread_constant():
    sources = {"a": "import b\nTOL = 1e-6\nSTEP = 2\nUSED = 3\n"
                    "x = USED + b.WIDTH\nTOL2, y = 1, 2\n",
               "b": "from a import STEP\nWIDTH: int = 4\n_LEFT = 1\n"
                    "def f():\n    TOL = 0\n    return TOL\n"}
    assert _unread_constants(sources) == [("a", "TOL"), ("b", "_LEFT")]


def test_module_constants_are_read():
    assert _unread_constants({p.name: p.read_text() for p in MODULES}) == []


def _unreferenced_private(sources):
    """(module, name) of every private function or class (a name with one
    leading underscore, not a dunder) that a module of sources (module ->
    source) defines at its top level and no module of sources names: by
    a bare name, an attribute (fd._check_interior) or an import."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    return [(module, node.name) for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")
            and node.name not in named]


def test_checker_finds_an_unreferenced_private_definition():
    sources = {"a": "import b\ndef _used():\n    return b._NAMED\n"
                    "def _left():\n    return _used()\nclass _Gone:\n"
                    "    def _method(self):\n        pass\n",
               "b": "from a import _left\nclass _NAMED:\n    pass\n"
                    "async def _idle():\n    pass\n"
                    "def __getattr__(name):\n    pass\n"}
    assert _unreferenced_private(sources) == [("a", "_Gone"), ("b", "_idle")]


def test_private_definitions_are_referenced():
    assert _unreferenced_private(
        {p.name: p.read_text() for p in PACKAGE_FILES}) == []


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


PROCESS_CALLS = ("fork", "waitpid", "_exit", "kill")


def _process_calls(source):
    """Line numbers of every use of os.fork, os.waitpid, os._exit or
    os.kill, or an import of any of them from os."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in PROCESS_CALLS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(a.name in PROCESS_CALLS for a in node.names)):
            lines.append(node.lineno)
    return sorted(lines)


def test_checker_finds_process_calls():
    source = ("import os\n"
              "from os import waitpid, sep\n"
              "if hasattr(os, 'fork'):\n"
              "    pid = os.fork()\n"
              "os.kill(pid, 9); os.getpid()\n"
              "def f():\n"
              "    os._exit(0)\n")
    assert _process_calls(source) == [2, 4, 5, 7]


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda p: p.name)
def test_only_the_fork_helper_forks(path):
    if path.name != "_fork.py":
        assert _process_calls(path.read_text()) == []


MAX_OPTIONAL_PARAMETERS = 52


def _optional_parameters(source):
    """Defaults plus keyword-only parameters of every non-dunder def."""
    return sum(len(node.args.defaults) + len(node.args.kw_defaults)
               for node in ast.walk(ast.parse(source))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (node.name.startswith("__") and node.name.endswith("__")))


def _environment_reads(source):
    """Line numbers of every use of os.environ or os.getenv, or an import
    of either from os."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(a.name in ("environ", "getenv") for a in node.names)):
            lines.append(node.lineno)
    return lines


def test_checkers_find_options_and_environment_reads():
    source = ("import os\n"
              "from os import getenv\n"
              "def f(a, b=1, *, c, d=2):\n"
              "    return os.environ.get('X', b)\n"
              "def __init__(self, x=0):\n"
              "    return os.path.join(x)\n")
    assert _optional_parameters(source) == 3
    assert _environment_reads(source) == [2, 4]


def test_optional_parameters_do_not_grow():
    count = sum(_optional_parameters(p.read_text()) for p in PACKAGE_FILES)
    assert count <= MAX_OPTIONAL_PARAMETERS


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda p: p.name)
def test_module_does_not_read_the_environment(path):
    assert _environment_reads(path.read_text()) == []


# (command, key) pairs of the CLI: the keys the handlers read when the
# tables replaced the hand-written flags and checks
MAX_COMMAND_KEYS = 74


def test_cli_flags_are_the_parameter_tables():
    parser = cli._build_parser()
    top = set(vars(parser.parse_args([])))
    count = 0
    assert set(cli.SELECTORS) == {"flatmap-verify", "solve"}
    for command, (_, table) in cli.COMMANDS.items():
        selector, variants = cli.SELECTORS.get(command, (None, {}))
        if selector:  # the selector's choices are its variants
            assert all(table[selector][0].test(v) for v in variants), command
        keys = set(table).union(*(v_table for _, v_table in variants.values()))
        flags = set(vars(parser.parse_args([command]))) - top
        assert flags == keys, command
        count += len(flags)
    assert count <= MAX_COMMAND_KEYS
