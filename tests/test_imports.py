"""Every name a module of the package imports is used in that module, and
none is an underscore name of a sibling module. Only `spaces` sets a block
budget.

The package's __init__ imports names only to re-export them, so it is left
out. An import that nothing reads is dead weight, and after a function
moves between modules it is the first thing left behind. A private name
belongs to its module: a sibling that imports one shares a decision, such
as how `spaces` lays out a block of rows, that should have one owner. How
many rows a block holds is another such decision: `spaces.row_blocks` cuts
every block, so no other module keeps a `*_BLOCK_ELEMS` budget of its own.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lpvi"
MODULES = sorted(path for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds `a`
            imported |= {alias.asname or alias.name.split(".")[0]
                         for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def private_sibling_imports(source: str) -> list[str]:
    """Underscore names imported from the package's own modules."""
    return sorted(alias.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.level > 0
                  for alias in node.names if alias.name.startswith("_"))


def block_budgets(source: str) -> list[str]:
    """Module-level names ending in _BLOCK_ELEMS that a module assigns."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [target.id for target in targets
                      if isinstance(target, ast.Name)
                      and target.id.endswith("_BLOCK_ELEMS")]
    return sorted(names)


def test_the_walk_finds_an_unused_import():
    source = ("from .errors import InvalidInputError, ShapeError\n"
              "import numpy as np\n"
              "import os.path\n"
              "def f(x):\n"
              "    raise InvalidInputError(np.sum(x))\n")
    assert unused_imports(source) == ["ShapeError", "os"]


def test_the_walk_finds_a_private_sibling_import():
    source = ("from __future__ import annotations\n"
              "from numpy import _core\n"
              "from .spaces import _order, as_vector\n"
              "from . import _private\n")
    assert private_sibling_imports(source) == ["_order", "_private"]


def test_the_walk_finds_a_block_budget():
    source = ("_SCAN_BLOCK_ELEMS = 1 << 14\n"
              "_A_BLOCK_ELEMS: int = 4\n"
              "_B_BLOCK_ELEMS += 1\n"
              "_BLOCK_ELEMS_NOTE = 1\n"
              "def f():\n"
              "    _LOCAL_BLOCK_ELEMS = 2\n")
    assert block_budgets(source) == ["_A_BLOCK_ELEMS", "_B_BLOCK_ELEMS",
                                     "_SCAN_BLOCK_ELEMS"]


def test_the_package_has_modules_to_check():
    assert {path.name for path in MODULES} >= {"cli.py", "oracle.py", "sets.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_private_name_of_a_sibling(path):
    assert private_sibling_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_spaces_sets_a_block_budget(path):
    budgets = block_budgets(path.read_text(encoding="utf-8"))
    assert budgets == (["_ROW_BLOCK_ELEMS"] if path.name == "spaces.py" else [])
