"""Every name a module of the package imports is used in that module.

The package's __init__ imports names only to re-export them, so it is left
out. An import that nothing reads is dead weight, and after a function
moves between modules it is the first thing left behind.
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


def test_the_walk_finds_an_unused_import():
    source = ("from .errors import InvalidInputError, ShapeError\n"
              "import numpy as np\n"
              "import os.path\n"
              "def f(x):\n"
              "    raise InvalidInputError(np.sum(x))\n")
    assert unused_imports(source) == ["ShapeError", "os"]


def test_the_package_has_modules_to_check():
    assert {path.name for path in MODULES} >= {"cli.py", "oracle.py", "sets.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
