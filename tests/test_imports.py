"""Every name a module of the package imports is read in that module.

No linter runs on this repository, so this stands in for the unused-import
rule (F401): a deletion that leaves an import behind fails here.  An import
kept on purpose, for a caller that reads the binding from outside, carries
``# noqa: F401`` on its line.  ``__init__.py`` re-exports what it imports
and is exempt.
"""

import ast

import pytest

from conftest import ROOT

MODULES = sorted(p for p in (ROOT / "src" / "levelone").glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each name an import binds that the module never reads,
    the lines marked ``# noqa: F401`` and ``from __future__`` left out."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    out.append((alias.lineno, name))
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_an_unread_import_is_caught_and_a_marked_one_is_not():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\n"
              "from .linalg import (\n    bareiss,\n    rank,  # noqa: F401\n)\n"
              "print(os.path, bareiss)\n")
    assert unused_imports(source) == [(2, "math")]
