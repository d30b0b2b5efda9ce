"""Every name a module of the package imports is used in that module.

No linter runs on the package, so an import that a change leaves behind
would go unseen.  __init__.py is exempt: its imports are the package's API.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fig8plan"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names the source imports (at any depth) and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_names_each_orphan():
    source = (
        "from __future__ import annotations\n"
        "import os.path, json as j\n"
        "from math import inf, pi as tau\n"
        "def f():\n"
        "    from bisect import bisect\n"
        "    return os.path.sep, inf\n"
    )
    assert unused_imports(source) == ["bisect", "j", "tau"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []
