"""Every name a module of the package imports is used in that module, and
every name a module defines at its top is read somewhere in the package.

No linter runs on the package, so an import or a helper that a change
leaves behind would go unseen.  __init__.py is exempt from the import
check (its imports are the package's API), and its imports count as reads.
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


def unread_names(sources: dict[str, str]) -> list[str]:
    """The top-level names (module.name) that no module of sources reads.

    sources maps each module's name to its text.  A function, class or
    assigned name at the top of a module is read if its module loads it
    outside its own definition, or if any module imports it from there
    (from .module import name); dunder names are exempt.
    """
    defined, read = set(), set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                names = set()
            defined.update((module, name) for name in names if not name.startswith("__"))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in names:
                    read.add((module, node.id))
                elif isinstance(node, ast.ImportFrom) and node.level == 1:
                    read.update((node.module, alias.name) for alias in node.names)
    return sorted(f"{module}.{name}" for module, name in defined - read)


def test_unread_names_names_each_dead_definition():
    sources = {
        "a": (
            "X = 1\n"
            "Y, _Z = X, 2\n"
            "__all__ = []\n"
            "def f():\n"
            "    return f()\n"
            "class C:\n"
            "    pass\n"
            "def g(x: C):\n"
            "    return x\n"
        ),
        "b": "from .a import g\n",
    }
    assert unread_names(sources) == ["a.Y", "a._Z", "a.f"]


def test_every_top_level_name_is_read_in_the_package():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert unread_names(sources) == []
