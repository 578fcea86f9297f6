"""Every module-level function, class and assignment in src/toran is
referenced in src/ outside its own definition, and every non-dunder method is
referenced in src/ or belongs to a class that ``toran/__init__.py`` exports.
Only the library, the CLI and the exports count as users: a name that only
tests reach is dead code and should be deleted, or exported if it is meant
to be public.

References are found with the standard-library ``ast`` module: loaded names,
attribute names and names imported with ``from ... import``, so a name that
``__init__.py`` imports is exported and referenced.  Dunder names such as
``__version__`` are exempt.

Every name a module imports is also loaded in that module, except for
``from __future__`` imports and the re-exports of ``__init__.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "toran"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(owning class or None, name, defining node) for each checked definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield None, node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield None, n.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, item.name, item


def _references(tree: ast.Module):
    """(name, line) for each place a name is used."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            yield n.id, n.lineno
        elif isinstance(n, ast.Attribute):
            yield n.attr, n.lineno
        elif isinstance(n, ast.ImportFrom):
            for alias in n.names:
                yield alias.name, n.lineno


def unreferenced_names(src_files) -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in src_files}
    uses: dict[str, list[tuple[Path, int]]] = {}
    exported = set()
    for path, tree in trees.items():
        for name, line in _references(tree):
            uses.setdefault(name, []).append((path, line))
            if path.name == "__init__.py":
                exported.add(name)
    dead = []
    for path in src_files:
        for owner, name, node in _definitions(trees[path]):
            if _is_dunder(name) or owner in exported:
                continue
            elsewhere = [
                (p, line)
                for p, line in uses.get(name, [])
                if p != path or not node.lineno <= line <= node.end_lineno
            ]
            if not elsewhere:
                label = f"{owner}.{name}" if owner else name
                dead.append(f"{path.stem}.{label}")
    return sorted(dead)


def unused_imports(src_files) -> list[str]:
    unused = []
    for path in src_files:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {
            n.id
            for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in loaded:
                        unused.append(f"{path.stem}.{bound}")
    return sorted(unused)


def test_no_dead_names():
    src_files = sorted(PACKAGE.glob("*.py"))
    assert src_files
    assert unreferenced_names(src_files) == []
    assert unused_imports(src_files) == []


def test_guard_reports_an_unused_helper(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "LIMIT = 3\n"
        "\n"
        "def used(n):\n"
        "    return n < LIMIT\n"
        "\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "\n"
        "class Box:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "\n"
        "    def size(self):\n"
        "        return used(1)\n"
        "\n"
        "    def unused(self):\n"
        "        return 0\n"
        "\n"
        "def measure():\n"
        "    return Box().size()\n"
    )
    init = tmp_path / "__init__.py"
    init.write_text("from .mod import measure\n")
    assert unreferenced_names([module, init]) == ["mod.Box.unused", "mod.recursive"]


def test_guard_counts_no_test_as_a_user(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "def helper(n):\n"
        "    return n\n"
        "\n"
        "class Box:\n"
        "    def size(self):\n"
        "        return 0\n"
    )
    init = tmp_path / "__init__.py"
    init.write_text("from .mod import Box\n")
    test = tmp_path / "test_mod.py"
    test.write_text(
        "from mod import Box, helper\n"
        "\n"
        "def test_mod():\n"
        "    assert Box().size() == helper(0)\n"
    )
    dead = unreferenced_names([module, init])
    # referenced only from the test file: not a use
    assert "mod.helper" in dead
    # a method of an exported class is public API, even if only tests call it
    assert "mod.Box.size" not in dead


def test_guard_reports_an_unused_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from __future__ import annotations\n"
        "\n"
        "import os.path\n"
        "import re as regex\n"
        "from math import comb, gcd\n"
        "\n"
        "def f(n):\n"
        "    return gcd(n, 4) + len(os.sep)\n"
    )
    init = tmp_path / "__init__.py"
    init.write_text("from .mod import f\n")
    assert unused_imports([module, init]) == ["mod.comb", "mod.regex"]
