"""Every module-level function, class and assignment in src/toran, and every
non-dunder method, is referenced somewhere outside its own definition in
src/ or tests/.  A name with no reference is dead code and should be deleted.

References are found with the standard-library ``ast`` module: loaded names,
attribute names and names imported with ``from ... import``.  Dunder names
such as ``__version__`` are exempt.

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
    """(label, referenced name, defining node) for each checked definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, n.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name, item


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


def unreferenced_names(src_files, test_files) -> list[str]:
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in [*src_files, *test_files]
    }
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            uses.setdefault(name, []).append((path, line))
    dead = []
    for path in src_files:
        for label, name, node in _definitions(trees[path]):
            if _is_dunder(name):
                continue
            elsewhere = [
                (p, line)
                for p, line in uses.get(name, [])
                if p != path or not node.lineno <= line <= node.end_lineno
            ]
            if not elsewhere:
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
    test_files = sorted((ROOT / "tests").glob("*.py"))
    assert src_files and test_files
    assert unreferenced_names(src_files, test_files) == []
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
    )
    test = tmp_path / "test_mod.py"
    test.write_text("from mod import Box\n\ndef test_box():\n    assert Box().size()\n")
    assert unreferenced_names([module], [test]) == ["mod.Box.unused", "mod.recursive"]


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
