"""Static checks over the package, the test suite and the benchmark: no
module imports a name it never uses, and every function and class that the
package defines at module level is read by the package or the benchmark,
not only by tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "hgtnet").glob("*.py"))
SOURCES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])
# the code that ships or measures: the package and the benchmark, without its tests
NON_TEST = [*PACKAGE, *(p for p in sorted((ROOT / "perfbench").glob("*.py"))
                        if not p.name.startswith("test_"))]


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's import statements that no expression in
    the module reads; a name listed in a literal ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_sees_aliases_dotted_imports_and_all():
    source = ("import os.path\nimport json as j\nfrom a import (b, c as d)\n"
              "from __future__ import annotations\n__all__ = ['b']\nos.sep\n")
    assert unused_imports(source) == ["line 2: j", "line 3: d"]


def names_read(source: str) -> set[str]:
    """Every name the module loads, every attribute it loads and every name
    it imports with ``from ... import``."""
    read: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_definitions(modules: dict[str, str], readers: list[str]) -> list[str]:
    """``module: name`` for each module-level function or class of
    ``modules`` whose name no source in ``readers`` reads."""
    read = set().union(*map(names_read, readers))
    return [f"{module}: {node.name}" for module, source in modules.items()
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in read]


def test_every_package_definition_is_read_outside_the_tests():
    assert unread_definitions({p.name: p.read_text(encoding="utf-8") for p in PACKAGE},
                              [p.read_text(encoding="utf-8") for p in NON_TEST]) == []


def test_definition_scan_counts_names_attributes_and_from_imports():
    module = "def a(): pass\ndef b(): pass\nclass C: pass\ndef d(): pass\ndef e(): pass\n"
    readers = ["a()\n", "import m\nm.b\n", "from m import C\n", "d = 1\n"]
    assert unread_definitions({"m.py": module}, readers) == ["m.py: d", "m.py: e"]
