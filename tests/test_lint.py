"""Static checks over the package, the test suite, the benchmark and the
README: no module imports a name it never uses, every function and class
that the package defines at module level is read by the package or the
benchmark, not only by tests, and every package name the README cites
exists."""

import ast
import functools
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

from hgtnet import config, data, training
from hgtnet.checkpoint import load_checkpoint
from hgtnet.model import tiny_config

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


def dangling_names(text: str, modules: set[str], skip: set[str]) -> list[str]:
    """Each backticked ``module.name`` (or longer dotted path) of ``text``
    whose first part is one of ``modules`` and that does not resolve by
    ``getattr`` on ``hgtnet.<module>``, unless it is in ``skip``."""
    dangling = []
    for cited in re.findall(r"`([a-z_]+(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`", text):
        first, *rest = cited.split(".")
        if first not in modules or cited in skip:
            continue
        try:
            functools.reduce(getattr, rest, importlib.import_module(f"hgtnet.{first}"))
        except AttributeError:
            dangling.append(cited)
    return dangling


def test_readme_cites_only_names_that_exist(tmp_path):
    # dotted keys that are text, not attributes: the run config's keys, the
    # retired keys, and the metadata keys of a saved state
    state = training.init_state(tiny_config(32), training.TrainConfig(),
                                data.DatasetStats(mean=np.zeros(3), std=np.ones(3)),
                                list(data.SYNTH_CLASS_NAMES))
    state.synth_per_class = 1
    training.save_state(state, tmp_path / "s.ckpt")
    skip = {*config._KEYS, *training._RETIRED_KEYS,
            *load_checkpoint(tmp_path / "s.ckpt").metadata}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert dangling_names(readme, {p.stem for p in PACKAGE}, skip) == []


def test_dangling_name_scan_resolves_paths_and_skips_keys():
    text = ("`model.build_graph` `model.ModelConfig.grid_size` `data.gone` `data.x.y` "
            "`model.image_size` `after.ppm` `tensor.relu(x)` `run.out_dir`")
    assert dangling_names(text, {"model", "data", "tensor"}, {"model.image_size"}) \
        == ["data.gone", "data.x.y"]
