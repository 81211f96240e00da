"""Static checks over the package, the test suite, the benchmark and the
README: no module imports a name it never uses, every function, class and
constant that the package defines at module level is read by the package
or the benchmark, not only by tests, and every package name the README
cites exists."""

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


def defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement binds: a function's or class's
    name, or the plain names an assignment stores, except dunders such as
    ``__all__``, which Python itself reads."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Store) and not n.id.startswith("__")]


def unread_definitions(modules: dict[str, str], readers: list[str]) -> list[str]:
    """``module: name`` for each module-level function, class or assigned
    name of ``modules`` that no source in ``readers`` reads."""
    read = set().union(*map(names_read, readers))
    return [f"{module}: {name}" for module, source in modules.items()
            for node in ast.parse(source).body for name in defined_names(node)
            if name not in read]


def test_every_package_definition_is_read_outside_the_tests():
    assert unread_definitions({p.name: p.read_text(encoding="utf-8") for p in PACKAGE},
                              [p.read_text(encoding="utf-8") for p in NON_TEST]) == []


def test_definition_scan_counts_names_attributes_and_from_imports():
    module = "def a(): pass\ndef b(): pass\nclass C: pass\ndef d(): pass\ndef e(): pass\n"
    readers = ["a()\n", "import m\nm.b\n", "from m import C\n", "d = 1\n"]
    assert unread_definitions({"m.py": module}, readers) == ["m.py: d", "m.py: e"]


def test_definition_scan_sees_module_level_assignments():
    module = ("A = 1\nB: int = 2\nC, (D, E) = 3, (4, 5)\nF = G = 6\nH += 7\nI.x = 8\n"
              "J[0] = 9\n__all__ = []\n")
    readers = ["print(A, m.B, D)\n", "from m import F\n"]
    assert unread_definitions({"m.py": module}, readers) == ["m.py: C", "m.py: E", "m.py: G"]


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
    # dotted keys that are text, not attributes: the run config's keys and
    # the metadata keys of a saved state
    state = training.init_state(tiny_config(32), training.TrainConfig(),
                                data.DatasetStats(mean=np.zeros(3), std=np.ones(3)),
                                list(data.SYNTH_CLASS_NAMES))
    state.synth_per_class = 1
    training.save_state(state, tmp_path / "s.ckpt")
    skip = {*config._KEYS, *load_checkpoint(tmp_path / "s.ckpt")[0]}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert dangling_names(readme, {p.stem for p in PACKAGE}, skip) == []


def test_dangling_name_scan_resolves_paths_and_skips_keys():
    text = ("`model.build_graph` `model.ModelConfig.grid_size` `data.gone` `data.x.y` "
            "`model.image_size` `after.ppm` `tensor.relu(x)` `run.out_dir`")
    assert dangling_names(text, {"model", "data", "tensor"}, {"model.image_size"}) \
        == ["data.gone", "data.x.y"]


def package_imports(source: str) -> dict[str, set[str]]:
    """``{module: names}`` for every ``hgtnet`` module the source imports
    from, a module imported whole counting as the name ``*``."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hgtnet":
            for alias in node.names:
                if node.module == "hgtnet":
                    found.setdefault(f"hgtnet.{alias.name}", set()).add("*")
                else:
                    found.setdefault(node.module, set()).add(alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "hgtnet":
                    found.setdefault(alias.name, set()).add("*")
    return found


def test_augment_reference_imports_no_transform_it_checks():
    # the reference is the oracle for the package's per-image transforms, so
    # it may take from hgtnet.data only the types, the stack's constants (the
    # jitter magnitudes in _JITTER) and the two helpers it shares with the
    # pipeline, never a transform
    source = (ROOT / "tests" / "augment_reference.py").read_text(encoding="utf-8")
    imports = package_imports(source)
    assert imports.get("hgtnet.data") == {"AugmentPolicy", "DatasetStats", "ImageSample",
                                          "BLUR_KERNEL", "BLUR_SIGMA", "FLIP_PROB",
                                          "MAX_ROTATION_DEG", "SHARPNESS_FACTOR",
                                          "SHARPNESS_PROB", "_JITTER",
                                          "gaussian_kernel1d", "resize_bilinear"}
    assert "hgtnet" not in imports


def test_package_import_scan_sees_whole_modules_and_names():
    source = ("import numpy\nimport hgtnet.data\nfrom hgtnet import data, rng\n"
              "from hgtnet.data import hflip as flip, luma\nfrom hgtnet.errors import ShapeError\n")
    assert package_imports(source) == {"hgtnet.data": {"*", "hflip", "luma"},
                                       "hgtnet.rng": {"*"},
                                       "hgtnet.errors": {"ShapeError"}}
