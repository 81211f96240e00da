"""Static checks over the package, the test suite, the benchmark and the
README: no module imports a name it never uses, every function, class and
constant that the package defines at module level is read by the package
or the benchmark, not only by tests, every package name the README cites
exists, and every function parameter that no package call varies is
allowed in ``UNVARIED_ALLOWED`` for one of a few fixed reasons."""

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
    state = training.init_state(tiny_config(), training.TrainConfig(),
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


_UNKNOWN = object()


def _name(node: ast.Name | ast.Attribute) -> str:
    return node.id if isinstance(node, ast.Name) else node.attr


def _value(node: ast.expr | None, constants: dict[str, object]) -> object:
    """The value of a literal, or of a name (plain or dotted) that a module
    binds at module level to a literal; ``_UNKNOWN`` otherwise."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        return constants.get(_name(node), _UNKNOWN)
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError):
        return _UNKNOWN


def unvaried_parameters(modules: dict[str, str]) -> list[str]:
    """``module.function(parameter)`` for each parameter of a function in
    ``modules`` that no call in ``modules`` passes, or that every call
    passes the same value, an omitted argument passing its default.  A
    value is a literal, or a module-level name bound to one.  Calls are
    matched by the called name alone; an ``__init__`` is called by its
    class's name, and a method's ``self`` is not a parameter.  A function
    that no call names is skipped, and so is one whose name the modules
    also read as a value (kept in a table, handed to ``map``), since its
    other calls are out of sight."""
    trees = {module.removesuffix(".py"): ast.parse(source) for module, source in modules.items()}
    constants: dict[str, object] = {}
    calls: dict[str, list[ast.Call]] = {}
    as_values: set[str] = set()
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                value = _value(node.value, {})
                if value is not _UNKNOWN:
                    constants[node.targets[0].id] = value
        callees = set()
        for node in ast.walk(tree):  # breadth first: a call comes before its callee
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                callees.add(id(node.func))
                calls.setdefault(_name(node.func), []).append(node)
            elif isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in callees \
                    and isinstance(node.ctx, ast.Load):
                as_values.add(_name(node))
    found = []
    for module, tree in trees.items():
        owner = {id(fn): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls = owner.get(id(fn))
            name = cls if cls and fn.name == "__init__" else fn.name
            if name not in calls or name in as_values:
                continue
            args = fn.args
            positional = [a.arg for a in [*args.posonlyargs, *args.args]][1 if cls else 0:]
            defaults = dict(zip(positional[::-1], args.defaults[::-1]))
            defaults.update((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults))
            for index, param in [*enumerate(positional), *((None, a.arg) for a in args.kwonlyargs)]:
                passed, values = False, set()
                for call in calls[name]:
                    given = [k.value for k in call.keywords if k.arg == param] \
                        + (call.args[index:index + 1] if index is not None else [])
                    spread = any(isinstance(a, ast.Starred) for a in call.args) \
                        or any(k.arg is None for k in call.keywords)
                    passed |= bool(given) or spread
                    value = _UNKNOWN if spread else _value(given[0], constants) if given \
                        else _value(defaults.get(param), constants)
                    values.add(value if value is _UNKNOWN else repr(value))
                if not passed or (len(values) == 1 and _UNKNOWN not in values):
                    found.append(f"{module}.{cls + '.' if cls else ''}{fn.name}({param})")
    return sorted(found)


# each parameter that the scan reports, with the one reason it stays; ROADMAP
# item 1 deletes the "perfbench binds it" ones with their bindings
UNVARIED_ALLOWED = {
    "cli.main(argv)": "entry point",
    "data.stratified_split(test_fraction)": "perfbench binds it",
    "model.model_forward(capture)": "criterion 2 oracle",
    "tensor.take_rows(start)": "engine op API",
    "tensor.take_rows(stop)": "engine op API",
    "training.evaluate(batch_size)": "perfbench binds it",
    "training.evaluate(num_threads)": "perfbench binds it",
    "training.fit(max_epochs)": "perfbench binds it",
}
REASONS = re.compile(r"perfbench binds it|engine op API|criterion \d+ oracle|entry point")


def allowlist_faults(reported: list[str], allowed: dict[str, str]) -> list[str]:
    """Where a report and an allowlist disagree: a reported parameter that
    the list lacks, a listed one that is no longer reported, and a reason
    outside the fixed set."""
    return ([f"unlisted: {name}" for name in reported if name not in allowed]
            + [f"stale: {name}" for name in allowed if name not in reported]
            + [f"reason: {name}: {why}" for name, why in allowed.items()
               if not REASONS.fullmatch(why)])


def test_every_unvaried_parameter_is_allowed_for_a_reason():
    reported = unvaried_parameters({p.name: p.read_text(encoding="utf-8") for p in PACKAGE})
    assert allowlist_faults(reported, UNVARIED_ALLOWED) == []


def test_unvaried_scan_resolves_constants_and_defaults():
    module = ("K = 3\n"
              "def f(a, b, c, d=1, *, e=2): pass\n"
              "def g(x): pass\n"
              "def h(y): pass\n"
              "class C:\n    def __init__(self, s): pass\n    def m(self, t): pass\n"
              "def run(v):\n"
              "    f(v, K, 0, e=2)\n    f(v + 1, 3, 1)\n"
              "    h(1)\n    table = [h]\n"
              "    C(5).m(v)\n    C(5).m(K)\n")
    # b is the constant K = 3 and the literal 3, d is never passed, e is 2
    # as passed and as default, s is 5 twice; a and t are passed variables,
    # c two literals; g has no call, and h is also read as a value
    assert unvaried_parameters({"m.py": module}) \
        == ["m.C.__init__(s)", "m.f(b)", "m.f(d)", "m.f(e)"]


def test_allowlist_faults_name_unlisted_stale_and_unreasoned_entries():
    allowed = {"m.f(b)": "entry point", "m.f(z)": "criterion 8 oracle", "m.f(d)": "tests use it"}
    assert allowlist_faults(["m.f(b)", "m.f(d)", "m.f(e)"], allowed) \
        == ["unlisted: m.f(e)", "stale: m.f(z)", "reason: m.f(d): tests use it"]


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
