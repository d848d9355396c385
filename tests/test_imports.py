"""Every name a module of the package imports is used in that module, every
public function and class of the package has a caller outside its module,
no module imports or reads another package module's private names, no
module imports scipy when it is loaded, only ``pool.py`` starts
processes or cuts work into chunks, only ``models.py`` decodes JSON
documents, only ``graphs.pair_layout`` calls numpy's triangle helpers, no
module names the retired dense type ``AdjacencyMatrix``, only
``models._check_family`` tests membership in ``FAMILIES``, only
``twosample`` and ``realdata`` name the group-size errors, and every
``graphtest`` name the benchmark code in ``perfbench/`` uses exists.

No linter ships with the test dependencies, so this walks the syntax tree
with the standard library's ``ast``: an imported name counts as used when it
appears as a name anywhere in the module (annotations included) or is
listed in the module's ``__all__``.  A public top-level function or class
counts as used when another module of the package or the benchmark code in
``perfbench/`` names it (as a name or an attribute; docstrings do not
count), or when ``graphtest.__all__`` lists it, so the tests are never its
only caller.  scipy is imported inside the functions that need it, so
``graphtest`` starts without it.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graphtest"


def _all_names(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _all_names(tree)
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_detects_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau\nprint(sys.argv, tau)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: pi"]
    assert unused_imports("from . import a\n__all__ = ['a']\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(source: str) -> list[str]:
    """The ``_``-prefixed names of other package modules that ``source``
    imports (``from .models import _blocks``) or reads through a module it
    imports (``pool._plan`` after ``from . import pool``), relative or as
    ``graphtest``.  A module's own private names are its business alone."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom)
                and (node.level or (node.module or "").split(".")[0] == "graphtest")):
            continue
        for alias in node.names:
            if node.module in (None, "graphtest"):
                modules.add(alias.asname or alias.name)
            if _private(alias.name):
                found.append((node.lineno, f"{node.module or ''}.{alias.name}"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_detects_private_imports():
    source = ("from __future__ import annotations\nimport os\n"
              "from .models import TwoBlockModel, _blocks as blocks\n"
              "from . import pool, rng as r\nfrom graphtest.graphs import _own\n"
              "from graphtest import twosample\n"
              "chunks = pool._plan([1], 3, 2)\nr._key(1)\ntwosample._half_sums\n"
              "pool.run(f, None, [1], [1], 2, 1)\nos._exit(0)\nself._cache\n"
              "def _local(): return _local\nversion = pool.__name__\n")
    assert private_imports(source) == [
        "line 3: models._blocks", "line 5: graphtest.graphs._own",
        "line 7: pool._plan", "line 8: r._key", "line 9: twosample._half_sums"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def _referenced(tree) -> set[str]:
    """Names used in ``tree`` as a name or as an attribute."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)})


def unreferenced_public(package: dict[str, str], outside: list[str]) -> list[str]:
    """``"module: name"`` for each public top-level function or class of the
    ``package`` sources (file name -> source) that no other package module
    and none of the ``outside`` sources refers to, and that the package's
    ``__init__.py`` does not list in ``__all__``."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    exported = _all_names(trees["__init__.py"])
    outside_refs = set().union(*(_referenced(ast.parse(s)) for s in outside))
    refs = {name: _referenced(tree) for name, tree in trees.items()}
    found = []
    for name, tree in sorted(trees.items()):
        others = set().union(*(r for other, r in refs.items() if other != name))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in others | outside_refs | exported):
                found.append(f"{name}: {node.name}")
    return found


def test_detects_unreferenced_public_name():
    package = {
        "__init__.py": "from .a import exported\n__all__ = ['exported']\n",
        "a.py": ("def exported(): pass\ndef called(): pass\n"
                 "class Unused:\n    def method(self): pass\n"
                 "def benched(): pass\ndef _private(): pass\n"
                 "def self_only(): return self_only\n"),
        "b.py": ('"""Unused is named only in this docstring."""\n'
                 "from . import a\nfrom .a import called\n"
                 "a.called()\nvalue = called\n"),
    }
    outside = ["import graphtest.a\ngraphtest.a.benched()\n"]
    assert unreferenced_public(package, outside) == ["a.py: Unused",
                                                    "a.py: self_only"]


def test_every_public_name_has_a_caller_outside_its_module():
    package = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    outside = [path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unreferenced_public(package, outside) == []


def load_time_imports(source: str) -> list[str]:
    """Modules imported by the statements run when the module is loaded:
    the top-level ones and those nested in them, function bodies aside."""
    found = []
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append("." * node.level + (node.module or ""))
        else:
            pending.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_detects_load_time_import():
    source = ("import os\nif os:\n    from scipy import special\n"
              "class A:\n    import scipy.stats\n"
              "def f():\n    from scipy.special import ndtr\n")
    assert load_time_imports(source) == ["os", "scipy", "scipy.stats"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_at_load(path):
    modules = load_time_imports(path.read_text(encoding="utf-8"))
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


POOL_MODULES = ("concurrent.futures", "multiprocessing")
POOL_NAMES = {"_plan", "ProcessPoolExecutor"}


def pool_internals(source: str) -> list[str]:
    """The imports of :data:`POOL_MODULES` (or their submodules and names)
    in ``source``, and its uses of :data:`POOL_NAMES` as a name, an
    attribute or an imported name: what only ``pool.py`` may have."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            prefix = f"{node.module}." if node.module and not node.level else ""
            imported = [prefix + alias.name for alias in node.names]
        else:
            continue
        found += [f"line {node.lineno}: import {name}" for name in imported
                  if name.split(".")[-1] in POOL_NAMES
                  or any(name == m or name.startswith(m + ".") for m in POOL_MODULES)]
    return found + sorted(f"name {name}" for name in _referenced(tree) & POOL_NAMES)


def test_detects_pool_internals():
    source = ("import os\nimport multiprocessing.pool\n"
              "from concurrent import futures\nfrom . import pool\n"
              "from .pool import _plan, run\n"
              "from concurrent.futures import ProcessPoolExecutor as PPE\n"
              "chunks = pool._plan([1], 3, 2)\n")
    assert pool_internals(source) == [
        "line 2: import multiprocessing.pool", "line 3: import concurrent.futures",
        "line 5: import _plan",
        "line 6: import concurrent.futures.ProcessPoolExecutor", "name _plan"]
    assert pool_internals("from . import pool\npool.run(f, None, [1], [1], 2, 1)\n") == []


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py"))
                                         - {PACKAGE / "pool.py"}),
                         ids=lambda p: p.name)
def test_only_pool_starts_processes_or_plans_chunks(path):
    assert pool_internals(path.read_text(encoding="utf-8")) == []


JSON_READERS = {"load", "loads"}


def json_reads(source: str) -> list[str]:
    """The calls of ``json.load`` and ``json.loads`` in ``source``, and the
    imports of those names from ``json``: what only ``models.py`` may have."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [f"line {node.lineno}: import json.{alias.name}"
                      for alias in node.names if alias.name in JSON_READERS]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in JSON_READERS
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"):
            found.append(f"line {node.lineno}: json.{node.func.attr}")
    return found


def test_detects_json_reads():
    source = ("import json\nfrom json import loads as parse, dumps\n"
              "with open('a') as fh:\n    doc = json.load(fh)\n"
              "text = json.dumps(json.loads('1'))\n")
    assert json_reads(source) == ["line 2: import json.loads", "line 4: json.load",
                                  "line 5: json.loads"]
    assert json_reads("import json\nprint(json.dumps({}, indent=2))\n") == []


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py"))
                                         - {PACKAGE / "models.py"}),
                         ids=lambda p: p.name)
def test_only_models_decodes_json(path):
    assert json_reads(path.read_text(encoding="utf-8")) == []


def graphtest_references(source: str) -> set[str]:
    """The dotted ``graphtest`` names ``source`` uses: each module it imports,
    each name it imports from a ``graphtest`` module, and each attribute it
    reads through a name bound by one of those imports, such as
    ``realdata.equalize`` after ``from graphtest import realdata``."""
    tree = ast.parse(source)
    bound, found = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "graphtest":
                    found.add(alias.name)
                    local = alias.asname or "graphtest"
                    bound[local] = alias.name if alias.asname else "graphtest"
        elif (isinstance(node, ast.ImportFrom) and not node.level and node.module
              and node.module.split(".")[0] == "graphtest"):
            for alias in node.names:
                found.add(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            found.add(".".join([bound[node.id], *reversed(chain)]))
    return found


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute reached from one."""
    parts = dotted.split(".")
    target = importlib.import_module(parts[0])
    for k, part in enumerate(parts[1:], start=2):
        if hasattr(target, part):
            target = getattr(target, part)
            continue
        try:
            target = importlib.import_module(".".join(parts[:k]))
        except ModuleNotFoundError:
            return False
    return True


def test_detects_missing_graphtest_name():
    source = ("import graphtest.cli\nimport graphtest.gone\n"
              "from graphtest import models, rng as r\n"
              "from graphtest.graphs import pair_layout, removed\n"
              "def f(config):\n"
              "    models.sample_population(config.anything)\n"
              "    r.substream(1).random()\n"
              "    models.no_such_name\n"
              "    return graphtest.cli.main, graphtest.cli.gone\n")
    refs = graphtest_references(source)
    assert refs == {
        "graphtest.cli", "graphtest.gone", "graphtest.models", "graphtest.rng",
        "graphtest.graphs.pair_layout", "graphtest.graphs.removed",
        "graphtest.models.sample_population", "graphtest.rng.substream",
        "graphtest.models.no_such_name", "graphtest.cli.main",
        "graphtest.cli.gone"}
    assert sorted(name for name in refs if not resolves(name)) == [
        "graphtest.cli.gone", "graphtest.gone", "graphtest.graphs.removed",
        "graphtest.models.no_such_name"]


def test_benchmark_names_exist():
    """The benchmark calls the package by name: a rename or deletion here
    must not silently break it."""
    refs = set().union(*(graphtest_references(path.read_text(encoding="utf-8"))
                         for path in sorted((ROOT / "perfbench").glob("*.py"))))
    assert refs
    assert sorted(name for name in refs if not resolves(name)) == []


def _nodes_inside(tree, function: str | None) -> set[int]:
    """The ``id`` of every node of the top-level function ``function``."""
    return {id(node) for top in tree.body
            if isinstance(top, ast.FunctionDef) and top.name == function
            for node in ast.walk(top)}


TRIANGLE_HELPERS = {"triu", "tril", "triu_indices", "tril_indices",
                    "triu_indices_from", "tril_indices_from"}
RETIRED_NAMES = {"AdjacencyMatrix"}


def layout_leaks(source: str, layout_function: str | None = None) -> list[str]:
    """The uses in ``source`` of numpy's triangle helpers, as a name, an
    attribute or an imported name, outside the top-level function
    ``layout_function``; and every mention of a retired name, in code or in
    a string.  The package has one pair layout and one graph type."""
    tree = ast.parse(source)
    inside = _nodes_inside(tree, layout_function)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.split(".")[-1] for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [name for name in RETIRED_NAMES if name in node.value]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name in RETIRED_NAMES
                  or (name in TRIANGLE_HELPERS and id(node) not in inside)]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_detects_layout_leaks():
    source = ("import numpy as np\nfrom numpy import tril\n"
              "def pair_layout(n):\n    return np.triu_indices(n, k=1)\n"
              "def other(w):\n    return np.triu(w), np.tril_indices(3)\n"
              'class AdjacencyMatrix:\n    """Once the AdjacencyMatrix type."""\n'
              "dense = graphs.AdjacencyMatrix\n")
    assert layout_leaks(source, "pair_layout") == [
        "line 2: tril", "line 6: tril_indices", "line 6: triu",
        "line 7: AdjacencyMatrix", "line 8: AdjacencyMatrix",
        "line 9: AdjacencyMatrix"]
    assert layout_leaks(source)[:2] == ["line 2: tril", "line 4: triu_indices"]
    assert layout_leaks("rows, cols = pair_layout(n)\nw[rows, cols]\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_one_pair_layout_and_one_graph_type(path):
    layout_function = "pair_layout" if path.name == "graphs.py" else None
    assert layout_leaks(path.read_text(encoding="utf-8"), layout_function) == []


def family_checks(source: str, check_function: str | None = None) -> list[str]:
    """The membership tests (``in`` or ``not in``) of ``FAMILIES``, as a
    name or an attribute, in ``source`` outside the top-level function
    ``check_function``.  The package checks a family name in one place."""
    tree = ast.parse(source)
    inside = _nodes_inside(tree, check_function)
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Compare) and id(node) not in inside
             and any(isinstance(op, (ast.In, ast.NotIn))
                     and (getattr(right, "id", None) == "FAMILIES"
                          or getattr(right, "attr", None) == "FAMILIES")
                     for op, right in zip(node.ops, node.comparators))]
    return [f"line {line}" for line in sorted(lines)]


def test_detects_family_checks():
    """Lines 4, 8 and 12 are the three checks the model module once had, in
    ``TwoBlockModel.__post_init__``, ``sample_graph_from_means`` and
    ``json_design``."""
    source = ("FAMILIES = ('beta', 'bernoulli')\n"
              "class TwoBlockModel:\n    def __post_init__(self):\n"
              "        if self.family not in FAMILIES:\n            raise ConfigError\n"
              "def sample_graph_from_means(mean, family, rng):\n"
              '    """family in FAMILIES"""\n'
              "    if family not in FAMILIES:\n        raise ConfigError\n"
              "def json_design(doc):\n    family = doc['family']\n"
              "    if family not in FAMILIES:\n        raise ConfigError\n"
              "def _check_family(family):\n    if family not in FAMILIES:\n"
              "        raise ConfigError(f'one of {FAMILIES}')\n"
              "ok = [f for f in families if f in models.FAMILIES]\n"
              "beta = family == 'beta' or FAMILIES[0] in names\n")
    assert family_checks(source, "_check_family") == [
        "line 4", "line 8", "line 12", "line 17"]
    assert family_checks(source)[-2:] == ["line 15", "line 17"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_one_family_check(path):
    check_function = "_check_family" if path.name == "models.py" else None
    assert family_checks(path.read_text(encoding="utf-8"), check_function) == []


SIZE_ERRORS = {"SampleSizeMismatchError", "OddSampleSizeError"}


def size_error_names(source: str) -> list[str]:
    """The uses in ``source`` of :data:`SIZE_ERRORS` as a name, an
    attribute or an imported name.  The kernel (``twosample``) and the one
    group-size rule (``realdata.run_passes``) raise them; ``errors`` only
    defines them."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.split(".")[-1] for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in SIZE_ERRORS]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_detects_size_error_names():
    """Lines 9 and 12 are the size checks ``cli._cmd_test`` once made on
    its own, and line 1 their import."""
    source = ("from .errors import (\n    AllNAError,\n    GraphTestError,\n"
              "    OddSampleSizeError,\n    SampleSizeMismatchError,\n)\n"
              "def _cmd_test(args):\n    if group_a.m != group_b.m:\n"
              "        raise SampleSizeMismatchError(f'groups have {group_a.m}')\n"
              "    if group_a.m % 2 != 0 and group_a.m > 1 and not args.drop_last:\n"
              '        """OddSampleSizeError, named only in a docstring."""\n'
              "        raise errors.OddSampleSizeError(f'group size {group_a.m}')\n"
              "class SampleSizeMismatchError(GraphTestError):\n    pass\n")
    assert size_error_names(source) == [
        "line 1: OddSampleSizeError", "line 1: SampleSizeMismatchError",
        "line 9: SampleSizeMismatchError", "line 12: OddSampleSizeError"]
    assert size_error_names("from .errors import AllNAError\n") == []


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py"))
                                         - {PACKAGE / "twosample.py",
                                            PACKAGE / "realdata.py"}),
                         ids=lambda p: p.name)
def test_one_group_size_rule(path):
    assert size_error_names(path.read_text(encoding="utf-8")) == []
