"""Every name a module of the package imports is used in that module, and
no module imports scipy when it is loaded.

No linter ships with the test dependencies, so this walks the syntax tree
with the standard library's ``ast``: an imported name counts as used when it
appears as a name anywhere in the module (annotations included) or is
listed in the module's ``__all__``.  scipy is imported inside the functions
that need it, so ``graphtest`` starts without it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "graphtest"


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
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_detects_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau\nprint(sys.argv, tau)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: pi"]
    assert unused_imports("from . import a\n__all__ = ['a']\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


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
