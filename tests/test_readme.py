"""The ``python`` examples of ``README.md`` run as written.

Every fenced ``python`` block runs in order in one namespace, as a reader
who pastes them one after another would run them, with stdout captured.
Every ``graphtest`` name the blocks use must exist, so a renamed or
deleted function cannot leave a stale example behind.
"""

from __future__ import annotations

import re

from test_imports import ROOT, graphtest_references, resolves

BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                    (ROOT / "README.md").read_text(encoding="utf-8"),
                    flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2
    assert any("sample_graph_from_means" in block for block in BLOCKS)


def test_readme_names_exist():
    refs = set().union(*(graphtest_references(block) for block in BLOCKS))
    assert "graphtest.sample_graph_from_means" in refs
    assert sorted(name for name in refs if not resolves(name)) == []


def test_readme_examples_run(capsys):
    namespace = {"__name__": "readme"}
    for k, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)
    assert capsys.readouterr().out.count("\n") >= len(BLOCKS)
