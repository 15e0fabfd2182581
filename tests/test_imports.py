"""Dead-import check: every module-level import of the package modules and
the tests is read somewhere in its file.  The package `__init__` is left out
because its imports are the public names it re-exports.  Also: every layer
function that the benchmark's tracer wraps by name still exists."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for p in (ROOT / "src" / "torelli").glob("*.py")
               if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """Module-level imported names that no expression in the source loads."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    loaded = {n.id for n in ast.walk(tree)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(imported - loaded)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys as system\n"
              "from math import gcd, lcm\n"
              "print(os.path.sep, gcd)\n")
    assert unused_imports(source) == ["lcm", "system"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_tracer_targets_resolve(monkeypatch):
    # the tracer looks its targets up by name, so a renamed layer function
    # would otherwise show only in a traced benchmark run
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracer = importlib.import_module("tracer")
    for _group, owner, names, _key in tracer.TARGETS:
        for name in names:
            assert callable(getattr(owner, name, None)), (owner, name)
