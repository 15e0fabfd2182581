"""Dead-import check: every module-level import of the package modules and
the tests is read somewhere in its file.  The package `__init__` is left out
because its imports are the public names it re-exports.  Also: every layer
function that the benchmark's tracer wraps by name still exists; no engine
module names a retired function: the tensor algebra (that lives in
`tests/tensor_oracle.py`), the caterpillar family of the tree lattices or
the derivation action; and the tensor oracle imports from the engine only
the numerator and Lyndon-word helpers it names, none of the engine's
bracket structure constants."""

import ast
import importlib
from pathlib import Path

import pytest

from torelli.trees import DerivationElement

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


# name -> why no engine module may define or name it any more
RETIRED_NAMES = {
    # the tensor algebra is the independent oracle of the engine's BCH,
    # theta and trace, in tests/tensor_oracle.py
    **dict.fromkeys(("t_mul", "t_exp", "t_log", "decompose", "lie_terms",
                     "to_tensor", "letter_exp", "_expansion", "_expand_tree"),
                    "tensor algebra"),
    # the tree lattices are read off the component basis, so no second
    # family of caterpillar colorings is listed
    **dict.fromkeys(("basis_colored_trees", "_colorings", "_nest"),
                    "caterpillar family"),
    # derivations are bracketed as tree sums; the derivation-side bracket is
    # the reference in tests/tensor_oracle.py
    **dict.fromkeys(("apply_in", "lie_lift", "bracket_map_image",
                     "is_symplectic"), "derivation action"),
}


def test_engine_names_no_retired_name():
    # no engine module defines, imports or names a retired name
    for path in sorted((ROOT / "src" / "torelli").glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(n.split(".")[-1] for a in node.names
                             for n in (a.name, a.asname) if n)
            elif isinstance(node, (ast.Name, ast.Attribute)):
                names.add(node.id if isinstance(node, ast.Name)
                          else node.attr)
        found = {n: RETIRED_NAMES[n] for n in names & RETIRED_NAMES.keys()}
        assert not found, (path.name, found)


def test_derivation_element_has_no_bracket():
    # the name cannot be retired outright, since TreeSum.bracket keeps it
    assert not hasattr(DerivationElement, "bracket")


# the only engine names the tensor oracle may import: none of them brackets,
# so the oracle shares no structure constants with the engine it checks
ORACLE_IMPORTS = {("torelli.lie", n) for n in (
    "_numerators", "_over", "is_lyndon", "standard_bracketing", "t_add_into",
    "tree_size")}


def engine_imports(source):
    """(module, name) of every import of the engine package in the source."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            out.update((node.module, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            out.update((a.name, None) for a in node.names)
    return {(m, n) for m, n in out if m.split(".")[0] == "torelli"}


def test_tensor_oracle_imports_no_engine_bracket():
    source = (ROOT / "tests" / "tensor_oracle.py").read_text()
    assert engine_imports(source) == ORACLE_IMPORTS
