"""Every imported name, every private module-level name and every
public name of the package and the oracles is used.

The repository has no lint step, so this walks each module's syntax tree
for names bound by an import and never read, and for private top-level
functions, classes and constants that the module never reads outside
their own definition.  A public top-level name of the package or of
``tests/oracles.py`` must be read somewhere in the package, the tests,
the tools or the benchmark.  Package ``__init__`` modules are skipped:
their imports are the public re-exports, which are not reads.
"""

import ast
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for top in ("src", "tests", "tools")
                 for path in (ROOT / top).rglob("*.py")
                 if path.name != "__init__.py")
READERS = MODULES + sorted((ROOT / "perfbench").rglob("*.py"))
PUBLIC = [path for path in MODULES
          if path.is_relative_to(ROOT / "src")
          or path == ROOT / "tests" / "oracles.py"]


def unused_imports(source):
    """Names bound by an import in source and never read, in order."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0]
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = _reads([tree])
    return [name for name in bound if name not in read]


def _reads(nodes):
    """The names read anywhere inside the given syntax trees."""
    return {node.id for top in nodes for node in ast.walk(top)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _uses(nodes):
    """The names read inside the given syntax trees, as a name, as an
    attribute, or as a part of a dotted string such as the benchmark
    tracer's "StabilizerChain.build"."""
    out = _reads(nodes)
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    out.update(parts)
    return out


def _definitions(tree):
    """(name, defining statement) for each top-level function, class and
    assigned name, in order."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            defined += [(t.id, node) for t in targets
                        if isinstance(t, ast.Name)]
    return defined


def dead_private_names(source):
    """Module-level names starting with one underscore that the module
    reads nowhere outside their own definition, in order."""
    tree = ast.parse(source)
    return [name for name, own in _definitions(tree)
            if name.startswith("_") and not name.startswith("__")
            and name not in _reads(n for n in tree.body if n is not own)]


def orphan_public_names(source, used_elsewhere):
    """Module-level names not starting with an underscore that neither
    the module, outside their own definition, nor used_elsewhere (the
    names other modules use) contains, in order."""
    tree = ast.parse(source)
    return [name for name, own in _definitions(tree)
            if not name.startswith("_") and name not in used_elsewhere
            and name not in _uses([n for n in tree.body if n is not own])]


@cache
def _used_in(path):
    return frozenset(_uses([ast.parse(path.read_text())]))


def test_checker_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys as system\n"
              "from math import gcd, pi\n"
              "print(os.path.sep, gcd)\n")
    assert unused_imports(source) == ["system", "pi"]


def test_checker_flags_only_unread_private_names():
    source = ("import re\n"
              "_USED = 1\n_UNUSED: int = 2\n__version__ = '0'\n"
              "def _dead(n):\n    return _dead(n - 1) + _USED\n"
              "def _called():\n    return re\n"
              "class _Gone:\n    pass\n"
              "def public():\n    return _called()\n")
    assert dead_private_names(source) == ["_UNUSED", "_dead", "_Gone"]


def test_checker_flags_only_unread_public_names():
    source = ("LIMIT = 3\nUNREAD = 4\n"
              "def helper():\n    return helper() + LIMIT\n"
              "def traced():\n    pass\n"
              "def called():\n    pass\n"
              "class Shape:\n    pass\n"
              "class Record:\n    pass\n"
              "def _private():\n    pass\n")
    reader = ("import mod\nfrom mod import Record\n"
              "mod.called()\nTARGETS = ['mod.traced']\n")
    used = _uses([ast.parse(reader)])
    assert orphan_public_names(source, used) == ["UNREAD", "helper",
                                                 "Shape", "Record"]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_dead_private_names(path):
    assert dead_private_names(path.read_text()) == []


@pytest.mark.parametrize("path", PUBLIC,
                         ids=[str(p.relative_to(ROOT)) for p in PUBLIC])
def test_no_orphan_public_names(path):
    used = set().union(*(_used_in(p) for p in READERS if p != path))
    assert orphan_public_names(path.read_text(), used) == []
