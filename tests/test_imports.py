"""Every imported name, every private module-level name and every
public name of the package and the oracles is used.

The repository has no lint step, so this walks each module's syntax tree
for names bound by an import and never read, and for private top-level
functions, classes and constants that the module never reads outside
their own definition.  A public top-level name of the package or of
``tests/oracles.py``, and a public method, property, field or attribute
assigned to self of one of their top-level classes, must be read
somewhere in the package, the tests, the tools or the benchmark; class
members count only when read as an attribute.  Package ``__init__``
modules are skipped: their imports are the public re-exports, which are
not reads.
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
    """The names read inside the given syntax trees: "name" for a read as
    a name, ".name" for a read as an attribute or as a part of a dotted
    string such as the benchmark tracer's "StabilizerChain.build".
    Assigning an attribute is not reading it."""
    out = _reads(nodes)
    for top in nodes:
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                out.add("." + node.attr)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    out.update("." + part for part in parts)
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


def _attributes(cls):
    """The names of the annotated fields in the class body, as of a
    dataclass, then of the attributes its methods assign to self, each
    once, in order."""
    fields = [node.target.id for node in cls.body
              if isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)]
    assigned = [node.attr for method in cls.body
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                for node in ast.walk(method)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"]
    return list(dict.fromkeys(fields + assigned))


def _outsides(tree):
    """(label, the reads of it that count, the statements outside its
    definition) for each top-level name, read as a name or as an
    attribute; then for each method and property of each top-level
    class, labelled "Class.name"; then for each of the class's fields and
    attributes assigned to self, whose assignments are no reads, so the
    whole module is outside them.  Class members count only when read as
    an attribute.  In order."""
    for name, own in _definitions(tree):
        yield (name, {name, "." + name},
               [n for n in tree.body if n is not own])
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            outside = [n for n in tree.body if n is not cls] \
                + cls.bases + cls.decorator_list
            methods = []
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.append(node.name)
                    yield (f"{cls.name}.{node.name}", {"." + node.name},
                           outside + [n for n in cls.body if n is not node])
            for name in _attributes(cls):
                if name not in methods:
                    yield f"{cls.name}.{name}", {"." + name}, tree.body


def orphan_public_names(source, used_elsewhere):
    """Module-level names, then methods, properties, fields and attributes
    assigned to self of top-level classes as "Class.name", not starting
    with an underscore, that neither the module, outside their own
    definition, nor used_elsewhere (what _uses gives for the other
    modules) reads, in order."""
    return [label for label, reads, outside in _outsides(ast.parse(source))
            if not label.rpartition(".")[2].startswith("_")
            and not reads & used_elsewhere and not reads & _uses(outside)]


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
              "def _private():\n    pass\n"
              "class Box:\n"
              "    def __init__(self):\n"
              "        self.size = self.area()\n"
              "        self.kept, self.unread = 1, 2\n"
              "        self.unread = self.kept\n"
              "    def area(self):\n        return 0\n"
              "    def read(self):\n        pass\n"
              "    def loop(self):\n        return self.loop()\n"
              "    @property\n    def width(self):\n        pass\n"
              "    @property\n    def depth(self):\n        pass\n"
              "    def _own(self):\n        pass\n"
              "class Point:\n    x: int\n    y: int\n    _z: int\n"
              "print(Box().read, Point(1, 2, 3).x)\n")
    # a field or an attribute assigned to self counts only when read as
    # an attribute: size is read as a name below, and unread is assigned
    # twice but never read
    reader = ("import mod\nfrom mod import Record\n"
              "mod.called()\nTARGETS = ['mod.traced', 'Box.depth']\n"
              "size = y = 0\nprint(size, y)\n")
    used = _uses([ast.parse(reader)])
    assert orphan_public_names(source, used) == [
        "UNREAD", "helper", "Shape", "Record", "Box.loop", "Box.width",
        "Box.size", "Box.unread", "Point.y"]


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
