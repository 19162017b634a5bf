"""Every call the benchmark tracer wraps still exists in the package.

``perfbench/tracing.py`` skips a target it cannot find, so a renamed
function would leave the benchmark running with its counter reading 0,
which for a "lower is better" counter looks like a gain.  This reads the
tracer's target lists, changes nothing there, and resolves each target
the way the tracer does.  It also pins the targets that nothing in the
package calls, which stay only for the tracer, so a target that loses or
regains its last caller shows here.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from test_imports import _outsides, _uses

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracing()
TARGETS = sorted({(module, path) for _, module, path, *_ in
                  TRACER.SPANNED + TRACER.COUNTED})


@pytest.mark.parametrize("module, path", TARGETS)
def test_trace_target_resolves(module, path):
    owner = importlib.import_module(f"{TRACER.PACKAGE}.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # the tracer patches a method only where its class defines it
    found = owner.__dict__.get(attr) if isinstance(owner, type) \
        else getattr(owner, attr, None)
    assert found is not None, f"{TRACER.PACKAGE}.{module}.{path} is gone"


# Tracer targets that no package module reads outside their own
# definition; they stay only while the tracer names them.  The entry
# points are read by the package's callers, not by the package: the
# decision by its users, and the exact base size by the J1 workload and
# tests/test_j1.py.
HELD_FOR_THE_TRACER = {"subgroup_search", "conjugating_element_for_subgroup",
                       "transitive_reduction_check"}
ENTRY_POINTS = {"is_totally_two_closed", "exact_base_size"}


def test_targets_held_only_for_the_tracer():
    src = TRACING.parent.parent / "src" / TRACER.PACKAGE
    # package __init__ re-exports are not reads
    trees = {path.stem: ast.parse(path.read_text())
             for path in src.glob("*.py") if path.name != "__init__.py"}
    unread = set()
    for module, path in TARGETS:
        name = path.split(".")[-1]
        if name.startswith("__"):
            continue  # dunder methods are called by syntax, not by name
        reads, own = next((reads, outside) for label, reads, outside
                          in _outsides(trees[module]) if label == path)
        elsewhere = [tree for other, tree in trees.items() if other != module]
        if not reads & _uses(own + elsewhere):
            unread.add(name)
    assert unread - ENTRY_POINTS == HELD_FOR_THE_TRACER
