"""Every call the benchmark tracer wraps still exists in the package.

``perfbench/tracing.py`` skips a target it cannot find, so a renamed
function would leave the benchmark running with its counter reading 0,
which for a "lower is better" counter looks like a gain.  This reads the
tracer's target lists, changes nothing there, and resolves each target
the way the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
