"""A slice of the decision corpus in ``tools/decision_corpus.py``, pinned.

The digest was taken before the totality sweep built its orbital
partitions from cached blocks and its chains from known orders; a change
that alters a verdict, a witness, a frontier, the ``tested`` log or the
spent budget of any of these decisions changes it.  The full corpus of
600 decisions runs from the command line.
"""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "decision_corpus.py"
SLICE_DIGEST = \
    "676166f28a93a4b8c964c1525b341d74418edf1d2f5d01b9ad0b589729d9242c"


def load_tool():
    spec = importlib.util.spec_from_file_location("decision_corpus", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_slice_digest_is_pinned():
    tool = load_tool()
    lines = list(tool.corpus_lines(slice_only=True))
    assert len(lines) == 8
    decided = [json.loads(line) for line in lines]
    assert all("error" not in d for d in decided)
    assert {d["group"] for d in decided} == {"Q8xC3", "D4"}
    assert tool.digest(lines) == SLICE_DIGEST


def test_corpus_has_600_decisions():
    tool = load_tool()
    assert len(tool.corpus_groups()) == 15
    assert sum(1 for _ in tool.decisions()) == 600
