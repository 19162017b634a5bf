"""The decision corpus in ``tools/decision_corpus.py``, pinned.

Two digests are pinned: that of the eight-decision slice, and that of
all 600 decisions, which take a few seconds.  A change that alters a
verdict, a witness, a frontier, the ``tested`` log or the spent budget
of any decision changes the full digest, and of a slice decision the
slice digest too.  Run the tool with ``--against`` on a saved run to see
which decisions moved.

The slice digest was taken once every group with a regular orbit was
closed without a search, which cut the ``closure_nodes`` these decisions
spend, and moved again when the sweep stopped settling actions by a
base-size search: ``budget_spent`` lost its ``base_size_checks`` and
``pruned_subsets`` keys.  Both digests moved again when the sweep
came to test only antichains of stabilizer classes, which shrinks
``tested``, ``closure_runs`` and ``actions_enumerated`` and decides some
decisions that were Inconclusive, leaving every "No" witness as it was.
"""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "decision_corpus.py"
SLICE_DIGEST = \
    "cef9fe77409cf3e758f3ab798e58ca7652c57038f563dbb7d04b1266108c9f61"
FULL_DIGEST = \
    "d2f5e4f782e404cf9a46cdb731aa2c3ea5d753e0b8f8d76bc1721bc73f5fc744"


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


def test_corpus_digest_is_pinned():
    tool = load_tool()
    lines = list(tool.corpus_lines())
    assert len(lines) == 600
    assert tool.digest(lines) == FULL_DIGEST


def test_corpus_has_600_decisions():
    tool = load_tool()
    assert len(tool.corpus_groups()) == 15
    assert sum(1 for _ in tool.decisions()) == 600


def test_differences_count_keys_and_list_status_moves():
    tool = load_tool()
    inputs = {"group": "C4", "decider": "representation_sweep",
              "node_budget": 1, "max_actions": 3, "order_bound": 4}
    saved = [dict(inputs, status="Inconclusive", frontier={"x": 1},
                  budget_spent={"closure_nodes": 2, "closure_runs": 1}),
             dict(inputs, status="Yes", budget_spent={"closure_nodes": 1})]
    now = [dict(inputs, status="Yes", frontier=None,
                budget_spent={"closure_nodes": 0, "closure_runs": 1}),
           dict(inputs, error="GroupError: boom")]
    counts, moves, witness_moves = tool.differences(
        [json.dumps(d) for d in saved] + ["sha256 abc over 2 decisions"],
        [json.dumps(d) for d in now])
    assert counts == {"budget_spent.closure_nodes": 2, "error": 1,
                      "frontier": 1, "status": 2}
    where = ("group=C4 decider=representation_sweep node_budget=1 "
             "max_actions=3 order_bound=4")
    assert moves == [f"{where}: Inconclusive -> Yes", f"{where}: Yes -> error"]
    assert witness_moves == []


def test_differences_list_witnesses_moved_under_a_kept_no():
    tool = load_tool()
    inputs = {"group": "D4", "decider": "is_totally_two_closed",
              "node_budget": 5, "max_actions": 512, "order_bound": 2000}
    witness = {"classes": [1, 2], "degree": 6, "closure_order": 16}
    saved = [dict(inputs, status="No", witness=witness),
             dict(inputs, status="No", witness=witness),
             dict(inputs, status="Inconclusive", witness=None)]
    now = [dict(inputs, status="No", witness=witness),
           dict(inputs, status="No", witness=dict(witness, classes=[3])),
           dict(inputs, status="No", witness=dict(witness, classes=[4]))]
    counts, moves, witness_moves = tool.differences(
        [json.dumps(d) for d in saved], [json.dumps(d) for d in now])
    assert counts == {"status": 1, "witness": 2}
    where = ("group=D4 decider=is_totally_two_closed node_budget=5 "
             "max_actions=512 order_bound=2000")
    assert moves == [f"{where}: Inconclusive -> No"]
    assert witness_moves == [f"{where}: classes [1, 2] -> [3]"]
