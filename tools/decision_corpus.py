#!/usr/bin/env python3
"""The 600-decision corpus: total-2-closure verdicts under small budgets.

Fifteen small groups, each decided by ``is_totally_two_closed`` and by
``representation_sweep`` under every combination of

- node budgets 1, 2, 3, 5 and 300,000,
- ``max_actions`` 3 and 512,
- subgroup order bounds 4 and 2,000,

give 600 decisions.  Each prints as one JSON line holding the inputs and
the verdict's status, reason, witness, frontier, ``tested`` log and
``budget_spent``; the last line is the SHA-256 of all the decision lines.
A change that must not alter any verdict keeps the digest.

    PYTHONPATH=src python3 tools/decision_corpus.py           # all 600
    PYTHONPATH=src python3 tools/decision_corpus.py --slice   # 8, fast
    PYTHONPATH=src python3 tools/decision_corpus.py --against saved.txt

``--slice`` decides only Q8xC3 and D4 (the dihedral group of order 8) at
the default node budget and order bound, with ``max_actions`` 3 and 512.
``--against FILE`` compares with a run saved from this tool's output:
instead of the decision lines it prints, per top-level key and per
``budget_spent`` key, how many decisions differ, then every status move,
then how many decisions are "No" on both sides with a different witness,
and each of them.
"""

import argparse
import hashlib
import itertools
import json
from collections import Counter

from twoclosure.constructions import (alternating, cyclic, dihedral,
                                      direct_product, elementary_abelian,
                                      frobenius20, quaternion, symmetric)
from twoclosure.totality import (TotalityBudget, is_totally_two_closed,
                                 representation_sweep)

NODE_BUDGETS = (1, 2, 3, 5, 300_000)
MAX_ACTIONS = (3, 512)
ORDER_BOUNDS = (4, 2_000)
DECIDERS = {"is_totally_two_closed": is_totally_two_closed,
            "representation_sweep": representation_sweep}
INPUT_KEYS = ("group", "decider", "node_budget", "max_actions",
              "order_bound")


def corpus_groups():
    """The fifteen input groups, as (name, group) pairs."""
    return [
        ("C4", cyclic(4)), ("C6", cyclic(6)), ("C12", cyclic(12)),
        ("S3", symmetric(3)), ("S4", symmetric(4)), ("A4", alternating(4)),
        ("A5", alternating(5)), ("D4", dihedral(4)), ("D5", dihedral(5)),
        ("D6", dihedral(6)), ("Q8", quaternion()),
        ("C2^3", elementary_abelian(2, 3)),
        ("Q8xC3", direct_product(quaternion(), cyclic(3))),
        ("F20", frobenius20()),
        ("C2xS3", direct_product(cyclic(2), symmetric(3))),
    ]


def decisions(slice_only=False):
    """(inputs, decide) pairs in corpus order; decide() gives the verdict.

    Every decision gets a freshly built group, so no chain or partition
    carries over from an earlier one.
    """
    names = [name for name, _ in corpus_groups()]
    if slice_only:
        grid = itertools.product(("Q8xC3", "D4"), NODE_BUDGETS[-1:],
                                 MAX_ACTIONS, ORDER_BOUNDS[-1:], DECIDERS)
    else:
        grid = itertools.product(names, NODE_BUDGETS, MAX_ACTIONS,
                                 ORDER_BOUNDS, DECIDERS)
    for name, nodes, actions, bound, decider in grid:
        inputs = {"group": name, "decider": decider, "node_budget": nodes,
                  "max_actions": actions, "order_bound": bound}
        budget = TotalityBudget(max_actions=actions, node_budget=nodes,
                                subgroup_order_bound=bound)

        def decide(name=name, decider=decider, budget=budget):
            G = dict(corpus_groups())[name]
            return DECIDERS[decider](G, budget)

        yield inputs, decide


def record(inputs, verdict):
    """One decision as a JSON-ready dict."""
    witness = verdict.witness
    if witness is not None:
        witness = {"kind": witness.kind,
                   "description": witness.description,
                   "classes": list(witness.classes),
                   "degree": witness.degree,
                   "generators": [list(g.images)
                                  for g in witness.group.generators],
                   "closure_order": witness.closure_order,
                   "certified": witness.certified}
    return dict(inputs, status=verdict.status, reason=verdict.reason,
                witness=witness, frontier=verdict.frontier,
                tested=list(verdict.tested),
                budget_spent=verdict.budget_spent)


def corpus_lines(slice_only=False):
    """The JSON line of every decision, in corpus order.  An exception is
    recorded in the line instead of a verdict."""
    for inputs, decide in decisions(slice_only):
        try:
            line = record(inputs, decide())
        except Exception as exc:  # recorded, so the digest shows it
            line = dict(inputs, error=f"{type(exc).__name__}: {exc}")
        yield json.dumps(line, sort_keys=True)


def digest(lines):
    """The SHA-256 of the lines, each ended by a newline."""
    sha = hashlib.sha256()
    for line in lines:
        sha.update(line.encode() + b"\n")
    return sha.hexdigest()


def differences(saved, lines):
    """How a run's decision lines differ from a saved run's.

    saved may hold other lines, such as the digest line, which are
    skipped.  Returns the number of differing decisions per top-level key
    and per ``budget_spent.<key>``, one line per status move, and one
    line per decision that is "No" on both sides with another witness; an
    error counts as the status "error".
    """
    before = [json.loads(line) for line in saved if line.startswith("{")]
    after = [json.loads(line) for line in lines]
    if len(before) != len(after):
        raise ValueError(f"the saved run has {len(before)} decisions, "
                         f"this one {len(after)}")
    counts = Counter()
    moves = []
    witness_moves = []
    for old, new in zip(before, after):
        inputs = {key: new[key] for key in INPUT_KEYS}
        if any(old.get(key) != value for key, value in inputs.items()):
            raise ValueError(f"the saved run decides other inputs: {old}")
        for key in sorted((set(old) | set(new)) - set(INPUT_KEYS)):
            if key == "budget_spent":
                spent_old = old.get(key) or {}
                spent_new = new.get(key) or {}
                for sub in set(spent_old) | set(spent_new):
                    if spent_old.get(sub) != spent_new.get(sub):
                        counts[f"budget_spent.{sub}"] += 1
            elif old.get(key) != new.get(key):
                counts[key] += 1
        was, now = old.get("status", "error"), new.get("status", "error")
        where = " ".join(f"{key}={value}" for key, value in inputs.items())
        if was != now:
            moves.append(f"{where}: {was} -> {now}")
        elif was == "No" and old.get("witness") != new.get("witness"):
            witness_moves.append(f"{where}: classes "
                                 f"{old['witness']['classes']} -> "
                                 f"{new['witness']['classes']}")
    return dict(sorted(counts.items())), moves, witness_moves


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--slice", action="store_true",
                        help="decide only the eight-decision slice")
    parser.add_argument("--against", metavar="FILE",
                        help="compare with a run saved from this tool")
    args = parser.parse_args()
    lines = []
    for line in corpus_lines(args.slice):
        if args.against is None:
            print(line, flush=True)
        lines.append(line)
    if args.against is not None:
        with open(args.against) as saved:
            counts, moves, witness_moves = differences(
                saved.read().splitlines(), lines)
        for key, count in counts.items():
            print(f"{key}: {count} of {len(lines)} decisions differ")
        for move in moves:
            print(f"status {move}")
        print(f"witness moved under a kept No: {len(witness_moves)} "
              "decisions")
        for move in witness_moves:
            print(f"witness {move}")
    print(f"sha256 {digest(lines)} over {len(lines)} decisions")


if __name__ == "__main__":
    main()
