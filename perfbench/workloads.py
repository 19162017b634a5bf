"""The benchmark's workloads: inputs made from a seed, and their answers.

Each workload is a list of cases.  A case holds one input group as image
lists, the answer expected for it, and the kind of question asked.  The
package is imported when the cases are built and when they are solved,
never at module level, so the runner can time a fresh import.

The seed relabels the points of every input group (seed 0 keeps the
labels as made).  Small groups are relabelled by a seeded random
permutation of their points.  J1 is relabelled by a seeded random element
of J1 itself: its closure search is sensitive to the labelling (a random
relabelling of the 266 points takes 343,771 / 1,222,461 / 655,043 search
nodes for seeds 0 / 1 / 2), so a relabelling from outside the group would
measure the labelling, not the code.  Conjugating by a group element
keeps the group and its orbital partition as sets and changes only the
generators the program receives.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

J1_FILE = Path(__file__).with_name("j1_266.json")
J1_ORDER = 175560
J1_SUBDEGREES = [1, 11, 12, 110, 132]
TOTALITY_MAX_ACTIONS = 2000


@dataclass(frozen=True)
class Case:
    """One input of a workload and the answer it must give.

    kind is "closure" (expected: {"index", "base_size"}), "totality"
    (expected: the verdict status) or "subgroups" (expected: {"classes",
    "subgroups"}).  gens are 0-indexed image tuples on degree points.
    """

    label: str
    kind: str
    degree: int
    gens: tuple
    expected: object


def make_case(label, kind, group, expected):
    return Case(label, kind, group.degree,
                tuple(g.images for g in group.generators), expected)


def relabel(case, perm):
    """The case with point a renamed perm[a] in every generator."""
    inv = [0] * len(perm)
    for a, b in enumerate(perm):
        inv[b] = a
    gens = tuple(tuple(perm[g[inv[b]]] for b in range(len(perm)))
                 for g in case.gens)
    return Case(case.label, case.kind, case.degree, gens, case.expected)


def shuffled(cases, seed):
    """Every case relabelled by a seeded random permutation of its points;
    seed 0 is the identity."""
    if seed == 0:
        return list(cases)
    rng = random.Random(seed)
    out = []
    for case in cases:
        perm = list(range(case.degree))
        rng.shuffle(perm)
        out.append(relabel(case, perm))
    return out


def group_of(case):
    from twoclosure.group import PermGroup
    from twoclosure.perm import Permutation
    return PermGroup(case.degree, [Permutation(g) for g in case.gens])


def closure_j1(seed):
    """two_closure then exact_base_size of J1 on 266 points."""
    from twoclosure.orbital import OrbitalPartition

    data = json.loads(J1_FILE.read_text())
    case = Case("J1-266", "closure", data["degree"],
                tuple(tuple(g) for g in data["generators"]),
                {"index": 1, "base_size": 3})
    G = group_of(case)
    if G.order() != J1_ORDER:
        raise ValueError(f"J1 data has order {G.order()}, not {J1_ORDER}")
    subdegrees = OrbitalPartition(G).subdegrees
    if subdegrees != J1_SUBDEGREES:
        raise ValueError(f"J1 data has subdegrees {subdegrees}")
    if seed:
        g = G.random_element(random.Random(seed))
        case = relabel(case, g.images)
    return [case]


def totality_nilpotent(seed):
    """is_totally_two_closed over the nilpotent groups of order <= 32."""
    from twoclosure.constructions import (cyclic, dihedral, direct_product,
                                          elementary_abelian, quaternion)
    corpus = [
        ("C6", cyclic(6), 6, "Yes"),
        ("C8", cyclic(8), 8, "Yes"),
        ("C27", cyclic(27), 27, "Yes"),
        ("Q8", quaternion(), 8, "Yes"),
        ("Q8xC3", direct_product(quaternion(), cyclic(3)), 24, "Yes"),
        ("C2^2", elementary_abelian(2, 2), 4, "No"),
        ("C2xC4", direct_product(cyclic(2), cyclic(4)), 8, "No"),
        ("D8", dihedral(4), 8, "No"),
        ("C3^2", elementary_abelian(3, 2), 9, "No"),
        ("Q8xC2", direct_product(quaternion(), cyclic(2)), 16, "No"),
    ]
    for label, G, order, _ in corpus:
        if G.order() != order:
            raise ValueError(f"{label} has order {G.order()}, not {order}")
    return shuffled([make_case(label, "totality", G, want)
                     for label, G, _, want in corpus], seed)


def subgroups_psl2_11(seed):
    """subgroup_classes of PSL(2,11) on the 12 points of the line."""
    from twoclosure.constructions import psl2
    G = psl2(11)
    if G.order() != 660:
        raise ValueError(f"PSL(2,11) has order {G.order()}, not 660")
    return shuffled([make_case("PSL(2,11)", "subgroups", G,
                               {"classes": 16, "subgroups": 620})], seed)


WORKLOADS = {
    "closure-j1": closure_j1,
    "totality-nilpotent": totality_nilpotent,
    "subgroups-psl2-11": subgroups_psl2_11,
}


def solve(case):
    """Compute the case's answer from a freshly built group.

    Returns (ok, detail).  A wrong answer, an Inconclusive verdict or an
    uncertified closure is not ok; exceptions propagate to the caller.
    """
    G = group_of(case)
    want = case.expected
    if case.kind == "closure":
        from twoclosure.basesize import exact_base_size
        from twoclosure.closure import two_closure
        res = two_closure(G)
        report = exact_base_size(G)
        got = {"index": res.index, "base_size": report.exact}
        ok = res.certified and got == want
        return ok, f"certified={res.certified} {got} nodes={res.nodes}"
    if case.kind == "totality":
        from twoclosure.totality import TotalityBudget, is_totally_two_closed
        verdict = is_totally_two_closed(
            G, TotalityBudget(max_actions=TOTALITY_MAX_ACTIONS))
        return verdict.status == want, f"verdict {verdict.status}"
    if case.kind == "subgroups":
        from twoclosure.subgroups import subgroup_classes
        table = subgroup_classes(G)
        got = {"classes": len(table), "subgroups": len(table.subgroup_sets)}
        ok = (table.complete and got == want
              and sum(table.class_sizes) == want["subgroups"])
        return ok, f"{got} class sizes sum {sum(table.class_sizes)}"
    raise ValueError(f"unknown case kind {case.kind!r}")
