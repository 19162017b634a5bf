"""Chain order, membership, orbits and point stabilizers checked against
the independent Schreier-Sims of ``sympy.combinatorics``.

The brute-force oracle stops at degree 9; these groups have degrees 15
to 266 and orders small enough for sympy to answer in well under a
second.  Each point stabilizer is taken after ``order()``, so its order
comes from the tail of the parent's re-based chain.
"""

import json
import random

import pytest
from sympy.combinatorics import Permutation as SymPermutation
from sympy.combinatorics import PermutationGroup as SymGroup

from twoclosure import PermGroup, Permutation
from twoclosure.actions import coset_action
from twoclosure.constructions import cyclic, dihedral, direct_product, psl2

from test_j1 import J1_FILE, relabelled


def j1():
    data = json.loads(J1_FILE.read_text())
    return PermGroup(data["degree"],
                     [Permutation(tuple(g)) for g in data["generators"]])


def psl2_11_on_cosets(order):
    """PSL(2,11) on the cosets of the subgroup generated by its first
    element of the given order."""
    G = psl2(11)
    x = next(g for g in G.elements() if g.order() == order)
    return coset_action(G, PermGroup(G.degree, [x])).image


GROUPS = {
    "J1 on 266 points": j1,
    "D7 x L2(7), relabelled": lambda: relabelled(
        direct_product(dihedral(7), psl2(7)), 1),
    "L2(11) x C9, relabelled": lambda: relabelled(
        direct_product(psl2(11), cyclic(9)), 2),
    "L2(11) on 60 cosets of C11": lambda: psl2_11_on_cosets(11),
    "L2(11) on 132 cosets of C5": lambda: psl2_11_on_cosets(5),
    "L2(11) on 220 cosets of C3": lambda: psl2_11_on_cosets(3),
}


def to_sympy(G):
    return SymGroup([SymPermutation(list(g.images)) for g in G.generators])


def probes(G, rng, count=6):
    """Group elements as random generator words, and random permutations
    of the points, which almost never lie in the group."""
    out = []
    for _ in range(count):
        g = G.generators[0]
        for _ in range(8):
            g = g * rng.choice(G.generators)
        out.append(g)
        images = list(range(G.degree))
        rng.shuffle(images)
        out.append(Permutation(images))
    return out


@pytest.mark.parametrize("case", list(GROUPS))
def test_matches_sympy(case):
    G = GROUPS[case]()
    S = to_sympy(G)
    assert 10 <= G.degree <= 300
    assert G.order() == S.order()
    assert sorted(map(sorted, S.orbits())) == G.orbits()
    rng = random.Random(case)
    answers = set()
    for g in probes(G, rng):
        got = G.contains(g)
        assert got == S.contains(SymPermutation(list(g.images)))
        answers.add(got)
    assert answers == {True, False}
    points = sorted({orb[0] for orb in G.orbits()} | {G.degree - 1})
    for p in points:
        assert G.point_stabilizer(p).order() == S.stabilizer(p).order()
