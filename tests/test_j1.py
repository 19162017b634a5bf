"""J1 on 266 points, the paper's first insoluble totally 2-closed group.

The generators are the checked-in benchmark input, read without change.
"""

import json
import random
from collections import Counter
from pathlib import Path

import pytest

import oracles
from twoclosure import PermGroup, Permutation
from twoclosure.basesize import (REFERENCE_TABLE, exact_base_size,
                                 two_point_stabilizer_gcd,
                                 two_point_stabilizer_orders)
from twoclosure.closure import two_closure
from twoclosure.orbital import OrbitalPartition

J1_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "j1_266.json"


@pytest.fixture(scope="module")
def j1():
    data = json.loads(J1_FILE.read_text())
    return PermGroup(data["degree"],
                     [Permutation(tuple(g)) for g in data["generators"]])


def relabelled(G, seed):
    """G with point a renamed perm[a], perm a seeded random permutation."""
    perm = list(range(G.degree))
    random.Random(seed).shuffle(perm)
    inv = [0] * G.degree
    for a, b in enumerate(perm):
        inv[b] = a
    return PermGroup(G.degree, [
        Permutation(tuple(perm[g.images[inv[b]]] for b in range(G.degree)))
        for g in G.generators])


def test_j1_order_and_subdegrees(j1):
    assert j1.order() == 175560
    assert OrbitalPartition(j1).subdegrees == [1, 11, 12, 110, 132]


# Seeds 1 and 2 rename the points by permutations from outside J1; the
# search used to take 1,222,461 and 655,043 nodes on them, against
# 343,771 on the labels as made.
@pytest.mark.parametrize("seed, nodes", [(0, 4), (1, 4), (2, 4)])
def test_j1_is_two_closed(j1, seed, nodes):
    G = relabelled(j1, seed) if seed else j1
    res = two_closure(G)
    assert res.certified
    assert res.index == 1
    assert res.nodes == nodes


def test_j1_base_size_is_three(j1):
    assert exact_base_size(j1).exact == 3


def test_j1_two_point_stabilizer_gcd_matches_reference(j1):
    orders = sorted(order for _, order in two_point_stabilizer_orders(j1))
    # |J1_{0,p}| is 660 over the subdegree of p
    assert orders == [5, 6, 55, 60]
    reference = REFERENCE_TABLE.lookup("J1", "L2(11)").g_value
    assert two_point_stabilizer_gcd(j1) == reference == 1


def test_j1_closure_certificate(j1):
    # the principal branch splits cells of 266, 132 and 5 points, whose
    # product is |J1|, so no walk runs; the oracle's own refinement checks
    # that bound
    res = two_closure(j1)
    assert (res.method, res.nodes, len(res.base)) == ("refinement-bound",
                                                       4, 3)
    color = oracles.oracle_pair_orbits([g.images for g in j1.generators],
                                       j1.degree)
    assert oracles.oracle_refinement_bound(color, j1.degree, res.base) == \
        (266 * 132 * 5, True) == (175560, True)


def closed_on_edges(j1, valency):
    """J1 on the edges of its orbital graph of the given valency; returns
    the degree, whether the action is primitive and the closure's
    result."""
    part = OrbitalPartition(j1)
    color = next(c for c, k in Counter(part.row(0)).items() if k == valency)
    edges = sorted({frozenset((a, b)) for a in range(j1.degree)
                    for b, c in enumerate(part.row(a)) if c == color},
                   key=sorted)
    index = {e: i for i, e in enumerate(edges)}
    # J1 is simple, so it acts faithfully and keeps its order
    G = PermGroup(len(edges), [
        Permutation(tuple(index[frozenset(map(g, e))] for e in edges))
        for g in j1.generators], order=175560)
    res = two_closure(G)
    # a transitive group is primitive when no block system joins 0 with
    # another point; h in G_0 maps the system joining 0 and p onto the
    # one joining 0 and p^h, so one point per orbit of G_0 is enough
    gens = [g.images for g in G.generators]
    primitive = all(
        len(oracles.block_partition(gens, G.degree, 0, orb[0])) == 1
        for orb in G.point_stabilizer(0).orbits() if orb[0] != 0)
    return G.degree, primitive, \
        (res.certified, res.index, res.nodes, res.method)


def test_j1_on_the_edges_of_its_11_valent_graph_is_two_closed(j1):
    """J1 on the 1,463 edges of its 11-valent orbital graph, a primitive
    action: the edge stabilizer 2xA5 is maximal.  This checks one maximal
    action, not that J1 is totally 2-closed, which needs every faithful
    action."""
    assert closed_on_edges(j1, 11) == \
        (1463, True, (True, 1, 3, "refinement-bound"))


def test_j1_on_the_edges_of_its_12_valent_graph_is_two_closed(j1):
    """J1 on the 1,596 edges of its 12-valent orbital graph, a primitive
    action: the edge stabilizer 11:10, of order 110, is maximal.  This
    checks one maximal action, not that J1 is totally 2-closed."""
    assert closed_on_edges(j1, 12) == \
        (1596, True, (True, 1, 3, "refinement-bound"))
