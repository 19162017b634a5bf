"""2-closure computations checked against the independent oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from test_group import _j1
from twoclosure import PermGroup, Permutation, closure, totality
from twoclosure.actions import coset_action
from twoclosure.backtrack import subgroup_search
from twoclosure.closure import (_refine, closure_membership, individualize,
                                root_partition, two_closure)
from twoclosure.constructions import (alternating, cyclic, diagonal_double,
                                      dihedral, direct_product, frobenius20,
                                      gamma_l1_16, psl2, quaternion,
                                      regular_representation, symmetric,
                                      trivial, wreath_imprimitive)
from twoclosure.errors import DegreeMismatchError, GroupError
from twoclosure.group import StabilizerChain, orbits_of
from twoclosure.orbital import OrbitalPartition
from twoclosure.subgroups import subgroup_classes
from twoclosure.totality import _ClassData, assemble_action


def sym3_on_5():
    """Sym(3) moving {0,1,2} naturally and {3,4} by parity."""
    a = Permutation.from_cycles(5, [(0, 1, 2)])
    b = Permutation.from_cycles(5, [(0, 1), (3, 4)])
    return PermGroup(5, [a, b])


perm_lists = st.integers(min_value=4, max_value=6).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=2)
    .map(lambda imgs: (n, imgs)))


@given(perm_lists)
@settings(max_examples=25, deadline=None)
def test_two_closure_matches_oracle(case):
    n, imgs = case
    G = PermGroup(n, [Permutation(tuple(i)) for i in imgs])
    want = oracles.oracle_two_closure([g.images for g in G.generators], n)
    res = two_closure(G)
    assert res.certified
    assert res.closure.order() == len(want)
    assert all(res.closure.contains(Permutation(e)) for e in want)


@given(perm_lists)
@settings(max_examples=25, deadline=None)
def test_membership_matches_oracle_definition(case):
    n, imgs = case
    G = PermGroup(n, [Permutation(tuple(i)) for i in imgs])
    want = oracles.oracle_two_closure([g.images for g in G.generators], n)
    res = two_closure(G)
    for e in oracles.mulclose([g.images for g in symmetric(n).generators]):
        assert closure_membership(G, Permutation(e)) == (e in want)
        assert res.closure.contains(Permutation(e)) == (e in want)


@st.composite
def small_groups(draw):
    """Groups of degree at most 8 whose generators are cut into random
    cycles, so that fixed points and intransitive groups are common."""
    n = draw(st.integers(min_value=2, max_value=8))
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        order = draw(st.permutations(range(n)))
        img = list(range(n))
        start = 0
        while start < n:
            stop = start + draw(st.integers(min_value=1, max_value=n - start))
            cycle = order[start:stop]
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                img[a] = b
            start = stop
        gens.append(Permutation(img))
    return PermGroup(n, gens)


class Relabelled:
    """The orbital coloring of part with every point a renamed perm[a]."""

    def __init__(self, part, perm):
        self.degree = part.degree
        inv = [0] * self.degree
        for a, b in enumerate(perm):
            inv[b] = a
        self.rows = [[part.row(inv[a])[inv[b]] for b in range(self.degree)]
                     for a in range(self.degree)]
        # the orbits in diagonal-color order, as ``root_partition`` needs
        by_color = {}
        for a in range(self.degree):
            by_color.setdefault(self.rows[a][a], []).append(a)
        self.orbits = [by_color[c] for c in sorted(by_color)]

    def row(self, a):
        return self.rows[a]

    def row_ranks(self):
        return [len(set(self.rows[orbit[0]])) for orbit in self.orbits]


@given(small_groups(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_refinement_is_equivariant(G, rnd):
    # Individualizing corresponding points of a relabelled coloring must
    # give the relabelled ordered partition, cell by cell; the pruning
    # of the closure search relies on it.
    part = OrbitalPartition(G)
    perm = list(range(G.degree))
    rnd.shuffle(perm)
    moved = Relabelled(part, perm)
    cells, images = root_partition(part), root_partition(moved)
    while True:
        assert [sorted(cell) for cell in images] == \
            [sorted(perm[x] for x in cell) for cell in cells]
        spots = [pos for pos, cell in enumerate(cells) if len(cell) > 1]
        if not spots:
            break
        pos = rnd.choice(spots)
        point = rnd.choice(cells[pos])
        cells = individualize(part, cells, pos, point)
        images = individualize(moved, images, pos, perm[point])


def test_sym3_on_5_closure_order_12():
    res = two_closure(sym3_on_5())
    assert res.closure.order() == 12
    assert res.index == 2
    assert res.certified


def assert_refinement_certificate(res):
    """Check a "refinement-bound" result without the closure module: the
    oracle's equitable refinement along res.base branches on cells whose
    sizes multiply to |G|, counted by brute force, and ends discrete."""
    gens = [g.images for g in res.input.generators]
    n = res.input.degree
    assert res.method == "refinement-bound"
    assert oracles.oracle_refinement_bound(
        oracles.oracle_pair_orbits(gens, n), n, res.base) == \
        (oracles.oracle_order(gens), True)


def test_gamma_l1_16_is_2_closed():
    res = two_closure(gamma_l1_16())
    assert res.closure.order() == 60
    assert res.index == 1
    assert res.certified
    assert res.nodes == len(res.base) + 1
    assert_refinement_certificate(res)


def test_loose_refinement_bound_still_walks():
    # the diagonal A5's principal branch bounds the closure by 120 against
    # |G| = 60, so the walk runs, and it finds the swap of the two copies
    G = diagonal_double(alternating(5))
    res = two_closure(G)
    color = oracles.oracle_pair_orbits([g.images for g in G.generators],
                                       G.degree)
    assert oracles.oracle_refinement_bound(color, G.degree, res.base) == \
        (120, True)
    assert (res.method, res.certified, res.index) == ("backtrack", True, 2)


def test_f20_closes_to_sym5():
    res = two_closure(frobenius20())
    assert res.closure.order() == 120
    assert res.method == "certified-equal"


def test_regular_actions_are_2_closed():
    for G in (cyclic(6), quaternion(), regular_representation(symmetric(3))):
        res = two_closure(G)
        assert res.index == 1
        assert res.method == "certified-equal"


def test_two_transitive_closes_to_symmetric():
    res = two_closure(alternating(5))
    assert res.closure.order() == 120


def test_trivial_group_closure():
    res = two_closure(trivial(4))
    assert res.closure.order() == 1
    assert res.index == 1


def test_diagonal_c3_closure_is_diagonal():
    # both orbits of the diagonal C3 are regular, so no search runs
    G = diagonal_double(cyclic(3))
    res = two_closure(G)
    assert res.closure.order() == 3
    assert res.index == 1
    assert res.method == "certified-equal"
    want = oracles.oracle_two_closure([g.images for g in G.generators], 6)
    assert len(want) == 3
    # the diagonal S3 has no regular orbit: its principal branch is built,
    # and its cells, of sizes 3 and 2, multiply to |S3|
    H = diagonal_double(symmetric(3))
    res = two_closure(H)
    assert (res.closure.order(), res.nodes, res.method) == \
        (6, 3, "refinement-bound")
    want = oracles.oracle_two_closure([g.images for g in H.generators], 6)
    assert len(want) == 6


def natural_and_regular(G):
    """G on its own points and, beside them, on its elements."""
    R = regular_representation(G)
    gens = [Permutation(g.images + tuple(G.degree + v for v in r.images))
            for g, r in zip(G.generators, R.generators)]
    return PermGroup(G.degree + R.degree, gens)


@pytest.mark.parametrize("build", [
    lambda: natural_and_regular(cyclic(3)),
    lambda: natural_and_regular(cyclic(4)),
    lambda: natural_and_regular(symmetric(3)),
    lambda: diagonal_double(cyclic(3)),
], ids=["C3 and regular", "C4 and regular", "S3 and regular", "diagonal C3"])
def test_groups_with_a_regular_orbit_are_their_own_closure(build):
    G = build()
    assert not G.is_transitive() and G.degree <= 9
    gens = [g.images for g in G.generators]
    want = oracles.oracle_two_closure(gens, G.degree)
    assert len(want) == oracles.oracle_order(gens)
    res = two_closure(G)
    assert (res.method, res.nodes, res.certified) == \
        ("certified-equal", 0, True)
    assert res.closure.order() == len(want)


def test_closure_idempotent():
    for G in (sym3_on_5(), diagonal_double(cyclic(3)), cyclic(4),
              dihedral(5)):
        once = two_closure(G)
        twice = two_closure(once.closure)
        assert twice.index == 1


def test_generators_pass_membership():
    for G in (sym3_on_5(), gamma_l1_16(), dihedral(6)):
        assert all(closure_membership(G, g) for g in G.generators)


def test_membership_examples():
    G = sym3_on_5()
    flip = Permutation.from_cycles(5, [(3, 4)])
    assert closure_membership(G, flip)
    C4 = cyclic(4)
    assert not closure_membership(C4, Permutation.from_cycles(4, [(1, 3)]))


def test_membership_degree_mismatch():
    from twoclosure.errors import DegreeMismatchError
    with pytest.raises(DegreeMismatchError):
        closure_membership(cyclic(4), Permutation.identity(5))


@pytest.mark.parametrize("build", [
    lambda: cyclic(4), sym3_on_5, lambda: dihedral(4),
    lambda: direct_product(cyclic(2), cyclic(2)),
], ids=["C4", "Sym3 on 5", "D4", "C2 x C2"])
def test_two_closure_matches_oracle_examples(build):
    G = build()
    want = oracles.oracle_two_closure([g.images for g in G.generators],
                                      G.degree)
    res = two_closure(G)
    assert res.certified
    assert res.closure.order() == len(want)
    assert all(res.closure.contains(Permutation(e)) for e in want)


def test_closure_result_repr_and_fields():
    res = two_closure(sym3_on_5())
    assert res.input.order() == 6
    assert "ClosureResult" in repr(res)
    assert res.nodes >= 0


@pytest.mark.parametrize("node_budget, certified", [(1, False), (2, False),
                                                    (4, False), (5, True)])
def test_intransitive_closure_out_of_budget_is_uncertified(node_budget,
                                                           certified):
    # The one closure search takes 5 nodes, so budgets up to 4 stop it;
    # the result is then the input itself, uncertified, rather than an
    # error.
    res = two_closure(direct_product(dihedral(5), dihedral(6)),
                      node_budget=node_budget)
    assert res.certified == certified
    assert res.closure.order() == 120


def _psl27_on_order_12_cosets():
    P = psl2(7)
    table = subgroup_classes(P)
    i = table.orders.index(12)
    return coset_action(P, table.representatives[i]).image


def _on_cosets(G, *cycles):
    """G on the cosets of the subgroup generated by the given cycles."""
    gens = [Permutation.from_cycles(G.degree, [c]) for c in cycles]
    return coset_action(G, PermGroup(G.degree, gens)).image


def _f20_on_10_points():
    F = frobenius20()
    least = min((g for g in F.elements() if g.order() == 2),
                key=lambda g: g.images)
    return coset_action(F, PermGroup(5, [least])).image


COUNTED_GROUPS = {
    "S3 wr S3": lambda: wreath_imprimitive(symmetric(3), symmetric(3)),
    "D4 wr C3": lambda: wreath_imprimitive(dihedral(4), cyclic(3)),
    "diagonal A5": lambda: diagonal_double(alternating(5)),
    "GammaL(1,16)": gamma_l1_16,
    "PSL(2,7) on 14 points": _psl27_on_order_12_cosets,
    "D5 x D6": lambda: direct_product(dihedral(5), dihedral(6)),
    "S4 on 8 points": lambda: _on_cosets(symmetric(4), (0, 1, 2)),
    "A5 on 12 points": lambda: _on_cosets(alternating(5), (0, 1, 2, 3, 4)),
    "S4 on 12 points": lambda: _on_cosets(symmetric(4), (0, 1)),
    "S4 on 6 points": lambda: _on_cosets(symmetric(4), (0, 1), (2, 3)),
    "F20 on 10 points": _f20_on_10_points,
    "A5 x A6": lambda: direct_product(alternating(5), alternating(6)),
}


# Pruning mistakes keep the answers right and only grow the work, so the
# node counts of the searches are pinned here.
@pytest.mark.parametrize("case, node_budget, want", [
    ("S3 wr S3", None, (7, 1296, True)),
    ("D4 wr C3", None, (7, 1536, True)),
    ("diagonal A5", None, (6, 120, True)),
    ("GammaL(1,16)", None, (3, 60, True)),
    ("PSL(2,7) on 14 points", None, (11, 645120, True)),
    ("diagonal A5", 1, (2, 60, False)),
    ("diagonal A5", 2, (3, 60, False)),
    ("diagonal A5", 3, (4, 60, False)),
    ("diagonal A5", 4, (5, 60, False)),
    ("even permutations of S6", None, (22, 360, True)),
    ("even permutations of S6", 21, (22, 60, False)),
    # intransitive inputs run the same search as transitive ones
    ("D5 x D6", None, (5, 120, True)),
    ("D5 x D6", 1, (2, 120, False)),
    ("D5 x D6", 2, (3, 120, False)),
    # imprimitive coset actions; three of them are not 2-closed
    ("S4 on 8 points", None, (5, 48, True)),
    ("A5 on 12 points", None, (5, 120, True)),
    ("S4 on 12 points", None, (3, 24, True)),
    ("S4 on 6 points", None, (5, 48, True)),
    ("F20 on 10 points", None, (3, 20, True)),
    ("A5 x A6", None, (13, 86400, True)),
    ("A5 x A6", 12, (13, 43200, False)),
])
def test_search_node_counts(case, node_budget, want):
    if case == "even permutations of S6":
        res = subgroup_search(
            symmetric(6),
            lambda g: sum(len(c) - 1 for c in g.cycles()) % 2 == 0,
            node_budget=node_budget)
        got = res.nodes, res.group.order(), res.complete
    else:
        res = two_closure(COUNTED_GROUPS[case](), node_budget=node_budget)
        got = res.nodes, res.closure.order(), res.certified
    assert got == want


@pytest.mark.parametrize("case", ["S4 on 8 points", "A5 on 12 points"])
def test_full_swap_of_blocks_of_two_is_a_no_witness(case):
    # Swapping the two points of every block preserves every orbital but
    # lies outside the group: a "No" witness checked without a search.
    # The closure elements fixing every block are 1 and the swap, so the
    # swap and G generate the whole closure, of twice G's order.
    G = COUNTED_GROUPS[case]()
    gens = [g.images for g in G.generators]
    blocks = next(cells for cells in (
        oracles.block_partition(gens, G.degree, 0, p)
        for p in range(1, G.degree)) if len(cells[0]) == 2)
    img = list(range(G.degree))
    for a, b in blocks:
        img[a], img[b] = b, a
    z = Permutation(img)
    assert closure_membership(G, z)
    assert not G.contains(z)
    res = two_closure(G)
    assert res.certified and res.index == 2
    assert PermGroup(G.degree, G.generators + [z]).equals(res.closure)


# A partition built from a group that does not know its order lays out
# one chain per G-orbit, on the orbit's least point r, and its stabilizer
# colors r's base row.  The first is grown without the deterministic pass
# on the first base point b_1; a copy of G told its order builds the
# others.  When the coloring checks out, the principal branch runs on that
# copy, and otherwise chain_with_base((b_1,)) completes the grown chain.
# Below the root, each principal-branch level k whose cell sizes so far
# multiply to less than |G| builds one chain to stop its refinement:
# G_(b_1..b_(k-1)).chain_with_base((b_k,)), which gives G_(b_1..b_k).
# When the bound reaches |G| the search stops there and builds nothing
# more (D5 x D6, S3 wr S3).  Only when that bound is loose does it build
# one chain on its base, which serves the leaf membership tests and the
# orbit minima, and rebuild K, and its chain with it, once per generator
# it adds.  PSL(2,7) on 14 points is not 2-closed (index 3,840): its
# search adds two generators.
@pytest.mark.parametrize("case, builds", [
    ("PSL(2,7) on 14 points", 4),
    ("D5 x D6", 4),
    ("S3 wr S3", 5),
    ("A5 x A6", 10),
])
def test_two_closure_chain_builds_on_known_groups(chain_builds, case,
                                                  builds):
    G = COUNTED_GROUPS[case]()
    color = oracles.oracle_pair_orbits([g.images for g in G.generators],
                                       G.degree)
    chain_builds.clear()
    res = two_closure(G)
    assert res.certified and res.index >= 1
    orbits = G.orbits()
    stops = [(b,) for k, b in enumerate(res.base) if k and
             oracles.oracle_refinement_bound(
                 color, G.degree, res.base[:k + 1])[0] < G.order()]
    added = len(res.closure.generators) - len(G.generators)
    walked = res.method == "backtrack"
    assert chain_builds[:len(orbits)] == [(res.base[0],)] + [
        (orb[0],) for orb in orbits if orb[0] != res.base[0]]
    assert chain_builds[len(orbits):len(orbits) + len(stops)] == stops
    assert len(chain_builds) == \
        len(orbits) + len(stops) + walked + added == builds


def test_shortcuts_build_no_chain(chain_builds, passes):
    # a shortcut builds no chain of its own: the trivial group needs no
    # partition, and each other group grows only its partition's chains,
    # one per orbit.  The checked coloring is all a shortcut needs, and
    # every grown chain here is complete, S5's too (product replacement
    # never pairs a slot with itself, so its transposition slot cannot
    # square away), so the deterministic pass never runs
    groups = [trivial(5), cyclic(7), regular_representation(quaternion()),
              symmetric(5), natural_and_regular(cyclic(4))]
    chain_builds.clear()
    passes.clear()
    for G in groups:
        assert two_closure(G).method == "certified-equal"
    assert chain_builds == [(0,), (0,), (0,), (0,), (4,)]
    assert passes == []


def test_sweep_action_with_a_regular_orbit_builds_no_chain(chain_builds):
    # a partition from cached block rows and a group told its order, as the
    # totality sweep builds them; the sweep itself settles such subsets
    # without a closure run
    G = direct_product(quaternion(), cyclic(3))
    table = subgroup_classes(G)
    cache = _ClassData(G, table)
    classes = (table.orders.index(1), table.orders.index(4))
    image = assemble_action(G, table, classes, cache)
    part = cache.partition(image, classes)
    chain_builds.clear()
    res = two_closure(image, partition=part)
    assert res.method == "certified-equal"
    assert res.closure.order() == image.order() == 24
    assert chain_builds == []


@pytest.mark.parametrize("G, tight", [
    (dihedral(4), 3), (direct_product(quaternion(), cyclic(3)), 400),
], ids=["D8", "Q8xC3"])
def test_sweep_searches_settled_by_the_bound_are_certified(monkeypatch, G,
                                                           tight):
    results = []

    def recorded(group, **kwargs):
        results.append(two_closure(group, **kwargs))
        return results[-1]

    monkeypatch.setattr(totality, "two_closure", recorded)
    totality.representation_sweep(G)
    settled = [res for res in results if res.method == "refinement-bound"]
    assert len(settled) == tight
    for res in settled:
        assert_refinement_certificate(res)


def test_prebuilt_partition_must_belong_to_the_group():
    G = dihedral(5)
    with pytest.raises(DegreeMismatchError):
        two_closure(G, partition=OrbitalPartition(cyclic(4)))
    # an equal group is still another group: the partition is not checked
    # for equality, only for identity
    twin = PermGroup(G.degree, G.generators)
    with pytest.raises(GroupError):
        two_closure(G, partition=OrbitalPartition(twin))


def test_membership_rejects_a_partition_of_another_group():
    # S5's partition has rank 2, so every permutation would preserve it
    swap = Permutation.from_cycles(5, [(0, 1)])
    with pytest.raises(GroupError):
        closure_membership(dihedral(5), swap, OrbitalPartition(symmetric(5)))


def test_membership_rejects_a_partition_of_another_degree():
    swap = Permutation.from_cycles(5, [(0, 1)])
    with pytest.raises(DegreeMismatchError):
        closure_membership(dihedral(5), swap, OrbitalPartition(cyclic(4)))


@pytest.mark.parametrize("case, classes", [
    ("D8", (0, 1)), ("D8", (1, 2, 3)), ("Q8xC3", (0,)), ("Q8xC3", (2, 5)),
    ("S4", (4,)), ("S4", (1, 3)),
])
def test_prebuilt_partition_gives_the_same_result(case, classes):
    G = {"D8": lambda: dihedral(4),
         "Q8xC3": lambda: direct_product(quaternion(), cyclic(3)),
         "S4": lambda: symmetric(4)}[case]()
    table = subgroup_classes(G)
    cache = _ClassData(G, table)
    image = assemble_action(G, table, classes, cache)
    inside = two_closure(assemble_action(G, table, classes))
    given = two_closure(image, partition=cache.partition(image, classes))
    assert (given.closure.order(), given.nodes, given.certified,
            given.method) == (inside.closure.order(), inside.nodes,
                              inside.certified, inside.method)



def _split(cells, pos, point):
    """cells with point split off the cell at pos, before any
    refinement."""
    out = list(cells)
    out.append([x for x in cells[pos] if x != point])
    out[pos] = [point]
    return out


# Individualizing from the root stops refining at the point stabilizer's
# orbits, where the partition is already equitable: the stopped result
# must be the full refinement, cell for cell and in order, and its cells
# the G_b-orbits.
@pytest.mark.parametrize("case", [*COUNTED_GROUPS, "J1/266"])
def test_refinement_from_the_root_stops_at_the_stabilizer_orbits(case):
    if case == "J1/266":
        G, points = _j1(), (0, 1, 137, 265)
    else:
        G = COUNTED_GROUPS[case]()
        points = range(G.degree)
    part = OrbitalPartition(G)
    root = root_partition(part)
    for b in points:
        pos = next(i for i, cell in enumerate(root) if b in cell)
        stopped = individualize(part, root, pos, b)
        assert stopped == _refine(part, _split(root, pos, b), [pos])
        orbits = orbits_of(G.point_stabilizer(b).generators, G.degree)
        assert sorted(sorted(cell) for cell in stopped) == orbits


@pytest.mark.parametrize("case", COUNTED_GROUPS)
def test_refinement_below_the_root_is_full(case):
    # without a stop, as for the walk's children, individualizing below
    # the root refines in full: from each child of the root, down the
    # branch on the least point of the first largest cell, every level
    # must equal the full refinement
    G = COUNTED_GROUPS[case]()
    part = OrbitalPartition(G)
    root = root_partition(part)
    for b in range(G.degree):
        pos = next(i for i, cell in enumerate(root) if b in cell)
        cells = individualize(part, root, pos, b)
        while max(map(len, cells)) > 1:
            pos = max(range(len(cells)), key=lambda i: len(cells[i]))
            point = min(cells[pos])
            want = _refine(part, _split(cells, pos, point), [pos])
            cells = individualize(part, cells, pos, point)
            assert cells == want


# An untold group's principal branch reads its stops from a copy told
# the order N of a grown chain, N <= |G|, whose stabilizers are subgroups
# of G's and have at least as many orbits.  Every grown chain here is
# complete, N = |G|, so the copy stops at the orbits of G's own base
# stabilizers, pinned for D4 wr C3, whose copy would stop at more orbits
# and fewer levels if its grown chain fell short of |G|.
COPY_STOPS = {"D4 wr C3": [None, 7, 9, 10, 11, None]}


@pytest.mark.parametrize("case", [*COUNTED_GROUPS, "J1/266"])
def test_principal_branch_stops_at_the_base_stabilizer_orbits(monkeypatch,
                                                              case):
    # each principal-branch level is the full refinement, and below the
    # root, while the cell sizes so far multiply to less than |G|, its
    # stop is the number of orbits of G's stabilizer of the base so far,
    # or of a subgroup of it (COPY_STOPS)
    if case == "J1/266":
        G = _j1()
    else:
        G = COUNTED_GROUPS[case]()
    calls = []

    def recorded(part, cells, pos, point, stop=None):
        got = individualize(part, cells, pos, point, stop)
        calls.append((part, cells, pos, point, stop, got))
        return got

    monkeypatch.setattr(closure, "individualize", recorded)
    res = two_closure(G)
    assert res.method != "certified-equal"
    # the walk, if any, runs after the principal branch
    principal = calls[:len(res.base)]
    assert [call[3] for call in principal] == list(res.base)
    copy_stops = COPY_STOPS.get(case)
    if copy_stops is not None:
        assert [call[4] for call in principal] == copy_stops
    bound = 1
    for k, (part, cells, pos, point, stop, got) in enumerate(principal):
        bound *= len(cells[pos])
        assert got == _refine(part, _split(cells, pos, point), [pos])
        stab = G.pointwise_stabilizer(res.base[:k + 1])
        if copy_stops is not None:
            assert stop is None or stop >= len(stab.orbits())
        elif k and bound < G.order():
            assert stop == len(stab.orbits())
        else:
            assert stop is None


def test_j1_search_reads_few_rows(monkeypatch):
    # the level-1 refinement of J1/266 stops at the 58 orbits of G_(0,2);
    # refined in full, the search read 444 rows
    G = _j1()
    reads = []
    row = OrbitalPartition.row

    def counted(self, a):
        reads.append(a)
        return row(self, a)

    monkeypatch.setattr(OrbitalPartition, "row", counted)
    res = two_closure(G)
    assert (res.method, res.nodes, res.base) == \
        ("refinement-bound", 4, (0, 2, 42))
    assert len(reads) <= 45


class _Full(Exception):
    """Raised by a capped random phase at its residue limit."""


def cap_random_growth(monkeypatch, limit):
    """Let each random phase add at most limit residues as generators."""
    grow = StabilizerChain._random_grow

    def capped(self, gens, seed, order=None):
        add = self._add_generator
        added = []

        def limited(g, first_level):
            if len(added) == limit:
                raise _Full
            added.append(g)
            return add(g, first_level)

        self._add_generator = limited
        try:
            return grow(self, gens, seed, order)
        except _Full:
            return False
        finally:
            del self._add_generator

    monkeypatch.setattr(StabilizerChain, "_random_grow", capped)


def _j1_relabelled(seed):
    """J1/266 with its points renamed by one of its elements, as the
    benchmark's seeds rename them."""
    J1 = _j1()
    g = J1.random_element(random.Random(seed))
    return PermGroup(J1.degree, [g.inverse() * x * g for x in J1.generators])


UNTOLD = {
    "J1/266": _j1,
    "J1/266 seed 1": lambda: _j1_relabelled(1),
    "J1/266 seed 2": lambda: _j1_relabelled(2),
    "PSL(2,7) on 14 points": _psl27_on_order_12_cosets,
    "PSL(2,11) on 12 points": lambda: psl2(11),
    "S3 wr S3": COUNTED_GROUPS["S3 wr S3"],
}


# A group given by generators alone proves its order from the refinement
# bound where it can, and falls back on the deterministic pass where it
# cannot: when its grown stabilizer misses orbits (J1/266 with at most
# one residue added), when the grown order is below |G| (at most two),
# or when the bound is loose (PSL(2,7) on 14 points, index 3,840, whose
# grown K runs the pass too).  The 2-transitive PSL(2,11) on 12 points
# needs only its checked coloring.  S3 wr S3 proves its order by the bound
# in 7 nodes: product replacement never pairs a slot with itself, so no
# slot squares an involution away and its grown chain is complete.  Every
# result equals that of a group already holding a verified chain.
UNTOLD_RESULTS = {"S3 wr S3": ("refinement-bound", 7)}


@pytest.mark.parametrize("case, limit, passless", [
    ("J1/266", 0, False), ("J1/266", 1, False), ("J1/266", 2, False),
    ("J1/266", 3, True), ("J1/266", None, True),
    ("J1/266 seed 1", None, True), ("J1/266 seed 2", None, True),
    ("PSL(2,7) on 14 points", None, False),
    ("PSL(2,11) on 12 points", None, True),
    ("S3 wr S3", None, True),
])
def test_untold_closure_equals_a_verified_one(monkeypatch, passes, case,
                                              limit, passless):
    H = UNTOLD[case]()
    verified = PermGroup(H.degree, H.generators)
    verified.order()
    want = two_closure(verified)
    if limit is not None:
        cap_random_growth(monkeypatch, limit)
    G = PermGroup(H.degree, H.generators)
    passes.clear()
    got = two_closure(G)
    assert (passes == []) == passless
    assert (got.method, got.nodes, got.base, got.certified) == \
        (want.method, want.nodes, want.base, want.certified)
    assert got.closure.order() == want.closure.order()
    assert G.order() == verified.order()
    if case in UNTOLD_RESULTS:
        assert (got.method, got.nodes) == UNTOLD_RESULTS[case]


def diagonal_classes(part):
    """The points grouped by diagonal color, in color order."""
    by_color = {}
    for a in range(part.degree):
        by_color.setdefault(part.color_of(a, a), []).append(a)
    return [by_color[c] for c in sorted(by_color)]


def test_root_partition_is_the_diagonal_color_classes(monkeypatch):
    for build in COUNTED_GROUPS.values():
        part = OrbitalPartition(build())
        assert root_partition(part) == diagonal_classes(part)
    # the sweep's partitions, put together from cached block rows
    parts = []

    def recorded(group, partition=None, **kwargs):
        parts.append(partition)
        return two_closure(group, partition=partition, **kwargs)

    monkeypatch.setattr(totality, "two_closure", recorded)
    totality.representation_sweep(direct_product(quaternion(), cyclic(3)))
    parts = [part for part in parts if part is not None]
    assert len(parts) == 400
    for part in parts:
        assert root_partition(part) == diagonal_classes(part)


class RowsRead:
    """The orbital partition of G, recording each point whose row is
    read."""

    def __init__(self, G):
        self.part = OrbitalPartition(G)
        self.degree = G.degree
        self.orbits = self.part.orbits
        self.read = set()

    def row(self, a):
        self.read.add(a)
        return self.part.row(a)

    def row_ranks(self):
        return self.part.row_ranks()


@pytest.mark.parametrize("case", ["PSL(2,7) on 14 points", "D5 x D6",
                                  "S3 wr S3"])
def test_individualizing_from_the_root_reads_one_row(case):
    G = COUNTED_GROUPS[case]()
    colors = RowsRead(G)
    root = root_partition(colors)
    pos = max(range(len(root)), key=lambda i: len(root[i]))
    point = root[pos][0]
    individualize(colors, root, pos, point)
    assert colors.read == {point}
    # the full refinement goes on to the queued splitters' rows
    colors.read.clear()
    _refine(colors, _split(root, pos, point), [pos])
    assert colors.read > {point}
