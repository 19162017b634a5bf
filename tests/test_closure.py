"""2-closure computations checked against the independent oracle."""

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from twoclosure import PermGroup, Permutation
from twoclosure.actions import coset_action
from twoclosure.backtrack import subgroup_search
from twoclosure.closure import (closure_membership, individualize,
                                root_partition, two_closure)
from twoclosure.constructions import (alternating, cyclic, diagonal_double,
                                      dihedral, direct_product, frobenius20,
                                      gamma_l1_16, psl2, quaternion,
                                      regular_representation, symmetric,
                                      trivial, wreath_imprimitive)
from twoclosure.errors import DegreeMismatchError, GroupError
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

    def row(self, a):
        return self.rows[a]

    def diagonal_color(self, a):
        return self.rows[a][a]


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


def test_gamma_l1_16_is_2_closed():
    res = two_closure(gamma_l1_16())
    assert res.closure.order() == 60
    assert res.index == 1
    assert res.method == "backtrack"
    assert res.certified


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
    # the diagonal S3 has no regular orbit: its closure is searched
    H = diagonal_double(symmetric(3))
    res = two_closure(H)
    assert (res.closure.order(), res.nodes, res.method) == (6, 3, "backtrack")
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
    ("even permutations of S6", None, (24, 360, True)),
    ("even permutations of S6", 23, (24, 60, False)),
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


# One chain on the search base serves the leaf membership tests and the
# orbit minima; K is rebuilt, and its chain with it, once per generator
# the search adds.  PSL(2,7) on 14 points is not 2-closed (index 3,840):
# its search adds two generators.
@pytest.mark.parametrize("case, builds", [
    ("PSL(2,7) on 14 points", 3),
    ("D5 x D6", 1),
    ("S3 wr S3", 1),
    ("A5 x A6", 3),
])
def test_two_closure_builds_one_chain_per_known_group(chain_builds, case,
                                                       builds):
    G = COUNTED_GROUPS[case]()
    chain_builds.clear()
    res = two_closure(G)
    assert res.certified and res.index >= 1
    added = len(res.closure.generators) - len(G.generators)
    assert len(chain_builds) == 1 + added == builds


def test_shortcuts_build_no_chain(chain_builds):
    groups = [trivial(5), cyclic(7), regular_representation(quaternion()),
              symmetric(5), natural_and_regular(cyclic(4))]
    chain_builds.clear()
    for G in groups:
        assert two_closure(G).method == "certified-equal"
    assert chain_builds == []


def test_sweep_action_with_a_regular_orbit_builds_no_chain(chain_builds):
    # as the totality sweep runs it: a partition from cached blocks and a
    # group told its order
    G = direct_product(quaternion(), cyclic(3))
    table = subgroup_classes(G)
    cache = _ClassData(G, table)
    classes = (table.orders.index(1), table.orders.index(4))
    built = assemble_action(G, table, classes, cache)
    part = cache.partition(built)
    chain_builds.clear()
    res = two_closure(built.group, partition=part)
    assert res.method == "certified-equal"
    assert res.closure.order() == built.group.order() == 24
    assert chain_builds == []


def test_prebuilt_partition_must_belong_to_the_group():
    G = dihedral(5)
    with pytest.raises(DegreeMismatchError):
        two_closure(G, partition=OrbitalPartition(cyclic(4)))
    # an equal group is still another group: the partition is not checked
    # for equality, only for identity
    twin = PermGroup(G.degree, G.generators)
    with pytest.raises(GroupError):
        two_closure(G, partition=OrbitalPartition(twin))


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
    built = assemble_action(G, table, classes, cache)
    inside = two_closure(assemble_action(G, table, classes).group)
    given = two_closure(built.group, partition=cache.partition(built))
    assert (given.closure.order(), given.nodes, given.certified,
            given.method) == (inside.closure.order(), inside.nodes,
                              inside.certified, inside.method)
