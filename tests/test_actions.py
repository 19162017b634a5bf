"""Coset actions against small hand-checked cases and J1, and the block
systems of imprimitive groups against the union-find oracle."""

import hashlib
import itertools

import pytest

import oracles
from test_group import _j1
from twoclosure import PermGroup, Permutation
from twoclosure.actions import coset_action
from twoclosure.closure import two_closure
from twoclosure.constructions import (alternating, cyclic, dihedral,
                                      direct_product, frobenius20,
                                      gamma_l1_16, psl2, quaternion,
                                      symmetric, wreath_imprimitive)
from twoclosure.errors import BudgetExceededError, GroupError
from twoclosure.group import trivial_group
from twoclosure.subgroups import subgroup_classes

# SHA-256 of the generator images of G's action on the cosets of every
# class representative, over the groups of test_coset_numbering_is_pinned
COSET_DIGEST = \
    "21d49ce9f242a20332df6b54fd360d52c8072957cb383c1b3f16cc828240784e"


def core_order(G, H):
    """|core_G(H)|, by brute force."""
    return len(oracles.oracle_core(
        oracles.mulclose([g.images for g in G.generators]),
        oracles.mulclose([h.images for h in H.generators])))


def test_coset_action_on_point_stabilizer_recovers_natural_action():
    G = symmetric(4)
    H = G.point_stabilizer(0)
    act = coset_action(G, H)
    assert act.degree == 4
    assert act.image.order() == 24
    # point 0 is the coset of H itself, so its stabilizer is H's image
    assert act.image.point_stabilizer(0).order() == H.order()


def test_coset_action_on_whole_group_is_a_point():
    G = dihedral(5)
    act = coset_action(G, G)
    assert act.degree == 1
    assert act.image.order() == 1
    assert len(act.image_gens) == len(G.generators)


def test_coset_action_on_trivial_subgroup_is_regular():
    G = cyclic(6)
    act = coset_action(G, trivial_group(6))
    assert act.degree == 6
    assert act.image.order() == 6
    assert act.image.is_transitive()


def check_words(G, H, act, max_length):
    """Coset 0 is H, so a word in G's generators sends it back to itself
    exactly when the word lies in H; checked for every word up to the
    given length."""
    pairs = list(zip(G.generators, act.image_gens))
    for length in range(max_length + 1):
        for word in itertools.product(pairs, repeat=length):
            g = Permutation.identity(G.degree)
            x = Permutation.identity(act.degree)
            for a, b in word:
                g, x = g * a, x * b
            assert (x(0) == 0) == H.contains(g)


def test_coset_action_is_a_homomorphism():
    # H is normal in the first case
    G = symmetric(4)
    v4 = PermGroup(4, [Permutation([1, 0, 3, 2]), Permutation([2, 3, 0, 1])])
    swap = PermGroup(4, [Permutation([1, 0, 2, 3])])
    for H, degree in [(v4, 6), (swap, 12)]:
        act = coset_action(G, H)
        assert act.degree == degree
        check_words(G, H, act, 3)


def test_coset_numbering_is_pinned():
    # the numbering fixes the point order of every action the totality
    # sweep assembles, so it may not move
    digest = hashlib.sha256()
    count = 0
    for G in [symmetric(4), alternating(5), dihedral(6),
              direct_product(quaternion(), cyclic(3)), frobenius20(),
              psl2(11)]:
        for H in subgroup_classes(G).representatives:
            act = coset_action(G, H)
            digest.update(repr([g.images for g in act.image_gens]).encode())
            count += 1
    assert (count, digest.hexdigest()) == (64, COSET_DIGEST)


def test_j1_on_the_cosets_of_a_subgroup_of_order_19():
    G = _j1()
    a, b = G.generators
    H = PermGroup(G.degree, [a * a * a * b])
    assert H.order() == 19
    act = coset_action(G, H)
    assert act.degree == G.order() // 19 == 9240
    assert act.image.is_transitive()
    check_words(G, H, act, 2)


def test_coset_action_kernel_is_the_core():
    G = cyclic(6)
    g = G.generators[0]
    H = PermGroup(6, [g * g * g])
    act = coset_action(G, H)
    assert act.degree == 3
    core = core_order(G, H)
    assert core == 2
    assert act.image.order() * core == G.order()


def test_coset_action_order_splits_over_kernel():
    for G, H in [
        (symmetric(4), PermGroup(4, [Permutation([1, 0, 2, 3])])),
        (dihedral(6), PermGroup(6, [Permutation([3, 4, 5, 0, 1, 2])])),
    ]:
        act = coset_action(G, H)
        assert act.image.order() * core_order(G, H) == G.order()


def test_coset_action_rejects_outside_subgroup():
    G = cyclic(5)
    H = PermGroup(5, [Permutation([1, 0, 2, 3, 4])])
    with pytest.raises(GroupError):
        coset_action(G, H)


def test_coset_action_degree_budget():
    # the budget is the largest degree returned: 12 cosets need 12
    G = cyclic(12)
    for budget in (10, 11):
        with pytest.raises(BudgetExceededError):
            coset_action(G, trivial_group(12), degree_budget=budget)
    assert coset_action(G, trivial_group(12), degree_budget=12).degree == 12


def partitions_through_zero(G):
    """The finest G-invariant partition joining 0 and p, for each p > 0."""
    gens = [g.images for g in G.generators]
    return [oracles.block_partition(gens, G.degree, 0, p)
            for p in range(1, G.degree)]


@pytest.mark.parametrize("G", [gamma_l1_16(), cyclic(4),
                               wreath_imprimitive(cyclic(2), cyclic(3))])
def test_closure_preserves_block_systems(G):
    X = two_closure(G).closure
    for cells in partitions_through_zero(G):
        blocks = set(cells)
        for g in X.generators:
            for block in cells:
                assert tuple(sorted(g(p) for p in block)) in blocks
