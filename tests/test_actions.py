"""Coset actions against small hand-checked cases, and the block systems
of primitive and imprimitive groups against the union-find oracle."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from twoclosure import PermGroup, Permutation
from twoclosure.actions import coset_action
from twoclosure.closure import two_closure
from twoclosure.constructions import (cyclic, dihedral, gamma_l1_16,
                                      symmetric, wreath_imprimitive)
from twoclosure.errors import BudgetExceededError, GroupError
from twoclosure.group import trivial_group
from twoclosure.orbital import higman_primitive


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


def test_coset_action_is_a_homomorphism():
    # coset 0 is H, so a word in G's generators sends it back to itself
    # exactly when the word lies in H; H is normal in the first case
    G = symmetric(4)
    v4 = PermGroup(4, [Permutation([1, 0, 3, 2]), Permutation([2, 3, 0, 1])])
    swap = PermGroup(4, [Permutation([1, 0, 2, 3])])
    for H, degree in [(v4, 6), (swap, 12)]:
        act = coset_action(G, H)
        assert act.degree == degree
        pairs = list(zip(G.generators, act.image_gens))
        for length in range(4):
            for word in itertools.product(pairs, repeat=length):
                g = Permutation.identity(4)
                x = Permutation.identity(degree)
                for a, b in word:
                    g, x = g * a, x * b
                assert (x(0) == 0) == H.contains(g)


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
    G = cyclic(12)
    with pytest.raises(BudgetExceededError):
        coset_action(G, trivial_group(12), degree_budget=10)


def partitions_through_zero(G):
    """The finest G-invariant partition joining 0 and p, for each p > 0."""
    gens = [g.images for g in G.generators]
    return [oracles.block_partition(gens, G.degree, 0, p)
            for p in range(1, G.degree)]


perm_lists = st.integers(min_value=4, max_value=8).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=2)
    .map(lambda imgs: (n, imgs)))


@given(perm_lists)
@settings(max_examples=60, deadline=None)
def test_higman_matches_block_search(case):
    n, imgs = case
    G = PermGroup(n, [Permutation(tuple(i)) for i in imgs])
    if not G.is_transitive():
        return
    primitive = higman_primitive(G)
    assert primitive == all(len(cells) == 1
                            for cells in partitions_through_zero(G))


@pytest.mark.parametrize("G", [gamma_l1_16(), cyclic(4),
                               wreath_imprimitive(cyclic(2), cyclic(3))])
def test_closure_preserves_block_systems(G):
    X = two_closure(G).closure
    for cells in partitions_through_zero(G):
        blocks = set(cells)
        for g in X.generators:
            for block in cells:
                assert tuple(sorted(g(p) for p in block)) in blocks
