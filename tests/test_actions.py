"""Coset actions, their equivalence and minimal block systems against
small hand-checked cases."""

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from twoclosure import PermGroup, Permutation
from twoclosure.actions import (BlockSystem, coset_action,
                                minimal_block_partition,
                                minimal_block_systems,
                                permutationally_equivalent)
from twoclosure.closure import two_closure
from twoclosure.constructions import (cyclic, dihedral, frobenius20,
                                      gamma_l1_16, symmetric,
                                      wreath_imprimitive)
from twoclosure.errors import (BudgetExceededError, GroupError,
                               NotTransitiveError)
from twoclosure.group import trivial_group
from twoclosure.orbital import higman_primitive


def test_coset_action_on_point_stabilizer_recovers_natural_action():
    G = symmetric(4)
    H = G.point_stabilizer(0)
    act = coset_action(G, H)
    assert act.degree == 4
    assert act.image.order() == 24
    assert act.faithful
    # point 0 is the coset of H itself, so its stabilizer is H's image
    stab0 = act.image.point_stabilizer(0)
    assert stab0.order() == H.order()
    for h in H.generators:
        assert stab0.contains(act.act(h))


def test_coset_action_on_whole_group_is_a_point():
    G = dihedral(5)
    act = coset_action(G, G)
    assert act.degree == 1
    assert act.image.order() == 1
    assert act.kernel.order() == G.order()


def test_coset_action_on_trivial_subgroup_is_regular():
    G = cyclic(6)
    act = coset_action(G, trivial_group(6))
    assert act.degree == 6
    assert act.image.order() == 6
    assert act.image.is_transitive()


def test_coset_action_is_a_homomorphism():
    G = symmetric(4)
    H = PermGroup(4, [Permutation([1, 0, 3, 2]), Permutation([2, 3, 0, 1])])
    act = coset_action(G, H)
    assert act.degree == 6
    for a in G.generators:
        for b in G.generators:
            assert act.act(a * b).images == (act.act(a) * act.act(b)).images


def test_coset_action_kernel_is_the_core():
    G = cyclic(6)
    g = G.generators[0]
    H = PermGroup(6, [g * g * g])
    act = coset_action(G, H)
    assert act.degree == 3
    assert act.kernel.order() == 2
    assert not act.faithful
    g_elems = oracles.mulclose([x.images for x in G.generators])
    h_elems = oracles.mulclose([x.images for x in H.generators])
    core = oracles.oracle_core(g_elems, h_elems)
    assert {x.images for x in act.kernel.elements()} == {
        tuple(e) for e in core}


def test_coset_action_kernel_reuses_the_image(chain_builds):
    G = symmetric(5)
    act = coset_action(G, G.point_stabilizer(0))
    assert act.image.order() == 120
    chain_builds.clear()
    kernel = act.kernel
    # one chain of the disjoint-union group, re-based at the image's base
    assert len(chain_builds) == 1
    assert kernel.order() == 1


def test_coset_action_order_splits_over_kernel():
    for G, H in [
        (symmetric(4), PermGroup(4, [Permutation([1, 0, 2, 3])])),
        (dihedral(6), PermGroup(6, [Permutation([3, 4, 5, 0, 1, 2])])),
    ]:
        act = coset_action(G, H)
        assert G.order() == act.image.order() * act.kernel.order()


def test_coset_action_rejects_outside_subgroup():
    G = cyclic(5)
    H = PermGroup(5, [Permutation([1, 0, 2, 3, 4])])
    with pytest.raises(GroupError):
        coset_action(G, H)


def test_coset_action_degree_budget():
    G = cyclic(12)
    with pytest.raises(BudgetExceededError):
        coset_action(G, trivial_group(12), degree_budget=10)


def test_equivalent_actions_from_conjugate_stabilizers():
    G = symmetric(4)
    assert permutationally_equivalent(
        G, G.point_stabilizer(0), G.point_stabilizer(2)) is True


def test_inequivalent_actions_different_degree():
    G = symmetric(3)
    natural = G.point_stabilizer(0)
    regular = trivial_group(3)
    assert permutationally_equivalent(G, natural, regular) is False


def test_inequivalent_actions_same_degree():
    G = symmetric(4)
    v4 = PermGroup(4, [Permutation([1, 0, 3, 2]), Permutation([2, 3, 0, 1])])
    c4 = PermGroup(4, [Permutation([1, 2, 3, 0])])
    assert permutationally_equivalent(G, v4, c4) is False


def test_equivalence_accepts_coset_actions():
    G = symmetric(4)
    a1 = coset_action(G, G.point_stabilizer(1))
    a2 = coset_action(G, G.point_stabilizer(3))
    assert permutationally_equivalent(G, a1, a2) is True


def test_minimal_blocks_c4():
    systems = minimal_block_systems(cyclic(4))
    assert len(systems) == 1
    assert systems[0].blocks == ((0, 2), (1, 3))


def test_minimal_blocks_primitive_group_empty():
    assert minimal_block_systems(symmetric(4)) == []
    assert minimal_block_systems(frobenius20()) == []


def test_minimal_blocks_need_transitivity():
    G = PermGroup(5, [Permutation([1, 0, 2, 3, 4])])
    with pytest.raises(NotTransitiveError):
        minimal_block_systems(G)


def test_minimal_blocks_gamma_l1_16_both_directions():
    systems = minimal_block_systems(gamma_l1_16())
    shapes = sorted((s.s, s.b) for s in systems)
    assert shapes == [(3, 5), (5, 3)]


def test_minimal_blocks_c6_two_systems():
    systems = minimal_block_systems(cyclic(6))
    shapes = sorted((s.s, s.b) for s in systems)
    assert shapes == [(2, 3), (3, 2)]


def test_minimal_block_partition_closure_is_invariant():
    G = wreath_imprimitive(cyclic(2), cyclic(3))
    system = minimal_block_partition(G, 0, 1)
    for g in G.generators:
        for block in system.blocks:
            image = tuple(sorted(g.images[p] for p in block))
            assert image in system.blocks


def test_block_system_shape_validation():
    with pytest.raises(GroupError):
        BlockSystem([(0, 1), (2,)])
    with pytest.raises(GroupError):
        BlockSystem([(0, 1), (1, 2)])


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
    assert primitive == (minimal_block_systems(G) == [])


@pytest.mark.parametrize("G", [gamma_l1_16(), cyclic(4),
                               wreath_imprimitive(cyclic(2), cyclic(3))])
def test_closure_preserves_block_systems(G):
    X = two_closure(G).closure
    for system in minimal_block_systems(G):
        for g in X.generators:
            for block in system.blocks:
                image = tuple(sorted(g.images[p] for p in block))
                assert image in system.blocks
