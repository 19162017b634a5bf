"""The imprimitive context, the pair filter and block-kernel assembly,
checked against brute-force closures and raw pair-orbit oracles."""

from functools import lru_cache

import pytest

import oracles
from twoclosure import PermGroup, Permutation
from twoclosure.actions import (block_systems_above, coset_action,
                                minimal_block_systems)
from twoclosure.basesize import two_point_stabilizer_gcd
from twoclosure.closure import two_closure
from twoclosure.constructions import (alternating, cyclic, dihedral,
                                      elementary_abelian, frobenius20,
                                      gamma_l1_16, regular_representation,
                                      symmetric, wreath_imprimitive)
from twoclosure.errors import (BudgetExceededError, GroupError,
                               NotCoreFreeError, NotTransitiveError)
from twoclosure.reduction import (closure_block_kernel, imprimitive_context,
                                  product_one_closure_filter)


@lru_cache(maxsize=None)
def s4_on_8():
    """S4 on the cosets of a 3-cycle: degree 8, not 2-closed."""
    C3 = PermGroup(4, [Permutation.from_cycles(4, [(0, 1, 2)])])
    return coset_action(symmetric(4), C3).image


@lru_cache(maxsize=None)
def s4_on_8_context():
    G = s4_on_8()
    system = next(s for s in minimal_block_systems(G) if s.b == 2)
    return imprimitive_context(G, system)


@lru_cache(maxsize=None)
def a5_on_12():
    """A5 on the cosets of a 5-cycle: degree 12, not 2-closed."""
    C5 = PermGroup(5, [Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])
    return coset_action(alternating(5), C5).image


@lru_cache(maxsize=None)
def a5_on_12_context():
    G = a5_on_12()
    return imprimitive_context(G, minimal_block_systems(G)[0])


@lru_cache(maxsize=None)
def s4_on_12_context():
    """S4 on the cosets of a transposition (degree 12, 2-closed), over
    6 blocks of 2."""
    C2 = PermGroup(4, [Permutation.from_cycles(4, [(0, 1)])])
    G = coset_action(symmetric(4), C2).image
    two = next(s for s in minimal_block_systems(G) if s.b == 2)
    return imprimitive_context(G, two)


@lru_cache(maxsize=None)
def d4_regular_context():
    G = regular_representation(dihedral(4))
    for system in minimal_block_systems(G):
        try:
            return imprimitive_context(G, system)
        except NotCoreFreeError:
            continue
    raise AssertionError("no core-free system found")


@lru_cache(maxsize=None)
def a4_regular_context():
    """A4 regular over the cosets of a 3-cycle: 4 blocks of 3."""
    G = regular_representation(alternating(4))
    system = next(s for s in minimal_block_systems(G) if s.b == 3)
    return imprimitive_context(G, system)


@lru_cache(maxsize=None)
def f20_on_10_context():
    """F20 on the cosets of an involution: 5 blocks of 2."""
    F = frobenius20()
    invs = sorted((g for g in F.elements() if g.order() == 2),
                  key=lambda g: g.images)
    G = coset_action(F, PermGroup(5, [invs[0]])).image
    system = next(s for s in minimal_block_systems(G) if s.b == 2)
    return imprimitive_context(G, system)


@lru_cache(maxsize=None)
def s4_regular_context():
    """S4 regular over the cosets of a 4-cycle: 6 blocks of 4."""
    G = regular_representation(symmetric(4))
    for system in block_systems_above(G):
        if system.b != 4 or system.s != 6:
            continue
        try:
            return imprimitive_context(G, system)
        except NotCoreFreeError:
            continue
    raise AssertionError("no core-free system found")


def element_set(G):
    return {tuple(g.images) for g in G.elements()}


# ---------------------------------------------------------------- context

def test_context_rejects_intransitive_group():
    G = PermGroup(4, [Permutation.from_cycles(4, [(0, 1)])])
    with pytest.raises(NotTransitiveError):
        imprimitive_context(G, [(0, 1), (2, 3)])


def test_context_rejects_trivial_partitions():
    G = cyclic(4)
    with pytest.raises(GroupError):
        imprimitive_context(G, [(0,), (1,), (2,), (3,)])
    with pytest.raises(GroupError):
        imprimitive_context(G, [(0, 1, 2, 3)])


def test_context_rejects_mismatched_degree():
    with pytest.raises(GroupError):
        imprimitive_context(cyclic(6), [(0, 1), (2, 3)])


def test_context_rejects_noninvariant_partition():
    with pytest.raises(GroupError):
        imprimitive_context(cyclic(4), [(0, 1), (2, 3)])


def test_context_requires_core_free_block_stabilizer():
    # blocks of 4 in S4 on 8 points come from A4, which is normal
    G = s4_on_8()
    four = next(s for s in minimal_block_systems(G) if s.b == 4)
    with pytest.raises(NotCoreFreeError):
        imprimitive_context(G, four)
    # a full wreath product fixes its base group
    W = wreath_imprimitive(symmetric(2), symmetric(3))
    for system in minimal_block_systems(W):
        with pytest.raises(NotCoreFreeError):
            imprimitive_context(W, system)
    # a regular abelian group has only normal block stabilizers
    V = regular_representation(elementary_abelian(2, 2))
    for system in minimal_block_systems(V):
        with pytest.raises(NotCoreFreeError):
            imprimitive_context(V, system)


def test_gamma_l1_16_has_no_faithful_block_action():
    G = gamma_l1_16()
    systems = [s for s in block_systems_above(G) if not s.is_trivial()]
    assert {(s.s, s.b) for s in systems} == {(5, 3), (3, 5)}
    for system in systems:
        with pytest.raises(NotCoreFreeError):
            imprimitive_context(G, system)
    # the group itself is still 2-closed, shown without any reduction
    res = two_closure(G)
    assert res.certified and res.closure.order() == G.order()


def test_context_fields_on_s4_cosets():
    ctx = s4_on_8_context()
    assert ctx.system.s == 4 and ctx.system.b == 2
    assert ctx.block_image.order() == 24
    assert ctx.block_stabilizer.order() == 6
    assert ctx.point_stabilizer.order() == 3
    assert ctx.within_block.order() == 2
    assert ctx.block_closure_exact
    assert ctx.block_closure.order() == 2
    assert ctx.rep_blocks() == [1]
    assert "4 blocks of 2" in repr(ctx)


def test_context_accepts_raw_block_lists():
    G = s4_on_8()
    system = next(s for s in minimal_block_systems(G) if s.b == 2)
    ctx = imprimitive_context(G, [list(b) for b in system.blocks])
    assert ctx.system == system


def test_transversals_carry_first_block_onto_each():
    for ctx in (s4_on_8_context(), a5_on_12_context(),
                s4_regular_context()):
        delta = ctx.system.blocks[0]
        for k, t in enumerate(ctx.transversals):
            assert {t.images[p] for p in delta} == set(ctx.system.blocks[k])
            # in the identified coordinates the transversal is trivial
            assert ctx.coordinate(t, 0, k).is_identity
        for j in ctx.rep_blocks():
            rep, r1, r1i, r2, r2i = ctx.transport(0, j)
            assert rep == j
            assert r1 == tuple(range(ctx.system.b))
            assert r2 == tuple(range(ctx.system.b))


def test_coordinate_rejects_block_movers():
    ctx = s4_on_8_context()
    mover = next(g for g in ctx.group.generators
                 if ctx.system.block_of[g.images[0]] != 0)
    with pytest.raises(GroupError):
        ctx.coordinate(mover, 0, 0)


# ----------------------------------------------------------- pair filter

def test_product_filter_full_orbit_gives_full_product():
    S3 = symmetric(3)
    gens = []
    for g in S3.generators:
        gens.append(Permutation(tuple(g.images) + (3, 4, 5)))
        gens.append(Permutation((0, 1, 2) + tuple(3 + t for t in g.images)))
    K = PermGroup(6, gens)
    F = product_one_closure_filter(K, S3)
    assert F.order() == 36


def test_product_filter_diagonal_action_gives_diagonal():
    C5 = cyclic(5)
    K = PermGroup(10, [Permutation(tuple(g.images)
                                   + tuple(5 + t for t in g.images))
                       for g in C5.generators])
    F = product_one_closure_filter(K, C5)
    assert F.order() == 5
    for e in F.elements():
        assert tuple(e.images[:5]) == tuple(t - 5 for t in e.images[5:])


def test_product_filter_trivial_action_gives_identity():
    F = product_one_closure_filter(PermGroup(10, []), cyclic(5))
    assert F.order() == 1


def test_product_filter_matches_oracle_on_live_pair_groups():
    contexts = [s4_on_8_context(), a5_on_12_context(),
                s4_on_12_context(), a4_regular_context()]
    for ctx in contexts:
        b = ctx.system.b
        Y = ctx.block_closure
        for j in ctx.rep_blocks():
            K = ctx.pair_group(j)
            F = product_one_closure_filter(K, Y)
            mine = {(tuple(e.images[:b]),
                     tuple(t - b for t in e.images[b:]))
                    for e in F.elements()}
            want = oracles.oracle_pair_filter(
                [g.images for g in K.generators],
                [g.images for g in Y.generators], b)
            assert mine == want


def test_product_filter_validates_input():
    C5 = cyclic(5)
    with pytest.raises(GroupError):
        product_one_closure_filter(PermGroup(8, []), C5)
    crossing = PermGroup(10, [Permutation.from_cycles(10, [(0, 5)])])
    with pytest.raises(GroupError):
        product_one_closure_filter(crossing, C5)
    with pytest.raises(NotTransitiveError):
        product_one_closure_filter(PermGroup(4, []), PermGroup(2, []))


# ---------------------------------------------------------- block kernel

def test_kernel_matches_brute_closure_on_eight_points():
    G = s4_on_8()
    ctx = s4_on_8_context()
    kernel = closure_block_kernel(ctx)
    closure = oracles.oracle_two_closure(
        [g.images for g in G.generators], 8)
    fixing = oracles.oracle_block_fixing(closure, ctx.system.blocks)
    assert element_set(kernel.group) == fixing
    assert kernel.group.order() == 2
    assert kernel.orbit_length == 2
    # the closure splits over the group: every closure element is a
    # kernel element times a group element
    assert len(closure) == kernel.group.order() * G.order()


def test_kernel_matches_certified_closure_on_twelve_points():
    G = a5_on_12()
    ctx = a5_on_12_context()
    kernel = closure_block_kernel(ctx)
    res = two_closure(G)
    assert res.certified
    fixing = oracles.oracle_block_fixing(
        (g.images for g in res.closure.elements()), ctx.system.blocks)
    assert element_set(kernel.group) == fixing
    assert kernel.group.order() == 2
    joined = PermGroup(12, list(kernel.group.generators) + list(G.generators))
    assert joined.equals(res.closure)


def test_kernel_trivial_on_two_closed_groups():
    for ctx in (d4_regular_context(), f20_on_10_context(),
                s4_regular_context()):
        kernel = closure_block_kernel(ctx)
        assert kernel.group.order() == 1
        assert kernel.orbit_length == 1


def test_kernel_intersects_group_trivially_and_is_normalized():
    for ctx in (s4_on_8_context(), a5_on_12_context()):
        kernel = closure_block_kernel(ctx)
        G = ctx.group
        for n in kernel.group.elements():
            assert G.contains(n) == n.is_identity
        for g in G.generators:
            for n in kernel.group.generators:
                assert kernel.group.contains(g.inverse() * n * g)


def test_kernel_orbit_length_divides_stabilizer_gcd():
    for ctx in (s4_on_8_context(), a5_on_12_context()):
        kernel = closure_block_kernel(ctx)
        gcd = two_point_stabilizer_gcd(ctx.block_image)
        assert kernel.orbit_length > 1
        assert gcd % kernel.orbit_length == 0


def test_kernel_is_deterministic():
    first = closure_block_kernel(s4_on_8_context())
    second = closure_block_kernel(s4_on_8_context())
    assert element_set(first.group) == element_set(second.group)
    assert first.report() == second.report()


def test_kernel_budget_errors():
    ctx = s4_on_8_context()
    with pytest.raises(BudgetExceededError):
        closure_block_kernel(ctx, block_budget=2)
    with pytest.raises(BudgetExceededError):
        closure_block_kernel(ctx, element_budget=1)
