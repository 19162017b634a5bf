"""Block-kernel assembly and the short-cut certificates, checked
against brute-force closures and raw pair-orbit oracles."""

import json
from functools import lru_cache

import pytest

import oracles
from twoclosure import PermGroup, Permutation
from twoclosure.actions import (block_systems_above, coset_action,
                                minimal_block_systems)
from twoclosure.closure import two_closure
from twoclosure.constructions import (alternating, cyclic, dihedral,
                                      elementary_abelian, frobenius20,
                                      gamma_l1_16, quaternion,
                                      regular_representation, symmetric,
                                      wreath_imprimitive)
from twoclosure.errors import (BudgetExceededError, GroupError,
                               NotCoreFreeError, NotTransitiveError)
from twoclosure.reduction import (block_pair_test, classify_block_kernel,
                                  closure_block_kernel, imprimitive_context,
                                  prime_covering_test,
                                  product_one_closure_filter,
                                  stabilizer_gcd_test, subnormal_intersection)


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
def s4_on_12():
    """S4 on the cosets of a transposition: degree 12, 2-closed."""
    C2 = PermGroup(4, [Permutation.from_cycles(4, [(0, 1)])])
    return coset_action(symmetric(4), C2).image


@lru_cache(maxsize=None)
def s4_on_12_contexts():
    """One context with blocks of 3 and one with blocks of 2."""
    G = s4_on_12()
    systems = minimal_block_systems(G)
    three = next(s for s in systems if s.b == 3)
    two = next(s for s in systems if s.b == 2)
    return imprimitive_context(G, three), imprimitive_context(G, two)


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
                s4_on_12_contexts()[1], a4_regular_context()]
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
    assert kernel.kind == "full-diagonal"
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
    assert kernel.kind == "full-diagonal"
    assert kernel.group.order() == 2
    joined = PermGroup(12, list(kernel.group.generators) + list(G.generators))
    assert joined.equals(res.closure)


def test_kernel_trivial_on_two_closed_groups():
    for ctx in (d4_regular_context(), f20_on_10_context(),
                s4_regular_context()):
        kernel = closure_block_kernel(ctx)
        assert kernel.kind == "trivial"
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
        report = stabilizer_gcd_test(ctx, assume_block_image_closed=True)
        assert kernel.orbit_length > 1
        assert report.gcd % kernel.orbit_length == 0


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


# -------------------------------------------------------- classification

def test_classify_full_diagonal_carries_the_maps():
    kernel = closure_block_kernel(s4_on_8_context())
    assert kernel.kind == "full-diagonal"
    assert len(kernel.diagonal) == 4
    keys = set(element_set(kernel.block_part))
    for table in kernel.diagonal:
        assert set(table) == keys
        assert table[(0, 1)] == (0, 1)


def test_classify_contains_base():
    ctx = s4_on_8_context()
    swaps = []
    for k in range(4):
        coords = [(0, 1)] * 4
        coords[k] = (1, 0)
        swaps.append(ctx.block_fixing_element(coords))
    N = PermGroup(8, swaps)
    assert N.order() == 16
    kernel = classify_block_kernel(N, ctx)
    assert kernel.kind == "contains-base"
    assert kernel.base.order() == 2
    assert kernel.orbit_length == 2


def test_classify_prime_socle():
    # the sum-zero subgroup of four copies of C3 misses the base copies
    ctx = a4_regular_context()
    g1, g2, e = (1, 2, 0), (2, 0, 1), (0, 1, 2)
    gens = [ctx.block_fixing_element([g1, g2, e, e]),
            ctx.block_fixing_element([g1, e, g2, e]),
            ctx.block_fixing_element([g1, e, e, g2])]
    N = PermGroup(12, gens)
    assert N.order() == 27
    kernel = classify_block_kernel(N, ctx)
    assert kernel.kind == "prime-socle"
    assert kernel.prime == 3
    assert kernel.base is None


def test_classify_unclassified_over_imprimitive_block_image():
    ctx = s4_regular_context()
    coords = [tuple(range(4))] * 6
    coords[0] = (1, 2, 3, 0)
    N = PermGroup(24, [ctx.block_fixing_element(coords)])
    kernel = classify_block_kernel(N, ctx)
    assert kernel.kind == "unclassified"
    assert kernel.group.order() == 4


def test_classify_rejects_block_movers():
    ctx = s4_on_8_context()
    mover = next(g for g in ctx.group.generators
                 if ctx.system.block_of[g.images[0]] != 0)
    with pytest.raises(GroupError):
        classify_block_kernel(PermGroup(8, [mover]), ctx)


# ------------------------------------------------------------- subnormal

def test_subnormal_intersection_known_values():
    assert subnormal_intersection(alternating(5)).order() == 60
    assert subnormal_intersection(cyclic(7)).order() == 7
    assert subnormal_intersection(quaternion()).order() == 2
    assert subnormal_intersection(symmetric(3)).order() == 3
    assert subnormal_intersection(symmetric(4)).order() == 1
    assert subnormal_intersection(elementary_abelian(2, 2)).order() == 1
    # D4 has a unique minimal normal subgroup, but the outer
    # reflections avoid it, so the meet is still trivial
    assert subnormal_intersection(dihedral(4)).order() == 1


@pytest.mark.parametrize("group", [
    symmetric(3), symmetric(4), dihedral(4), dihedral(5), quaternion(),
    cyclic(6), alternating(4), alternating(5),
])
def test_subnormal_intersection_matches_oracle(group):
    mine = element_set(subnormal_intersection(group))
    want = oracles.oracle_subnormal_meet(
        [g.images for g in group.generators])
    assert mine == set(want)


def test_subnormal_intersection_budget():
    with pytest.raises(BudgetExceededError):
        subnormal_intersection(alternating(5), order_bound=10)


# -------------------------------------------------- pair and prime tests

def test_block_pair_test_finds_the_swap_witness():
    for ctx in (s4_on_8_context(), a5_on_12_context()):
        verdict = block_pair_test(ctx)
        assert not verdict.two_closed
        assert verdict.witness == ctx.full_swap()
        assert not ctx.group.contains(verdict.witness)
        res = two_closure(ctx.group)
        assert res.certified
        assert res.closure.contains(verdict.witness)


def test_block_pair_witness_needs_no_closed_block_image():
    # the block image here is A5 on 6 points, which is 2-transitive and
    # far from 2-closed; the witness direction must not care
    ctx = a5_on_12_context()
    L = ctx.block_image
    res = two_closure(L)
    assert res.certified and res.closure.order() > L.order()
    verdict = block_pair_test(ctx)
    assert not verdict.two_closed


def test_block_pair_test_certifies_closed_groups():
    ctx = d4_regular_context()
    verdict = block_pair_test(ctx)
    assert verdict.two_closed
    assert verdict.witness is None
    assert verdict.failing_block in ctx.rep_blocks()
    res = two_closure(ctx.group)
    assert res.certified and res.closure.order() == ctx.group.order()


def test_block_pair_test_refuses_open_block_image():
    # S4 on 6 points is not 2-closed, so the certifying direction
    # must not run without an explicit vouch
    ctx = s4_on_12_contexts()[1]
    res = two_closure(ctx.block_image)
    assert res.certified and res.closure.order() == 48
    with pytest.raises(GroupError):
        block_pair_test(ctx)
    verdict = block_pair_test(ctx, assume_block_image_closed=True)
    assert verdict.two_closed


def test_block_pair_test_needs_blocks_of_two():
    with pytest.raises(GroupError):
        block_pair_test(a4_regular_context())


def test_prime_covering_failure_certifies_closedness():
    ctx = s4_on_12_contexts()[0]
    report = prime_covering_test(ctx)
    assert not report.holds
    assert report.certifies_two_closed
    assert report.failing_block in ctx.rep_blocks()
    res = two_closure(ctx.group)
    assert res.certified and res.closure.order() == ctx.group.order()


def test_prime_covering_refuses_open_block_image():
    # the block image of the regular A4 context is A4 on 4 points,
    # whose 2-closure is S4
    ctx = a4_regular_context()
    res = two_closure(ctx.block_image)
    assert res.certified and res.closure.order() == 24
    with pytest.raises(GroupError):
        prime_covering_test(ctx)
    report = prime_covering_test(ctx, assume_block_image_closed=True)
    assert not report.holds
    assert report.certifies_two_closed
    own = two_closure(ctx.group)
    assert own.certified and own.closure.order() == ctx.group.order()


def test_prime_covering_holding_decides_nothing():
    report = prime_covering_test(a5_on_12_context())
    assert report.holds
    assert not report.certifies_two_closed
    assert report.failing_block is None


def test_prime_covering_agrees_with_pair_test_on_blocks_of_two():
    for ctx in (s4_on_8_context(), a5_on_12_context()):
        report = prime_covering_test(ctx)
        verdict = block_pair_test(ctx)
        assert report.holds == (not verdict.two_closed)
    ctx = d4_regular_context()
    report = prime_covering_test(ctx)
    verdict = block_pair_test(ctx)
    assert not report.holds
    assert report.failing_block == verdict.failing_block


def test_prime_covering_needs_prime_blocks():
    with pytest.raises(GroupError):
        prime_covering_test(s4_regular_context())


def test_stabilizer_gcd_values():
    report = stabilizer_gcd_test(s4_on_8_context(),
                                 assume_block_image_closed=True)
    assert report.gcd == 2
    assert not report.certifies_two_closed
    assert report.orders == {1: 2}
    report = stabilizer_gcd_test(d4_regular_context())
    assert report.gcd == 1
    assert report.certifies_two_closed
    res = two_closure(d4_regular_context().group)
    assert res.certified
    assert res.closure.order() == d4_regular_context().group.order()


def test_stabilizer_gcd_refuses_open_block_image():
    ctx = s4_on_12_contexts()[1]
    with pytest.raises(GroupError):
        stabilizer_gcd_test(ctx)
    report = stabilizer_gcd_test(ctx, assume_block_image_closed=True)
    assert report.gcd == 1
    assert report.certifies_two_closed


def test_reports_serialize_to_json():
    ctx = s4_on_8_context()
    reports = [
        closure_block_kernel(ctx).report(),
        block_pair_test(ctx).report(),
        stabilizer_gcd_test(ctx, assume_block_image_closed=True).report(),
        prime_covering_test(ctx).report(),
    ]
    for report in reports:
        assert json.loads(json.dumps(report, sort_keys=True)) == report
