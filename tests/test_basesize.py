"""Base size search and the Q-hat bound, checked against brute force."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from twoclosure import PermGroup, Permutation
from twoclosure.actions import coset_action
from twoclosure.basesize import (REFERENCE_TABLE, class_intersection_count,
                                 exact_base_size, qhat,
                                 two_point_stabilizer_gcd,
                                 two_point_stabilizer_orders)
from twoclosure.constructions import (alternating, cyclic, dihedral,
                                      direct_product, frobenius20,
                                      gamma_l1_16, psl2, quaternion,
                                      regular_representation, symmetric,
                                      trivial, wreath_imprimitive)
from twoclosure.errors import (BudgetExceededError, GroupError,
                               NotTransitiveError)


def pairs_group():
    """Sym(4) acting on the six unordered pairs from {0,1,2,3}."""
    pair_list = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    index = {p: i for i, p in enumerate(pair_list)}

    def lift(g):
        images = []
        for a, b in pair_list:
            images.append(index[tuple(sorted((g.images[a], g.images[b])))])
        return Permutation(images)

    return PermGroup(6, [lift(g) for g in symmetric(4).generators])


def test_exact_base_size_trivial_group():
    report = exact_base_size(trivial(3))
    assert report.exact == 0
    assert report.witness_base == ()


def test_exact_base_size_regular_is_one():
    for G in (cyclic(6), regular_representation(symmetric(3)),
              regular_representation(quaternion())):
        report = exact_base_size(G)
        assert report.exact == 1
        assert G.tuple_stabilizer_order(report.witness_base) == 1


def test_exact_base_size_symmetric_natural():
    for n in (3, 4, 5):
        report = exact_base_size(symmetric(n))
        assert report.exact == n - 1


def test_exact_base_size_examples():
    assert exact_base_size(dihedral(5)).exact == 2
    assert exact_base_size(alternating(5)).exact == 3
    assert exact_base_size(frobenius20()).exact == 2
    assert exact_base_size(pairs_group()).exact == 2


def test_exact_base_size_witness_is_a_base():
    for G in (symmetric(5), dihedral(8), gamma_l1_16(), pairs_group()):
        report = exact_base_size(G)
        assert G.tuple_stabilizer_order(report.witness_base) == 1
        assert len(report.witness_base) == report.exact


def test_exact_base_size_budget_exhaustion_reports_bounds():
    report = exact_base_size(symmetric(6), node_budget=2)
    assert report.exact is None
    assert report.lower_bound == 2
    assert report.upper_bound == 5
    assert symmetric(6).tuple_stabilizer_order(report.witness_base) == 1


def test_exact_base_size_degree_budget():
    with pytest.raises(BudgetExceededError):
        exact_base_size(symmetric(4), degree_budget=3)


@given(st.integers(min_value=4, max_value=6).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=2)
    .map(lambda imgs: (n, imgs))))
@settings(max_examples=30, deadline=None)
def test_exact_base_size_matches_oracle(case):
    n, imgs = case
    G = PermGroup(n, [Permutation(tuple(i)) for i in imgs])
    want = oracles.oracle_base_size([g.images for g in G.generators], n)
    assert exact_base_size(G).exact == want


def test_class_intersection_central_element():
    G = cyclic(4)
    x = Permutation((2, 3, 0, 1))
    H = PermGroup(4, [x])
    assert class_intersection_count(G, H, x) == 1


def test_class_intersection_coprime_order():
    G = symmetric(3)
    x = Permutation((1, 2, 0))
    H = PermGroup(3, [Permutation((1, 0, 2))])
    assert class_intersection_count(G, H, x) == 0


def test_class_intersection_four_cycle_subgroup():
    G = symmetric(4)
    H = PermGroup(4, [Permutation((1, 2, 3, 0))])
    x = Permutation((1, 0, 3, 2))
    assert class_intersection_count(G, H, x) == 1


def test_class_intersection_rejects_composite_order():
    G = symmetric(4)
    with pytest.raises(GroupError):
        class_intersection_count(G, G, Permutation((1, 2, 3, 0)))


def test_class_intersection_rejects_outside_element():
    G = alternating(4)
    with pytest.raises(GroupError):
        class_intersection_count(G, G, Permutation((1, 0, 2, 3)))


def test_class_intersection_matches_brute_force():
    G = symmetric(4)
    elements = oracles.mulclose([g.images for g in G.generators])
    classes = oracles.oracle_conjugacy_classes(
        [g.images for g in G.generators])
    subgroups = [
        PermGroup(4, [Permutation((1, 2, 3, 0))]),
        PermGroup(4, [Permutation((1, 0, 2, 3)), Permutation((0, 1, 3, 2))]),
        PermGroup(4, [Permutation((1, 2, 0, 3))]),
        alternating(4),
    ]
    for H in subgroups:
        h_set = {h.images for h in H.elements()}
        for cls in classes:
            rep = Permutation(next(iter(sorted(cls))))
            order = rep.order()
            if order == 1 or not all(order % p for p in range(2, order)):
                continue
            want = len({tuple(e) for e in cls} & h_set)
            assert class_intersection_count(G, H, rep) == want
    assert len(elements) == 24


def test_qhat_trivial_subgroup_is_zero():
    G = symmetric(4)
    value = qhat(G, trivial(4), 2)
    assert value == Fraction(0)
    assert isinstance(value, Fraction)


def test_qhat_full_subgroup_counts_elements():
    G = symmetric(4)
    assert qhat(G, G, 2) == Fraction(17)


def test_qhat_pairs_action_is_exactly_one():
    G = pairs_group()
    H = G.point_stabilizer(0)
    assert qhat(G, H, 2) == Fraction(1)


def test_qhat_alt5_on_cosets_of_c5():
    G = alternating(5)
    H = PermGroup(5, [Permutation((1, 2, 3, 4, 0))])
    assert qhat(G, H, 2) == Fraction(2, 3)


def test_qhat_rejects_non_subgroup():
    odd = PermGroup(4, [Permutation((1, 0, 2, 3))])
    with pytest.raises(GroupError):
        qhat(alternating(4), odd, 2)
    with pytest.raises(GroupError):
        qhat(symmetric(4), symmetric(3), 2)


def test_qhat_rejects_incomplete_class_data():
    G = symmetric(4)
    full = G.prime_order_class_representatives()
    missing_threes = [(rep, size) for rep, size in full if rep.order() != 3]
    with pytest.raises(GroupError):
        qhat(G, alternating(4), 2, classes=missing_threes)


def test_qhat_rejects_composite_class_data():
    G = symmetric(4)
    bad = list(G.prime_order_class_representatives())
    bad.append((Permutation((1, 2, 3, 0)), 6))
    with pytest.raises(GroupError):
        qhat(G, alternating(4), 2, classes=bad)


def test_qhat_accepts_explicit_class_data():
    G = symmetric(4)
    classes = G.prime_order_class_representatives()
    H = PermGroup(4, [Permutation((1, 2, 3, 0))])
    assert qhat(G, H, 2, classes=classes) == qhat(G, H, 2)


@given(st.permutations(range(5)), st.permutations(range(5)))
@settings(max_examples=20, deadline=None)
def test_qhat_matches_oracle(h1, h2):
    G = symmetric(5)
    H = PermGroup(5, [Permutation(tuple(h1)), Permutation(tuple(h2))])
    want = oracles.oracle_qhat([g.images for g in G.generators],
                               [h.images for h in H.elements()], 2)
    assert qhat(G, H, 2) == want


def test_qhat_monotone_under_shrinking_subgroup():
    G = symmetric(4)
    chain = [
        G,
        PermGroup(4, [Permutation((1, 2, 3, 0)), Permutation((2, 1, 0, 3))]),
        PermGroup(4, [Permutation((1, 2, 3, 0))]),
        PermGroup(4, [Permutation((2, 3, 0, 1))]),
        trivial(4),
    ]
    for c in (2, 3):
        values = [qhat(G, H, c) for H in chain]
        assert all(a >= b for a, b in zip(values, values[1:]))


def _random_subgroup(G, rng):
    k = rng.choice((1, 1, 2))
    gens = [G.random_element(rng) for _ in range(k)]
    return PermGroup(G.degree, gens, seed=G.seed)


def test_qhat_below_one_implies_base_at_most_two():
    pool = [symmetric(4), symmetric(5), alternating(5), alternating(6),
            dihedral(6), dihedral(9), psl2(7), frobenius20(),
            wreath_imprimitive(cyclic(2), cyclic(3)),
            direct_product(symmetric(3), symmetric(3)), pairs_group()]
    rng = random.Random(20260819)
    checked = 0
    proven = 0
    for G in pool:
        for _ in range(6):
            H = _random_subgroup(G, rng)
            value = qhat(G, H, 2)
            checked += 1
            if value >= 1:
                continue
            if G.order() // H.order() > 400:
                continue
            proven += 1
            action = coset_action(G, H)
            report = exact_base_size(action.image)
            assert report.exact is not None and report.exact <= 2, (
                f"Q-hat {value} promised base 2 for {G!r} over "
                f"order-{H.order()} subgroup")
    assert checked >= 50
    assert proven >= 10


def test_two_point_stabilizer_gcd_base_two_actions():
    assert two_point_stabilizer_gcd(symmetric(3)) == 1
    assert two_point_stabilizer_gcd(dihedral(5)) == 1
    assert two_point_stabilizer_gcd(pairs_group()) == 1


def test_two_point_stabilizer_gcd_regular():
    assert two_point_stabilizer_gcd(cyclic(5)) == 1


def test_two_point_stabilizer_gcd_natural_actions():
    assert two_point_stabilizer_gcd(symmetric(4)) == 2
    assert two_point_stabilizer_gcd(alternating(5)) == 3


def test_two_point_stabilizer_gcd_degree_one():
    assert two_point_stabilizer_gcd(trivial(1)) == 0


def test_two_point_stabilizer_gcd_rejects_intransitive():
    with pytest.raises(NotTransitiveError):
        two_point_stabilizer_gcd(PermGroup(4, [Permutation((1, 0, 2, 3))]))


def test_two_point_stabilizer_gcd_divides_each_order():
    for G in (symmetric(5), alternating(5), gamma_l1_16(),
              wreath_imprimitive(symmetric(3), cyclic(2)), pairs_group()):
        orders = two_point_stabilizer_orders(G)
        value = two_point_stabilizer_gcd(G)
        assert orders
        assert all(order % value == 0 for _, order in orders)


def test_two_point_orders_one_per_suborbit():
    G = alternating(5)
    orders = two_point_stabilizer_orders(G)
    assert len(orders) == len(G.point_stabilizer(0).orbits()) - 1


def test_subgroup_of_base_two_stabilizer_keeps_base_two():
    G = pairs_group()
    M = G.point_stabilizer(0)
    assert exact_base_size(G).exact == 2
    seen = set()
    for h in M.elements():
        if h.is_identity or h.images in seen:
            continue
        K = PermGroup(G.degree, [h])
        seen.update(x.images for x in K.elements())
        action = coset_action(G, K)
        report = exact_base_size(action.image)
        assert report.exact is not None and report.exact <= 2


def test_reference_table_published_rows():
    assert len(REFERENCE_TABLE) == 16
    assert REFERENCE_TABLE.lookup("J1", "L2(11)").g_value == 1
    assert REFERENCE_TABLE.lookup("J3", "L2(16)").g_value == 1
    assert REFERENCE_TABLE.lookup("J3", "L2(16).2").g_value == 2
    assert REFERENCE_TABLE.lookup("Ly", "G2(5)").g_value == 48
    assert REFERENCE_TABLE.lookup("Th", "3D4(2)").g_value == 6
    assert REFERENCE_TABLE.lookup("M", "2.B").g_value == 2090188800
    assert REFERENCE_TABLE.groups() == ["J1", "J3", "J4", "Ly", "Th", "M"]


def test_reference_table_j4_constraint_row():
    row = REFERENCE_TABLE.lookup("J4", "2^10:L5(2)")
    assert row.g_value == 2 ** 4 * 3 ** 2 * 5 * 7
    assert row.d_upper_bound == 30


def test_reference_table_is_read_only():
    row = REFERENCE_TABLE.lookup("J1", "L2(11)")
    with pytest.raises(Exception):
        row.g_value = 2
    assert isinstance(REFERENCE_TABLE.rows, tuple)
    with pytest.raises(KeyError):
        REFERENCE_TABLE.lookup("J1", "A5")
