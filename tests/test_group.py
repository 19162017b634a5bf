import gc
import hashlib
import json
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from twoclosure.constructions import alternating, psl2, symmetric
from twoclosure.errors import BudgetExceededError, GroupError
from twoclosure.perm import Permutation
from twoclosure.group import PermGroup, StabilizerChain, is_prime

import oracles


def sym(n):
    gens = [Permutation.from_cycles(n, [list(range(n))]),
            Permutation.from_cycles(n, [[0, 1]])]
    return PermGroup(n, gens, name=f"S{n}")


def alt(n):
    gens = [Permutation.from_cycles(n, [[0, 1, 2]])]
    if n > 3:
        if n % 2:
            gens.append(Permutation.from_cycles(n, [list(range(n))]))
        else:
            gens.append(Permutation.from_cycles(n, [list(range(1, n))]))
    return PermGroup(n, gens, name=f"A{n}")


small_gen_sets = st.integers(min_value=2, max_value=7).flatmap(
    lambda n: st.lists(st.permutations(range(n)).map(Permutation),
                       min_size=1, max_size=3).map(lambda gs: (n, gs)))


def test_symmetric_orders():
    import math
    for n in range(2, 9):
        assert sym(n).order() == math.factorial(n)


def test_alternating_orders():
    import math
    for n in range(3, 9):
        assert alt(n).order() == math.factorial(n) // 2


@settings(max_examples=60, deadline=None)
@given(small_gen_sets)
def test_order_matches_oracle(case):
    n, gens = case
    G = PermGroup(n, gens)
    assert G.order() == oracles.oracle_order([g.images for g in gens])


@settings(max_examples=40, deadline=None)
@given(small_gen_sets, st.permutations(range(7)))
def test_membership_matches_oracle(case, images):
    n, gens = case
    G = PermGroup(n, gens)
    candidate = Permutation(images[:n]) if sorted(images[:n]) == list(range(n)) \
        else None
    if candidate is None:
        return
    expected = oracles.oracle_contains([g.images for g in gens],
                                       candidate.images)
    assert G.contains(candidate) == expected


@settings(max_examples=40, deadline=None)
@given(small_gen_sets)
def test_orbit_stabilizer(case):
    n, gens = case
    G = PermGroup(n, gens)
    for point in range(n):
        assert len(G.orbit(point)) * G.point_stabilizer(point).order() \
            == G.order()


@settings(max_examples=30, deadline=None)
@given(small_gen_sets)
def test_elements_enumeration(case):
    n, gens = case
    G = PermGroup(n, gens)
    elements = {g.images for g in G.elements()}
    assert elements == oracles.mulclose([g.images for g in gens])


def test_elements_leave_no_cyclic_garbage():
    # Enumerating (fully or in part) and dropping the group must free its
    # stabilizer chain by reference counting alone.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for stop in (None, 7):
            G = alt(5)
            chain = weakref.ref(G.chain)
            walk = G.elements()
            for i, _ in enumerate(walk):
                if i == stop:
                    break
            del G, walk
            assert chain() is None
    finally:
        if was_enabled:
            gc.enable()


def test_elements_budget():
    G = sym(9)
    with pytest.raises(BudgetExceededError):
        list(G.elements(budget=1000))


def test_pointwise_stabilizer():
    G = sym(5)
    H = G.pointwise_stabilizer([0, 1])
    assert H.order() == 6
    assert all(g.images[0] == 0 and g.images[1] == 1 for g in H.generators)


def test_orbits():
    g = Permutation.from_cycles(6, [[0, 1, 2], [3, 4]])
    G = PermGroup(6, [g])
    assert G.orbits() == [[0, 1, 2], [3, 4], [5]]
    assert not G.is_transitive()
    assert sym(4).is_transitive()


def test_random_element_membership():
    G = alt(6)
    rng = random.Random(7)
    for _ in range(30):
        x = G.chain.random_element(rng)
        assert G.contains(x)
        assert x.images not in {g.images for g in sym(6).generators} \
            or G.contains(x)


def test_random_element_hits_whole_group():
    G = PermGroup(4, [Permutation.from_cycles(4, [[0, 1, 2, 3]])])
    rng = random.Random(1)
    seen = {G.chain.random_element(rng).images for _ in range(100)}
    assert len(seen) == 4


def test_normal_closure_matches_oracle():
    G = sym(4)
    seed = Permutation.from_cycles(4, [[0, 1], [2, 3]])
    expected = oracles.oracle_normal_closure(
        [g.images for g in G.generators], [seed.images])
    got = G.normal_closure([seed])
    assert got.order() == len(expected) == 4


def test_conjugacy_classes_match_oracle():
    for G in [sym(4), alt(5)]:
        expected = oracles.oracle_conjugacy_classes(
            [g.images for g in G.generators])
        got = G.conjugacy_classes()
        assert sorted(size for _, size in got) \
            == sorted(len(c) for c in expected)
        assert sum(size for _, size in got) == G.order()


def test_prime_order_class_reps():
    reps = sym(4).prime_order_class_representatives()
    orders = sorted(rep.order() for rep, _ in reps)
    assert orders == [2, 2, 3]


def test_minimal_normal_subgroups():
    minimal = sym(4).minimal_normal_subgroups()
    assert len(minimal) == 1
    assert minimal[0].order() == 4
    minimal = alt(5).minimal_normal_subgroups()
    assert len(minimal) == 1 and minimal[0].order() == 60


def test_is_simple():
    assert alt(5).is_simple()
    assert not sym(4).is_simple()
    assert not sym(5).is_simple()


def test_is_semisimple_product():
    assert alt(5).is_semisimple_product()
    a5a5 = PermGroup(10, [
        Permutation.from_cycles(10, [[0, 1, 2]]),
        Permutation.from_cycles(10, [[0, 1, 2, 3, 4]]),
        Permutation.from_cycles(10, [[5, 6, 7]]),
        Permutation.from_cycles(10, [[5, 6, 7, 8, 9]]),
    ])
    assert a5a5.order() == 3600
    assert a5a5.is_semisimple_product()
    assert not sym(4).is_semisimple_product()
    assert not sym(5).is_semisimple_product()


def test_tuple_stabilizer_order():
    G = sym(5)
    assert G.tuple_stabilizer_order([0]) == 24
    assert G.tuple_stabilizer_order([0, 1]) == 6
    assert G.tuple_stabilizer_order([0, 1, 2]) == 2


def test_is_prime():
    assert [k for k in range(20) if is_prime(k)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_chain_deterministic():
    gens = [Permutation.from_cycles(7, [[0, 1, 2, 3, 4, 5, 6]]),
            Permutation.from_cycles(7, [[0, 1]])]
    a = PermGroup(7, gens, seed=5)
    b = PermGroup(7, gens, seed=5)
    assert a.chain.base() == b.chain.base()
    assert [[g.images for g in lvl.gens] for lvl in a.chain.levels] \
        == [[g.images for g in lvl.gens] for lvl in b.chain.levels]


def test_point_stabilizer_reads_the_tail_of_its_parents_chain(chain_builds):
    G = sym(6)
    assert G.order() == 720
    chain_builds.clear()
    H = G.point_stabilizer(3)
    assert H.order() == 120
    assert H.contains(Permutation.from_cycles(6, [[0, 1, 2, 4, 5]]))
    assert not H.contains(Permutation.from_cycles(6, [[2, 3]]))
    assert G.pointwise_stabilizer([3, 1]).order() == 24
    # one chain of G per base hint; the stabilizers build none
    assert chain_builds == [(3,), (3, 1)]


def test_stabilizers_are_kept_per_distinct_point_tuple():
    G = sym(5)
    assert G.point_stabilizer(2) is G.pointwise_stabilizer([2, 2])
    assert G.pointwise_stabilizer([1, 0, 1]) is G.pointwise_stabilizer([1, 0])
    assert G.pointwise_stabilizer([0, 1]) is not G.pointwise_stabilizer([1, 0])


def test_rebased_chain_answers_order_and_membership(chain_builds):
    G = sym(6)
    G.chain_with_base((4, 2))
    assert G.order() == 720
    assert G.contains(Permutation.from_cycles(6, [[0, 5]]))
    assert chain_builds == [(4, 2)]


def test_elements_order_ignores_the_chain_that_answered_order(chain_builds):
    gens = [Permutation.from_cycles(7, [[0, 1, 2, 3, 4, 5, 6]]),
            Permutation.from_cycles(7, [[0, 1, 3]])]
    plain = PermGroup(7, gens)
    want = [g.images for g in plain.elements()]
    rebased = PermGroup(7, gens)
    rebased.chain_with_base((5, 3))
    chain_builds.clear()
    assert rebased.order() == plain.order()
    assert chain_builds == []
    assert [g.images for g in rebased.elements()] == want
    assert rebased.chain.base() == plain.chain.base()
    assert rebased.random_element().images == plain.random_element().images


def _j1():
    from test_j1 import J1_FILE
    data = json.loads(J1_FILE.read_text())
    return PermGroup(data["degree"],
                     [Permutation(tuple(g)) for g in data["generators"]])


@pytest.mark.parametrize("make, order", [
    (lambda: sym(5), 120),
    (lambda: psl2(7), 168),
    (_j1, 175560),
], ids=["S5", "PSL(2,7)", "J1/266"])
def test_known_order_build_agrees_with_the_full_build(make, order):
    G = make()
    full = StabilizerChain.build(G.generators, G.degree)
    known = StabilizerChain.build(G.generators, G.degree, order=order)
    assert full.order() == known.order() == order
    # half the probes lie in the group, half are arbitrary permutations
    rng = random.Random(200)
    for k in range(200):
        if k % 2:
            images = list(range(G.degree))
            rng.shuffle(images)
            g = Permutation(images)
        else:
            g = full.random_element(rng)
        assert known.contains(g) == full.contains(g)


def test_known_order_build_stops_before_the_deterministic_pass():
    G = alternating(5)
    sifts = []
    sift = StabilizerChain.sift

    def counted(self, g, start=0):
        sifts.append(start)
        return sift(self, g, start)

    StabilizerChain.sift = counted
    try:
        StabilizerChain.build(G.generators, G.degree)
        full = len(sifts)
        sifts.clear()
        StabilizerChain.build(G.generators, G.degree, order=60)
    finally:
        StabilizerChain.sift = sift
    # the deterministic pass sifts from level 1 on; the stopped build
    # sifts at most the random phase's products, from level 0
    assert set(sifts) <= {0}
    assert len(sifts) < full


@pytest.mark.parametrize("order", [4, 24])
def test_known_order_below_the_orbit_product_raises(order):
    # the first basic orbit of S5 already has 5 points; 24 is no multiple
    # of 5, so every product the growth reaches passes it without a stop
    G = sym(5)
    with pytest.raises(GroupError):
        StabilizerChain.build(G.generators, G.degree, order=order)


def test_known_order_out_of_reach_of_random_growth_ends_verified(
        monkeypatch):
    # no random phase reaches the order: with it stubbed out, and for one
    # generator
    G = sym(5)
    monkeypatch.setattr(StabilizerChain, "_random_grow",
                        lambda self, gens, seed, order=None: False)
    chain = StabilizerChain.build(G.generators, G.degree, order=120)
    assert chain.order() == 120
    assert chain.contains(Permutation.from_cycles(5, [[1, 3]]))
    g = Permutation.from_cycles(5, [[0, 1], [2, 3, 4]])
    chain = StabilizerChain.build([g], 5, order=6)
    assert chain.order() == 6
    assert chain.contains(g * g * g)


def test_rebased_chain_takes_the_order_of_the_chain_held(monkeypatch):
    build = StabilizerChain.build.__func__
    orders = []

    def recorded(cls, gens, degree, base_hint=(), **kwargs):
        orders.append((tuple(base_hint), kwargs.get("order")))
        return build(cls, gens, degree, base_hint=base_hint, **kwargs)

    monkeypatch.setattr(StabilizerChain, "build", classmethod(recorded))
    G = psl2(7)
    G.chain_with_base((3,))
    G.chain_with_base((3, 5))
    assert G.chain.order() == 168
    told = PermGroup(G.degree, G.generators, order=168)
    told.chain_with_base((1,))
    # the plain chain is never told the order
    assert orders == [((3,), None), ((3, 5), 168), ((), None), ((1,), 168)]
    assert G.chain_with_base((3, 5)).order() == 168
    with pytest.raises(GroupError):
        PermGroup(G.degree, G.generators, order=84).chain_with_base((3,))


# SHA-256 of the image bytes of elements(), in order, taken before the
# known-order chains existed; the plain chain is built as it was.
ELEMENT_DIGESTS = {
    "S4": (24, "42d17ff67728d899621b76d935d68aa89d34bd7668b89f18e0d2ff2acdb4b484"),
    "A5": (60, "d127a0702f12fb0b2ae7a8b81da09c7396a23790f3eacb38168129aca8040130"),
    "PSL(2,11)": (660, "e21e694758c9499c59f213c4d586d715017a53d5b89b7f586a61849231f2471f"),
}


@pytest.mark.parametrize("name", sorted(ELEMENT_DIGESTS))
def test_elements_sequence_is_unchanged_by_known_orders(name):
    G = {"S4": lambda: symmetric(4), "A5": lambda: alternating(5),
         "PSL(2,11)": lambda: psl2(11)}[name]()
    order, want = ELEMENT_DIGESTS[name]
    told = PermGroup(G.degree, G.generators, seed=G.seed, order=order)
    told.chain_with_base((2, 1))
    for H in (G, told):
        sha = hashlib.sha256()
        for g in H.elements():
            sha.update(bytes(g.images))
        assert sha.hexdigest() == want
