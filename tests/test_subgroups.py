"""Subgroup enumeration and the conjugacy class table, against brute force."""

import hashlib

import pytest

import oracles
from test_j1 import relabelled
from twoclosure.backtrack import conjugating_element_for_subgroup
from twoclosure.constructions import (alternating, cyclic, dihedral,
                                      direct_product, elementary_abelian,
                                      psl2, quaternion, symmetric)
from twoclosure.errors import BudgetExceededError
from twoclosure.group import StabilizerChain
from twoclosure.subgroups import (ORDER_BOUND, _Indexed, _inv, _lattice,
                                  _members, _mul, all_subgroup_sets,
                                  generated_set, has_section, is_normal_in,
                                  maximal_normal_subgroup_sets,
                                  small_generating_set, subgroup_classes)


@pytest.mark.parametrize("G, count", [
    (cyclic(6), 4),
    (symmetric(3), 6),
    (symmetric(4), 30),
    (quaternion(), 6),
    (alternating(4), 10),
    (elementary_abelian(2, 3), 16),
    (dihedral(4), 10),
    # non-prime-power elements, and long prime-power chains whose
    # intermediate subgroups are reached only through non-generators
    (cyclic(12), 6),
    (cyclic(27), 4),
    (dihedral(6), 16),
    (direct_product(quaternion(), cyclic(3)), 12),
])
def test_all_subgroup_sets_matches_oracle(G, count):
    mine = set(all_subgroup_sets(G))
    want = oracles.oracle_subgroups([g.images for g in G.generators])
    assert mine == want
    assert len(mine) == count


@pytest.mark.parametrize("make, subgroups, classes", [
    (lambda: alternating(5), 59, 9),
    (lambda: symmetric(5), 156, 19),
    (lambda: psl2(7), 179, 15),
    (lambda: alternating(6), 501, 22),
    (lambda: psl2(11), 620, 16),
    (lambda: psl2(13), 942, 16),
], ids=["A5", "S5", "PSL(2,7)", "A6", "PSL(2,11)", "PSL(2,13)"])
def test_subgroup_and_class_counts(make, subgroups, classes):
    G = make()
    table = subgroup_classes(G)
    assert len(table.subgroup_sets) == subgroups
    assert len(table) == classes
    assert sum(table.class_sizes) == subgroups
    assert all_subgroup_sets(G) == table.subgroup_sets


@pytest.mark.parametrize("make, base_length", [
    (lambda: cyclic(27), 1),
    (lambda: dihedral(4), 2),
    (lambda: psl2(11), 3),
    (lambda: symmetric(5), 4),
], ids=["C27", "D8", "PSL(2,11)", "S5"])
def test_indexed_products_from_base_images(make, base_length):
    # plain-chain bases of length 1 to 4: keys of one to four digits
    ix = _Indexed(make(), ORDER_BOUND)
    assert len(ix.base) == base_length
    elements = ix.elements
    for x, q in enumerate(elements):
        qi = _inv(q)
        column = ix.column(x)
        conjugation = ix.conjugation_by(x)
        for i, p in enumerate(elements):
            assert elements[column[i]] == _mul(p, q)
            assert elements[conjugation[i]] == _mul(_mul(qi, p), q)


# SHA-256 of _lattice's (subs, classes) and of subgroup_classes'
# class_sizes, depths, edges and sorted subgroup_sets, taken before
# products went through base images, M-orbits of cyclic subgroups and
# container bitsets.  Relabelling seed 0 keeps the points.
LATTICE_DIGESTS = {
    ("PSL(2,11)", 0): "7824793bf78c53dfc9d74213ef593d00"
                      "0cc88d68a0364b6b70d65bb4466179b7",
    ("PSL(2,11)", 1): "b5e873c428ae8c154fab5c887935e9b8"
                      "003348ea59562914029c46b1ea60254e",
    ("PSL(2,13)", 0): "2d80980be0ef123a6ba83c3a9b2ed7e5"
                      "0d9f2f4d6967fb21acf781dd23988935",
    ("PSL(2,13)", 1): "0f47a63283f12a6d87f0f0da957eb977"
                      "35fc19107ad1d678c739714a37b01026",
    ("S5", 0): "4c4d1a3ff94f9417015340f2d775f1ab"
               "9d164bbd13d9f9558e9cd4020b2fe4d9",
    ("S5", 1): "fd61781f772f7cfe0ae9c505d445091f"
               "b6703ee9d35e65cef84c1b14ece66898",
    ("A5", 0): "8dd9a32b5dd14d13526b320b8c3548f8"
               "8f49f665989d0a79d22443c360816128",
    ("A5", 1): "bf45d71154868442009988c3c845f117"
               "7a86b15f39a4e6ef4ef0c0879c234820",
    ("Q8xC3", 0): "45d7cc0bb4e3ff501c99e9718321b0e2"
                  "fdaba2e331c6591561da31549ca43a76",
    ("Q8xC3", 1): "ab458c9d598219aa13e6a860ab2e63c7"
                  "e6b2048732adf27a3c735dc5b417d5c8",
    ("D8", 0): "db0a339a5cd2b318b6a5ec79c07fdf04"
               "029facc7ce4bea88c0f8a90a5c3105b7",
    ("D8", 1): "a364314508a98c4aeb86ba3b817a387d"
               "2d9b71af5e8c6059133a83d8d293604e",
    ("C2^3", 0): "2c540ec4008412c0e89bf6200da454d4"
                 "d65cebd9f5aeb6d59f9cb22fb17d1cdb",
    ("C2^3", 1): "48300222748cf2ca94cf4382fc35d38a"
                 "2c22fbc2546d2291ba9b0d31c77b79aa",
}
LATTICE_GROUPS = {
    "PSL(2,11)": lambda: psl2(11),
    "PSL(2,13)": lambda: psl2(13),
    "S5": lambda: symmetric(5),
    "A5": lambda: alternating(5),
    "Q8xC3": lambda: direct_product(quaternion(), cyclic(3)),
    "D8": lambda: dihedral(4),
    "C2^3": lambda: elementary_abelian(2, 3),
}


@pytest.mark.parametrize("name, seed", sorted(LATTICE_DIGESTS))
def test_lattice_output_is_pinned(name, seed, monkeypatch):
    G = LATTICE_GROUPS[name]()
    if seed:
        G = relabelled(G, seed)
    # keep the lattice subgroup_classes builds, so each case builds one
    built = []

    def keep(*args):
        built.append(_lattice(*args))
        return built[-1]

    monkeypatch.setattr("twoclosure.subgroups._lattice", keep)
    table = subgroup_classes(G)
    [(_, subs, classes)] = built
    payload = repr((subs, classes, table.class_sizes, table.depths,
                    table.edges,
                    sorted(sorted(s) for s in table.subgroup_sets)))
    digest = hashlib.sha256(payload.encode()).hexdigest()
    assert digest == LATTICE_DIGESTS[name, seed]


def test_skipped_cyclic_generators_extend_alike():
    # Every x of an M-orbit gives ⟨M, x⟩ = ⟨M, first x of the orbit⟩, so
    # extending only the first loses no subgroup.
    G = symmetric(4)
    ix, subs, _ = _lattice(G, ORDER_BOUND)
    cyclic, listed = ix.cyclic_generators()
    skipped = 0
    for bits in subs:
        members = _members(bits)
        orbits = ix.cyclic_orbits(bits, members, cyclic, listed)
        assert sorted(x for orbit in orbits for x in orbit) == [
            x for x in cyclic if not bits >> x & 1]
        for first, *rest in orbits:
            want = ix.extend(members, members, first)
            for x in rest:
                assert ix.extend(members, members, x) == want
            skipped += len(rest)
        if bits == 1 << ix.identity:
            assert all(len(orbit) == 1 for orbit in orbits)
    assert skipped > 0


def test_all_subgroup_sets_budget():
    with pytest.raises(BudgetExceededError):
        all_subgroup_sets(symmetric(5), order_bound=100)


def test_generated_set_seed_changes_nothing():
    G = symmetric(4)
    sub = generated_set([(1, 0, 2, 3)], 4)
    x = (1, 2, 3, 0)
    gens = small_generating_set(sub, 4) + [x]
    assert generated_set(gens, 4, seed=sub) == generated_set(gens, 4)


def test_subgroup_classes_counts():
    assert len(subgroup_classes(cyclic(6))) == 4
    assert len(subgroup_classes(symmetric(3))) == 4
    assert len(subgroup_classes(quaternion())) == 6
    assert len(subgroup_classes(symmetric(4))) == 11


def test_quaternion_classes_all_normal():
    table = subgroup_classes(quaternion())
    assert sorted(table.orders) == [1, 2, 4, 4, 4, 8]
    assert all(size == 1 for size in table.class_sizes)


def test_class_sizes_sum_to_subgroup_count():
    for G, total in [(symmetric(4), 30), (quaternion(), 6),
                     (alternating(4), 10)]:
        table = subgroup_classes(G)
        assert sum(table.class_sizes) == total


def test_representatives_pairwise_nonconjugate_by_backtrack():
    for G in (symmetric(4), quaternion(), alternating(4)):
        table = subgroup_classes(G)
        reps = table.representatives
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert conjugating_element_for_subgroup(
                    G, reps[i], reps[j]) is None


def test_conjugate_subgroups_share_a_class():
    G = symmetric(4)
    table = subgroup_classes(G)
    g_elements = [g.images for g in G.elements()]

    def classes_of(sub):
        """The classes whose representative is conjugate to sub."""
        conjugates = {frozenset(oracles.compose(oracles.compose(
            oracles.inverse(g), h), g) for h in sub) for g in g_elements}
        return [i for i, rep in enumerate(table.representatives)
                if frozenset(h.images for h in rep.elements()) in conjugates]

    a = generated_set([(1, 0, 2, 3)], 4)
    b = generated_set([(0, 2, 1, 3)], 4)
    assert classes_of(a) == classes_of(b)
    assert len(classes_of(a)) == 1


def test_depths_of_sym4():
    table = subgroup_classes(symmetric(4))
    assert table.depths[table.full_class] == 0
    assert table.depths[table.orders.index(1)] == 3
    by_order = {}
    for i, rep in enumerate(table.representatives):
        by_order.setdefault(rep.order(), []).append(i)
    # the three maximal classes: A4 (order 12), D4 (8), S3 (6)
    for order in (12, 8, 6):
        (i,) = by_order[order]
        assert table.depths[i] == 1
    # both order-2 classes: a transposition sits below S3, a double
    # transposition needs three steps
    twos = sorted(table.depths[i] for i in by_order[2])
    assert twos == [2, 3]


def test_depth_respects_covering_edges():
    for G in (symmetric(4), cyclic(12), dihedral(6)):
        table = subgroup_classes(G)
        for i, j in table.edges:
            assert table.depths[i] <= table.depths[j] + 1
            assert table.orders[i] < table.orders[j]


def test_maximal_classes_have_depth_one():
    for G in (symmetric(4), alternating(5), quaternion()):
        table = subgroup_classes(G)
        full = table.full_class
        for i, j in table.edges:
            if j == full:
                assert table.depths[i] == 1


def decoded(G, bits):
    """The element set of a table bitset: bit k is the k-th element of G
    in sorted image-tuple order."""
    elements = sorted(g.images for g in G.elements())
    return {p for k, p in enumerate(elements) if bits >> k & 1}


def test_cores():
    G = symmetric(4)
    table = subgroup_classes(G)
    for i, rep in enumerate(table.representatives):
        assert decoded(G, table.member_bits[i]) == {
            h.images for h in rep.elements()}
        assert table.orders[i] == table.member_bits[i].bit_count()
        core = table.core_bits[i]
        assert not core & ~table.member_bits[i]
        if table.class_sizes[i] == 1:
            assert core == table.member_bits[i]
    by_order = {}
    for i, rep in enumerate(table.representatives):
        by_order.setdefault((rep.order(), table.class_sizes[i]), []).append(i)
    (d4,) = by_order[(8, 3)]
    assert table.core_bits[d4].bit_count() == 4
    (s3,) = by_order[(6, 4)]
    assert table.core_free(s3)


def test_core_matches_oracle():
    G = symmetric(4)
    g_elements = oracles.mulclose([g.images for g in G.generators])
    table = subgroup_classes(G)
    for i, rep in enumerate(table.representatives):
        h_elements = [h.images for h in rep.elements()]
        want = oracles.oracle_core(g_elements, h_elements)
        assert decoded(G, table.core_bits[i]) == want


def test_class_table_builds_no_chain_besides_the_groups(monkeypatch):
    # orders and cores are read off the lattice's bitsets, so the only
    # chain built is G's own, which indexes the elements
    G = psl2(11)
    build = StabilizerChain.build.__func__
    builds = []

    def counted(cls, *args, **kwargs):
        builds.append(args)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(StabilizerChain, "build", classmethod(counted))
    table = subgroup_classes(G)
    assert len(table) == 16
    assert len(builds) == 1


def test_edges_of_sym3():
    table = subgroup_classes(symmetric(3))
    assert table.orders == [1, 2, 3, 6]
    assert table.edges == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_partial_table_flag():
    table = subgroup_classes(symmetric(7), order_bound=2000)
    assert not table.complete
    assert len(table) == 2
    assert "partial" in repr(table)
    assert table.depths[table.full_class] == 0
    assert table.depths[table.orders.index(1)] is None


def test_is_normal_in():
    G = symmetric(4)
    subs = all_subgroup_sets(G)
    v4 = generated_set([(1, 0, 3, 2), (2, 3, 0, 1)], 4)
    full = generated_set([g.images for g in G.generators], 4)
    assert is_normal_in(v4, full, 4)
    pair = generated_set([(1, 0, 2, 3)], 4)
    assert not is_normal_in(pair, full, 4)
    assert v4 in subs and pair in subs


def test_maximal_normal_subgroup_sets():
    G = symmetric(4)
    subs = all_subgroup_sets(G)
    full = generated_set([g.images for g in G.generators], 4)
    maxima = maximal_normal_subgroup_sets(full, subs, 4)
    assert [len(m) for m in maxima] == [12]
    a4 = generated_set([(1, 2, 0, 3), (0, 2, 3, 1)], 4)
    maxima_a4 = maximal_normal_subgroup_sets(a4, subs, 4)
    assert [len(m) for m in maxima_a4] == [4]


def test_has_section_alt5_inside_alt6():
    subs6 = all_subgroup_sets(alternating(6), order_bound=2000)
    assert has_section(subs6, 60, subs6, 6)
    assert not has_section(subs6, 168, subs6, 6)


def test_has_section_negative_on_small_group():
    subs = all_subgroup_sets(symmetric(4))
    assert not has_section(subs, 60, subs, 4)


def test_has_section_refuses_ambiguous_order():
    # A8 and L3(4) both have order 20160, so an order match no longer
    # fixes the section; the test must refuse before enumerating.
    subs = all_subgroup_sets(symmetric(4))
    with pytest.raises(BudgetExceededError):
        has_section(subs, 20160, subs, 4)
