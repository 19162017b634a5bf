"""Subgroup enumeration and the conjugacy class table, against brute force."""

import gc
import hashlib
import weakref

import pytest

import oracles
from test_j1 import relabelled
from twoclosure.backtrack import conjugating_element_for_subgroup
from twoclosure.constructions import (alternating, cyclic, dihedral,
                                      direct_product, elementary_abelian,
                                      psl2, quaternion, symmetric)
from twoclosure.errors import BudgetExceededError
from twoclosure.group import StabilizerChain
from twoclosure.perm import gather
from twoclosure.subgroups import (ORDER_BOUND, _Indexed, _inv, _lattice,
                                  all_subgroup_sets, generated_set,
                                  has_section, is_normal_in,
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


@pytest.mark.parametrize("make, orbits", [
    (lambda: cyclic(27), [27]),
    (lambda: dihedral(4), [4, 2]),
    (lambda: psl2(11), [12, 11, 5]),
    (lambda: symmetric(5), [5, 4, 3, 2]),
    (lambda: psl2(13), [14, 13, 6]),
    (lambda: relabelled(psl2(11), 1), [12, 11, 5]),
], ids=["C27", "D8", "PSL(2,11)", "S5", "PSL(2,13)", "PSL(2,11) seed 1"])
def test_indexed_products_from_base_images(make, orbits):
    # bases of G.chain of length 1 to 4: keys of one to four digits, and
    # maps composed along the transversals of up to four levels
    ix = _Indexed(make(), ORDER_BOUND)
    assert [len(lvl.orbit) for lvl in ix.levels] == orbits
    elements = ix.elements
    for x, q in enumerate(elements):
        # p·q sends a to q[p[a]], so its image tuple gathers q at p
        qi = _inv(q)
        assert gather(elements, ix.column(x)) == tuple(
            gather(q, p) for p in elements)
        assert gather(elements, ix.conjugation_by(x)) == tuple(
            gather(q, gather(p, qi)) for p in elements)
    # maps are read off base images only for generators labelling tree
    # edges, at most one per edge (25 for PSL(2,11)); the transversals and
    # the rest are composed
    edges = sum(orbits) - len(orbits)
    generators = {g.images for lvl in ix.levels for g in lvl.gens}
    for kind in ("column", "conjugation"):
        keyed = [key for key in ix._keyed if key[0] == kind]
        assert len(keyed) <= min(edges, len(generators))


def test_lattice_leaves_no_reference_cycle():
    # a cache keyed by bound methods would tie the index to itself, and
    # only the cycle collector would free its |G|-entry maps
    gc.disable()
    try:
        built = _lattice(psl2(11), ORDER_BOUND)
        ref = weakref.ref(built[0])
        del built
        assert ref() is None
    finally:
        gc.enable()


EXTEND_GROUPS = {
    "C27": lambda: cyclic(27),
    "D8": lambda: dihedral(4),
    "S4": lambda: symmetric(4),
    "Q8xC3": lambda: direct_product(quaternion(), cyclic(3)),
    "PSL(2,11)": lambda: psl2(11),
}


@pytest.mark.parametrize("name", sorted(EXTEND_GROUPS))
def test_extend_matches_brute_force_closure(name):
    # ⟨M, x⟩ closed coset by coset against a closure of image tuples, for
    # every class representative M and every listed cyclic generator x
    # outside it.  The x of one M-orbit all give ⟨M, x⟩ = ⟨M, x^m⟩ for
    # m in M, so one closure per orbit serves its whole orbit.
    G = EXTEND_GROUPS[name]()
    ix, _, classes, members_of, gens_of = _lattice(G, ORDER_BOUND)
    cyclic_gens, listed = ix.cyclic_generators()
    closures = whole = 0
    for bits, *_ in classes:
        members, gens = members_of[bits], gens_of[bits]
        for orbit in ix.cyclic_orbits(bits, gens, cyclic_gens, listed):
            want = sorted(generated_set(
                [ix.elements[y] for y in gens + orbit[:1]], G.degree))
            for x in orbit:
                got = ix.extend(members, gens, x)
                assert [ix.elements[y] for y in got] == want
                closures += 1
                whole += len(got) == len(ix.elements)
    # some closures stop early, at more than any proper subgroup holds
    assert 0 < whole < closures


# SHA-256 of _lattice's (subs, classes) and of subgroup_classes'
# class_sizes and sorted subgroup_sets.  A one-off script computed them
# with this payload on the code as it stood before the class table
# stopped building the containment lattice; the code after gives the same
# digests.  Relabelling seed 0 keeps the points.
LATTICE_DIGESTS = {
    ("PSL(2,11)", 0): "efcbfc152d88aa82e1a0a1f5b0d424ed"
                      "c271b79c81cc8e2d15267bc31b804993",
    ("PSL(2,11)", 1): "496071e125ca732d2bbdd3d8988c3bb0"
                      "be9e4c1f9ffa8f76c666e57e03a87dfd",
    ("PSL(2,13)", 0): "78f4c93ea651fd131b8b31be216301f6"
                      "e85522fb354e77b96aa23bdebfac889d",
    ("PSL(2,13)", 1): "09bef30257af76e447fda96468208e87"
                      "c351efbccb1937052b4408deeb2dcfd0",
    ("S5", 0): "cf1932df174d4c095488d56c35c5cff3"
               "4e536645c9104b510e48339057085a0f",
    ("S5", 1): "cd248cdc6eea68e0d2139a162f500c04"
               "a74eae55c5f20b8cea20ffa2ab3f045c",
    ("A5", 0): "154a2fd202b621b5741aa4866a6a2df1"
               "90dbe24238f2c72493f758e3991293a9",
    ("A5", 1): "5b1d0c34fc4782776b4167fa6effdfa1"
               "7c054b9cc5015d874605be57684bc4c4",
    ("Q8xC3", 0): "82ae30bb0f7e15302ac270da5bc5781f"
                  "dfc001f074c0d654b7ae3f99fbfb9d42",
    ("Q8xC3", 1): "5fa5036b558855457b1bfedc0eecb2de"
                  "80340d4b4a77f4c99fefddb8ce86ae45",
    ("D8", 0): "04bab7a8c2c8ec9f60b47261037ebcfd"
               "0e94fbf7d39d45a4430fcc5d04f5786e",
    ("D8", 1): "23dc48377443850b836414d72b6acc47"
               "fd9c2fa96e51107aaf289a261fc0d918",
    ("C2^3", 0): "f3e0e9c699fbb152eb59766b118d2212"
                 "d25888e6939330f1aff914d54d1f5236",
    ("C2^3", 1): "4e49abb89f14d178e314508f7b8ea235"
                 "1db7de4b88347d12c56d8645f0977e38",
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
    [(_, subs, classes, _, _)] = built
    payload = repr((subs, classes, table.class_sizes,
                    sorted(sorted(s) for s in table.subgroup_sets)))
    digest = hashlib.sha256(payload.encode()).hexdigest()
    assert digest == LATTICE_DIGESTS[name, seed]


def test_skipped_cyclic_generators_extend_alike():
    # Every x of an M-orbit gives ⟨M, x⟩ = ⟨M, first x of the orbit⟩, so
    # extending only the first loses no subgroup.
    G = symmetric(4)
    ix, subs, _, members_of, _ = _lattice(G, ORDER_BOUND)
    cyclic, listed = ix.cyclic_generators()
    skipped = 0
    for bits in subs:
        members = members_of[bits]
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


def test_class_table_keeps_the_lattice_generators(monkeypatch):
    # each representative is generated by the elements the lattice
    # extended or conjugated it by, so no element set is closed again
    def refuse(*args, **kwargs):
        raise AssertionError("generated_set called")

    monkeypatch.setattr("twoclosure.subgroups.generated_set", refuse)
    G = psl2(11)
    table = subgroup_classes(G)
    for i, rep in enumerate(table.representatives):
        assert rep.order() == table.orders[i]
        assert {h.images for h in rep.elements()} == \
            decoded(G, table.member_bits[i])


def test_partial_table_flag():
    table = subgroup_classes(symmetric(7), order_bound=2000)
    assert not table.complete
    assert len(table) == 2
    assert "partial" in repr(table)


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
