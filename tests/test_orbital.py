"""Orbital partitions checked against independent pair-orbit enumeration."""

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from twoclosure import PermGroup, Permutation
from twoclosure.constructions import (cyclic, dihedral, direct_product,
                                      elementary_abelian, frobenius20,
                                      gamma_l1_16, quaternion, symmetric)
from twoclosure.errors import NotTransitiveError
from twoclosure.closure import two_closure
from twoclosure.orbital import (OrbitalBlock, OrbitalPartition,
                                higman_primitive)
from twoclosure.subgroups import subgroup_classes
from twoclosure.totality import _ClassData, _faithful_subsets, assemble_action


perm_lists = st.integers(min_value=4, max_value=7).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=2)
    .map(lambda imgs: (n, imgs)))


@given(perm_lists)
@settings(max_examples=60, deadline=None)
def test_partition_matches_pair_orbit_oracle(case):
    n, imgs = case
    G = PermGroup(n, [Permutation(tuple(i)) for i in imgs])
    part = OrbitalPartition(G)
    want = oracles.oracle_pair_orbits([g.images for g in G.generators], n)
    # same partition: equal pairs of pairs get equal colors, both ways
    by_color = {}
    for (a, b), cell in want.items():
        got = part.color_of(a, b)
        by_color.setdefault(got, set()).add(cell)
        by_color.setdefault(("cell", cell), set()).add(got)
    for key, vals in by_color.items():
        assert len(vals) == 1
    assert part.rank == len({cell for cell in want.values()})


@given(perm_lists)
@settings(max_examples=30, deadline=None)
def test_paired_is_involution_and_rows_consistent(case):
    n, imgs = case
    G = PermGroup(n, [Permutation(tuple(i)) for i in imgs])
    part = OrbitalPartition(G)
    for c in range(part.rank):
        assert part.paired[part.paired[c]] == c
    for a in range(n):
        row = part.row(a)
        for b in range(n):
            assert row[b] == part.color_of(a, b)
            assert part.color_of(b, a) == part.paired[row[b]]


def test_symmetric_rank_two():
    part = OrbitalPartition(symmetric(5))
    assert part.rank == 2
    assert part.subdegrees == [1, 4]


def test_regular_rank_equals_degree():
    part = OrbitalPartition(cyclic(6))
    assert part.rank == 6
    assert part.subdegrees == [1] * 6


def test_subdegrees_independent_of_base_point():
    G = dihedral(6)
    part = OrbitalPartition(G)
    n = G.degree
    for a in range(1, n):
        sizes = {}
        row = part.row(a)
        for b in range(n):
            sizes[row[b]] = sizes.get(row[b], 0) + 1
        assert sorted(sizes.values()) == part.subdegrees


def test_self_paired_flags():
    # C5 on a directed 5-cycle: the two orientations are paired, not
    # self-paired.
    part = OrbitalPartition(cyclic(5))
    forward = part.color_of(0, 1)
    backward = part.color_of(1, 0)
    assert forward != backward
    assert part.paired[forward] == backward
    assert part.paired[forward] != forward
    diag = part.color_of(0, 0)
    assert part.paired[diag] == diag


def test_intransitive_diagonal_colors_split_orbits():
    G = direct_product(cyclic(3), cyclic(4))
    part = OrbitalPartition(G)
    assert part.subdegrees is None
    assert part.diagonal_color(0) == part.diagonal_color(2)
    assert part.diagonal_color(0) != part.diagonal_color(3)


def test_higman_symmetric_primitive():
    assert higman_primitive(symmetric(4))


def test_higman_c4_imprimitive():
    G = cyclic(4)
    assert not higman_primitive(G)
    part = OrbitalPartition(G)
    antipodal = part.color_of(0, 2)
    assert part.neighbors(1, antipodal) == [3]


def test_higman_gamma_l1_16_imprimitive():
    assert not higman_primitive(gamma_l1_16())


def test_higman_f20_primitive():
    assert higman_primitive(frobenius20())


def test_higman_rejects_intransitive():
    with pytest.raises(NotTransitiveError):
        higman_primitive(direct_product(cyclic(2), cyclic(2)))


def test_gamma_l1_16_shape():
    G = gamma_l1_16()
    assert G.order() == 60
    assert G.is_transitive()
    part = OrbitalPartition(G)
    assert part.subdegrees == [1, 2, 4, 4, 4]


def test_compressed_mode_matches_dense():
    import twoclosure.orbital as orbital_mod
    G = dihedral(9)
    dense = OrbitalPartition(G)
    old = orbital_mod.DENSE_LIMIT
    orbital_mod.DENSE_LIMIT = 1
    try:
        compressed = OrbitalPartition(G)
    finally:
        orbital_mod.DENSE_LIMIT = old
    assert not compressed.dense
    assert compressed.rank == dense.rank
    assert compressed.paired == dense.paired
    assert compressed.pair_reps == dense.pair_reps
    for a in range(G.degree):
        assert list(compressed.row(a)) == list(dense.row(a))
    for c in range(dense.rank):
        for a in range(G.degree):
            assert (compressed.neighbors(a, c) ==
                    sorted(dense.neighbors(a, c)))


def test_compressed_mode_matches_dense_intransitive():
    import twoclosure.orbital as orbital_mod
    G = direct_product(cyclic(3), dihedral(4))
    dense = OrbitalPartition(G)
    old = orbital_mod.DENSE_LIMIT
    orbital_mod.DENSE_LIMIT = 1
    try:
        compressed = OrbitalPartition(G)
    finally:
        orbital_mod.DENSE_LIMIT = old
    assert compressed.rank == dense.rank
    assert compressed.pair_reps == dense.pair_reps
    for a in range(G.degree):
        assert list(compressed.row(a)) == list(dense.row(a))


def assert_same_partition(got, want):
    assert got.rank == want.rank
    assert got.pair_reps == want.pair_reps
    assert got.paired == want.paired
    assert got.subdegrees == want.subdegrees
    for a in range(want.degree):
        assert list(got.row(a)) == list(want.row(a))
        assert got.diagonal_color(a) == want.diagonal_color(a)
    for a, b in [(0, want.degree - 1), (want.degree - 1, 0)]:
        assert got.color_of(a, b) == want.color_of(a, b)
    for c in range(want.rank):
        assert got.neighbors(0, c) == want.neighbors(0, c)


SWEPT = {
    "C2xC4": lambda: direct_product(cyclic(2), cyclic(4)),
    "D8": lambda: dihedral(4),
    "C3^2": lambda: elementary_abelian(3, 2),
    "Q8xC3": lambda: direct_product(quaternion(), cyclic(3)),
}


@pytest.mark.parametrize("name", sorted(SWEPT))
def test_block_partition_matches_the_scan_on_every_sweep_action(name):
    G = SWEPT[name]()
    table = subgroup_classes(G)
    cache = _ClassData(G, table)
    # the multi-orbit sweep's actions, then every transitive one, faithful
    # or not, as the 2-transitive scan and the transitive sweep take them
    subsets = [s for _, s in _faithful_subsets(G, table)]
    subsets += [(i,) for i in table.proper_classes()]
    for subset in subsets:
        assembled = assemble_action(G, table, subset, cache)
        part = cache.partition(assembled)
        assert part._blocks is not None
        assert_same_partition(part, OrbitalPartition(assembled.group))
        # the order the group is told is the order of its plain chain
        assert cache.image_order(subset) == assembled.group.chain.order()


@pytest.mark.parametrize("name", ["D8", "Q8xC3"])
def test_block_pair_data_read_late_matches_the_scan(name):
    # the sweep reads rows and row ranks only; pair data read afterwards
    # is still the scan's
    G = SWEPT[name]()
    table = subgroup_classes(G)
    cache = _ClassData(G, table)
    for _, subset in _faithful_subsets(G, table):
        assembled = assemble_action(G, table, subset, cache)
        part = cache.partition(assembled)
        scan = OrbitalPartition(assembled.group)
        two_closure(assembled.group, partition=part)
        for a in range(part.degree):
            assert list(part.row(a)) == list(scan.row(a))
        assert part.row_ranks() == scan.row_ranks()
        assert part.pair_reps == scan.pair_reps
        assert part.paired == scan.paired


@pytest.mark.parametrize("dense", [True, False])
@pytest.mark.parametrize("build", [
    lambda: direct_product(cyclic(3), dihedral(4)),
    lambda: symmetric(4),
    lambda: PermGroup(6, [Permutation([1, 2, 3, 0, 5, 4])]),
], ids=["C3 x D8", "S4", "C4 on 4 + 2 points"])
def test_row_ranks_count_the_colors_in_a_row_of_each_orbit(build, dense,
                                                           monkeypatch):
    import twoclosure.orbital as orbital_mod
    G = build()
    if not dense:
        monkeypatch.setattr(orbital_mod, "DENSE_LIMIT", 1)
    part = OrbitalPartition(G)
    assert part.dense == dense
    want = [len(set(part.row(orb[0]))) for orb in G.orbits()]
    assert part.row_ranks() == want


def test_block_partition_with_a_repeated_class():
    G = dihedral(4)
    table = subgroup_classes(G)
    cache = _ClassData(G, table)
    cls = min(table.proper_classes(), key=lambda i: table.orders[i])
    other = max(table.proper_classes(), key=lambda i: table.orders[i])
    assembled = assemble_action(G, table, (other, cls, other), cache)
    assert_same_partition(cache.partition(assembled),
                          OrbitalPartition(assembled.group))


def test_blocks_are_not_read_above_the_dense_limit(monkeypatch):
    import twoclosure.orbital as orbital_mod
    G = dihedral(4)
    table = subgroup_classes(G)
    cache = _ClassData(G, table)
    assembled = assemble_action(G, table, tuple(table.proper_classes()[:2]),
                                cache)
    dense = OrbitalPartition(assembled.group)
    monkeypatch.setattr(orbital_mod, "DENSE_LIMIT", 1)
    blocks = [[OrbitalBlock(cache.action(i).image_gens,
                            cache.action(j).image_gens)
               for j in assembled.classes] for i in assembled.classes]
    compressed = OrbitalPartition(assembled.group, blocks=blocks)
    assert not compressed.dense and compressed._blocks is None
    assert_same_partition(compressed, dense)


def test_block_needs_a_transitive_first_action():
    swap = Permutation([1, 0, 2])
    with pytest.raises(NotTransitiveError):
        OrbitalBlock([swap], [swap])
