"""Orbital partitions checked against independent pair-orbit enumeration."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from twoclosure import PermGroup, Permutation
from twoclosure.constructions import (cyclic, dihedral, direct_product,
                                      elementary_abelian, gamma_l1_16,
                                      quaternion, symmetric)
from twoclosure.errors import DegreeMismatchError, NotTransitiveError
from twoclosure.closure import two_closure
from twoclosure.group import orbits_of
from twoclosure.orbital import OrbitalPartition, _suborbit_rows, block_row
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
    assert part.orbits == [[0, 1, 2], [3, 4, 5, 6]]
    assert part.color_of(0, 0) == part.color_of(2, 2)
    assert part.color_of(0, 0) != part.color_of(3, 3)


def test_higman_c4_imprimitive():
    # the antipodal orbital graph of C4 is a perfect matching, so it is
    # disconnected and, by Higman's criterion, C4 is imprimitive
    G = cyclic(4)
    part = OrbitalPartition(G)
    antipodal = part.color_of(0, 2)
    assert [b for b, c in enumerate(part.row(1)) if c == antipodal] == [3]


def test_gamma_l1_16_shape():
    G = gamma_l1_16()
    assert G.order() == 60
    assert G.is_transitive()
    part = OrbitalPartition(G)
    assert part.subdegrees == [1, 2, 4, 4, 4]


@pytest.mark.parametrize("build", [
    lambda: dihedral(9),
    lambda: direct_product(cyclic(3), dihedral(4)),
    # the orbits {0, 2, 4} and {1, 3} interleave, so the scan opens
    # colors of both orbits' rows in turn
    lambda: PermGroup(5, [Permutation.from_cycles(5, [(0, 2, 4), (1, 3)])]),
], ids=["D9", "C3 x D8", "interleaved orbits"])
def test_compressed_mode_matches_the_pair_orbit_oracle(build):
    G = build()
    n = G.degree
    want = oracles.oracle_pair_orbits([g.images for g in G.generators], n)
    # the oracle numbers colors in scan order too: a color's least pair
    # is the one that opened it
    reps = {}
    for pair in sorted(want):
        reps.setdefault(want[pair], pair)
    part = OrbitalPartition(G)
    assert part.rank == len(reps)
    assert part.pair_reps == [reps[c] for c in range(len(reps))]
    assert part.paired == [want[b, a] for a, b in part.pair_reps]
    for a in range(n):
        assert list(part.row(a)) == [want[a, b] for b in range(n)]
    sizes = Counter(want[0, b] for b in range(n))
    assert part.subdegrees == (
        sorted(sizes.values()) if G.is_transitive() else None)
    assert part.orbits == G.orbits()


def test_compressed_rows_down_a_deep_tree_through_a_small_cache(
        monkeypatch):
    import twoclosure.orbital as orbital_mod
    monkeypatch.setattr(orbital_mod, "ROW_CACHE", 2)
    n = 1500
    # one n-cycle: the Schreier tree is a path, and point n - 1 lies n - 1
    # steps below the root, deeper than Python's recursion limit
    part = OrbitalPartition(cyclic(n))
    for a in [n - 1, 1, 750, n - 2, 0, n - 1]:
        # in a regular cyclic group the color of (a, b) is b - a
        assert list(part.row(a)) == [(b - a) % n for b in range(n)]
        assert len(part._rows) <= 2
    assert part.color_of(n - 1, 0) == 1
    assert [b for b, c in enumerate(part.row(n - 1)) if c == 1] == [0]


def assert_same_partition(got, want):
    assert got.rank == want.rank
    assert got.pair_reps == want.pair_reps
    assert got.paired == want.paired
    assert got.subdegrees == want.subdegrees
    assert got.orbits == want.orbits
    for a in range(want.degree):
        assert list(got.row(a)) == list(want.row(a))
    for a, b in [(0, want.degree - 1), (want.degree - 1, 0)]:
        assert got.color_of(a, b) == want.color_of(a, b)


SWEPT = {
    "C2xC4": lambda: direct_product(cyclic(2), cyclic(4)),
    "D8": lambda: dihedral(4),
    "C3^2": lambda: elementary_abelian(3, 2),
    "Q8xC3": lambda: direct_product(quaternion(), cyclic(3)),
}


@pytest.mark.parametrize("name", sorted(SWEPT))
def test_block_partition_matches_the_scan_on_every_sweep_action(
        chain_builds, name):
    G = SWEPT[name]()
    table = subgroup_classes(G)
    cache = _ClassData(G, table)
    # the multi-orbit sweep's actions, then every transitive one, faithful
    # or not, as the 2-transitive scan and the transitive sweep take them
    subsets = [s for _, s in _faithful_subsets(G, table)]
    subsets += [(i,) for i in table.proper_classes()]
    for subset in subsets:
        image = assemble_action(G, table, subset, cache)
        chain_builds.clear()
        part = cache.partition(image, subset)
        # base rows from block rows: no point stabilizer, so no chain
        assert chain_builds == []
        assert_same_partition(part, OrbitalPartition(image))
        # the order the group is told is the order of its chain
        assert cache.image_order(subset) == image.chain.order()


@pytest.mark.parametrize("name", ["D8", "Q8xC3"])
def test_block_pair_data_read_late_matches_the_scan(name):
    # the sweep reads rows and row ranks only; pair data read afterwards
    # is still the scan's
    G = SWEPT[name]()
    table = subgroup_classes(G)
    cache = _ClassData(G, table)
    for _, subset in _faithful_subsets(G, table):
        image = assemble_action(G, table, subset, cache)
        part = cache.partition(image, subset)
        scan = OrbitalPartition(image)
        two_closure(image, partition=part)
        for a in range(part.degree):
            assert list(part.row(a)) == list(scan.row(a))
        assert part.row_ranks() == scan.row_ranks()
        assert part.pair_reps == scan.pair_reps
        assert part.paired == scan.paired


@pytest.mark.parametrize("given", [True, False])
@pytest.mark.parametrize("build", [
    lambda: direct_product(cyclic(3), dihedral(4)),
    lambda: symmetric(4),
    lambda: PermGroup(6, [Permutation([1, 2, 3, 0, 5, 4])]),
], ids=["C3 x D8", "S4", "C4 on 4 + 2 points"])
def test_row_ranks_count_the_colors_in_a_row_of_each_orbit(chain_builds,
                                                           build, given):
    # given base rows come from the pair-orbit oracle, which numbers
    # colors in scan order; otherwise the partition colors them by point
    # stabilizers.  Either way row_ranks must count the colors of a row
    G = build()
    n = G.degree
    want = oracles.oracle_pair_orbits([g.images for g in G.generators], n)
    rows = [[want[orb[0], b] for b in range(n)] for orb in G.orbits()]
    chain_builds.clear()
    part = OrbitalPartition(G, base_rows=rows if given else None)
    assert (chain_builds == []) == given
    ranks = [len(set(part.row(orb[0]))) for orb in G.orbits()]
    assert part.row_ranks() == ranks
    assert ranks == OrbitalPartition(G).row_ranks()


@pytest.mark.parametrize("build", [
    lambda: direct_product(cyclic(3), dihedral(4)),
    lambda: symmetric(4),
    lambda: PermGroup(6, [Permutation([1, 2, 3, 0, 5, 4])]),
], ids=["C3 x D8", "S4", "C4 on 4 + 2 points"])
def test_partition_inverts_generators_only_to_build_rows(monkeypatch,
                                                         build):
    G = build()
    reps = [orb[0] for orb in G.orbits()]
    rows = [OrbitalPartition(G).row(r) for r in reps]
    inverted = []
    inverse = Permutation.inverse

    def counted(self):
        inverted.append(self)
        return inverse(self)

    monkeypatch.setattr(Permutation, "inverse", counted)
    # the point stabilizers' chains are held from the first partition
    for base_rows in (None, rows):
        part = OrbitalPartition(G, base_rows=base_rows)
        assert part.rank == sum(part.row_ranks())
        assert [part.row(r) for r in reps] == rows
        assert inverted == []
    # a row off the base rows inverts each generator, once
    for a in range(G.degree):
        part.row(a)
    assert inverted == G.generators


@given(perm_lists, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_edge_check_holds_exactly_on_the_stabilizer_orbits(case, rnd):
    # base rows colored by the orbits of subgroups K_r of the point
    # stabilizers G_r, each generated by up to two random elements of
    # G_r: the non-tree edges agree exactly when every K_r has G_r's orbits
    n, imgs = case
    G = PermGroup(n, [Permutation(tuple(i)) for i in imgs])
    stabilizers, same = [], True
    for orbit in G.orbits():
        stab = G.point_stabilizer(orbit[0])
        elements = list(stab.elements())
        gens = [rnd.choice(elements) for _ in range(rnd.randrange(3))]
        stabilizers.append(gens)
        same = same and orbits_of(gens, n) == orbits_of(stab.generators, n)
    part = OrbitalPartition(G, _suborbit_rows(n, stabilizers))
    assert part._edges_agree() == same


def test_edge_check_reads_no_row(monkeypatch):
    # the check builds and drops its own rows: neither row nor its cache
    # sees them
    from test_group import _j1
    G = _j1()
    part = OrbitalPartition(G)

    def unread(self, a):
        raise AssertionError("the check read a row")

    monkeypatch.setattr(OrbitalPartition, "row", unread)
    assert part._edges_agree()
    assert not part._rows


def test_base_rows_must_be_one_per_orbit_of_the_degree():
    G = direct_product(cyclic(3), cyclic(4))
    rows = [OrbitalPartition(G).row(r) for r in (0, 3)]
    # the regular C3 and C4 give 3 and 4 colors, and each side 1
    assert OrbitalPartition(G, base_rows=rows).rank == 3 + 1 + 1 + 4
    with pytest.raises(DegreeMismatchError):
        OrbitalPartition(G, base_rows=rows[:1])
    with pytest.raises(DegreeMismatchError):
        OrbitalPartition(G, base_rows=rows + rows[:1])
    with pytest.raises(DegreeMismatchError):
        OrbitalPartition(G, base_rows=[rows[0], rows[1][:-1]])


def test_block_partition_with_a_repeated_class():
    G = dihedral(4)
    table = subgroup_classes(G)
    cache = _ClassData(G, table)
    cls = min(table.proper_classes(), key=lambda i: table.orders[i])
    other = max(table.proper_classes(), key=lambda i: table.orders[i])
    classes = (other, cls, other)
    image = assemble_action(G, table, classes, cache)
    assert_same_partition(cache.partition(image, classes),
                          OrbitalPartition(image))


def test_actions_above_the_block_limit_get_the_compressed_partition(
        monkeypatch):
    import twoclosure.totality as totality_mod
    G = dihedral(4)
    table = subgroup_classes(G)
    cache = _ClassData(G, table)
    classes = table.proper_classes()[:2]
    image = assemble_action(G, table, classes, cache)
    below = two_closure(image, partition=cache.partition(image, classes))
    monkeypatch.setattr(totality_mod, "BLOCK_LIMIT", image.degree - 1)
    assert cache.partition(image, classes) is None
    above = two_closure(image, partition=None)
    assert (above.closure.order(), above.method, above.certified,
            above.nodes) == (below.closure.order(), below.method,
                             below.certified, below.nodes)
    assert above.closure.equals(below.closure)


def test_block_needs_a_transitive_first_action():
    swap = Permutation([1, 0, 2])
    with pytest.raises(NotTransitiveError):
        block_row([swap], [swap])
