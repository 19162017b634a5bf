"""Backtrack searches checked against brute-force enumeration."""

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from twoclosure import PermGroup, Permutation
from twoclosure.backtrack import (conjugating_element,
                                  conjugating_element_for_subgroup,
                                  find_element, subgroup_search)
from twoclosure.errors import BudgetExceededError


def sym(n):
    gens = [Permutation.from_cycles(n, [tuple(range(n))]),
            Permutation.from_cycles(n, [(0, 1)])]
    return PermGroup(n, gens)


def alt(n):
    gens = [Permutation.from_cycles(n, [(i, i + 1, i + 2)])
            for i in range(n - 2)]
    return PermGroup(n, gens)


def random_subgroup(rng_images, n):
    gens = [Permutation(img) for img in rng_images]
    return PermGroup(n, gens)


def brute_elements(G):
    gens = [g.images for g in G.generators]
    if not gens:
        return {tuple(range(G.degree))}
    return oracles.mulclose(gens)


perm_lists = st.integers(min_value=5, max_value=7).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=2)
    .map(lambda imgs: (n, imgs)))


def test_conjugating_element_found_and_correct():
    G = sym(7)
    x = Permutation.from_cycles(7, [(0, 1, 2), (3, 4)])
    y = Permutation.from_cycles(7, [(2, 5, 6), (0, 3)])
    g = conjugating_element(G, x, y)
    assert g is not None
    assert g.inverse() * x * g == y


def test_conjugating_element_respects_group():
    # (0 1) and (0 2) are conjugate in S4 but not inside <(0 1),(2 3)>.
    n = 4
    H = PermGroup(n, [Permutation.from_cycles(n, [(0, 1)]),
                      Permutation.from_cycles(n, [(2, 3)])])
    x = Permutation.from_cycles(n, [(0, 1)])
    y = Permutation.from_cycles(n, [(0, 2)])
    assert conjugating_element(H, x, y) is None
    assert conjugating_element(sym(n), x, y) is not None


def test_conjugating_element_cycle_type_shortcut():
    G = sym(5)
    x = Permutation.from_cycles(5, [(0, 1, 2)])
    y = Permutation.from_cycles(5, [(0, 1), (2, 3)])
    assert conjugating_element(G, x, y) is None


def test_subgroup_conjugacy_in_s4():
    n = 4
    G = sym(n)
    H1 = PermGroup(n, [Permutation.from_cycles(n, [(0, 1)])])
    H2 = PermGroup(n, [Permutation.from_cycles(n, [(2, 3)])])
    g = conjugating_element_for_subgroup(G, H1, H2)
    assert g is not None
    assert H1.conjugate_by(g).equals(H2)


def test_subgroup_conjugacy_distinguishes_classes():
    # In S4 the two classes of order-2 subgroups (transposition vs double
    # transposition) are not conjugate.
    n = 4
    G = sym(n)
    H1 = PermGroup(n, [Permutation.from_cycles(n, [(0, 1)])])
    H2 = PermGroup(n, [Permutation.from_cycles(n, [(0, 1), (2, 3)])])
    assert conjugating_element_for_subgroup(G, H1, H2) is None


def test_subgroup_conjugacy_klein_vs_cyclic():
    n = 4
    G = sym(n)
    v4 = PermGroup(n, [Permutation.from_cycles(n, [(0, 1), (2, 3)]),
                       Permutation.from_cycles(n, [(0, 2), (1, 3)])])
    c4 = PermGroup(n, [Permutation.from_cycles(n, [(0, 1, 2, 3)])])
    assert v4.order() == c4.order() == 4
    assert conjugating_element_for_subgroup(G, v4, c4) is None


def test_find_element_exhausts_to_none():
    G = alt(4)
    got = find_element(G, lambda g: g.cycle_type() == [1, 1, 2])
    assert got is None


def test_find_element_budget_raises():
    G = sym(8)
    with pytest.raises(BudgetExceededError):
        find_element(G, lambda g: False, node_budget=50)


def test_subgroup_search_reports_incomplete_on_budget():
    G = sym(8)
    result = subgroup_search(G, lambda g: g.is_identity, node_budget=50)
    assert not result.complete


def test_subgroup_search_collects_even_elements():
    G = sym(6)
    result = subgroup_search(
        G, lambda g: sum(l - 1 for l in map(len, g.cycles())) % 2 == 0)
    assert result.complete
    assert result.group.order() == 360


def brute_conjugate_exists(G, x, y):
    for e in brute_elements(G):
        g = Permutation(e)
        if g.inverse() * x * g == y:
            return True
    return False


@given(perm_lists, st.data())
@settings(max_examples=30, deadline=None)
def test_conjugating_element_matches_brute(case, data):
    n, imgs = case
    G = random_subgroup([tuple(i) for i in imgs], n)
    x = Permutation(data.draw(st.permutations(range(n))))
    y = Permutation(data.draw(st.permutations(range(n))))
    got = conjugating_element(G, x, y)
    if got is None:
        assert not brute_conjugate_exists(G, x, y)
    else:
        assert G.contains(got)
        assert got.inverse() * x * got == y
