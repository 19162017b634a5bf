import pytest
from hypothesis import given, strategies as st

from twoclosure.perm import Permutation
from twoclosure.errors import (DegreeMismatchError, MalformedPermutationError,
                               ParseError)


def random_perm(draw, n):
    images = draw(st.permutations(range(n)))
    return Permutation(images)


perms = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.permutations(range(n)).map(Permutation))

pairs = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(st.permutations(range(n)).map(Permutation),
                        st.permutations(range(n)).map(Permutation)))

triples = st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.tuples(*([st.permutations(range(n)).map(Permutation)] * 3)))


def test_identity():
    e = Permutation.identity(4)
    assert e.is_identity
    assert e.cycle_string() == "()"
    assert e.order() == 1


def test_is_identity_at_every_degree():
    for n in range(7):
        assert Permutation.identity(n).is_identity
        for a in range(n - 1):
            assert not Permutation.from_cycles(n, [(a, n - 1)]).is_identity


def test_rejects_non_bijection():
    with pytest.raises(MalformedPermutationError):
        Permutation([0, 0, 1])
    with pytest.raises(MalformedPermutationError):
        Permutation([0, 3])


@given(pairs)
def test_products_and_inverses_equal_checked_construction(pq):
    # Products, inverses and powers skip the bijection check; they must
    # still be indistinguishable from a checked permutation.
    p, q = pq
    for got in (p * q, p.inverse(), p ** 3, p ** -2, p ** 0):
        checked = Permutation(list(got.images))
        assert type(got) is Permutation
        assert type(got.images) is tuple
        assert got == checked and checked == got
        assert hash(got) == hash(checked)
        assert {got: 1}[checked] == 1
    with pytest.raises(MalformedPermutationError):
        Permutation((0, 0))


def test_composition_order():
    # (p * q) applies p first: 0 ->p 1 ->q 2
    p = Permutation.parse(3, "(1 2)")
    q = Permutation.parse(3, "(2 3)")
    assert (p * q)(0) == 2
    assert (q * p)(0) == 1


def test_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        Permutation.identity(3) * Permutation.identity(4)


@given(triples)
def test_associativity(ps):
    a, b, c = ps
    assert (a * b) * c == a * (b * c)


@given(perms)
def test_inverse(p):
    n = p.degree
    assert p * p.inverse() == Permutation.identity(n)
    assert p.inverse() * p == Permutation.identity(n)


@given(perms)
def test_order_annihilates(p):
    k = p.order()
    assert (p ** k).is_identity
    for d in range(2, k):
        if k % d == 0:
            assert not (p ** (k // d)).is_identity


@given(perms, st.integers(min_value=-6, max_value=6))
def test_power_matches_repeated_product(p, k):
    expected = Permutation.identity(p.degree)
    step = p if k >= 0 else p.inverse()
    for _ in range(abs(k)):
        expected = expected * step
    assert p ** k == expected


@given(perms)
def test_cycle_string_round_trip(p):
    assert Permutation.parse(p.degree, p.cycle_string()) == p


@given(perms)
def test_image_list_round_trip(p):
    assert Permutation.from_image_list(p.to_image_list()) == p
    assert all(v >= 1 for v in p.to_image_list())


@given(perms)
def test_support_and_fixed_points_partition(p):
    assert p.support() == [a for a in range(p.degree) if p(a) != a]


def test_parse_with_commas_and_spaces():
    a = Permutation.parse(5, "(1,2,3)(4 5)")
    b = Permutation.from_cycles(5, [[0, 1, 2], [3, 4]])
    assert a == b


def test_parse_errors():
    with pytest.raises(ParseError):
        Permutation.parse(3, "(1 2")
    with pytest.raises(ParseError):
        Permutation.parse(3, "(1 4)")
    with pytest.raises(ParseError):
        Permutation.parse(3, "1 2 3")
    with pytest.raises(ParseError):
        Permutation.parse(4, "(1 2)(2 3)")
    with pytest.raises(ParseError):
        Permutation.parse(4, "(1 2 2)")


def test_parse_identity_forms():
    assert Permutation.parse(4, "()").is_identity
    assert Permutation.parse(4, "").is_identity


def test_from_cycles_rejects_overlap():
    with pytest.raises(MalformedPermutationError):
        Permutation.from_cycles(4, [[0, 1], [1, 2]])


def test_extend():
    p = Permutation.parse(3, "(1 2)")
    q = p.extend(5)
    assert q.degree == 5
    assert q(0) == 1 and q(3) == 3 and q(4) == 4
    with pytest.raises(DegreeMismatchError):
        q.extend(3)


def test_cycle_type():
    p = Permutation.parse(6, "(1 2 3)(4 5)")
    assert p.cycle_type() == (1, 2, 3)
    assert p.order() == 6


def test_on_tuple_and_set():
    p = Permutation.parse(4, "(1 2 3 4)")
    assert p.on_set({0, 3}) == frozenset({1, 0})
