"""Sanity checks for the group constructors."""

import pytest

from twoclosure.constructions import (alternating, cyclic, diagonal_double,
                                      dihedral, direct_product,
                                      elementary_abelian, frobenius20,
                                      gamma_l1_16, psl2, quaternion,
                                      regular_representation, symmetric,
                                      trivial, wreath_imprimitive)
from twoclosure.errors import GroupError


def test_basic_orders():
    assert trivial(4).order() == 1
    assert symmetric(5).order() == 120
    assert alternating(6).order() == 360
    assert cyclic(7).order() == 7
    assert dihedral(6).order() == 12
    assert elementary_abelian(3, 2).order() == 9
    assert quaternion().order() == 8


def test_dihedral_rejects_small():
    with pytest.raises(GroupError):
        dihedral(2)


def test_quaternion_is_the_quaternion_group():
    Q = quaternion()
    assert not Q.is_abelian()
    assert Q.is_transitive()
    orders = sorted(g.order() for g in Q.elements())
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_elementary_abelian_exponent():
    G = elementary_abelian(5, 2)
    assert G.order() == 25
    assert G.is_abelian()
    assert all(g.order() == 5 for g in G.generators)
    assert G.is_transitive()


def test_direct_product_order_and_orbits():
    G = direct_product(symmetric(3), cyclic(4))
    assert G.order() == 24
    assert [len(o) for o in G.orbits()] == [3, 4]


def test_diagonal_double_keeps_order():
    G = diagonal_double(cyclic(3))
    assert G.order() == 3
    assert [len(o) for o in G.orbits()] == [3, 3]


def test_wreath_imprimitive_order():
    G = wreath_imprimitive(cyclic(2), cyclic(3))
    assert G.degree == 6
    assert G.order() == 2 ** 3 * 3
    W = wreath_imprimitive(symmetric(3), symmetric(2))
    assert W.order() == 6 ** 2 * 2


def test_wreath_with_intransitive_top():
    top = direct_product(cyclic(2), trivial(1))
    G = wreath_imprimitive(cyclic(3), top)
    assert G.degree == 9
    assert G.order() == 3 ** 3 * 2


def test_regular_representation():
    R = regular_representation(symmetric(3))
    assert R.degree == 6
    assert R.order() == 6
    assert R.is_transitive()
    R2 = regular_representation(quaternion())
    assert R2.degree == 8
    assert R2.order() == 8


def test_frobenius20():
    G = frobenius20()
    assert G.order() == 20
    assert G.is_transitive()
    assert G.point_stabilizer(0).order() == 4


def test_gamma_l1_16_order_and_transitivity():
    G = gamma_l1_16()
    assert G.order() == 60
    assert G.is_transitive()
    assert not G.is_abelian()


def test_psl2_orders():
    assert psl2(5).order() == 60
    assert psl2(7).order() == 168
    assert psl2(11).order() == 660
    assert psl2(11).degree == 12
    assert psl2(5).is_simple()


def test_psl2_two_transitive():
    from twoclosure.orbital import OrbitalPartition
    assert OrbitalPartition(psl2(7)).rank == 2
