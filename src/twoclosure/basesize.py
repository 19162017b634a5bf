"""Base sizes, the Q-hat bound, and two-point stabilizer statistics.

A base for a permutation group is a list of points whose pointwise
stabilizer is trivial.  The base size is the length of a shortest base.
`exact_base_size` finds it by a greedy descent followed by an exhaustive
confirmation that nothing shorter works.

`qhat` computes the probabilistic bound

    Q-hat(G, H, c) = sum over i of  |x_i^G meet H|^c / |x_i^G|^(c-1)

where the x_i run over representatives of the conjugacy classes of G of
prime order.  When the value is strictly below 1 the coset action of G
on [G:H] has a base of size at most c.  The sum is kept as an exact
Fraction throughout; no comparison ever goes through floating point.

`REFERENCE_TABLE` embeds published gcd constants g(T, M) for the handful
of simple-group actions known to need bases of size three or more.  The
table is reference data for cross-checking reports.  Nothing in this
package consults it to shortcut a computation.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .backtrack import conjugating_element
from .errors import BudgetExceededError, GroupError, NotTransitiveError
from .group import CLASS_BUDGET, is_prime

NODE_BUDGET = 50000
DEGREE_BUDGET = 10 ** 5


@dataclass(frozen=True)
class BaseSizeReport:
    """Outcome of a base size computation.

    `exact` is None when the confirmation budget ran out; the true base
    size then lies in [lower_bound, upper_bound].  `witness_base` is a
    base of size `upper_bound` (of size `exact` when that is known).
    """

    exact: int | None
    lower_bound: int
    upper_bound: int
    witness_base: tuple
    nodes_used: int = 0


def _greedy_base(G):
    """A base built by always fixing a point in a largest orbit of the
    stabilizer so far.  Returns (base points, stabilizer orders along
    the way)."""
    base = []
    stab = G
    while stab.order() > 1:
        moved = [orb for orb in stab.orbits() if len(orb) > 1]
        best = max(len(orb) for orb in moved)
        point = min(orb[0] for orb in moved if len(orb) == best)
        base.append(point)
        stab = stab.point_stabilizer(point)
    return base


def _base_of_size_at_most(G, k, counter, budget):
    """A base of size at most k, or None.  Candidate points at each
    level run over orbit representatives of the current stabilizer,
    which loses no generality: conjugating a base gives a base.
    """

    def search(stab, chosen):
        if stab.order() == 1:
            return list(chosen)
        if len(chosen) == k:
            return None
        for orb in stab.orbits():
            if len(orb) == 1:
                continue
            counter[0] += 1
            if counter[0] > budget:
                raise BudgetExceededError(
                    f"base size confirmation exceeded {budget} nodes")
            point = min(orb)
            found = search(stab.point_stabilizer(point), chosen + [point])
            if found is not None:
                return found
        return None

    return search(G, [])


def exact_base_size(G, node_budget=NODE_BUDGET, degree_budget=DEGREE_BUDGET):
    """The smallest number of points with trivial pointwise stabilizer.

    A greedy descent produces a base; exhausting all shorter candidate
    bases up to G-symmetry then confirms minimality.  If the search
    budget runs out the report carries bounds only (`exact` is None).
    """
    if G.degree > degree_budget:
        raise BudgetExceededError(
            f"degree {G.degree} exceeds budget {degree_budget}")
    witness = _greedy_base(G)
    upper = len(witness)
    if G.tuple_stabilizer_order(witness) != 1:
        raise GroupError("greedy descent ended at a nontrivial stabilizer")
    if upper <= 1:
        return BaseSizeReport(exact=upper, lower_bound=upper,
                              upper_bound=upper,
                              witness_base=tuple(witness))
    counter = [0]
    confirmed_below = 0
    try:
        for k in range(1, upper):
            shorter = _base_of_size_at_most(G, k, counter, node_budget)
            if shorter is not None:
                return BaseSizeReport(exact=len(shorter),
                                      lower_bound=len(shorter),
                                      upper_bound=len(shorter),
                                      witness_base=tuple(shorter),
                                      nodes_used=counter[0])
            confirmed_below = k
    except BudgetExceededError:
        return BaseSizeReport(exact=None, lower_bound=confirmed_below + 1,
                              upper_bound=upper,
                              witness_base=tuple(witness),
                              nodes_used=counter[0])
    return BaseSizeReport(exact=upper, lower_bound=upper, upper_bound=upper,
                          witness_base=tuple(witness),
                          nodes_used=counter[0])


def class_intersection_count(G, H, x, class_budget=CLASS_BUDGET,
                             node_budget=None, h_classes=None):
    """The number of elements of H lying in the G-class of x.

    x must have prime order.  H's elements are enumerated one conjugacy
    class of H at a time, so each G-conjugacy test is run once per
    H-class rather than once per element.  Precomputed H-class data may
    be passed as (representative, size) pairs to share work across
    calls.
    """
    order = x.order()
    if not is_prime(order):
        raise GroupError(f"class representative has order {order}, "
                         "which is not prime")
    if not G.contains(x):
        raise GroupError("class representative lies outside the group")
    if H.order() % order != 0:
        return 0
    if h_classes is None:
        h_classes = H.conjugacy_classes(budget=class_budget)
    target_type = x.cycle_type()
    total = 0
    for rep, size in h_classes:
        if rep.order() != order or rep.cycle_type() != target_type:
            continue
        if conjugating_element(G, rep, x, node_budget=node_budget) is not None:
            total += size
    return total


def _check_class_data(G, classes):
    primes_seen = set()
    for rep, size in classes:
        order = rep.order()
        if not is_prime(order):
            raise GroupError(f"class data contains a representative of "
                             f"non-prime order {order}")
        if not G.contains(rep):
            raise GroupError("class data representative lies outside "
                             "the group")
        if size <= 0 or G.order() % size != 0:
            raise GroupError(f"class size {size} does not divide the "
                             "group order")
        primes_seen.add(order)
    remaining = G.order()
    p = 2
    while p * p <= remaining:
        if remaining % p == 0:
            if p not in primes_seen:
                raise GroupError(f"class data misses every class of "
                                 f"order {p}")
            while remaining % p == 0:
                remaining //= p
        p += 1
    if remaining > 1 and remaining not in primes_seen:
        raise GroupError(f"class data misses every class of order "
                         f"{remaining}")


def qhat(G, H, c, classes=None, class_budget=CLASS_BUDGET, node_budget=None):
    """The Q-hat(G, H, c) sum as an exact Fraction.

    classes, when given, must list (representative, size) pairs covering
    every conjugacy class of G of prime order; by default they are
    computed here.  A value below 1 proves that the action of G on the
    cosets of H has a base of size at most c.
    """
    if H.degree != G.degree or not H.is_subgroup_of(G):
        raise GroupError("H must be a subgroup of G")
    if c < 1:
        raise GroupError("c must be a positive integer")
    if classes is None:
        classes = G.prime_order_class_representatives(budget=class_budget)
    if G.order() > 1:
        _check_class_data(G, classes)
    if H.is_trivial:
        return Fraction(0)
    h_classes = H.conjugacy_classes(budget=class_budget)
    total = Fraction(0)
    for rep, size in classes:
        count = class_intersection_count(G, H, rep, node_budget=node_budget,
                                         h_classes=h_classes)
        total += Fraction(count ** c, size ** (c - 1))
    return total


def two_point_stabilizer_orders(G):
    """Pairs (point, order of the stabilizer of {0, point}) with one
    point per orbit of the stabilizer of 0 on the remaining points."""
    if not G.is_transitive():
        raise NotTransitiveError("two-point stabilizers need a "
                                 "transitive action")
    stab = G.point_stabilizer(0)
    pairs = []
    for orb in stab.orbits():
        point = min(orb)
        if point == 0:
            continue
        pairs.append((point, G.tuple_stabilizer_order((0, point))))
    return pairs


def two_point_stabilizer_gcd(G):
    """The gcd of the two-point stabilizer orders |G_{0,p}| over one p
    per suborbit.  Returns 0 for the degree-one action, where there are
    no second points at all."""
    result = 0
    for _, order in two_point_stabilizer_orders(G):
        result = gcd(result, order)
    return result


@dataclass(frozen=True)
class ReferenceRow:
    """One published row: the gcd of the two-point stabilizer orders in
    the action of `group` on the cosets of `subgroup` divides `g_value`.
    `d_upper_bound` records an additional published cap when one is
    known, and `note` carries caveats."""

    group: str
    subgroup: str
    g_value: int
    d_upper_bound: int | None = None
    note: str = ""


class ReferenceTable:
    """Read-only table of published g(T, M) constants for the simple
    group actions of base size three or more.  Lookup only; no function
    in this package reads the table to skip a computation."""

    def __init__(self, rows):
        self._rows = tuple(rows)

    @property
    def rows(self):
        return self._rows

    def __iter__(self):
        return iter(self._rows)

    def __len__(self):
        return len(self._rows)

    def lookup(self, group, subgroup):
        for row in self._rows:
            if row.group == group and row.subgroup == subgroup:
                return row
        raise KeyError(f"no reference row for ({group}, {subgroup})")

    def groups(self):
        seen = []
        for row in self._rows:
            if row.group not in seen:
                seen.append(row.group)
        return seen


REFERENCE_TABLE = ReferenceTable([
    ReferenceRow("J1", "L2(11)", 1),
    ReferenceRow("J3", "L2(16)", 1),
    ReferenceRow("J3", "L2(16).2", 2),
    ReferenceRow("J4", "2^11:M24", 24),
    ReferenceRow("J4", "2^(1+12).3.M22.2", 2),
    ReferenceRow("J4", "2^10:L5(2)", 5040, d_upper_bound=30,
                 note="g is 2^4.3^2.5.7; the gcd itself is at most 30"),
    ReferenceRow("J4", "2^(1+12).3.M22", 2),
    ReferenceRow("J4", "2^(1+12).3.L3(4)", 2,
                 note="base size possibly 2, not settled"),
    ReferenceRow("J4", "2^(1+12).3.L3(4).2", 2,
                 note="base size possibly 2, not settled"),
    ReferenceRow("Ly", "G2(5)", 48),
    ReferenceRow("Ly", "3.McL", 30),
    ReferenceRow("Ly", "3.McL.2", 30),
    ReferenceRow("Th", "2^5.L5(2)", 1),
    ReferenceRow("Th", "3D4(2)", 6),
    ReferenceRow("Th", "3D4(2).3", 6),
    ReferenceRow("M", "2.B", 2090188800),
])
