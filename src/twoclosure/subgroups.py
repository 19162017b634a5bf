"""Exhaustive subgroup enumeration for groups of modest order.

The elements of G are indexed 0..|G|-1 in sorted image-tuple order, and
a subgroup is an ``int`` bitset over those indices: containment is
``a & ~b == 0`` and conjugation by an element is an index map.  An
element is fixed by its images of a base of G (Seress, *Permutation
Group Algorithms*, 2003, ch. 4), so the base of G's plain chain turns
those few images into one integer key, and a product's index is found
from the images of the base alone, without forming the product.
Products go through right-multiplication columns and conjugations
through index maps, each built the first time it is asked for, so the
full |G|² table is never stored.

The enumeration is Neubüser's cyclic extension (Holt, Eick and O'Brien,
*Handbook of Computational Group Theory*, 2005, §4.6).  Every K > 1
equals ⟨M, y⟩ for a maximal subgroup M of K and any y in K∖M.  K is
generated by its elements of prime-power order, which cannot all lie in
M, so y can be taken of prime-power order, and then any generator of ⟨y⟩
serves as well.  Each class representative M is therefore extended by
generators of cyclic subgroups of prime-power order, and ⟨M, x⟩ is
closed by a breadth-first search seeded with M.  One x per orbit of M,
acting by conjugation on those cyclic subgroups, is enough: for m in M,
⟨M, x^m⟩ = ⟨M, x⟩^m = ⟨M, x⟩.

The containment relation of the class table comes from one bitset per
element, marking the subgroups that hold it: the overgroups of H are the
AND of those bitsets over the members of H.

The class table hands out the bitsets of its representatives and their
cores, so the decision meets and counts subgroups as ANDs and bit counts.
Frozensets of image tuples leave only for the section test and callers.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .errors import BudgetExceededError
from .group import PermGroup
from .perm import Permutation

ORDER_BOUND = 2000
# The least order shared by two nonabelian simple groups (A8 and L3(4)).
_AMBIGUOUS_SIMPLE_ORDER = 20160


def _mul(p, q):
    return tuple(q[v] for v in p)


def _inv(p):
    out = [0] * len(p)
    for a, v in enumerate(p):
        out[v] = a
    return tuple(out)


def generated_set(gens, degree, seed=()):
    """All elements of the subgroup generated by the given image tuples.

    seed may hold known elements of the target group (for instance the
    subgroup being extended); they are taken as already reached, which
    skips re-deriving them.
    """
    identity = tuple(range(degree))
    elems = {identity}
    elems.update(seed)
    frontier = list(elems)
    gens = [tuple(g) for g in gens]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = _mul(x, g)
                if y not in elems:
                    elems.add(y)
                    new.append(y)
        frontier = new
    return frozenset(elems)


def small_generating_set(elems, degree):
    """A short generator list for the subgroup given by its element set."""
    identity = tuple(range(degree))
    if len(elems) == 1:
        return []
    gens = []
    span = {identity}
    for x in sorted(elems, key=lambda t: (-_order(t), t)):
        if x in span:
            continue
        gens.append(x)
        span = generated_set(gens, degree)
        if len(span) == len(elems):
            break
    return gens


def _order(p):
    """The order of the image tuple p, as the lcm of its cycle lengths."""
    seen = [False] * len(p)
    k = 1
    for a in range(len(p)):
        length = 0
        while not seen[a]:
            seen[a] = True
            a = p[a]
            length += 1
        if length:
            k = math.lcm(k, length)
    return k


def _is_prime_power(k):
    if k < 2:
        return False
    p = next(d for d in range(2, k + 1) if k % d == 0)
    while k % p == 0:
        k //= p
    return k == 1


def _members(bits):
    """The set bit positions of bits, ascending."""
    flags = bin(bits)[:1:-1].encode().translate(_DIGIT_FLAGS)
    return list(itertools.compress(range(len(flags)), flags))


def _from_flags(flags):
    """The bitset whose bit i is set when flags[i] is 1."""
    return int(flags[::-1].translate(_FLAG_DIGITS), 2)


_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")
_FLAG_DIGITS = bytes.maketrans(b"\0\1", b"01")


class _Indexed:
    """The elements of G indexed 0..|G|-1 in sorted image-tuple order.

    An element is fixed by its images of the base of G's plain chain, so
    ``slot`` finds an index from those images read as one integer in
    base ``degree``.  ``images[j][i]`` is the image of the j-th base
    point under elements[i].
    """

    def __init__(self, G, order_bound):
        self.elements = sorted(
            x.images for x in G.elements(budget=order_bound + 1))
        self.degree = G.degree
        self.base = tuple(G.chain.base())
        self.images = [[p[b] for p in self.elements] for b in self.base]
        self.slot = {key: i for i, key in
                     enumerate(self._keys(range(self.degree), self.images))}
        self.identity = self.find(range(self.degree))
        self._columns = {}
        self._conjugations = {}
        self._limits = {}
        self.conjugations = [
            self.conjugation_by(self.find(g.images)) for g in G.generators]

    def find(self, p):
        """The index of the element with image tuple p."""
        return self.slot[_key([p[b] for b in self.base], self.degree)]

    def _keys(self, q, images):
        """The keys of q's images of the points listed level by level:
        images[j][i] is the j-th point of the i-th key.

        The keys gain one digit at a time, each read from q's images
        scaled by its place value."""
        keys = itertools.repeat(0, len(self.elements))
        scale = 1
        for points in reversed(images):
            scaled = [v * scale for v in q]
            keys = map(operator.add, keys, map(scaled.__getitem__, points))
            scale *= len(q)
        return list(keys)

    def column(self, x):
        """The map i -> index of elements[i] * elements[x]."""
        col = self._columns.get(x)
        if col is None:
            col = list(map(self.slot.__getitem__,
                           self._keys(self.elements[x], self.images)))
            self._columns[x] = col
        return col

    def conjugation_by(self, x):
        """The map i -> index of elements[x]⁻¹ * elements[i] * elements[x]."""
        col = self._conjugations.get(x)
        if col is None:
            q = self.elements[x]
            # the conjugate of p sends each base point b to q(p(q⁻¹(b)))
            images = [[p[a] for p in self.elements]
                      for a in map(q.index, self.base)]
            col = list(map(self.slot.__getitem__, self._keys(q, images)))
            self._conjugations[x] = col
        return col

    def conjugate(self, members, conjugation):
        flags = bytearray(len(self.elements))
        for i in members:
            flags[conjugation[i]] = 1
        return _from_flags(flags)

    def cyclic_generators(self):
        """One generator of each cyclic subgroup of prime-power order,
        and a list mapping every generator of each such subgroup to the
        listed one (None off those generators)."""
        listed = [None] * len(self.elements)
        out = []
        n = self.degree
        for i, p in enumerate(self.elements):
            if listed[i] is not None:
                continue
            k = _order(p)
            if not _is_prime_power(k):
                continue
            out.append(i)
            row = [points[i] for points in self.images]
            for e in range(1, k):
                if math.gcd(e, k) == 1:
                    listed[self.slot[_key(row, n)]] = i
                row = [p[a] for a in row]
        return out, listed

    def cyclic_orbits(self, bits, gens, cyclic, listed):
        """The members of cyclic outside the subgroup ``bits`` = ⟨gens⟩,
        split into orbits of that subgroup acting by conjugation on the
        cyclic subgroups they generate.  Each orbit starts with its
        first member in the order of cyclic."""
        convs = [self.conjugation_by(g) for g in gens]
        seen = bytearray(len(self.elements))
        orbits = []
        for x in cyclic:
            if seen[x] or bits >> x & 1:
                continue
            seen[x] = 1
            orbit = [x]
            for y in orbit:
                for c in convs:
                    z = listed[c[y]]
                    if not seen[z]:
                        seen[z] = 1
                        orbit.append(z)
            orbits.append(orbit)
        return orbits

    def extend(self, members, gens, x):
        """⟨M, x⟩ as a bitset, where M is given by its members and
        generators.

        M's own products stay in M, so its members are multiplied by x
        alone and every new member by all generators.  The search stops
        once it holds more elements than any proper subgroup of G over M
        could, since ⟨M, x⟩ is then G.
        """
        cols = [self.column(g) for g in gens]
        cols.append(self.column(x))
        limit = self._limit(len(members))
        seen = bytearray(len(self.elements))
        for y in members:
            seen[y] = 1
        count = len(members)
        frontier, step = members, cols[-1:]
        while frontier:
            new = []
            for y in frontier:
                for col in step:
                    z = col[y]
                    if not seen[z]:
                        seen[z] = 1
                        new.append(z)
                        count += 1
                if count > limit:
                    return (1 << len(self.elements)) - 1
            frontier, step = new, cols
        return _from_flags(seen)

    def _limit(self, m):
        """The largest order below |G| of a subgroup with one of order m
        inside, as far as Lagrange's theorem tells."""
        limit = self._limits.get(m)
        if limit is None:
            n = len(self.elements)
            limit = max(d for d in range(m, n) if n % d == 0 and d % m == 0)
            self._limits[m] = limit
        return limit


def _key(points, n):
    """The points read as the digits of one integer in base n."""
    key = 0
    for a in points:
        key = key * n + a
    return key


def _transpose(rows, width):
    """The transposed relation: rows[i] lists positions below width, and
    bit i of the j-th bitset returned is set when rows[i] holds j."""
    cols = [0] * width
    for i, row in enumerate(rows):
        bit = 1 << i
        for j in row:
            cols[j] |= bit
    return cols


def _containment(subs, size):
    """Bitsets above[i] and below[i] of the positions in subs of the
    proper overgroups and proper subgroups of subs[i], for subgroups of
    a group of the given order.

    containers[e] marks the subgroups holding element e, so the AND of
    it over the members of subs[i] marks the overgroups of subs[i];
    below is the transposed relation.
    """
    member_lists = [_members(bits) for bits in subs]
    containers = _transpose(member_lists, size)
    above = [functools.reduce(operator.and_,
                              map(containers.__getitem__, members))
             & ~(1 << i) for i, members in enumerate(member_lists)]
    below = _transpose(map(_members, above), len(subs))
    return above, below


def _lattice(G, order_bound):
    """The indexed elements of G, every subgroup as a bitset in the
    order (size, sorted members), and the conjugacy classes of
    subgroups as lists of bitsets."""
    order = G.order()
    if order > order_bound:
        raise BudgetExceededError(
            f"order {order} exceeds subgroup enumeration bound {order_bound}")
    ix = _Indexed(G, order_bound)
    start = 1 << ix.identity
    # every subgroup found, with its members
    found = {start: [ix.identity]}
    classes = [[start]]
    cyclic, listed = ix.cyclic_generators()
    # The frontier keeps one representative per conjugacy class, with its
    # members and generators: an extension of a conjugate is the matching
    # conjugate of an extension, so growing only representatives still
    # reaches every class, and each new set is closed under conjugation
    # on arrival.  A representative M extends one x per orbit of M on
    # the cyclic subgroups outside it: for m in M, ⟨M, x^m⟩ = ⟨M, x⟩^m =
    # ⟨M, x⟩, so the rest of the orbit would only find that set again.
    reps = [(start, [ix.identity], [])]
    while reps:
        new_reps = []
        for bits, members, gens in reps:
            for orbit in ix.cyclic_orbits(bits, gens, cyclic, listed):
                x = orbit[0]
                grown = ix.extend(members, gens, x)
                if grown in found:
                    continue
                found[grown] = _members(grown)
                new_reps.append((grown, found[grown], gens + [x]))
                orbit = [grown]
                for s in orbit:
                    for c in ix.conjugations:
                        t = ix.conjugate(found[s], c)
                        if t not in found:
                            found[t] = _members(t)
                            orbit.append(t)
                classes.append(orbit)
        reps = new_reps
    subs = sorted(found, key=lambda b: (b.bit_count(), found[b]))
    return ix, subs, classes


def all_subgroup_sets(G, order_bound=ORDER_BOUND):
    """Every subgroup of G as a frozenset of image tuples, ordered by
    size and then by sorted elements."""
    ix, subs, _ = _lattice(G, order_bound)
    return [_as_set(ix, b) for b in subs]


def _as_set(ix, bits):
    return frozenset(ix.elements[i] for i in _members(bits))


class SubgroupClassTable:
    """Conjugacy classes of subgroups with depth and inclusion data.

    ``member_bits[i]`` and ``core_bits[i]`` are the bitsets of class i's
    representative and of its core: bit k stands for the k-th element of
    G in sorted image-tuple order.  ``orders`` are their bit counts.  A
    partial table holds no bitsets.
    """

    def __init__(self, representatives, orders, class_sizes, depths, edges,
                 subgroup_sets, member_bits, core_bits, complete):
        self.representatives = representatives
        self.orders = orders
        self.class_sizes = class_sizes
        self.depths = depths
        self.edges = edges
        self.subgroup_sets = subgroup_sets
        self.member_bits = member_bits
        self.core_bits = core_bits
        self.complete = complete

    def __len__(self):
        return len(self.representatives)

    def __repr__(self):
        flag = "" if self.complete else ", partial"
        return (f"SubgroupClassTable({len(self.representatives)} classes"
                f"{flag})")

    @property
    def full_class(self):
        return max(range(len(self.orders)), key=lambda i: self.orders[i])

    def proper_classes(self):
        full = self.full_class
        return [i for i in range(len(self.orders)) if i != full]

    def core_free(self, i):
        return self.core_bits[i].bit_count() == 1


def _to_group(elems, degree, seed=0):
    gens = [Permutation(g) for g in small_generating_set(elems, degree)]
    return PermGroup(degree, gens, seed=seed)


def subgroup_classes(G, order_bound=ORDER_BOUND):
    """The table of all subgroup conjugacy classes of G.

    Groups larger than the bound get a two-class partial table (trivial
    subgroup and G itself) flagged incomplete.
    """
    n = G.degree
    if G.order() > order_bound:
        identity = frozenset([tuple(range(n))])
        return SubgroupClassTable(
            [_to_group(identity, n, G.seed), G], [1, G.order()], [1, 1],
            [None, 0], [], [identity], [], [], complete=False)
    ix, subs, classes = _lattice(G, order_bound)
    index_of = {bits: i for i, bits in enumerate(subs)}

    # classes are numbered by their first member in the sorted order
    class_members = sorted(sorted(index_of[b] for b in orbit)
                           for orbit in classes)
    class_of = [None] * len(subs)
    for cls, members in enumerate(class_members):
        for i in members:
            class_of[i] = cls

    # covering relation: i is maximal in j when nothing strictly between
    # meets
    above, below = _containment(subs, len(ix.elements))
    covers = [(i, j) for j in range(len(subs)) for i in _members(below[j])
              if not above[i] & below[j]]

    # depth: shortest maximal chain down from G
    children = {}
    for (i, j) in covers:
        children.setdefault(j, []).append(i)
    top = len(subs) - 1
    depth = [None] * len(subs)
    depth[top] = 0
    frontier = [top]
    while frontier:
        new = []
        for j in frontier:
            for i in children.get(j, ()):
                if depth[i] is None:
                    depth[i] = depth[j] + 1
                    new.append(i)
        frontier = new

    sets = [_as_set(ix, bits) for bits in subs]
    member_bits = [subs[members[0]] for members in class_members]
    normals = [subs[cm[0]] for cm in class_members if len(cm) == 1]
    core_bits = [max((b for b in normals if not b & ~rep), key=int.bit_count)
                 for rep in member_bits]
    edges = {(class_of[i], class_of[j]) for (i, j) in covers}
    return SubgroupClassTable(
        [_to_group(sets[members[0]], n, G.seed) for members in class_members],
        [bits.bit_count() for bits in member_bits],
        [len(members) for members in class_members],
        [depth[members[0]] for members in class_members], sorted(edges),
        sets, member_bits, core_bits, complete=True)


def is_normal_in(inner, outer, degree):
    """Whether the subgroup set inner is normalized by the set outer."""
    gens = small_generating_set(outer, degree)
    for g in gens:
        gi = _inv(g)
        for x in inner:
            if _mul(_mul(gi, x), g) not in inner:
                return False
    return True


def maximal_normal_subgroup_sets(sub, candidates, degree):
    """Maximal proper normal subgroups of sub among the given sets."""
    normals = [c for c in candidates
               if len(c) < len(sub) and c <= sub
               and len(sub) % len(c) == 0 and is_normal_in(c, sub, degree)]
    out = []
    for c in normals:
        if not any(c < d for d in normals):
            out.append(c)
    return out


def has_section(big, small_order, subs_of_big, degree):
    """Whether big has a simple section of the given order.

    A maximal normal subgroup N of any K ≤ big gives a simple quotient
    K/N; below order 20160 an order match pins the isomorphism type of a
    nonabelian simple target.  At 20160 it no longer does (A8 and L3(4)),
    so from there on the test raises BudgetExceededError instead.
    """
    if small_order >= _AMBIGUOUS_SIMPLE_ORDER:
        raise BudgetExceededError(
            f"simple sections of order {small_order} are not determined "
            f"by their order; the test stops below "
            f"{_AMBIGUOUS_SIMPLE_ORDER}")
    for K in subs_of_big:
        if len(K) % small_order != 0:
            continue
        for N in maximal_normal_subgroup_sets(K, subs_of_big, degree):
            if len(K) // len(N) == small_order:
                return True
    return False
