"""Exhaustive subgroup enumeration for groups of modest order.

The elements of G are indexed 0..|G|-1 in sorted image-tuple order, and
a subgroup is an ``int`` bitset over those indices: containment is
``a & ~b == 0`` and conjugation by an element is an index map.  An
element is fixed by its images of a base of G (Seress, *Permutation
Group Algorithms*, 2003, ch. 4), so the base of ``G.chain`` turns those
few images into one integer key, and a product's index is found
from the images of the base alone, without forming the product.
Products go through right-multiplication columns and conjugations
through index maps.  Only the chain's strong generators get maps read
off base images that way: every element is a product x = u_{L-1}⋯u_0
of transversal elements, one per level, found by sifting x down the
chain, and each u a product of generators along its Schreier tree, so
all other maps are composed, by col_{ab} = col_b ∘ col_a and
conj_{ab} = conj_b ∘ conj_a.  Each map is built the first time it is
asked for, so the full |G|² table is never stored.

The enumeration is Neubüser's cyclic extension (Holt, Eick and O'Brien,
*Handbook of Computational Group Theory*, 2005, §4.6).  Every K > 1
equals ⟨M, y⟩ for a maximal subgroup M of K and any y in K∖M.  K is
generated by its elements of prime-power order, which cannot all lie in
M, so y can be taken of prime-power order, and then any generator of ⟨y⟩
serves as well.  Each class representative M is therefore extended by
generators of cyclic subgroups of prime-power order.  ⟨M, x⟩ is a union
of right cosets Mr and is closed one coset at a time (Dimino's method;
Butler, *Fundamental Algorithms for Permutation Groups*, LNCS 559, 1991).
One x per orbit of M, acting by conjugation on those cyclic subgroups,
is enough: for m in M, ⟨M, x^m⟩ = ⟨M, x⟩^m = ⟨M, x⟩.

The class table hands out the bitsets of its representatives and their
cores, so the decision meets and counts subgroups as ANDs and bit counts.
Frozensets of image tuples leave only for the section test and callers.
"""

from __future__ import annotations

import itertools
import math
import operator

from .errors import BudgetExceededError
from .group import PermGroup
from .perm import Permutation, gather

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


class _Indexed:
    """The elements of G indexed 0..|G|-1 in sorted image-tuple order.

    An element is fixed by its images of the base of ``G.chain``, so
    ``slot`` finds an index from those images read as one integer in
    base ``degree``.  ``images[j][i]`` is the image of the j-th base
    point under elements[i].

    e·(ab) = (e·a)·b gives col_{ab} = col_b ∘ col_a, and
    (ab)⁻¹e(ab) = b⁻¹(a⁻¹ea)b gives conj_{ab} = conj_b ∘ conj_a, so
    index maps compose along products.  They are read off base images
    only for the strong generators that label edges of the levels'
    Schreier trees, at most Σ(|Δ_j| - 1) of each kind, cached under
    (kind, images).  The transversal element u = rep(p) of level j is
    the product of the generators on its tree path, and its map is
    composed down the tree and cached per kind and level.  Any other
    element x is sifted down the chain into x = u_{L-1}⋯u_0 (Seress,
    ch. 4), and its map is composed from theirs with at most L - 1
    gathers of |G| entries.
    """

    def __init__(self, G, order_bound):
        self.elements = sorted(
            x.images for x in G.elements(budget=order_bound + 1))
        self.degree = G.degree
        self.base = tuple(G.chain.base())
        self.levels = G.chain.levels
        self.images = [[p[b] for p in self.elements] for b in self.base]
        self.slot = {key: i for i, key in
                     enumerate(self._keys(range(self.degree), self.images))}
        self.identity = self.find(range(self.degree))
        self._keyed = {}
        self._transversal = {kind: [{} for _ in self.levels]
                             for kind in ("column", "conjugation")}
        self._columns = {}
        self._conjugations = {}
        self._limits = {}
        self.everything = tuple(range(len(self.elements)))
        self._powers = [1 << i for i in range(len(self.elements))]
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
            keys = map(operator.add, keys, gather(scaled, points))
            scale *= len(q)
        return list(keys)

    def column(self, x):
        """The map i -> index of elements[i] * elements[x]."""
        col = self._columns.get(x)
        if col is None:
            col = self._columns[x] = self._composed("column", x)
        return col

    def conjugation_by(self, x):
        """The map i -> index of elements[x]⁻¹ * elements[i] * elements[x]."""
        col = self._conjugations.get(x)
        if col is None:
            col = self._conjugations[x] = self._composed("conjugation", x)
        return col

    def _composed(self, kind, x):
        """The map of the given kind for elements[x], composed from the
        maps of its factors u_0, u_1, ... in turn."""
        out = None
        factors = []
        for j, lvl in enumerate(self.levels):
            # the image of this level's base point under x·u_0⁻¹⋯u_{j-1}⁻¹
            a = self.images[j][x]
            for q in factors:
                a = q.index(a)
            if a != lvl.point:
                factors.append(lvl.rep(a).images)
                u = self._transversal_map(kind, j, a)
                out = u if out is None else gather(out, u)
        return self.everything if out is None else out

    def _transversal_map(self, kind, j, a):
        """The map of the given kind for rep(a) of level j, built down the
        tree: a tree edge a = p^g gives rep(a) = rep(p)·g, so the map of
        rep(a) is that of rep(p) gathered by g's."""
        lvl = self.levels[j]
        held = self._transversal[kind][j]
        u = held.get(a)
        if u is None:
            u = lvl.extend(held, a, lambda out, gi: self._then(
                kind, lvl.gens[gi].images, out))
        return u

    def _then(self, kind, g, out):
        """The map out followed by the map of the generator with image
        tuple g, read off its base images once."""
        keyed = self._keyed.get((kind, g))
        if keyed is None:
            keyed = self._keyed[kind, g] = self._keyed_map(kind, g)
        return keyed if out is None else gather(keyed, out)

    def _keyed_map(self, kind, q):
        """The map of the given kind for the element with image tuple q,
        read off its base images."""
        if kind == "column":
            images = self.images
        else:
            # the conjugate of p sends each base point b to q(p(q⁻¹(b)))
            images = [[p[b] for p in self.elements]
                      for b in map(q.index, self.base)]
        return gather(self.slot, self._keys(q, images))

    def conjugate(self, members, conjugation):
        """The sorted members of a subgroup's conjugate."""
        return tuple(sorted(gather(conjugation, members)))

    def bits(self, members):
        """The bitset of the given members."""
        return sum(map(self._powers.__getitem__, members))

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
        """The sorted members of ⟨M, x⟩, where M is given by its sorted
        members and generators.

        ⟨M, x⟩ is closed as a union of right cosets Mr (Dimino): a coset
        Mr and a generator s give the coset Mrs, which is new exactly
        when rs is, so one product per coset and generator is tested,
        and a new coset is gathered whole from its column.  M's
        generators keep M itself, so M is multiplied by x alone.  The
        search stops once it holds more elements than any proper
        subgroup of G over M could, since ⟨M, x⟩ is then G.
        """
        cols = [self.column(g) for g in gens]
        cols.append(self.column(x))
        limit = self._limit(len(members))
        seen = set(members)
        cosets = [members]
        steps = cols[-1:]
        for coset in cosets:
            r = coset[0]
            for col in steps:
                if col[r] not in seen:
                    grown = gather(col, coset)
                    seen.update(grown)
                    if len(seen) > limit:
                        return self.everything
                    cosets.append(grown)
            steps = cols
        return tuple(sorted(seen))

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


def _lattice(G, order_bound):
    """The indexed elements of G, every subgroup as a bitset in the
    order (size, sorted members), the conjugacy classes of subgroups as
    lists of bitsets, and dicts from each subgroup's bitset to its
    members and to the indices of elements generating it."""
    order = G.order()
    if order > order_bound:
        raise BudgetExceededError(
            f"order {order} exceeds subgroup enumeration bound {order_bound}")
    ix = _Indexed(G, order_bound)
    # every subgroup found, keyed by its sorted members, with its bitset
    # and generators
    start = (ix.identity,)
    bits_of = {start: ix.bits(start)}
    gens_of = {start: []}
    classes = [[start]]
    cyclic, listed = ix.cyclic_generators()
    # The frontier keeps one representative per conjugacy class: an
    # extension of a conjugate is the matching conjugate of an extension,
    # so growing only representatives still reaches every class, and each
    # new set is closed under conjugation on arrival, its generators
    # conjugated along with it.  A representative M extends one x per
    # orbit of M on the cyclic subgroups outside it: for m in M,
    # ⟨M, x^m⟩ = ⟨M, x⟩^m = ⟨M, x⟩, so the rest of the orbit would only
    # find that set again.
    reps = [start]
    while reps:
        new_reps = []
        for members in reps:
            gens = gens_of[members]
            for orbit in ix.cyclic_orbits(bits_of[members], gens, cyclic,
                                          listed):
                x = orbit[0]
                grown = ix.extend(members, gens, x)
                if grown in gens_of:
                    continue
                bits_of[grown] = ix.bits(grown)
                gens_of[grown] = gens + [x]
                new_reps.append(grown)
                orbit = [grown]
                for s in orbit:
                    for c in ix.conjugations:
                        t = ix.conjugate(s, c)
                        if t not in gens_of:
                            bits_of[t] = ix.bits(t)
                            gens_of[t] = [c[y] for y in gens_of[s]]
                            orbit.append(t)
                classes.append(orbit)
        reps = new_reps
    subs = sorted(gens_of, key=lambda m: (len(m), m))
    return (ix, [bits_of[m] for m in subs],
            [[bits_of[m] for m in orbit] for orbit in classes],
            {bits_of[m]: m for m in subs},
            {bits_of[m]: gens_of[m] for m in subs})


def all_subgroup_sets(G, order_bound=ORDER_BOUND):
    """Every subgroup of G as a frozenset of image tuples, ordered by
    size and then by sorted elements."""
    ix, subs, _, members, _ = _lattice(G, order_bound)
    return [_as_set(ix, members[b]) for b in subs]


def _as_set(ix, members):
    return frozenset(ix.elements[i] for i in members)


class SubgroupClassTable:
    """Conjugacy classes of subgroups: representatives, orders, class
    sizes and cores.

    ``conjugate_bits[i]`` lists the bitsets of class i's members, its
    representative's first; ``member_bits[i]`` and ``core_bits[i]`` are
    the bitsets of that representative and of its core: bit k stands for
    the k-th element of G in sorted image-tuple order.  ``orders`` are
    their bit counts.  A partial table holds no bitsets.
    """

    def __init__(self, representatives, orders, class_sizes, subgroup_sets,
                 conjugate_bits, core_bits, complete):
        self.representatives = representatives
        self.orders = orders
        self.class_sizes = class_sizes
        self.subgroup_sets = subgroup_sets
        self.conjugate_bits = conjugate_bits
        self.member_bits = [bits[0] for bits in conjugate_bits]
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


def subgroup_classes(G, order_bound=ORDER_BOUND):
    """The table of all subgroup conjugacy classes of G.

    Groups larger than the bound get a two-class partial table (trivial
    subgroup and G itself) flagged incomplete.
    """
    n = G.degree
    if G.order() > order_bound:
        identity = frozenset([tuple(range(n))])
        return SubgroupClassTable(
            [PermGroup(n, [], seed=G.seed), G], [1, G.order()], [1, 1],
            [identity], [], [], complete=False)
    ix, subs, classes, members_of, gens_of = _lattice(G, order_bound)
    index_of = {bits: i for i, bits in enumerate(subs)}

    # classes are numbered by their first member in the sorted order
    class_members = sorted(sorted(index_of[b] for b in orbit)
                           for orbit in classes)

    conjugate_bits = [[subs[k] for k in cm] for cm in class_members]
    member_bits = [bits[0] for bits in conjugate_bits]
    normals = [subs[cm[0]] for cm in class_members if len(cm) == 1]
    core_bits = [max((b for b in normals if not b & ~rep), key=int.bit_count)
                 for rep in member_bits]
    return SubgroupClassTable(
        [PermGroup(n, [Permutation(ix.elements[y]) for y in gens_of[bits]],
                   seed=G.seed) for bits in member_bits],
        [bits.bit_count() for bits in member_bits],
        [len(members) for members in class_members],
        [_as_set(ix, members_of[bits]) for bits in subs],
        conjugate_bits, core_bits, complete=True)


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
