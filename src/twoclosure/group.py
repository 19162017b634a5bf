"""Permutation groups backed by stabilizer chains.

A chain is laid out from the generators and grown by a seeded randomized
phase.  Each level's generators fix the earlier base points, so each
basic orbit is a subset of the true one, and the orbit lengths multiply
to a lower bound on the group's order.  ``StabilizerChain.build`` then
verifies the chain in one of two ways.  Told the group's order, it stops
as soon as the orbit lengths multiply to it: every basic orbit is then
complete (the known-order stopping test of randomized Schreier-Sims;
Seress, Permutation Group Algorithms, 2003, ch. 4).  The build checks the
product after each generator the random phase adds; growth that stalls
below the order runs the deterministic pass as usual, and a product that
passes the order, or a finished chain of another order, raises, since
the order given was wrong.  Otherwise the deterministic Schreier-Sims
pass runs last and verifies the chain however it was grown.  The pass
sifts no Schreier generator of an edge of a level's Schreier tree, which
is the identity by construction (Seress, sec. 4.2).

A group that does not know its order can also hold a chain grown without
either test (``PermGroup._told_copy``), for the 2-closure to prove the
order from its refinement bound instead (see ``closure``).  Such a chain
counts as verified only once that proof holds; until then
``chain_with_base`` completes it by the deterministic pass when asked for
it, and ``order()`` and ``contains`` when they need a verified chain and
the group holds none.

Sifts multiply by the inverses of a level's coset representatives.  These
are built down the Schreier tree from the inverses of the level's
generators, one product per orbit point, as the representatives are.

A group builds each chain once and reuses it.  Order and membership do
not depend on the base, so they are answered from the first verified
chain the group holds: built for a base hint, inherited by a pointwise
stabilizer from its parent's chain, or adopted from a told copy.  Each
later build is told that chain's order.  A group given its order (the
totality sweep gives it for the direct sums it assembles) tells it to
every build, and answers ``order()`` with it until it holds a chain.
The order decides only when a build stops: the random phase draws the
same products either way, and once the orbits multiply to the order no
sift leaves a residue, so a told build returns exactly the levels an
untold build returns for the same generators, base hint and seed.  So
``elements``, ``random_element`` and strong generators do not depend on
which chains were built first, or told.  ``chain`` is the chain on the
empty base hint.
"""

from __future__ import annotations

import random

from .errors import BudgetExceededError, DegreeMismatchError, GroupError
from .perm import Permutation

ELEMENT_BUDGET = 10 ** 7
CLASS_BUDGET = 10 ** 5


def orbit_of(gens, point):
    """The orbit of a point under a list of permutations, as a set."""
    seen = {point}
    frontier = [point]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                b = g.images[a]
                if b not in seen:
                    seen.add(b)
                    new.append(b)
        frontier = new
    return seen


def orbits_of(gens, degree):
    """All orbits on 0..degree-1, each sorted, ordered by least point."""
    seen = [False] * degree
    out = []
    for a in range(degree):
        if seen[a]:
            continue
        orb = orbit_of(gens, a)
        for b in orb:
            seen[b] = True
        out.append(sorted(orb))
    return out


class _Level:
    """One level of a stabilizer chain: a base point, the generators
    fixing all earlier base points, and a Schreier tree of its orbit.

    rep(p) returns a permutation mapping the base point to p, or None for
    the base point itself (callers treat None as the identity), and
    rep_inv(p) its inverse.  Both are built down the tree by ``extend``:
    if a = p^g is a tree edge, rep(a) = rep(p) g and rep(a)^-1 =
    g^-1 rep(p)^-1.  Generators are only ever appended, so their inverses,
    keyed by index, outlive rebuilds: each is inverted at most once per
    level.
    """

    __slots__ = ("point", "gens", "orbit", "tree", "_reps", "_rep_invs",
                 "_gen_invs")

    def __init__(self, point, gens):
        self.point = point
        self.gens = gens
        self._gen_invs = {}
        self.rebuild()

    def rebuild(self):
        self.tree = {self.point: None}
        self.orbit = [self.point]
        i = 0
        while i < len(self.orbit):
            a = self.orbit[i]
            i += 1
            for gi, g in enumerate(self.gens):
                b = g.images[a]
                if b not in self.tree:
                    self.tree[b] = (a, gi)
                    self.orbit.append(b)
        self._reps = {}
        self._rep_invs = {}

    def rep(self, point):
        u = self._reps.get(point)
        if u is None and point != self.point:
            u = self.extend(self._reps, point, self._times)
        return u

    def rep_inv(self, point):
        u = self._rep_invs.get(point)
        if u is None and point != self.point:
            u = self.extend(self._rep_invs, point, self._inverse_times)
        return u

    def extend(self, cache, point, step):
        """The value at point of a map built down the tree and kept in
        cache: the nearest value held up the tree (None at the base point)
        extended by step(value, gi) over each edge a = p^gens[gi] on the
        way down, keeping each value, so one step per orbit point."""
        path = []
        while point != self.point and point not in cache:
            path.append(point)
            point = self.tree[point][0]
        u = cache.get(point)
        for a in reversed(path):
            u = cache[a] = step(u, self.tree[a][1])
        return u

    def _times(self, u, gi):
        g = self.gens[gi]
        return g if u is None else u * g

    def _inverse_times(self, u, gi):
        g = self._gen_invs.get(gi)
        if g is None:
            g = self._gen_invs[gi] = self.gens[gi].inverse()
        return g if u is None else g * u


def _walk(levels, i, acc):
    """The products acc * u_i * ... * u_0, one coset representative u_j
    per level, top level outermost; None stands for the identity.  Each
    prefix product is formed once and shared by all its extensions.  A
    module-level function, so the suspended generators refer to the
    levels only and leave no reference cycle through the chain."""
    if i < 0:
        yield acc
        return
    lvl = levels[i]
    for p in lvl.orbit:
        u = lvl.rep(p)
        if u is None:
            nxt = acc
        else:
            nxt = u if acc is None else acc * u
        yield from _walk(levels, i - 1, nxt)


class StabilizerChain:
    """Base, strong generators, and Schreier trees for a permutation group."""

    def __init__(self, degree):
        self.degree = degree
        self.levels = []

    @classmethod
    def build(cls, gens, degree, base_hint=(), seed=0, order=None):
        """A verified chain of the group the generators generate.

        order, when given, is the group's order; the build stops as soon
        as the basic orbits multiply to it, with the chain an untold build
        returns (see ``_random_grow``).  The caller vouches for it:
        a product above it raises GroupError, but an order below the true
        one can stop the build early on an incomplete chain.
        """
        chain = cls(degree)
        if chain._grow(gens, base_hint, seed, order):
            return chain
        chain._schreier_sims()
        if order is not None and chain.order() != order:
            raise GroupError(
                f"the chain has order {chain.order()}, not the known order "
                f"{order}")
        return chain

    def _grow(self, gens, base_hint=(), seed=0, order=None):
        """Lay out the levels of an empty chain and run the random phase.

        Returns True when the basic orbits reached the known order, which
        verifies the chain.  Otherwise the deterministic pass is still to
        run.  Each level's generators fix the earlier base points, so each
        basic orbit is a subset of the true one, and the orbits multiply
        to a lower bound on the group's order.
        """
        gens = [g for g in gens if not g.is_identity]
        for g in gens:
            if g.degree != self.degree:
                raise DegreeMismatchError(
                    f"generator degree {g.degree} != group degree "
                    f"{self.degree}")
        base = []
        for b in base_hint:
            if b not in base:
                base.append(b)
        for g in gens:
            if all(g.images[b] == b for b in base):
                base.append(min(g.support()))
        for i, b in enumerate(base):
            level_gens = [g for g in gens
                          if all(g.images[c] == c for c in base[:i])]
            self.levels.append(_Level(b, level_gens))
        if order is not None and self._reached(order):
            return True
        return len(gens) > 1 and self._random_grow(gens, seed, order)

    def base(self):
        return [lvl.point for lvl in self.levels]

    def order(self):
        out = 1
        for lvl in self.levels:
            out *= len(lvl.orbit)
        return out

    def sift(self, g, start=0):
        """Reduce g through levels >= start.

        Returns (residue, level) where level is the first level whose base
        image fell outside the basic orbit, or len(levels) on full
        reduction.  The residue fixes the base points of all processed
        levels.
        """
        for i in range(start, len(self.levels)):
            lvl = self.levels[i]
            p = g.images[lvl.point]
            if p == lvl.point:
                continue
            if p not in lvl.tree:
                return g, i
            g = g * lvl.rep_inv(p)
        return g, len(self.levels)

    def contains(self, g):
        if g.degree != self.degree:
            raise DegreeMismatchError(
                f"element degree {g.degree} != group degree {self.degree}")
        residue, _ = self.sift(g)
        return residue.is_identity

    def _add_generator(self, g, first_level):
        """Add g as a strong generator at levels first_level..j, where j is
        the level whose base point g moves (a new level is appended when g
        fixes every existing base point).  g must fix the base points of
        all levels before first_level.  Returns j."""
        j = first_level
        while j < len(self.levels) \
                and g.images[self.levels[j].point] == self.levels[j].point:
            j += 1
        if j == len(self.levels):
            self.levels.append(_Level(min(g.support()), []))
        for k in range(first_level, j + 1):
            self.levels[k].gens.append(g)
            self.levels[k].rebuild()
        return j

    def _reached(self, order):
        """Whether the basic orbits multiply to the known order, which
        makes the chain complete.  Raises GroupError above it."""
        got = self.order()
        if got > order:
            raise GroupError(
                f"the basic orbits multiply to {got}, above the known "
                f"order {order}")
        return got == order

    def _random_grow(self, gens, seed, order=None):
        """Grow the chain by sifting pseudo-random products.  Returns
        True when the chain reached the known order, which verifies it;
        otherwise the deterministic pass afterwards verifies and
        completes it.

        The products come from product replacement (Celler, Leedham-Green,
        Murray, Niemeyer & O'Brien, Comm. Algebra 23, 1995): ten slots (or
        one per generator), mixed by twenty replacements before any is
        sifted, each replacing slot a by its product with a slot b != a,
        so that no slot squares an involution away.  What is sifted is the
        running product of the replaced slots, Leedham-Green and Murray's
        rattle accumulator.  The order decides only when to stop: a told
        build adds exactly the residues an untold one adds up to that
        point, and the untold one adds none after it, so both return the
        same levels."""
        rng = random.Random(seed)
        words = [gens[i % len(gens)] for i in range(max(len(gens), 10))]

        def replace():
            a = rng.randrange(len(words))
            b = rng.randrange(len(words))
            while b == a:
                b = rng.randrange(len(words))
            words[a] = words[a] * words[b] if rng.random() < 0.5 \
                else words[b] * words[a]
            return words[a]

        for _ in range(20):
            replace()
        acc = None
        misses = 0
        while misses < 12:
            word = replace()
            acc = word if acc is None else acc * word
            residue, _ = self.sift(acc)
            if residue.is_identity:
                misses += 1
                continue
            misses = 0
            # The residue is only known to lie in the whole group, so it
            # must join every level it is eligible for; adding it deeper
            # only would let later sifts use elements the shallow levels
            # cannot express.
            self._add_generator(residue, 1)
            if order is not None and self._reached(order):
                return True
        return False

    def _schreier_sims(self):
        """Verify every Schreier generator sifts to the identity, adding
        residues as strong generators until the chain is complete.  The
        generator of a tree edge, q = p^s with tree[q] == (p, s), is
        rep(p) s rep(q)^-1 = 1, since rep(q) is rep(p) s: it is skipped."""
        i = len(self.levels) - 1
        while i >= 0:
            changed = None
            lvl = self.levels[i]
            for p in lvl.orbit:
                up = lvl.rep(p)
                for si, s in enumerate(lvl.gens):
                    q = s.images[p]
                    if lvl.tree[q] == (p, si):
                        continue
                    uq_inv = lvl.rep_inv(q)
                    if up is None:
                        sg = s if uq_inv is None else s * uq_inv
                    else:
                        sg = up * s if uq_inv is None else up * s * uq_inv
                    residue, _ = self.sift(sg, i + 1)
                    if residue.is_identity:
                        continue
                    changed = self._add_generator(residue, i + 1)
                    break
                if changed is not None:
                    break
            if changed is None:
                i -= 1
            else:
                i = changed

    def level_generators(self, k):
        """Generators of the stabilizer of the first k base points."""
        if k >= len(self.levels):
            return []
        return list(self.levels[k].gens)

    def random_element(self, rng):
        g = None
        for lvl in reversed(self.levels):
            p = lvl.orbit[rng.randrange(len(lvl.orbit))]
            u = lvl.rep(p)
            if u is not None:
                g = u if g is None else g * u
        return Permutation.identity(self.degree) if g is None else g

    def elements(self, budget=ELEMENT_BUDGET):
        """Iterate over every group element.  Raises BudgetExceededError
        if the order exceeds the budget."""
        if self.order() > budget:
            raise BudgetExceededError(
                f"group order {self.order()} exceeds element budget {budget}")
        identity = Permutation.identity(self.degree)
        for g in _walk(self.levels, len(self.levels) - 1, None):
            yield identity if g is None else g


class PermGroup:
    """A permutation group on 0..degree-1 given by generators.

    ``chain_with_base`` builds and keeps one verified chain per base hint,
    told the group's order once that is known: from the chains the group
    holds, or from ``order``, which the caller vouches for.  ``chain`` is
    the chain on the empty base hint.  ``order()`` and ``contains`` read
    the first chain held, built, inherited or adopted.  With none held,
    ``order()`` answers the vouched order when there is one; otherwise
    both complete a grown chain when the group holds one (see
    ``_told_copy``), and build ``chain`` when it holds none.
    """

    def __init__(self, degree, generators, name=None, seed=0, order=None):
        self.degree = degree
        gens = []
        seen = set()
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            if g.degree != degree:
                raise DegreeMismatchError(
                    f"generator degree {g.degree} != group degree {degree}")
            if g.is_identity or g.images in seen:
                continue
            seen.add(g.images)
            gens.append(g)
        self.generators = gens
        self.name = name
        self.seed = seed
        # verified chains by base hint, the first one held first
        self._chains_by_base = {}
        self._stabilizers = {}
        self._known_order = order
        # chains grown without the deterministic pass, by base hint
        self._grown = {}

    def __repr__(self):
        label = self.name or f"<{len(self.generators)} gens>"
        return f"PermGroup(degree={self.degree}, {label})"

    @property
    def chain(self):
        return self.chain_with_base(())

    def chain_with_base(self, base_hint):
        """A verified chain whose base starts with the given points."""
        key = tuple(base_hint)
        got = self._chains_by_base.get(key)
        if got is None:
            got = self._grown.pop(key, None)
            if got is not None:
                got._schreier_sims()
            else:
                got = StabilizerChain.build(
                    self.generators, self.degree, base_hint=key,
                    seed=self.seed,
                    order=self.order() if self._order_known else None)
            self._chains_by_base[key] = got
        return got

    @property
    def _order_known(self):
        """Whether the group was given its order or holds a verified
        chain, so that ``order()`` needs no deterministic pass."""
        return bool(self._chains_by_base) or self._known_order is not None

    def _proven(self):
        """The first verified chain held; else a grown chain, completed;
        else ``chain``."""
        held = next(iter(self._chains_by_base.values()), None)
        return held or self.chain_with_base(next(iter(self._grown), ()))

    def _told_copy(self, key):
        """A copy of the group told the order N of a chain on key grown
        without the deterministic pass, which the copy holds as verified.

        N is at most the order.  The copy's stabilizers are subgroups of
        the group's whatever N is, and a chain it builds whose orbits
        multiply past its told order raises GroupError.  The group keeps
        the grown chain, and ``chain_with_base(key)`` completes it by
        that pass when asked for it."""
        chain = self._grown.get(key)
        if chain is None:
            chain = self._grown[key] = StabilizerChain(self.degree)
            chain._grow(self.generators, key, self.seed)
        copy = PermGroup(self.degree, self.generators, self.name,
                         self.seed, chain.order())
        copy._chains_by_base[key] = chain
        return copy

    def _adopt(self, copy):
        """Take over the chains and stabilizers of a told copy once its
        told order is proven to be the group's, which verifies them
        all."""
        self._chains_by_base.update(copy._chains_by_base)
        self._stabilizers.update(copy._stabilizers)
        self._grown.clear()

    def order(self):
        """The group's order: from the first verified chain held, else the
        order given to the constructor, else from a grown chain completed
        or ``chain``."""
        if not self._chains_by_base and self._known_order is not None:
            return self._known_order
        return self._proven().order()

    @property
    def is_trivial(self):
        return not self.generators

    def contains(self, g):
        return self._proven().contains(g)

    __contains__ = contains

    def orbit(self, point):
        return sorted(orbit_of(self.generators, point))

    def orbits(self):
        return orbits_of(self.generators, self.degree)

    def is_transitive(self):
        if self.degree == 0:
            return True
        return len(orbit_of(self.generators, 0)) == self.degree

    def random_element(self, rng=None):
        if rng is None:
            rng = random.Random(self.seed)
        return self.chain.random_element(rng)

    def elements(self, budget=ELEMENT_BUDGET):
        return self.chain.elements(budget=budget)

    def point_stabilizer(self, point):
        return self.pointwise_stabilizer([point])

    def pointwise_stabilizer(self, points):
        """The stabilizer of the points, kept per distinct point tuple."""
        key = tuple(dict.fromkeys(points))
        stab = self._stabilizers.get(key)
        if stab is None:
            chain = self.chain_with_base(key)
            k = len(key)
            stab = PermGroup(self.degree, chain.level_generators(k),
                             seed=self.seed)
            # The levels below the fixed points are a verified chain of the
            # group their first level's generators generate.
            tail = StabilizerChain(self.degree)
            tail.levels = chain.levels[k:]
            stab._chains_by_base[tuple(tail.base())] = tail
            self._stabilizers[key] = stab
        return stab

    def tuple_stabilizer_order(self, points):
        return self.pointwise_stabilizer(points).order()

    def is_subgroup_of(self, other):
        return all(other.contains(g) for g in self.generators)

    def equals(self, other):
        return (self.degree == other.degree
                and self.is_subgroup_of(other)
                and self.order() == other.order())

    def is_abelian(self):
        gens = self.generators
        return all((a * b).images == (b * a).images
                   for i, a in enumerate(gens) for b in gens[i + 1:])

    def normal_closure(self, elems):
        """Normal closure of the given elements in self."""
        closure_gens = []
        sub = PermGroup(self.degree, [], seed=self.seed)
        queue = list(elems)
        while queue:
            x = queue.pop()
            if x.is_identity or sub.contains(x):
                continue
            closure_gens.append(x)
            sub = PermGroup(self.degree, closure_gens, seed=self.seed)
            for g in self.generators:
                queue.append(g.inverse() * x * g)
        return sub

    def conjugacy_classes(self, budget=CLASS_BUDGET):
        """All conjugacy classes as (representative, size) pairs, ordered by
        element order, then class size, then representative images."""
        order = self.order()
        if order > budget:
            raise BudgetExceededError(
                f"order {order} exceeds class enumeration budget {budget}")
        gens = self.generators
        gen_invs = [g.inverse() for g in gens]
        seen = set()
        classes = []
        for x in self.elements(budget=budget):
            if x.images in seen:
                continue
            cls = {x.images}
            frontier = [x]
            while frontier:
                new = []
                for y in frontier:
                    for g, gi in zip(gens, gen_invs):
                        z = gi * y * g
                        if z.images not in cls:
                            cls.add(z.images)
                            new.append(z)
                frontier = new
            seen |= cls
            classes.append((x, len(cls)))
        classes.sort(key=lambda pair: (pair[0].order(), pair[1],
                                       pair[0].images))
        return classes

    def prime_order_class_representatives(self, budget=CLASS_BUDGET):
        return [(rep, size) for rep, size in self.conjugacy_classes(budget)
                if is_prime(rep.order())]

    def minimal_normal_subgroups(self, budget=CLASS_BUDGET):
        """Minimal nontrivial normal subgroups, via normal closures of
        class representatives."""
        seen = {}
        for rep, _ in self.conjugacy_classes(budget):
            if rep.is_identity:
                continue
            sub = self.normal_closure([rep])
            key = (sub.order(),
                   tuple(sorted(g.images for g in sub.generators)))
            if key not in seen:
                seen[key] = sub
        subs = sorted(seen.values(), key=lambda s: s.order())
        minimal = []
        for sub in subs:
            if not any(m.is_subgroup_of(sub) for m in minimal):
                minimal.append(sub)
        return minimal

    def is_simple(self, budget=CLASS_BUDGET):
        if self.order() == 1:
            return False
        for rep, _ in self.conjugacy_classes(budget):
            if rep.is_identity:
                continue
            if self.normal_closure([rep]).order() != self.order():
                return False
        return True

    def is_semisimple_product(self, budget=CLASS_BUDGET):
        """True when the group is a direct product of nonabelian simple
        groups."""
        if self.order() == 1:
            return False
        minimal = self.minimal_normal_subgroups(budget)
        product = 1
        for sub in minimal:
            if sub.is_abelian() or not sub.is_simple(budget):
                return False
            product *= sub.order()
        return product == self.order()


def is_prime(k):
    if k < 2:
        return False
    d = 2
    while d * d <= k:
        if k % d == 0:
            return False
        d += 1
    return True


def trivial_group(degree):
    return PermGroup(degree, [])
