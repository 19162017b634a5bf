"""Permutation groups backed by stabilizer chains.

Chains are built by the deterministic Schreier-Sims algorithm, preceded by
a seeded randomized growth phase; the deterministic pass runs last, so the
result is verified regardless of how it was grown.  The one exception is
a build told the group's order.  Each level's generators fix the earlier
base points, so each basic orbit is a subset of the true one; once the
orbit lengths multiply to the known order, every basic orbit is complete
and the chain is verified without the deterministic pass (the known-order
stopping test of randomized Schreier-Sims; Seress, Permutation Group
Algorithms, 2003, ch. 4).  The build checks the product after each
generator the random phase adds and stops at the order; growth that
stalls below it runs the deterministic pass as usual, and a product that
passes the order, or a finished chain of another order, raises, since
the order given was wrong.

A group builds each chain once and reuses it.  Order and membership do
not depend on the base, so they are answered from whichever verified
chain the group already holds: its plain chain, a chain re-based by
``chain_with_base``, or the tail of its parent's chain that a pointwise
stabilizer inherits.  Whatever depends on the base or on element order
(``elements``, ``random_element``, ``sift``, strong generators) reads the
plain chain only, so its results do not depend on which chains were
built first.  For the same reason the plain chain is always built in
full: its strong generators fix the order of ``elements()`` and
``random_element()``.  The known order goes to ``chain_with_base`` chains
only.  It is the order of the chain the group already holds, or the one
given to the constructor, as the totality sweep does for the direct sums
it assembles.  A group given its order answers ``order()`` with it until
it holds a verified chain, and builds none to do so.
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
    the base point itself (callers treat None as the identity).
    """

    __slots__ = ("point", "gens", "orbit", "tree", "_reps", "_rep_invs")

    def __init__(self, point, gens):
        self.point = point
        self.gens = gens
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
        if point == self.point:
            return None
        u = self._reps.get(point)
        if u is None:
            path = []
            a = point
            while self.tree[a] is not None:
                prev, gi = self.tree[a]
                path.append(gi)
                a = prev
            for gi in reversed(path):
                u = self.gens[gi] if u is None else u * self.gens[gi]
            self._reps[point] = u
        return u

    def rep_inv(self, point):
        if point == self.point:
            return None
        u = self._rep_invs.get(point)
        if u is None:
            u = self.rep(point).inverse()
            self._rep_invs[point] = u
        return u


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
        as the basic orbits multiply to it.  The caller vouches for it:
        a product above it raises GroupError, but an order below the true
        one can stop the build early on an incomplete chain.
        """
        chain = cls(degree)
        gens = [g for g in gens if not g.is_identity]
        for g in gens:
            if g.degree != degree:
                raise DegreeMismatchError(
                    f"generator degree {g.degree} != group degree {degree}")
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
            chain.levels.append(_Level(b, level_gens))
        if order is not None and chain._reached(order):
            return chain
        if len(gens) > 1 and chain._random_grow(gens, seed, order):
            return chain
        chain._schreier_sims()
        if order is not None and chain.order() != order:
            raise GroupError(
                f"the chain has order {chain.order()}, not the known order "
                f"{order}")
        return chain

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
        completes it."""
        rng = random.Random(seed)
        words = list(gens)
        misses = 0
        while misses < 12:
            a = rng.randrange(len(words))
            b = rng.randrange(len(words))
            words[a] = words[a] * words[b] if rng.random() < 0.5 \
                else words[b] * words[a]
            residue, _ = self.sift(words[a])
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
        residues as strong generators until the chain is complete."""
        i = len(self.levels) - 1
        while i >= 0:
            changed = None
            lvl = self.levels[i]
            for p in lvl.orbit:
                up = lvl.rep(p)
                for s in lvl.gens:
                    q = s.images[p]
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

    ``chain`` is the plain chain, built from the generators with no base
    hint; ``chain_with_base`` builds and keeps one chain per base hint,
    stopping at the group's order once that is known: from the chain the
    group holds, or from ``order``, which the caller vouches for.
    ``order()`` and ``contains`` read the first verified chain the group
    came to hold, plain, re-based or inherited.  With none held,
    ``order()`` answers the vouched order when there is one, and both
    build the plain chain otherwise.
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
        self._chain = None
        self._chains_by_base = {}
        self._stabilizers = {}
        # the first verified chain held, for base-independent questions
        self._verified = None
        self._known_order = order

    def __repr__(self):
        label = self.name or f"<{len(self.generators)} gens>"
        return f"PermGroup(degree={self.degree}, {label})"

    @property
    def chain(self):
        if self._chain is None:
            self._chain = StabilizerChain.build(
                self.generators, self.degree, seed=self.seed)
            if self._verified is None:
                self._verified = self._chain
        return self._chain

    def chain_with_base(self, base_hint):
        """A verified chain whose base starts with the given points."""
        key = tuple(base_hint)
        got = self._chains_by_base.get(key)
        if got is None:
            known = self._known_order if self._verified is None \
                else self._verified.order()
            got = StabilizerChain.build(
                self.generators, self.degree, base_hint=key, seed=self.seed,
                order=known)
            self._chains_by_base[key] = got
            if self._verified is None:
                self._verified = got
        return got

    def order(self):
        """The group's order: from the first verified chain held, else the
        order given to the constructor, else from the plain chain."""
        if self._verified is None and self._known_order is not None:
            return self._known_order
        return (self._verified or self.chain).order()

    @property
    def is_trivial(self):
        return not self.generators

    def contains(self, g):
        return (self._verified or self.chain).contains(g)

    __contains__ = contains

    def sift(self, g):
        return self.chain.sift(g)

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
            stab._verified = StabilizerChain(self.degree)
            stab._verified.levels = chain.levels[k:]
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
