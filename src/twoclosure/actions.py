"""Coset actions, their equivalence, and minimal block systems.

Cosets are indexed from 0 with coset 0 the subgroup itself.  Block
systems are canonical: blocks sorted internally and ordered by least
element, so the block containing point 0 comes first.  The minimal
systems of a transitive group are the finest congruences through pairs
of points; the group is primitive exactly when there are none.
"""

from __future__ import annotations

from .backtrack import conjugating_element_for_subgroup
from .errors import (BudgetExceededError, GroupError, NotTransitiveError)
from .group import PermGroup, orbits_of
from .perm import Permutation

DEGREE_BUDGET = 10 ** 5


class CosetAction:
    """The right-multiplication action of parent on cosets of stabilizer."""

    def __init__(self, parent, stabilizer, image, image_gens, coset_reps,
                 inv_images, horbit_id, table):
        self.parent = parent
        self.stabilizer = stabilizer
        self.image = image
        self._image_gens = image_gens
        self.coset_reps = coset_reps
        self._inv_images = inv_images
        self._horbit_id = horbit_id
        self._table = table
        self._kernel = None

    @property
    def degree(self):
        return len(self.coset_reps)

    def _signature(self, inv):
        horbit = self._horbit_id
        return tuple(horbit[p] for p in inv)

    def _lookup(self, y):
        """The index of the coset holding the group element y."""
        y_images = y.images
        y_inv = y.inverse().images
        for idx in self._table.get(self._signature(y_inv), ()):
            rep_inv = self._inv_images[idx]
            z = Permutation(rep_inv[v] for v in y_images)
            if self.stabilizer.contains(z):
                return idx
        raise GroupError("element lies in no coset; not in the parent group")

    def act(self, g):
        """The permutation of cosets induced by an element of the parent."""
        return Permutation(self._lookup(rep * g) for rep in self.coset_reps)

    @property
    def kernel(self):
        """The core of the stabilizer: elements acting trivially on cosets."""
        if self._kernel is None:
            self._kernel = _hom_kernel(self.parent, self.image,
                                       self._image_gens)
        return self._kernel

    @property
    def faithful(self):
        return self.kernel.order() == 1


def _hom_kernel(G, image, image_gens):
    """Kernel of the homomorphism sending G's generators to image_gens,
    which generate the group image.

    Works on the disjoint union of the two domains: fixing a base of
    the image pointwise cuts the image side to the identity, and what
    remains, read on G's domain, is the kernel.
    """
    n = G.degree
    ext_gens = [Permutation(list(g.images) + [n + v for v in h.images])
                for g, h in zip(G.generators, image_gens)]
    ext = PermGroup(n + image.degree, ext_gens, seed=G.seed)
    hint = [n + b for b in image.chain.base()]
    stab = ext.pointwise_stabilizer(hint)
    kernel_gens = [Permutation(g.images[:n]) for g in stab.generators]
    return PermGroup(n, kernel_gens, seed=G.seed)


def coset_action(G, H, degree_budget=DEGREE_BUDGET):
    """The action of G on right cosets of H, with explicit coset data."""
    for h in H.generators:
        if not G.contains(h):
            raise GroupError("the point subgroup does not lie in the group")
    n = G.degree
    horbit_id = [0] * n
    for orb in orbits_of(H.generators, n):
        for p in orb:
            horbit_id[p] = orb[0]
    identity = Permutation.identity(n)
    reps = [identity]
    inv_images = [tuple(range(n))]
    table = {tuple(horbit_id): [0]}
    gen_targets = [[] for _ in G.generators]
    k = 0
    while k < len(reps):
        rep = reps[k]
        for gi, g in enumerate(G.generators):
            y = rep * g
            y_inv_images = y.inverse().images
            sig = tuple(horbit_id[p] for p in y_inv_images)
            found = None
            for idx in table.get(sig, ()):
                z = Permutation(inv_images[idx][v] for v in y.images)
                if H.contains(z):
                    found = idx
                    break
            if found is None:
                found = len(reps)
                if found > degree_budget:
                    raise BudgetExceededError(
                        f"coset count exceeds degree budget {degree_budget}")
                reps.append(y)
                inv_images.append(y_inv_images)
                table.setdefault(sig, []).append(found)
            gen_targets[gi].append(found)
        k += 1
    image_gens = [Permutation(col) for col in gen_targets]
    image = PermGroup(len(reps), image_gens, seed=G.seed)
    return CosetAction(G, H, image, image_gens, reps, inv_images, horbit_id,
                       table)


class BlockSystem:
    """A G-invariant partition into blocks of equal size."""

    def __init__(self, blocks):
        blocks = sorted(tuple(sorted(b)) for b in blocks)
        self.blocks = tuple(blocks)
        self.s = len(blocks)
        self.b = len(blocks[0]) if blocks else 0
        sizes = {len(b) for b in blocks}
        if len(sizes) > 1:
            raise GroupError("blocks of unequal size")
        self.degree = self.s * self.b
        covered = sorted(p for block in self.blocks for p in block)
        if covered != list(range(self.degree)):
            raise GroupError("blocks do not tile 0..n-1")
        self.block_of = [0] * self.degree
        for i, block in enumerate(self.blocks):
            for p in block:
                self.block_of[p] = i

    def __eq__(self, other):
        return isinstance(other, BlockSystem) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"BlockSystem({self.s} blocks of {self.b})"

    def is_trivial(self):
        return self.s == 1 or self.b == 1


def minimal_block_partition(G, a, b):
    """The finest G-congruence identifying points a and b (Atkinson)."""
    n = G.degree
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = [(a, b)]
    while queue:
        x, y = queue.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        if rx > ry:
            rx, ry = ry, rx
        parent[ry] = rx
        for g in G.generators:
            queue.append((g.images[rx], g.images[ry]))
    cells = {}
    for p in range(n):
        cells.setdefault(find(p), []).append(p)
    return BlockSystem(cells.values())


def minimal_block_systems(G):
    """All minimal nontrivial block systems; empty iff G is primitive."""
    if not G.is_transitive():
        raise NotTransitiveError("block systems need a transitive group")
    candidates = []
    for p in range(1, G.degree):
        system = minimal_block_partition(G, 0, p)
        if not system.is_trivial() and system not in candidates:
            candidates.append(system)
    out = []
    for system in candidates:
        refined = False
        for other in candidates:
            if other is not system and _refines(other, system):
                refined = True
                break
        if not refined:
            out.append(system)
    return sorted(out, key=lambda s: (s.b, s.blocks))


def _refines(fine, coarse):
    """Whether every block of fine lies inside a block of coarse."""
    if fine.b >= coarse.b:
        return False
    return all(len({coarse.block_of[p] for p in block}) == 1
               for block in fine.blocks)


def permutationally_equivalent(G, first, second, node_budget=200000):
    """Whether two transitive actions of G are the same up to relabeling.

    Actions may be given as CosetAction objects or as subgroups of G
    (read as the action on their cosets).  Equivalence holds iff the two
    point stabilizers are conjugate in G.  Returns True, False, or None
    when the conjugacy search ran out of budget; callers must treat None
    as inequivalent to stay sound.
    """
    H1 = first.stabilizer if isinstance(first, CosetAction) else first
    H2 = second.stabilizer if isinstance(second, CosetAction) else second
    for H in (H1, H2):
        for h in H.generators:
            if not G.contains(h):
                raise GroupError("stabilizer does not lie in the group")
    if H1.order() != H2.order():
        return False
    if H1.equals(H2):
        return True
    try:
        g = conjugating_element_for_subgroup(G, H1, H2,
                                             node_budget=node_budget)
    except BudgetExceededError:
        return None
    return g is not None
