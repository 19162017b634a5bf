"""Block-system tools for 2-closure computations.

A transitive group G with a nontrivial invariant partition embeds in
the wreath product R wr L, where L is the induced action on the set of
blocks and R is the action of a block stabilizer M on its block Delta.
When M is core-free, so that G acts faithfully on the blocks, the part
of the 2-closure that fixes every block setwise is pinned down by local
conditions: a block-by-block tuple of permutations lies in the closure
exactly when every coordinate preserves the orbit structure of R on
Delta x Delta and every coordinate pair preserves the orbits of the
corresponding two-block stabilizer on the product of its two blocks.

This module builds that block kernel N from the pairwise filters; no
decision path imports it.  A nontrivial N has a common orbit length on
the first block that divides every two-block stabilizer order, so their
gcd, ``basesize.two_point_stabilizer_gcd`` of the block image, bounds it.

The pairwise constraint filters are independent of one another, so they
could be evaluated in any order or concurrently; the fixed sequential
order used here is one deterministic schedule of that computation, and
every result is independent of the schedule.
"""

from dataclasses import dataclass

from .actions import BlockSystem, induce_on_blocks
from .closure import closure_membership, two_closure
from .constructions import symmetric
from .errors import (BudgetExceededError, GroupError, NotCoreFreeError,
                     NotTransitiveError)
from .group import PermGroup
from .orbital import OrbitalPartition
from .perm import Permutation


class ReductionContext:
    """The data of a faithful imprimitive action, ready for block work.

    Fields: group (G, transitive on the points), system (the invariant
    partition), block_image (L, the faithful action on blocks),
    block_stabilizer (M, the setwise stabilizer of the first block),
    point_stabilizer (H, the stabilizer of the least point),
    within_block (R, the action of M on its block), block_closure
    (Y, the 2-closure of R, or the full symmetric group on the block
    as a certified overgroup when the closure search ran out of
    budget; block_closure_exact records which).

    Block coordinates are identified across blocks through a fixed
    transversal, one group element per block carrying the first block
    onto it, so that "the same permutation on two blocks" is
    meaningful.
    """

    def __init__(self, group, system, block_image, block_stabilizer,
                 point_stabilizer, within_block, block_closure,
                 block_closure_exact, transversals):
        self.group = group
        self.system = system
        self.block_image = block_image
        self.block_stabilizer = block_stabilizer
        self.point_stabilizer = point_stabilizer
        self.within_block = within_block
        self.block_closure = block_closure
        self.block_closure_exact = block_closure_exact
        self.transversals = tuple(transversals)
        self._transversal_inv = tuple(t.inverse() for t in self.transversals)
        delta = system.blocks[0]
        self._pt = []
        self._pos = []
        for t in self.transversals:
            points = [t.images[p] for p in delta]
            self._pt.append(points)
            self._pos.append({p: c for c, p in enumerate(points)})
        self._block_gen_images = [
            [system.block_of[g.images[block[0]]] for block in system.blocks]
            for g in group.generators]
        self._ext = None
        self._reps = None
        self._m_reach = None
        self._pair_stabs = {}
        self._pair_groups = {}
        self._transport_cache = {}

    def __repr__(self):
        return (f"ReductionContext({self.system.s} blocks of "
                f"{self.system.b}, group order {self.group.order()})")

    def rep_blocks(self):
        """One block index per M-orbit on the blocks other than the
        first."""
        if self._reps is None:
            stab = self.block_image.point_stabilizer(0)
            self._reps = sorted(orb[0] for orb in stab.orbits()
                                if 0 not in orb)
        return self._reps

    def _reach(self):
        if self._m_reach is None:
            images = []
            for m in self.block_stabilizer.generators:
                images.append([self.system.block_of[m.images[block[0]]]
                               for block in self.system.blocks])
            reach = {}
            for rep in self.rep_blocks():
                reach[rep] = (rep,
                              Permutation.identity(self.group.degree))
                frontier = [rep]
                while frontier:
                    new = []
                    for k in frontier:
                        _, elem = reach[k]
                        for m, img in zip(self.block_stabilizer.generators,
                                          images):
                            k2 = img[k]
                            if k2 not in reach:
                                reach[k2] = (rep, elem * m)
                                new.append(k2)
                    frontier = new
            self._m_reach = reach
        return self._m_reach

    def _extended(self):
        """The group acting on points plus blocks, for stabilizer work."""
        if self._ext is None:
            n = self.group.degree
            gens = []
            for g, img in zip(self.group.generators,
                              self._block_gen_images):
                gens.append(Permutation(tuple(g.images)
                                        + tuple(n + t for t in img)))
            self._ext = PermGroup(n + self.system.s, gens,
                                  seed=self.group.seed)
        return self._ext

    def pair_stabilizer(self, j):
        """The subgroup stabilizing both the first block and block j."""
        got = self._pair_stabs.get(j)
        if got is None:
            n = self.group.degree
            stab = self._extended().pointwise_stabilizer([n, n + j])
            gens = [Permutation(g.images[:n]) for g in stab.generators]
            got = PermGroup(n, gens, seed=self.group.seed)
            self._pair_stabs[j] = got
        return got

    def coordinate(self, x, i, k):
        """The permutation of block coordinates induced by an element
        carrying block i onto block k."""
        b = self.system.b
        pos_k = self._pos[k]
        pt_i = self._pt[i]
        img = [0] * b
        for c in range(b):
            cc = pos_k.get(x.images[pt_i[c]])
            if cc is None:
                raise GroupError(
                    f"element does not map block {i} onto block {k}")
            img[c] = cc
        return Permutation(img)

    def pair_group(self, j):
        """The two-block stabilizer acting on its two blocks, in
        identified coordinates: the first block on positions 0..b-1 and
        block j on positions b..2b-1."""
        got = self._pair_groups.get(j)
        if got is None:
            b = self.system.b
            gens = []
            for m in self.pair_stabilizer(j).generators:
                first = self.coordinate(m, 0, 0)
                second = self.coordinate(m, j, j)
                gens.append(Permutation(
                    tuple(first.images)
                    + tuple(b + t for t in second.images)))
            got = PermGroup(2 * b, gens, seed=self.group.seed)
            self._pair_groups[j] = got
        return got

    def transport(self, i, j):
        """Conjugation data carrying the constraint on blocks (i, j)
        back to the representative pair (0, rep): returns (rep, r1,
        r1_inv, r2, r2_inv) with the r's as image tuples on the block,
        so that a coordinate pair (y_i, y_j) satisfies the (i, j)
        constraint exactly when (r1^-1 y_i r1, r2^-1 y_j r2) satisfies
        the representative one."""
        key = (i, j)
        got = self._transport_cache.get(key)
        if got is None:
            if i == j:
                raise GroupError("transport needs two distinct blocks")
            ti_inv = self._transversal_inv[i]
            k = self.system.block_of[
                ti_inv.images[self.system.blocks[j][0]]]
            rep, m = self._reach()[k]
            r1 = self.coordinate(m, 0, 0)
            w = (self.transversals[rep] * m * self.transversals[i]
                 * self._transversal_inv[j])
            r2 = self.coordinate(w, 0, 0)
            got = (rep, tuple(r1.images), tuple(r1.inverse().images),
                   tuple(r2.images), tuple(r2.inverse().images))
            self._transport_cache[key] = got
        return got

    def block_fixing_element(self, coords):
        """The permutation acting as coords[k] inside block k, in the
        identified coordinates, and fixing every block setwise."""
        img = [0] * self.group.degree
        for k in range(self.system.s):
            yk = coords[k]
            pt = self._pt[k]
            for c in range(self.system.b):
                img[pt[c]] = pt[yk[c]]
        return Permutation(img)


def imprimitive_context(G, system, node_budget=None):
    """Build a ReductionContext for G over the given block system.

    The partition must be nontrivial and G-invariant, and the kernel of
    the action on blocks must be trivial (the block stabilizer is
    core-free); otherwise NotCoreFreeError is raised, because the
    block kernel below leans on that faithfulness.
    """
    if not isinstance(system, BlockSystem):
        system = BlockSystem(system)
    if system.degree != G.degree:
        raise GroupError("block system degree does not match the group")
    if not G.is_transitive():
        raise NotTransitiveError("the reduction needs a transitive group")
    if system.is_trivial():
        raise GroupError("the partition must be nontrivial")
    induced = induce_on_blocks(G, system)
    if induced.kernel.order() > 1:
        raise NotCoreFreeError(
            "the action on blocks has kernel of order "
            f"{induced.kernel.order()}; the block stabilizer must be "
            "core-free")
    R = induced.within_block
    res = two_closure(R, node_budget=node_budget)
    if res.certified:
        Y = res.closure
        exact = True
    else:
        Y = symmetric(system.b, seed=G.seed)
        exact = False
    block_maps = [[system.block_of[g.images[block[0]]]
                   for block in system.blocks] for g in G.generators]
    transversals = {0: Permutation.identity(G.degree)}
    frontier = [0]
    while frontier:
        new = []
        for k in frontier:
            elem = transversals[k]
            for g, img in zip(G.generators, block_maps):
                k2 = img[k]
                if k2 not in transversals:
                    transversals[k2] = elem * g
                    new.append(k2)
        frontier = new
    return ReductionContext(
        group=G, system=system, block_image=induced.block_image,
        block_stabilizer=induced.block_stabilizer,
        point_stabilizer=G.point_stabilizer(system.blocks[0][0]),
        within_block=R, block_closure=Y, block_closure_exact=exact,
        transversals=[transversals[k] for k in range(system.s)])


def _conj(y, r, r_inv):
    """Images of r^-1 * y * r, all three given as image tuples."""
    return tuple(r[y[r_inv[a]]] for a in range(len(y)))


def _filter_pairs(K, Y):
    """All pairs (u, v) of Y-elements, as image tuples, whose product
    action fixes every K-orbit on block-pair products setwise."""
    b = Y.degree
    color = [[-1] * b for _ in range(b)]
    gens = []
    for g in K.generators:
        first = g.images[:b]
        second = [t - b for t in g.images[b:]]
        gens.append((first, second))
    next_color = 0
    for a0 in range(b):
        for c0 in range(b):
            if color[a0][c0] >= 0:
                continue
            color[a0][c0] = next_color
            frontier = [(a0, c0)]
            while frontier:
                new = []
                for a, c in frontier:
                    for first, second in gens:
                        a2, c2 = first[a], second[c]
                        if color[a2][c2] < 0:
                            color[a2][c2] = next_color
                            new.append((a2, c2))
                frontier = new
            next_color += 1
    elems = sorted(tuple(p.images) for p in Y.elements())
    cols = [tuple(color[a][c] for a in range(b)) for c in range(b)]
    out = set()
    for u in elems:
        by_print = {}
        for cp in range(b):
            fp = tuple(color[u[a]][cp] for a in range(b))
            by_print.setdefault(fp, set()).add(cp)
        allowed = []
        for c in range(b):
            targets = by_print.get(cols[c])
            if not targets:
                allowed = None
                break
            allowed.append(targets)
        if allowed is None:
            continue
        for v in elems:
            if all(v[c] in allowed[c] for c in range(b)):
                out.add((u, v))
    return out


def product_one_closure_filter(K, Y):
    """The subgroup of Y x Y fixing setwise every K-orbit on the
    product of the two blocks.

    K acts on the disjoint union of the two blocks (positions 0..b-1
    and b..2b-1) and must preserve both halves; Y acts transitively on
    one block.  The result acts on the same 2b points, the first
    component on the first half and the second on the second.
    """
    b = Y.degree
    if K.degree != 2 * b:
        raise GroupError("the pair group must act on two blocks")
    for g in K.generators:
        if any(g.images[a] >= b for a in range(b)):
            raise GroupError("the pair group must preserve both blocks")
    if not Y.is_transitive():
        raise NotTransitiveError("the block group must be transitive")
    pairs = _filter_pairs(K, Y)
    gens = [Permutation(u + tuple(b + t for t in v))
            for u, v in sorted(pairs)]
    return PermGroup(2 * b, gens, seed=Y.seed)


@dataclass
class BlockKernel:
    """The block-fixing part N of the 2-closure.

    block_part is the projection A of N to the first block and
    orbit_length the common length of the A-orbits there (None if they
    split unevenly, which cannot happen over a 2-closed block image).
    """

    group: PermGroup
    block_part: PermGroup
    orbit_length: int | None

    def report(self):
        return {
            "order": self.group.order(),
            "block part order": self.block_part.order(),
            "orbit length": self.orbit_length,
        }


def closure_block_kernel(ctx, block_budget=64, element_budget=20000):
    """The group of all 2-closure elements fixing every block setwise.

    Assembled from the pairwise filters: representative filters are
    computed once per M-orbit of blocks and carried to the remaining
    pairs by conjugation.  The result is exact whatever the closure of
    the block image is; when that image is additionally 2-closed, the
    closure of G is the semidirect product of this kernel with G.

    Raises BudgetExceededError when the block count or the number of
    explored coordinate tuples exceeds the budgets.
    """
    s = ctx.system.s
    if s > block_budget:
        raise BudgetExceededError(
            f"{s} blocks exceed the block budget {block_budget}")
    Y = ctx.block_closure
    if Y.order() > element_budget:
        raise BudgetExceededError(
            "the block closure is larger than the element budget")
    elems = sorted(tuple(p.images) for p in Y.elements())
    if ctx.block_closure_exact:
        ok = elems
    else:
        R = ctx.within_block
        part = OrbitalPartition(R)
        ok = [e for e in elems
              if closure_membership(R, Permutation(e), part)]
    okset = set(ok)
    pair_sets = {}
    fibers = {}
    for j in ctx.rep_blocks():
        pairs = {(u, v) for u, v in _filter_pairs(ctx.pair_group(j), Y)
                 if u in okset and v in okset}
        pair_sets[j] = pairs
        fib = {}
        for u, v in sorted(pairs):
            fib.setdefault(u, []).append(v)
        fibers[j] = fib
    found = []
    budget = [element_budget]

    def extend(partial):
        t = len(partial)
        if t == s:
            found.append(tuple(partial))
            return
        rep, r1, r1i, r2, r2i = ctx.transport(0, t)
        u = _conj(partial[0], r1, r1i)
        for v in fibers[rep].get(u, ()):
            cand = _conj(v, r2i, r2)
            budget[0] -= 1
            if budget[0] < 0:
                raise BudgetExceededError(
                    "kernel assembly exceeded the element budget")
            good = True
            for i in range(1, t):
                rep2, q1, q1i, q2, q2i = ctx.transport(i, t)
                pair = (_conj(partial[i], q1, q1i), _conj(cand, q2, q2i))
                if pair not in pair_sets[rep2]:
                    good = False
                    break
            if good:
                extend(partial + [cand])

    for y0 in ok:
        budget[0] -= 1
        if budget[0] < 0:
            raise BudgetExceededError(
                "kernel assembly exceeded the element budget")
        extend([y0])
    N = PermGroup(ctx.group.degree,
                  [ctx.block_fixing_element(t) for t in found],
                  seed=ctx.group.seed)
    if N.order() != len(found):
        raise GroupError("internal inconsistency: the filtered tuples "
                         "do not form a group")
    A = PermGroup(ctx.system.b, [Permutation(t[0]) for t in found],
                  seed=ctx.group.seed)
    lens = {len(orb) for orb in A.orbits()}
    return BlockKernel(N, A, lens.pop() if len(lens) == 1 else None)

